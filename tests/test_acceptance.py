"""End-to-end acceptance checks, one test per pinned guarantee.

Each test prints a one-line summary of the measured quantities so a
verbose run doubles as a numerical report.
"""
import numpy as np
import pytest

from coneflow import (
    AnnulusGrid,
    ConeParams,
    ConePoint,
    ConeTangent,
    DensityField,
    GroupElement,
    PeriodicGrid,
    VelocityPair,
    bump_density,
    ch_invariants,
    ch_solve,
    cone_distance,
    cone_geodesic,
    cone_l2_energy,
    cone_metric,
    euler_residual,
    flow_map,
    gauss_codazzi_sectional,
    hdiv_energy,
    hellinger_distance,
    hessian_certificate,
    horizontal_flow,
    horizontal_lift,
    lagrangian_measure_check,
    make_perturbation_family,
    minimality_test,
    pair_inner,
    path_action,
    planar_chart,
    polar_velocity,
    pressure_from_state,
    prox_action,
    second_fundamental_form,
    solve_wfr,
    vertical_horizontal_split,
    weighted_divergence,
)
from prox_oracle import brute_prox


@pytest.fixture(scope="module")
def reference_run():
    grid = PeriodicGrid(256)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 1.0, 1e-3)
    return grid, traj


@pytest.fixture(scope="module")
def reference_path(reference_run):
    _, traj = reference_run
    return flow_map(traj)


def test_cone_distance_chart_scaling_and_geodesics():
    params = ConeParams()
    rng = np.random.default_rng(90)
    n = 10_000
    x = rng.uniform(0, 2 * np.pi, (3, n))
    m = rng.uniform(0.05, 4.0, (3, n))
    pts = [[ConePoint(x[i, j], m[i, j]) for j in range(n)] for i in range(3)]

    # closed form against the flat chart (the default coefficients open the
    # cone into the full plane)
    chart_gap = 0.0
    for j in range(n):
        d = cone_distance(pts[0][j], pts[1][j], params)
        z0 = planar_chart(pts[0][j], params)
        z1 = planar_chart(pts[1][j], params)
        chart_gap = max(chart_gap, abs(d - float(np.hypot(*(z1 - z0)))))
    assert chart_gap < 1e-12

    # triangle inequality and sqrt-sigma mass scaling
    tri_gap = -np.inf
    scale_gap = 0.0
    for j in range(n):
        d01 = cone_distance(pts[0][j], pts[1][j], params)
        d12 = cone_distance(pts[1][j], pts[2][j], params)
        d02 = cone_distance(pts[0][j], pts[2][j], params)
        tri_gap = max(tri_gap, d02 - d01 - d12)
        for sigma in (0.25, 4.0):
            ds = cone_distance(ConePoint(x[0, j], sigma * m[0, j]),
                               ConePoint(x[1, j], sigma * m[1, j]), params)
            scale_gap = max(scale_gap, abs(ds - np.sqrt(sigma) * d01))
    assert tri_gap < 1e-12
    assert scale_gap < 1e-12

    # integrated geodesics end where the closed form says they must
    shots = [(0.0, 1.0, 0.0, 0.8), (1.0, 1.0, 1.0, 0.0),
             (2.0, 0.5, 0.7, -0.3)]
    for _ in range(20):
        shots.append((rng.uniform(0, 2 * np.pi), rng.uniform(0.3, 2.0),
                      rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)))
    end_gap = 0.0
    for x0, m0, dx0, dm0 in shots:
        p0 = ConePoint(x0, m0)
        v0 = ConeTangent(dx0, dm0)
        speed = np.sqrt(cone_metric(p0, v0, v0, params))
        if speed > 2.0 or speed < 1e-3:
            continue
        geo = cone_geodesic(p0, v0, 0.5, 1e-3, params)
        end_gap = max(end_gap, abs(cone_distance(p0, geo.endpoint, params)
                                   - speed * 0.5))
    assert end_gap < 1e-6
    print(f"cone: chart {chart_gap:.2e} triangle {tri_gap:.2e} "
          f"scaling {scale_gap:.2e} endpoints {end_gap:.2e}")


def test_solver_conservation_convergence_stationarity(reference_run):
    grid, traj = reference_run
    energy = np.empty(len(traj.times))
    momentum = np.empty(len(traj.times))
    for j in range(len(traj.times)):
        inv = ch_invariants(grid, traj.u[j], traj.params)
        energy[j] = inv["energy"]
        momentum[j] = inv["momentum_mean"]
    e_drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    # the initial profile has zero mean momentum, so drift is measured
    # against the unit scale instead of dividing by zero
    m_drift = float(np.max(np.abs(momentum - momentum[0]))
                    / max(abs(momentum[0]), 1.0))
    assert e_drift < 1e-8
    assert m_drift < 1e-8

    dt = 1e-3
    ref_grid = PeriodicGrid(1024)
    u0 = lambda g: 0.2 * np.sin(g.x) + 0.1 * np.cos(2 * g.x)
    ref = ch_solve(ref_grid, u0(ref_grid), 1.0, dt)
    errors = []
    for n in (64, 128, 256):
        g = PeriodicGrid(n)
        run = ch_solve(g, u0(g), 1.0, dt)
        errors.append(float(np.max(np.abs(run.u[-1]
                                          - ref.u[-1][::1024 // n]))))
    assert errors[1] < 1e-3 * errors[0]
    assert errors[2] < 1e-3 * errors[1] or errors[2] < 1e-13
    assert errors[-1] < 1e-12

    g = PeriodicGrid(128)
    const = ch_solve(g, 0.8 * np.ones(128), 1.0, 1e-3)
    still = float(np.max(np.abs(const.u - 0.8)))
    assert still < 1e-12
    print(f"pde: energy {e_drift:.2e} momentum {m_drift:.2e} "
          f"errors {errors} stationary {still:.2e}")


def test_path_energy_matches_eulerian_energy(reference_run, reference_path):
    # right-invariance: the squared speed of the flow path in the ambient
    # metric equals the instantaneous field energy, slice by slice
    grid, traj = reference_run
    path = reference_path
    worst = 0.0
    for j in range(len(traj.times)):
        u = traj.u[j]
        phi = path.phi[j]
        lam = path.lam[j]
        phi_dot = grid.trig_eval(u, phi)
        lam_dot = 0.5 * grid.trig_eval(grid.deriv(u), phi) * lam
        lhs = cone_l2_energy(GroupElement(grid, phi, lam), phi_dot, lam_dot,
                             traj.params)
        rhs = hdiv_energy(grid, u, traj.params)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-6
    print(f"isometry: max relative energy gap {worst:.2e} "
          f"over {len(traj.times)} slices")


def test_incompressible_correspondence(reference_run, reference_path):
    grid, traj = reference_run
    agrid = AnnulusGrid(grid, np.array([0.5, 1.0, 2.0]))

    rng = np.random.default_rng(91)
    div_gap = 0.0
    for _ in range(5):
        u = np.zeros(grid.n)
        for k in range(1, 7):
            u += (rng.normal() * np.cos(k * grid.x)
                  + rng.normal() * np.sin(k * grid.x)) / k
        div = weighted_divergence(polar_velocity(agrid, u))
        div_gap = max(div_gap, float(np.max(np.abs(div))))
    assert div_gap < 1e-10

    rep = euler_residual(traj, agrid)
    assert rep.max_div < 1e-10
    assert rep.max_momentum_residual < 1e-5

    c = 0.7
    p = pressure_from_state(grid, c * np.ones(grid.n))
    rot_gap = float(np.max(np.abs(p - c ** 2)))
    assert rot_gap < 1e-12
    rot = ch_solve(grid, c * np.ones(grid.n), 0.1, 1e-2)
    assert euler_residual(rot, agrid).max_momentum_residual < 1e-12

    meas = lagrangian_measure_check(reference_path)
    assert meas.det_residual < 1e-10
    assert meas.pushforward_residual < 1e-10
    assert meas.equivalence_gap < 1e-10
    print(f"euler: div {div_gap:.2e} momentum "
          f"{rep.max_momentum_residual:.2e} rotation {rot_gap:.2e} "
          f"det {meas.det_residual:.2e} measure "
          f"{meas.pushforward_residual:.2e}")


def test_transport_distance_properties_and_limits():
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    tol = 1e-7
    self_d = solve_wfr(b1, b1.copy(), 16, tol=tol).distance
    assert self_d < tol
    sym_gap = abs(solve_wfr(b1, b2, 16, tol=tol).distance
                  - solve_wfr(b2, b1, 16, tol=tol).distance)
    assert sym_gap < 2 * tol

    rng = np.random.default_rng(80)
    for _ in range(100):
        r0 = bump_density(pg, rng.uniform(0, 2 * np.pi),
                          rng.uniform(0.4, 1.2), rng.uniform(0.3, 2.0))
        r0 = r0 + rng.uniform(0, 0.3)
        r1 = bump_density(pg, rng.uniform(0, 2 * np.pi),
                          rng.uniform(0.4, 1.2), rng.uniform(0.3, 2.0))
        r1 = r1 + rng.uniform(0, 0.3)
        d = solve_wfr(r0, r1, 16, tol=1e-5).distance
        assert d <= hellinger_distance(pg, r0, r1)
        # 2b (sqrt m0 + sqrt m1) with 2b = 1 at the default coefficients
        assert d <= np.sqrt(pg.integrate(r0)) + np.sqrt(pg.integrate(r1))

    # uniform doubling: squared distance 2 pi (sqrt 2 - 1)^2
    target = 2 * np.pi * (np.sqrt(2.0) - 1.0) ** 2
    uniform_gaps = []
    for n in (32, 64, 128):
        res = solve_wfr(np.ones(n), 2.0 * np.ones(n), n, tol=1e-7)
        uniform_gaps.append(abs(res.distance ** 2 - target) / target)
        assert uniform_gaps[-1] < 1e-2

    # co-located bumps approach the pure-growth value 2b |sqrt m1 - sqrt m0|
    g = PeriodicGrid(128)
    growth_target = abs(np.sqrt(2.25) - 1.0)
    colocated_gaps = []
    for w in (0.4, 0.2, 0.1):
        res = solve_wfr(bump_density(g, np.pi, w, 1.0),
                        bump_density(g, np.pi, w, 2.25), 16, tol=3e-6,
                        max_iters=200_000)
        colocated_gaps.append(abs(res.distance - growth_target)
                              / growth_target)
        assert colocated_gaps[-1] < 2e-2

    # separated equal-mass bumps approach the two-point cone distance
    g = PeriodicGrid(192)
    c0, c1 = np.pi - np.pi / 8, np.pi + np.pi / 8
    dirac_target = cone_distance(ConePoint(c0, 1.0), ConePoint(c1, 1.0))
    separated_gaps = []
    for w in (0.32, 0.16, 0.08):
        res = solve_wfr(bump_density(g, c0, w, 1.0),
                        bump_density(g, c1, w, 1.0), 16, tol=3e-6,
                        max_iters=200_000)
        separated_gaps.append(abs(res.distance - dirac_target) / dirac_target)
    assert separated_gaps[0] > separated_gaps[1] > separated_gaps[2]
    assert separated_gaps[-1] < 2e-2
    print(f"wfr: self {self_d:.1e} sym {sym_gap:.1e} "
          f"uniform {max(uniform_gaps):.1e} "
          f"colocated {max(colocated_gaps):.1e} "
          f"separated {separated_gaps[-1]:.1e}")


def test_horizontal_flow_realizes_the_distance():
    grid = PeriodicGrid(128)
    rho = DensityField(grid, 1.0 + 0.3 * np.sin(grid.x))
    lift = horizontal_lift(rho, np.cos(grid.x) + 0.5 * np.sin(2 * grid.x))
    assert lift.residual < 1e-9
    xi = VelocityPair(grid, 0.4 * np.sin(2 * grid.x),
                      0.3 * np.cos(grid.x))
    split = vertical_horizontal_split(xi, rho)
    assert split.orthogonality_defect < 1e-9

    g64 = PeriodicGrid(64)
    rho0 = 1.0 + 0.3 * np.sin(g64.x)
    phi0 = 0.3 * np.cos(g64.x) + 0.2
    half = horizontal_flow(g64, rho0, phi0, 0.5, 1e-3)
    assert half.horizontality_defect < 1e-6
    flow = horizontal_flow(g64, rho0, phi0, 1.0, 1e-3)
    res = solve_wfr(flow.rho[0], flow.rho[-1], 64, tol=1e-6,
                    max_iters=400_000)
    action_gap = abs(flow.action - res.distance ** 2) / res.distance ** 2
    assert action_gap < 2e-2
    print(f"flow: lift {lift.residual:.1e} split "
          f"{split.orthogonality_defect:.1e} defect "
          f"{half.horizontality_defect:.1e} action gap {action_gap:.2%}")


def test_prox_against_independent_search():
    rng = np.random.default_rng(61)
    n = 10_000
    rho = rng.uniform(-1.0, 3.0, n)
    m = rng.normal(0, 1.5, n)
    mu = rng.normal(0, 1.5, n)
    gamma = 0.8
    rb, mb, ub = brute_prox(rho, m, mu, gamma)
    rp, mp, up = prox_action(rho, m, mu, gamma)
    prox_gap = max(np.max(np.abs(rb - rp)), np.max(np.abs(mb - mp)),
                   np.max(np.abs(ub - up)))
    assert prox_gap < 1e-6

    firm = -np.inf
    rng = np.random.default_rng(62)
    for _ in range(300):
        a = rng.normal(0, 2, 3)
        b = rng.normal(0, 2, 3)
        gam = float(rng.uniform(0.1, 3.0))
        pa = np.concatenate(prox_action(a[:1], a[1:2], a[2:], gam))
        pb = np.concatenate(prox_action(b[:1], b[1:2], b[2:], gam))
        firm = max(firm, float(np.sum((pa - pb) ** 2)
                               - np.dot(pa - pb, a - b)))
    assert firm < 1e-10
    print(f"prox: oracle gap {prox_gap:.2e} firm nonexpansiveness {firm:.2e}")


def test_rotation_minimality_certificate():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, np.ones(grid.n), 1.0, 1e-2)
    bound, window = hessian_certificate(traj)
    assert bound == pytest.approx(1.0, abs=1e-10)
    assert window == pytest.approx(np.pi, abs=1e-10)

    family = make_perturbation_family(grid, traj.times, 100, seed=11)
    report = minimality_test(traj, family, amplitudes=(1e-2, 1e-1))
    assert report.window_ok
    comp = np.asarray(report.competitor_actions)
    assert comp.shape[0] == 100
    margin = float(np.min(comp) - report.geodesic_action)
    assert margin > 0.0
    # the geodesic itself attains its action: equality holds only there
    path = flow_map(traj)
    own = path_action(grid, traj.times, path.phi, path.lam)
    assert own == pytest.approx(report.geodesic_action, rel=1e-12)
    print(f"minimality: window {window:.12f} competitors {comp.size} "
          f"margin {margin:.2e}")


def test_second_fundamental_form_certified_values():
    grid = PeriodicGrid(128)
    uniform = DensityField(grid, np.ones(grid.n))
    al = 0.6
    xi = VelocityPair(grid, np.zeros(grid.n), al * np.ones(grid.n))
    res = second_fundamental_form(xi, xi)
    const_gap = max(float(np.max(np.abs(res.pressure + al ** 2))),
                    float(np.max(np.abs(res.pair.v))),
                    float(np.max(np.abs(res.pair.alpha - al ** 2))))
    assert const_gap < 1e-15

    v = np.cos(grid.x) + 0.3 * np.sin(2 * grid.x)
    tangent = VelocityPair(grid, v, 0.5 * grid.deriv(v))
    form = second_fundamental_form(tangent, tangent)
    split = vertical_horizontal_split(form.pair, uniform)
    norm = np.sqrt(pair_inner(form.pair, form.pair, uniform))
    vert = np.sqrt(pair_inner(split.vertical, split.vertical, uniform))
    assert vert < 1e-9 * max(norm, 1e-12)

    values = []
    for n in (128, 256):
        g = PeriodicGrid(n)
        xi1 = VelocityPair(g, -0.5 * np.sin(g.x), np.cos(g.x))
        xi2 = VelocityPair(g, 0.5 * np.cos(g.x), np.sin(g.x))
        values.append(gauss_codazzi_sectional(xi1, xi2))
    stability = abs(values[0] - values[1])
    assert stability < 1e-6
    print(f"form: constant-gauge gap {const_gap:.2e} vertical part "
          f"{vert:.2e} refinement drift {stability:.2e}")
