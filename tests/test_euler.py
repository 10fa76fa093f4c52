"""Circle fields as incompressible planar flows: divergence, pressure, measures."""
import warnings

import numpy as np
import pytest

from coneflow import (
    AnnulusGrid,
    CHTrajectory,
    ConeParams,
    FlowPath,
    GroupElement,
    PeriodicGrid,
    PolarVectorField,
    VelocityPair,
    ch_solve,
    euler_residual,
    flow_map,
    geodesic_form_consistency,
    hessian_certificate,
    lagrangian_measure_check,
    make_perturbation_family,
    minimality_test,
    polar_velocity,
    pressure_from_state,
    second_fundamental_form,
    weighted_divergence,
)
from ch_reference import shifted, traveling_flow, traveling_wave

GRID = PeriodicGrid(128)
ANNULUS = AnnulusGrid(GRID, np.array([0.5, 1.0, 2.0]))


def interior_slices(traj):
    # u and its pressure-free balances (centered u_dot), one slice at a time
    grid = traj.grid
    for j in range(1, len(traj.times) - 1):
        u = traj.u[j]
        u_dot = (traj.u[j + 1] - traj.u[j - 1]) / (2.0 * traj.dt)
        ux = grid.deriv(u)
        alpha = 0.5 * ux
        angular = u_dot + 2.0 * u * ux
        radial = (0.5 * grid.deriv(u_dot) + u * grid.deriv(alpha)
                  + alpha ** 2 - u ** 2)
        yield j, u, angular, radial


def reference_euler_residual(traj, agrid):
    """Per-slice loop form of euler_residual."""
    res_theta, res_r, max_div = [], [], 0.0
    for _, u, angular, radial in interior_slices(traj):
        p = pressure_from_state(traj.grid, u)
        res_theta.append(np.max(np.abs(angular + 0.5 * traj.grid.deriv(p))))
        res_r.append(np.max(np.abs(radial + p)))
        div = weighted_divergence(polar_velocity(agrid, u))
        max_div = max(max_div, float(np.max(np.abs(div))))
    res_theta, res_r = np.array(res_theta), np.array(res_r)
    max_mom = float(np.max(agrid.radii)) * float(
        max(np.max(res_theta), np.max(res_r)))
    return traj.times[1:-1], max_mom, max_div, res_theta, res_r


def reference_form_gaps(traj, path):
    """Per-slice loop form of geodesic_form_consistency; p cancels."""
    grid, dt = traj.grid, traj.dt
    angular_gap = radial_gap = 0.0
    for j, _, angular, radial in interior_slices(traj):
        phi_m, phi_0, phi_p = path.phi[j - 1], path.phi[j], path.phi[j + 1]
        lam_m, lam_0, lam_p = (path.lam_ode[j - 1], path.lam_ode[j],
                               path.lam_ode[j + 1])
        phi_dot = (phi_p - phi_m) / (2.0 * dt)
        phi_ddot = (phi_p - 2.0 * phi_0 + phi_m) / dt ** 2
        lam_dot = (lam_p - lam_m) / (2.0 * dt)
        lam_ddot = (lam_p - 2.0 * lam_0 + lam_m) / dt ** 2
        lag_theta = phi_ddot + 2.0 * (lam_dot / lam_0) * phi_dot
        lag_rad = lam_ddot - lam_0 * phi_dot ** 2
        eul_theta = grid.trig_eval(angular, phi_0)
        eul_rad = lam_0 * grid.trig_eval(radial, phi_0)
        angular_gap = max(angular_gap,
                          float(np.max(np.abs(lag_theta - eul_theta))))
        radial_gap = max(radial_gap, float(np.max(np.abs(lag_rad - eul_rad))))
    return traj.times[1:-1], angular_gap, radial_gap


def reference_hessian_certificate(traj):
    """Per-slice loop form of hessian_certificate, over every slice."""
    grid = traj.grid
    c_max = 0.0
    for u in traj.u:
        p = pressure_from_state(grid, u)
        px = grid.deriv(p)
        pxx = grid.deriv(p, 2)
        tr = 0.5 * pxx + p
        det = 0.5 * pxx * p - px * px
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        eig = np.maximum(np.abs(0.5 * (tr + disc)), np.abs(0.5 * (tr - disc)))
        c_max = max(c_max, float(np.max(eig)))
    return c_max, (np.inf if c_max == 0.0 else np.pi / np.sqrt(c_max))


def test_weighted_divergence_vanishes_for_mapped_fields():
    # profiles (u, u_x/2): the weighted divergence cancels exactly
    rng = np.random.default_rng(40)
    for _ in range(5):
        u = np.zeros(GRID.n)
        for k in range(1, 7):
            u += (rng.normal() * np.cos(k * GRID.x)
                  + rng.normal() * np.sin(k * GRID.x)) / k
        div = weighted_divergence(polar_velocity(ANNULUS, u))
        assert np.max(np.abs(div)) == 0.0


def test_weighted_divergence_detects_wrong_radial_part():
    # w = (sin x, 0.3 cos x): r^-4 (d_x w_theta - 2 w_r) = 0.4 cos x / r^4
    # at each radius, for one profile and for a batch of two.  n = 16 keeps
    # the FFT derivative's rounding (1.5e-14 at n = 128) below the bound
    grid = PeriodicGrid(16)
    agrid = AnnulusGrid(grid, np.array([0.5, 1.0, 2.0]))
    s, c = np.sin(grid.x), np.cos(grid.x)
    for shape in ((16,), (2, 16)):
        div = weighted_divergence(PolarVectorField(
            agrid, np.broadcast_to(s, shape), np.broadcast_to(0.3 * c, shape)))
        assert div.shape == (3,) + shape
        for row, r in zip(div, agrid.radii):
            want = 0.4 * c / r ** 4
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


def test_batched_polar_velocity_equals_the_per_slice_fields():
    traj = ch_solve(GRID, 0.2 * np.sin(GRID.x), 0.01, 1e-3)
    field = polar_velocity(ANNULUS, traj.u)
    div = weighted_divergence(field)
    assert field.w_theta.shape == (len(traj.times), GRID.n)
    assert div.shape == (3, len(traj.times), GRID.n)
    for j, u in enumerate(traj.u):
        one = polar_velocity(ANNULUS, u)
        assert np.array_equal(field.w_theta[j], one.w_theta)
        assert np.array_equal(field.w_r[j], one.w_r)
        assert np.array_equal(div[:, j], weighted_divergence(one))


def test_pressure_is_the_second_fundamental_form_pressure():
    # p from u alone equals the isotropy orbit's II pressure at (u, u_x/2)
    rng = np.random.default_rng(17)
    for n in (64, 256):
        grid = PeriodicGrid(n)
        for _ in range(5):
            u = rng.normal()
            for k in range(1, 7):
                u = u + (rng.normal() * np.cos(k * grid.x)
                         + rng.normal() * np.sin(k * grid.x)) / k
            xi = VelocityPair(grid, u, 0.5 * grid.deriv(u))
            p = pressure_from_state(grid, u)
            ii = second_fundamental_form(xi, xi).pressure
            assert np.max(np.abs(p - ii)) < 1e-14 * np.max(np.abs(p))


@pytest.mark.parametrize("u0", [lambda x: 0.2 * np.sin(x),
                                lambda x: 0.2 * np.sin(x)
                                + 0.1 * np.cos(2 * x) + 0.3],
                         ids=["sine", "sine-plus-mean"])
def test_both_momentum_residuals_are_second_order_in_dt(u0):
    # with p computed from u, the radial balance is an independent check:
    # it is nonzero and, like the angular one, decays as dt^2
    maxima = []
    for dt in (2e-3, 1e-3):
        traj = ch_solve(GRID, u0(GRID.x), 0.2, dt)
        rep = euler_residual(traj, ANNULUS)
        assert np.all(rep.residual_r > 0)
        maxima.append((np.max(rep.residual_theta), np.max(rep.residual_r)))
    ratios = np.array(maxima[0]) / np.array(maxima[1])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_rigid_rotation_pressure_is_speed_squared():
    c = 0.7
    p = pressure_from_state(GRID, c * np.ones(GRID.n))
    assert np.max(np.abs(p - c ** 2)) < 1e-12


def test_rotation_momentum_residual_vanishes():
    traj = ch_solve(GRID, 0.7 * np.ones(GRID.n), 0.1, 1e-2)
    rep = euler_residual(traj, ANNULUS)
    assert rep.max_momentum_residual < 1e-12
    assert rep.max_div == 0.0


def test_momentum_residual_small_along_reference_run():
    traj = ch_solve(GRID, 0.2 * np.sin(GRID.x), 0.3, 1e-3)
    rep = euler_residual(traj, ANNULUS)
    # centered time differences on an RK4 trajectory: O(dt^2) residual
    assert rep.max_momentum_residual < 1e-5
    assert rep.max_div == 0.0
    assert len(rep.residual_theta) == len(rep.times)


def test_lagrangian_measure_preservation():
    traj = ch_solve(GRID, 0.2 * np.sin(GRID.x), 0.5, 1e-3)
    path = flow_map(traj)
    rep = lagrangian_measure_check(path)
    assert rep.det_residual < 1e-10
    assert rep.pushforward_residual < 1e-10
    # radius-explicit recomputation agrees with the radius-free condition
    assert rep.equivalence_gap < 1e-12
    for radii in ([], [np.nan], [-1.0]):
        with pytest.raises(ValueError, match="radii"):
            lagrangian_measure_check(path, radii)


@pytest.mark.parametrize("amplitude", [0.1, 0.3])
def test_euler_diagnostics_on_the_exact_traveling_wave(amplitude):
    # the exact wave U(x - c t) and its exact Lagrangian flow, which run
    # none of the package's arithmetic: the momentum residual and both form
    # gaps are the centered differences' alone, falling 4x per halving of
    # dt, and the flow preserves the measure to rounding
    grid = PeriodicGrid(64)
    annulus = AnnulusGrid(grid, np.array([0.5, 1.0, 2.0]))
    U, c, _ = traveling_wave(grid.n, amplitude)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        times = np.arange(round(0.2 / dt) + 1) * dt
        traj = CHTrajectory(grid, ConeParams(), dt, times,
                            np.array([shifted(U, c * t) for t in times]))
        phi, lam = traveling_flow(U, c, times)
        path = FlowPath(grid, times, phi, lam, lam, 0.0, np.min(lam) ** 2)
        forms = geodesic_form_consistency(traj, path)
        errors.append((euler_residual(traj, annulus).max_momentum_residual,
                       forms.angular_gap, forms.radial_gap))
        measure = lagrangian_measure_check(path)
        assert measure.det_residual <= 1e-12
        assert measure.pushforward_residual <= 1e-12
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1)), (errors, ratios)


def test_geodesic_form_consistency_gap_is_time_discretization():
    traj = ch_solve(GRID, 0.2 * np.sin(GRID.x), 0.3, 1e-3)
    path = flow_map(traj)
    rep = geodesic_form_consistency(traj, path)
    assert rep.angular_gap < 1e-6
    assert rep.radial_gap < 1e-6


def test_form_consistency_call_count_is_independent_of_slices(monkeypatch):
    # each Eulerian field is composed with phi in one batched call
    grid = PeriodicGrid(32)
    trajs = [ch_solve(grid, 0.2 * np.sin(grid.x), t, 1e-3)
             for t in (0.03, 0.3)]
    runs = [(traj, flow_map(traj)) for traj in trajs]
    assert [len(traj.times) for traj, _ in runs] == [31, 301]
    trig_eval = PeriodicGrid.trig_eval
    counts = []

    def counted(self, *args, **kwargs):
        counts[-1] += 1
        return trig_eval(self, *args, **kwargs)

    monkeypatch.setattr(PeriodicGrid, "trig_eval", counted)
    for traj, path in runs:
        counts.append(0)
        geodesic_form_consistency(traj, path)
    # one call per pressure-free balance; p cancels, so it is never composed
    assert counts == [2, 2]


def test_annulus_validation():
    # r^4 or r^-4 out of range: refused without a RuntimeWarning
    for radii in ([0.5, -1.0], [], [np.nan], [0.5, np.inf], [0.5, 1.0, np.nan],
                  [0.0], [1e100], [0.5, 1e-100], [1e80, 1.0], [1e-80]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="radii"):
                AnnulusGrid(GRID, np.array(radii))
    assert AnnulusGrid(GRID, np.array([1e-70, 1e70])).radii.size == 2
    # profiles are (..., n) with equal shapes; a u of the wrong length is
    # refused
    assert PolarVectorField(ANNULUS, np.zeros((2, GRID.n)),
                            np.zeros((2, GRID.n))).w_r.shape == (2, GRID.n)
    for bad in (np.zeros(()), np.zeros(GRID.n - 2),
                np.zeros((3, 4, GRID.n - 2))):
        with pytest.raises(ValueError, match="profiles"):
            PolarVectorField(ANNULUS, bad, bad)
    with pytest.raises(ValueError, match="profiles"):
        polar_velocity(ANNULUS, np.zeros(GRID.n + 1))
    with pytest.raises(ValueError, match="profiles"):
        PolarVectorField(ANNULUS, np.zeros((4, GRID.n)),
                         np.zeros((5, GRID.n)))


def test_vectorised_diagnostics_equal_the_per_slice_loops():
    # the fused pass changes only the loop structure, never the arithmetic
    grid = PeriodicGrid(64)
    agrid = AnnulusGrid(grid, np.array([0.5, 1.0, 2.0]))
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 0.3, 1e-3)
    path = flow_map(traj)
    rep = euler_residual(traj, agrid)
    times, max_mom, max_div, res_theta, res_r = reference_euler_residual(
        traj, agrid)
    assert np.array_equal(rep.times, times)
    assert rep.max_momentum_residual == max_mom
    assert rep.max_div == max_div
    assert np.array_equal(rep.residual_theta, res_theta)
    assert np.array_equal(rep.residual_r, res_r)
    forms = geodesic_form_consistency(traj, path)
    times, angular_gap, radial_gap = reference_form_gaps(traj, path)
    assert np.array_equal(forms.times, times)
    assert forms.angular_gap == angular_gap
    assert forms.radial_gap == radial_gap
    assert hessian_certificate(traj) == reference_hessian_certificate(traj)


def test_unit_coefficient_diagnostics_refuse_other_coefficients():
    # the pressure and the planar chart are those of (1, 1/2); at other
    # coefficients the residual would read 2e-2 and the window 17.8
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 0.2, 1e-3,
                    ConeParams(1.5, 0.3))
    family = make_perturbation_family(grid, traj.times, 2, seed=1)
    for call in (lambda: euler_residual(traj, AnnulusGrid(grid, [1.0])),
                 lambda: hessian_certificate(traj),
                 lambda: minimality_test(traj, family)):
        with pytest.raises(ValueError, match=r"\(a, b\) = \(1, 1/2\)"):
            call()
    # the kinematic identities hold at any coefficients
    path = flow_map(traj)
    assert lagrangian_measure_check(path).pushforward_residual < 1e-6
    geodesic_form_consistency(traj, path)


def test_euler_residual_needs_three_slices():
    traj = ch_solve(GRID, 0.1 * np.sin(GRID.x), 0.01, 0.01)
    with pytest.raises(ValueError, match="too short"):
        euler_residual(traj, ANNULUS)
