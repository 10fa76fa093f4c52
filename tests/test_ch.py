"""Momentum-form evolution of the two-parameter family and its flow map."""
import numpy as np
import pytest

import coneflow.ch
import coneflow.grid
from coneflow import (
    CHBlowupError,
    CHTrajectory,
    ConeParams,
    PeriodicGrid,
    ch_invariants,
    ch_rhs,
    ch_solve,
    flow_map,
)
from coneflow.formats import read_trajectory_csv, write_trajectory_csv
from coneflow.grid import fourier_multipliers
from ch_reference import shifted, traveling_flow, traveling_wave
from dense_oracle import dense_diff_matrix
from rk4_oracle import tuple_pair_flow, tuple_rk4_step
from spectral_oracle import count_transforms, dealias


def manual_rhs(grid, u, params):
    # independent assembly: closed-form derivative matrix and explicit 2/3 mask
    d = dense_diff_matrix(grid.n)
    a2, b2 = params.a ** 2, params.b ** 2

    def mask(f):
        c = np.fft.rfft(f)
        k = np.arange(grid.n // 2 + 1)
        c[k > grid.n / 3.0] = 0.0
        return np.fft.irfft(c, n=grid.n)

    m = a2 * u - b2 * (d @ (d @ u))
    dm = -mask(u * (d @ m)) - 2.0 * mask((d @ u) * m)
    c = np.fft.rfft(dm)
    k = np.arange(grid.n // 2 + 1)
    return np.fft.irfft(c / (a2 + b2 * k * k), n=grid.n)


def test_rhs_matches_independent_assembly():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(30)
    params = ConeParams(1.3, 0.6)
    for _ in range(3):
        u = np.zeros(grid.n)
        for k in range(1, 6):
            u += (rng.normal() * np.cos(k * grid.x)
                  + rng.normal() * np.sin(k * grid.x)) / k
        rhs = np.fft.irfft(ch_rhs(grid, np.fft.rfft(u), params), n=grid.n)
        gap = np.max(np.abs(rhs - manual_rhs(grid, u, params)))
        assert gap < 1e-12


def test_rhs_matches_the_two_dealias_form():
    # one filter on u m_x + 2 u_x m: the 2/3 rule is linear.  The data fill
    # every mode below n/2, so the filter removes products above n/3.  The
    # grid changes on every call and the coefficients on every other, so a
    # multiplier cached under a stale key would show
    rng = np.random.default_rng(31)
    fields = {}
    for n in (64, 1024):
        grid = PeriodicGrid(n)
        fields[n] = np.zeros(n)
        for k in range(1, n // 2):
            fields[n] += (rng.normal() * np.cos(k * grid.x)
                          + rng.normal() * np.sin(k * grid.x)) / k ** 3
    for a, b in ((1.3, 0.6), (1.0, 0.5), (2.0, 0.5), (1.0, 1.0), (1.5, 0.3)):
        params = ConeParams(a, b)
        for n, u in fields.items():
            grid = PeriodicGrid(n)
            ux = grid.deriv(u)
            m = params.a ** 2 * u - params.b ** 2 * grid.deriv(u, 2)
            dm = -dealias(u * grid.deriv(m)) - 2.0 * dealias(ux * m)
            ref = grid.solve_helmholtz(dm, params.a, params.b)
            rhs = np.fft.irfft(ch_rhs(grid, np.fft.rfft(u), params), n=n)
            gap = np.max(np.abs(rhs - ref))
            assert gap < 1e-14 * np.max(np.abs(ref))


def test_constant_data_is_stationary():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, 0.8 * np.ones(grid.n), 1.0, 1e-2)
    assert np.max(np.abs(traj.u - 0.8)) < 1e-12


def test_energy_and_momentum_conserved():
    grid = PeriodicGrid(128)
    u0 = 0.2 * np.sin(grid.x)
    traj = ch_solve(grid, u0, 0.5, 1e-3)
    ref = ch_invariants(grid, u0)
    for j in (len(traj.times) // 2, len(traj.times) - 1):
        inv = ch_invariants(grid, traj.u[j])
        assert abs(inv["energy"] - ref["energy"]) < 1e-10 * ref["energy"]
        assert abs(inv["momentum_mean"] - ref["momentum_mean"]) < 1e-10


def test_invariant_values_on_sine():
    grid = PeriodicGrid(64)
    inv = ch_invariants(grid, np.sin(grid.x))
    # int sin^2 + (1/4) cos^2 = 5 pi / 4; momentum integrates to zero
    assert inv["energy"] == pytest.approx(1.25 * np.pi, abs=1e-12)
    assert inv["momentum_mean"] == pytest.approx(0.0, abs=1e-12)


def test_invariants_of_a_stack_equal_the_per_slice_values():
    grid = PeriodicGrid(64)
    params = ConeParams(1.5, 0.3)
    u = np.random.default_rng(8).normal(size=(6, grid.n))
    stacked = ch_invariants(grid, u, params)
    for key in ("energy", "momentum_mean"):
        assert stacked[key] == [ch_invariants(grid, row, params)[key]
                                for row in u]


def test_time_reversibility():
    # the right-hand side is quadratic in u, so the backward run from u is
    # the negation of the forward run from -u: run back from the end of a
    # forward run, it returns to u0
    grid = PeriodicGrid(128)
    u0 = 0.2 * np.sin(grid.x) + 0.05 * np.cos(2 * grid.x)
    fwd = ch_solve(grid, u0, 0.5, 1e-3)
    back = ch_solve(grid, -fwd.u[-1], 0.5, 1e-3)
    assert np.max(np.abs(-back.u[-1] - u0)) < 1e-9


def test_spectral_self_convergence():
    dt = 1e-3
    ref_grid = PeriodicGrid(1024)
    ref = ch_solve(ref_grid, 0.2 * np.sin(ref_grid.x)
                   + 0.1 * np.cos(2 * ref_grid.x), 1.0, dt)
    errors = []
    for n in (64, 128, 256):
        grid = PeriodicGrid(n)
        traj = ch_solve(grid, 0.2 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x),
                        1.0, dt)
        stride = 1024 // n
        errors.append(float(np.max(np.abs(traj.u[-1] - ref.u[-1][::stride]))))
    # super-algebraic decay: each refinement gains orders of magnitude
    assert errors[1] < 1e-3 * errors[0]
    assert errors[2] < 1e-3 * errors[1] or errors[2] < 1e-13
    assert errors[-1] < 1e-12


@pytest.mark.parametrize("amplitude, speed", [
    (0.1, 2.611747839741686), (0.3, 2.707679617488672)])
def test_ch_solve_converges_at_fourth_order_to_a_traveling_wave(amplitude,
                                                                speed):
    # an exact solution that runs none of ch_solve's arithmetic: the wave
    # U(x - c t), analytic while c > max U, is exact to rounding at n = 64,
    # so the error after T = 1 is RK4's and falls 16x per halving of dt
    grid = PeriodicGrid(64)
    U, c, _ = traveling_wave(grid.n, amplitude)
    assert c == pytest.approx(speed, rel=1e-12)
    assert np.min(c - U) > 1.3
    exact = shifted(U, c * 1.0)
    errors = np.array([np.max(np.abs(ch_solve(grid, U, 1.0, dt).u[-1] - exact))
                       for dt in (0.02, 0.01, 0.005)])
    ratios = errors[:-1] / errors[1:]
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), (errors, ratios)
    assert errors[-1] < 1e-8


def reference_rhs(grid, u, params):
    """du/dt with u at the nodes: rfft of u, one batched irfft to u_x, m and
    m_x, and an rfft and irfft that filter and invert a^2 - b^2 d_xx."""
    k, ik, keep = fourier_multipliers(grid.n)
    symbol = params.a ** 2 + params.b ** 2 * k * k
    uh = np.fft.rfft(u)
    mh = symbol * uh
    ux, m, mx = np.fft.irfft(np.array((ik * uh, mh, ik * mh)), n=grid.n)
    dm_dt = np.fft.rfft(u * mx + 2.0 * ux * m)
    return np.fft.irfft(dm_dt * (-keep / symbol), n=grid.n)


def reference_solve(grid, u0, n_steps, dt, params):
    """ch_solve's RK4 loop with the state held at the nodes."""
    out = np.empty((n_steps + 1, grid.n))
    out[0] = u = u0.copy()
    for i in range(n_steps):
        u, = tuple_rk4_step(
            lambda _, y: (reference_rhs(grid, y[0], params),), (u,), dt)
        out[i + 1] = u
    return out


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.5, 0.3)])
def test_coefficient_stepping_matches_the_nodal_reference(n, a, b):
    # stepping the rfft coefficients changes only the rounding
    grid = PeriodicGrid(n)
    params = ConeParams(a, b)
    u0 = 0.2 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x)
    traj = ch_solve(grid, u0, 0.25, 1e-3, params)
    ref = reference_solve(grid, u0, 250, 1e-3, params)
    assert traj.u.shape == ref.shape
    assert np.max(np.abs(traj.u - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_wave_breaking_raises_with_diagnostics():
    grid = PeriodicGrid(64)
    with pytest.raises(CHBlowupError) as info:
        ch_solve(grid, 3.0 * np.sin(grid.x), 4.0, 1e-3)
    diag = info.value.diagnostics
    assert 0.0 < diag["time"] < 1.0
    assert diag["tail_fraction"] > 0.02


@pytest.mark.parametrize("n, u0, message, time, tail", [
    (64, 3.0, "spectral tail indicates wave breaking", 0.362,
     0.020045374097949094),
    (16, 1e200, "solution blew up", 0.001, np.nan),
], ids=["tail", "blew-up"])
def test_guards_raise_at_the_first_failing_step(n, u0, message, time, tail):
    # each guard reports the first step it fails, also in mid-block
    grid = PeriodicGrid(n)
    with pytest.raises(CHBlowupError) as info:
        ch_solve(grid, u0 * np.sin(grid.x), 4.0, 1e-3)
    assert str(info.value) == f"{message} at t={time}"
    diag = info.value.diagnostics
    assert diag["time"] == time
    assert np.array_equal(diag["tail_fraction"], tail, equal_nan=True)


def test_flow_map_tracks_isotropy():
    grid = PeriodicGrid(128)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 1.0, 1e-3)
    path = flow_map(traj)
    assert path.isotropy_residual < 1e-6
    assert path.min_phi_x > 0.5
    # gauge factor squares to the derivative of the flow
    phi_x = 1.0 + grid.deriv(path.phi - grid.x[None, :])
    assert np.max(np.abs(path.lam_ode ** 2 - phi_x)) < 1e-6
    # flow starts at the identity
    assert np.max(np.abs(path.phi[0] - grid.x)) == 0.0


def test_flow_map_detects_lost_invertibility():
    grid = PeriodicGrid(128)
    traj = ch_solve(grid, 2.5 * np.sin(grid.x), 1.2, 2e-3)
    with pytest.raises(CHBlowupError) as info:
        flow_map(traj)
    assert info.value.diagnostics["min_phi_x"] < 1e-6
    # the first slice below the floor is named, with its minimum slope
    assert info.value.diagnostics["time"] == pytest.approx(0.446, abs=1e-12)
    assert info.value.diagnostics["min_phi_x"] == -2.3775488298394265e-4
    assert "t=0.446" in str(info.value)


def test_flow_map_advects_with_the_velocity():
    # d/dt phi = u(t, phi): check with a central difference mid-trajectory
    grid = PeriodicGrid(128)
    traj = ch_solve(grid, 0.3 * np.sin(grid.x), 0.4, 1e-3)
    path = flow_map(traj)
    j = len(path.times) // 2
    dphi = (path.phi[j + 1] - path.phi[j - 1]) / (2 * traj.dt)
    u_at = grid.trig_eval(traj.u[j], path.phi[j])
    assert np.max(np.abs(dphi - u_at)) < 1e-6


@pytest.mark.parametrize("n, amplitude", [(64, 0.1), (64, 0.3), (32, 0.1),
                                          (128, 0.3)])
def test_flow_map_converges_at_fourth_order_to_the_traveling_flow(n,
                                                                  amplitude):
    # the exact Lagrangian flow of the wave U(x - c t), which runs none of
    # the package's arithmetic: phi, lam = sqrt(d_x phi) and the stepped
    # lam_ode all fall 16x per halving of dt, checked at t = 0.1, ..., 1.
    # (At n = 32 the A = 0.3 wave is not resolved: a 1e-6 floor.)
    grid = PeriodicGrid(n)
    U, c, _ = traveling_wave(grid.n, amplitude)
    check = np.arange(1, 11) / 10
    phi, lam = traveling_flow(U, c, check)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        path = flow_map(ch_solve(grid, U, 1.0, dt))
        rows = np.round(check / dt).astype(int)
        errors.append([np.max(np.abs(got[rows] - want)) for got, want in (
            (path.phi, phi), (path.lam, lam), (path.lam_ode, lam))])
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all((14.0 <= ratios) & (ratios <= 19.0)), (errors, ratios)
    assert np.all(errors[-1] < 5e-9)


def test_flow_map_stage_is_one_stacked_evaluation(monkeypatch):
    # u and u_x/2 at each RK4 stage go through one 2-row evaluation of a
    # coefficient block; each slice's block and each midpoint's is built
    # once, so a step builds two; the same blocks evaluated row by row
    # give the same bits
    grid = PeriodicGrid(256)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 0.02, 1e-3)
    stacked = flow_map(traj)
    evaluate, giant_rows = coneflow.grid._evaluate, coneflow.grid._giant_rows
    rows_per_call, built = [], []

    def row_by_row(block, points):
        rows_per_call.append(block.shape[1:-1])
        return np.array([evaluate(block[:, i], p)
                         for i, p in enumerate(points)])

    def counted(coeff):
        built.append(coeff.shape)
        return giant_rows(coeff)

    monkeypatch.setattr(coneflow.ch, "_evaluate", row_by_row)
    monkeypatch.setattr(coneflow.grid, "_giant_rows", counted)
    rows = flow_map(traj)
    assert rows_per_call == [(2,)] * (4 * 20)
    assert built == [(2, 129)] * (2 * 20 + 1)
    assert np.array_equal(stacked.phi, rows.phi)
    assert np.array_equal(stacked.lam_ode, rows.lam_ode)


def test_flow_map_makes_two_coefficient_transforms_a_step(monkeypatch):
    # 20 steps: the slices' and midpoints' blocks take 2 rffts a step,
    # plus the first slice's block, u_x and the final d_x phi; the four
    # RK4 stages of a step share those blocks
    grid = PeriodicGrid(256)
    traj = ch_solve(grid, 0.2 * np.sin(grid.x), 0.02, 1e-3)
    calls = count_transforms(monkeypatch)
    flow_map(traj)
    assert [name for name, _ in calls].count("rfft") == 2 * 20 + 3


def reference_flow(traj):
    """flow_map's (phi, lam_ode) by the tuple-state pair flow, with u and
    u_x/2 interpolated in time each on its own."""
    grid = traj.grid
    n_steps = len(traj.times) - 1
    half_ux = 0.5 * grid.deriv(traj.u)
    mid_weights = np.array([[5, 15, -5, 1], [-1, 9, 9, -1],
                            [1, -5, 15, 5]]) / 16

    def stages(j):
        j0 = min(max(j - 1, 0), n_steps - 3)
        w = mid_weights[j - j0]
        mid = (w @ traj.u[j0:j0 + 4], w @ half_ux[j0:j0 + 4])
        return ((traj.u[j], half_ux[j]), mid,
                (traj.u[j + 1], half_ux[j + 1]))

    steps = tuple_pair_flow(grid, stages, traj.dt, n_steps)
    return map(np.array, zip((grid.x, np.ones(grid.n)), *steps))


@pytest.fixture(scope="module")
def readme_run():
    grid = PeriodicGrid(256)
    return ch_solve(grid, 0.2 * np.sin(grid.x), 1.0, 1e-3)


@pytest.mark.parametrize("source", ["memory", "csv"])
def test_flow_map_is_bit_identical_to_the_tuple_state_flow(readme_run, source,
                                                           tmp_path):
    # (phi, lam) stepped as one stacked state and the midpoint stage formed
    # as one product round as the two fields stepped separately
    traj = readme_run
    if source == "csv":
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, traj.times, traj.grid.x, traj.u)
        _, times, u = read_trajectory_csv(path)
        traj = CHTrajectory(traj.grid, traj.params, traj.dt, times, u)
    phi, lam_ode = reference_flow(traj)
    path = flow_map(traj)
    assert np.array_equal(path.phi, phi)
    assert np.array_equal(path.lam_ode, lam_ode)
    phi_x = traj.grid.lift_slope(phi)
    assert np.array_equal(path.lam, np.sqrt(phi_x))
    assert path.isotropy_residual == np.max(np.abs(lam_ode ** 2 - phi_x))
    assert path.min_phi_x == np.min(phi_x)


def test_solver_input_validation():
    grid = PeriodicGrid(64)
    with pytest.raises(ValueError):
        ch_solve(grid, np.zeros(grid.n - 2), 1.0, 1e-2)
    with pytest.raises(ValueError):
        ch_solve(grid, np.zeros(grid.n), 1.0, -1e-2)
    with pytest.raises(ValueError):
        ch_solve(grid, np.zeros(grid.n), 0.0, 1e-2)
    with pytest.raises(ValueError):  # no backward runs: negate u0 instead
        ch_solve(grid, np.zeros(grid.n), -1.0, -1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ch_solve_rejects_non_finite_u0(bad):
    # bad input is a ValueError up front, not a wave-breaking report
    grid = PeriodicGrid(16)
    u0 = np.zeros(grid.n)
    u0[3] = bad
    with pytest.raises(ValueError, match="finite nodal array"):
        ch_solve(grid, u0, 0.1, 0.01)


def test_flow_map_needs_four_slices():
    # the midpoint stencil spans four stored slices
    grid = PeriodicGrid(16)
    assert len(flow_map(ch_solve(grid, np.ones(grid.n), 0.03, 0.01)).times) == 4
    with pytest.raises(ValueError, match="too short"):
        flow_map(ch_solve(grid, np.ones(grid.n), 0.02, 0.01))
