"""Horizontal lifts, the orbit second fundamental form, and minimality."""
import tracemalloc

import numpy as np
import pytest

from coneflow import (
    DensityField,
    PeriodicGrid,
    VelocityPair,
    bump_density,
    ch_solve,
    flow_map,
    gauss_codazzi_sectional,
    hessian_certificate,
    horizontal_lift,
    infinitesimal_action,
    make_perturbation_family,
    minimality_test,
    oneill_curvature,
    pair_inner,
    path_action,
    second_fundamental_form,
    vertical_horizontal_split,
)
from dense_oracle import dense_lift

GRID = PeriodicGrid(128)
UNIFORM = DensityField(GRID, np.ones(GRID.n))


def lift_densities(grid):
    # a smooth density, then a width-0.3 bump over floors 1e-2 and 1e-4
    bump = bump_density(grid, np.pi, 0.3, 1.0)
    return {"sin": 1.0 + 0.3 * np.sin(grid.x),
            "floor1e-2": 1e-2 + bump, "floor1e-4": 1e-4 + bump}


def lift_rhs(grid):
    return np.cos(grid.x) + 0.5 * np.sin(2 * grid.x)


def test_lift_on_uniform_density_single_mode():
    # -(Phi')'/2 + 2 Phi = cos has symbol k^2/2 + 2: Phi = cos / 2.5
    lift = horizontal_lift(UNIFORM, np.cos(GRID.x))
    assert np.max(np.abs(lift.potential - 0.4 * np.cos(GRID.x))) < 1e-10
    assert lift.residual < 1e-9
    # the returned pair is (Phi'/2, Phi)
    assert np.max(np.abs(lift.pair.v - 0.5 * GRID.deriv(lift.potential))) < 1e-12
    assert np.max(np.abs(lift.pair.alpha - lift.potential)) < 1e-14


def test_lift_of_constant_perturbation():
    lift = horizontal_lift(UNIFORM, 3.0 * np.ones(GRID.n))
    assert np.max(np.abs(lift.potential - 1.5)) < 1e-10
    assert np.max(np.abs(lift.pair.v)) < 1e-10


def test_lift_requires_positive_density_and_matching_shape():
    with pytest.raises(ValueError):
        horizontal_lift(DensityField(GRID, np.zeros(GRID.n)), np.ones(GRID.n))
    with pytest.raises(ValueError):
        horizontal_lift(UNIFORM, np.ones(GRID.n - 2))


def test_lift_rejects_non_finite_perturbation():
    for bad in (np.nan, np.inf):
        x_rho = np.cos(GRID.x)
        x_rho[5] = bad
        with pytest.raises(ValueError, match="must be a finite nodal array"):
            horizontal_lift(UNIFORM, x_rho)


def test_lift_stall_raises_with_the_residual_reached():
    # a floor near 1e-22 puts the operator's condition number past 1/eps
    rho = DensityField(GRID, bump_density(GRID, 3.14, 0.2, 1.0))
    with pytest.raises(RuntimeError, match="CG stalled after 500 "
                                           "iterations at residual [0-9]"):
        horizontal_lift(rho, np.sin(GRID.x))


def nan_preconditioner(monkeypatch, good_calls):
    """Make PeriodicGrid.solve_helmholtz return NaN after good_calls calls."""
    solve = PeriodicGrid.solve_helmholtz
    calls = []

    def solve_then_nan(self, rhs, a, b):
        calls.append(None)
        out = solve(self, rhs, a, b)
        return out if len(calls) <= good_calls else np.full_like(out, np.nan)

    monkeypatch.setattr(PeriodicGrid, "solve_helmholtz", solve_then_nan)


@pytest.mark.parametrize("good_calls", [0, 2], ids=["first", "third"])
def test_lift_nan_preconditioner_is_a_stall(monkeypatch, good_calls):
    # NaN inside CG is a solver breakdown, not bad input: the loop ends at
    # the first NaN rz, and no NaN direction reaches a checked VelocityPair
    nan_preconditioner(monkeypatch, good_calls)
    rho = DensityField(GRID, 1.0 + 0.5 * np.cos(GRID.x))
    with pytest.raises(RuntimeError, match=f"CG stalled after {good_calls} "
                                           "iterations"):
        horizontal_lift(rho, np.sin(2.0 * GRID.x))


def test_lift_overflowing_step_is_a_stall(monkeypatch):
    # M^-1 scaled by 1e200 overflows p.Ap (the warnings this forces are
    # silenced), so the first step puts NaN in the potential: the stall is
    # reported at a NaN residual, and no NaN pair is checked
    solve = PeriodicGrid.solve_helmholtz
    monkeypatch.setattr(PeriodicGrid, "solve_helmholtz",
                        lambda self, *args: 1e200 * solve(self, *args))
    rho = DensityField(GRID, 1.0 + 0.5 * np.cos(GRID.x))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="CG stalled after 1 iterations "
                                              "at residual nan"):
        horizontal_lift(rho, np.sin(2.0 * GRID.x))


@pytest.mark.parametrize("n", [64, 128, 512])
def test_lift_near_vacuum_raises_on_its_residual(n):
    # min rho 2e-14: the preconditioned stop is met, the residual is not
    grid = PeriodicGrid(n)
    rho = DensityField(grid, bump_density(grid, 3.14, 0.25, 1.0))
    with pytest.raises(RuntimeError) as info:
        horizontal_lift(rho, np.sin(grid.x))
    message = str(info.value)
    assert "stalled" not in message
    assert "max|X| = 1" in message and "min rho 2e-14" in message


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("name", ["sin", "floor1e-2", "floor1e-4"])
def test_lift_matches_the_dense_solve(n, name):
    grid = PeriodicGrid(n)
    rho = lift_densities(grid)[name]
    x_rho = lift_rhs(grid)
    lift = horizontal_lift(DensityField(grid, rho), x_rho)
    ref = dense_lift(rho, x_rho)
    assert np.max(np.abs(lift.potential - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the dense potential's residual, measured as LiftResult.residual is
    ref_pair = VelocityPair(grid, 0.5 * grid.deriv(ref), ref)
    dense_residual = np.max(np.abs(
        infinitesimal_action(ref_pair, DensityField(grid, rho)) - x_rho))
    assert lift.residual <= 10.0 * dense_residual


def test_lift_iterations_do_not_grow_with_n():
    for n in (128, 512, 2048):
        grid = PeriodicGrid(n)
        rho = DensityField(grid, lift_densities(grid)["floor1e-4"])
        assert horizontal_lift(rho, lift_rhs(grid)).iterations <= 40


def test_split_orthogonality_and_recombination():
    rng = np.random.default_rng(50)
    rho = DensityField(GRID, 1.0 + 0.4 * np.sin(GRID.x))
    for _ in range(5):
        v = np.zeros(GRID.n)
        al = np.zeros(GRID.n)
        for k in range(1, 4):
            v += (rng.normal() * np.cos(k * GRID.x)
                  + rng.normal() * np.sin(k * GRID.x)) / k
            al += (rng.normal() * np.cos(k * GRID.x)
                   + rng.normal() * np.sin(k * GRID.x)) / k
        xi = VelocityPair(GRID, v, al)
        split = vertical_horizontal_split(xi, rho)
        assert split.orthogonality_defect < 1e-9
        assert split.vertical_defect < 1e-8
        assert np.max(np.abs(split.horizontal.v + split.vertical.v - v)) < 1e-12
        assert np.max(np.abs(split.horizontal.alpha + split.vertical.alpha
                             - al)) < 1e-12


def test_split_of_horizontal_pair_has_no_vertical_part():
    lift = horizontal_lift(UNIFORM, np.cos(GRID.x) + 0.5)
    split = vertical_horizontal_split(lift.pair, UNIFORM)
    assert np.max(np.abs(split.vertical.v)) < 1e-9
    assert np.max(np.abs(split.vertical.alpha)) < 1e-9


def test_second_fundamental_form_constant_gauge_pair():
    # (0, alpha) with constant alpha: pressure -alpha^2, value (0, alpha^2)
    al = 0.6
    xi = VelocityPair(GRID, np.zeros(GRID.n), al * np.ones(GRID.n))
    res = second_fundamental_form(xi, xi)
    assert np.max(np.abs(res.pressure + al ** 2)) < 1e-12
    assert np.max(np.abs(res.pair.v)) < 1e-12
    assert np.max(np.abs(res.pair.alpha - al ** 2)) < 1e-12


def test_second_fundamental_form_symmetric_for_tangent_pairs():
    # isotropy tangents alpha = v'/2: the defining rhs is already symmetric
    rng = np.random.default_rng(51)
    for _ in range(3):
        v1 = np.zeros(GRID.n)
        v2 = np.zeros(GRID.n)
        for k in range(1, 4):
            v1 += (rng.normal() * np.cos(k * GRID.x)
                   + rng.normal() * np.sin(k * GRID.x)) / k
            v2 += (rng.normal() * np.cos(k * GRID.x)
                   + rng.normal() * np.sin(k * GRID.x)) / k
        xi1 = VelocityPair(GRID, v1, 0.5 * GRID.deriv(v1))
        xi2 = VelocityPair(GRID, v2, 0.5 * GRID.deriv(v2))
        res = second_fundamental_form(xi1, xi2)
        assert res.raw_asymmetry < 1e-10
        assert res.tangency_defect < 1e-12


def test_second_fundamental_form_is_horizontal():
    # (-p'/2, -p) is the horizontal pair of potential -p
    rng = np.random.default_rng(52)
    v = np.cos(GRID.x) + 0.3 * np.sin(2 * GRID.x)
    xi = VelocityPair(GRID, v, 0.5 * GRID.deriv(v))
    res = second_fundamental_form(xi, xi)
    split = vertical_horizontal_split(res.pair, UNIFORM)
    norm = np.sqrt(pair_inner(res.pair, res.pair, UNIFORM))
    assert np.sqrt(pair_inner(split.vertical, split.vertical, UNIFORM)) \
        < 1e-9 * max(norm, 1e-12)


def test_oneill_curvature_closed_form():
    # lifted cos and sin over the uniform density: 3 / (50 pi)
    l1 = horizontal_lift(UNIFORM, np.cos(GRID.x))
    l2 = horizontal_lift(UNIFORM, np.sin(GRID.x))
    K = oneill_curvature(l1.pair, l2.pair, UNIFORM)
    assert K == pytest.approx(3.0 / (50.0 * np.pi), abs=1e-12)


def test_oneill_curvature_rejects_non_horizontal_input():
    vertical = VelocityPair(GRID, np.sin(GRID.x),
                            0.5 * GRID.deriv(np.sin(GRID.x)) + 1.0)
    l1 = horizontal_lift(UNIFORM, np.cos(GRID.x))
    with pytest.raises(ValueError):
        oneill_curvature(vertical, l1.pair, UNIFORM)
    # the guard is the rho-weighted norm of v - alpha_x/2, relative 1e-6
    rho = DensityField(GRID, 1.0 + 0.3 * np.sin(GRID.x))
    l2 = horizontal_lift(rho, np.sin(2 * GRID.x))
    for eps, horizontal in ((1e-3, False), (1e-9, True)):
        xi = VelocityPair(GRID, l2.pair.v + eps * np.sin(GRID.x), l2.pair.alpha)
        if horizontal:
            assert np.isfinite(oneill_curvature(xi, l2.pair, rho))
            continue
        for args in ((xi, l2.pair, rho), (l2.pair, xi, rho)):
            with pytest.raises(ValueError, match="horizontal inputs"):
                oneill_curvature(*args)


def test_oneill_curvature_degenerate_plane_is_zero():
    l1 = horizontal_lift(UNIFORM, np.cos(GRID.x))
    scaled = VelocityPair(GRID, 2.0 * l1.pair.v, 2.0 * l1.pair.alpha)
    assert oneill_curvature(l1.pair, scaled, UNIFORM) == 0.0


def test_gauss_codazzi_stable_under_refinement():
    values = []
    for n in (128, 256):
        grid = PeriodicGrid(n)
        rho = DensityField(grid, np.ones(grid.n))
        l1 = horizontal_lift(rho, np.cos(grid.x))
        l2 = horizontal_lift(rho, np.sin(grid.x))
        values.append(gauss_codazzi_sectional(l1.pair, l2.pair))
    assert abs(values[0] - values[1]) < 1e-6
    with pytest.raises(ValueError):
        grid = PeriodicGrid(128)
        rho = DensityField(grid, np.ones(grid.n))
        l1 = horizontal_lift(rho, np.cos(grid.x))
        gauss_codazzi_sectional(l1.pair, l1.pair)


def test_hessian_certificate_rotation():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, np.ones(grid.n), 1.0, 1e-2)
    c_bound, window = hessian_certificate(traj)
    # constant speed c: pressure c^2, blocks ((0, 0), (0, c^2)): bound c^2
    assert c_bound == pytest.approx(1.0, abs=1e-10)
    assert window == pytest.approx(np.pi, abs=1e-10)


def test_perturbation_family_properties():
    grid = PeriodicGrid(64)
    times = np.linspace(0.0, 1.0, 51)
    fam = make_perturbation_family(grid, times, 8, seed=7)
    assert fam.shape == (8, 51, grid.n)
    # endpoint envelopes vanish, members are sup-normalized
    assert np.max(np.abs(fam[:, 0])) < 1e-12
    assert np.max(np.abs(fam[:, -1])) < 1e-12
    for eta in fam:
        scale = max(np.max(np.abs(eta)), np.max(np.abs(grid.deriv(eta))))
        assert scale == pytest.approx(1.0, abs=1e-12)
    again = make_perturbation_family(grid, times, 8, seed=7)
    assert np.array_equal(fam, again)


@pytest.mark.parametrize("times", [
    np.zeros(1), np.full(5, 0.3), np.array([0.0, 0.5, np.nan])],
    ids=["one-slice", "equal-times", "nan-end"])
def test_perturbation_family_needs_a_positive_duration(times):
    with pytest.raises(ValueError,
                       match="competitor times must span a positive duration"):
        make_perturbation_family(PeriodicGrid(16), times, 2, seed=1)


def member_loop_family(grid, times, n_members, seed):
    # the member loop the family was first written as: scalar draws per
    # member, time mode and space mode, in that order
    rng = np.random.default_rng(seed)
    s = (times - times[0]) / (times[-1] - times[0])
    members = np.empty((n_members, len(times), grid.n))
    for i in range(n_members):
        eta = np.zeros((len(times), grid.n))
        for k in range(1, 4):
            envelope = np.sin(np.pi * k * s)
            fx = rng.standard_normal() * np.ones(grid.n)
            for mode in range(1, 4):
                fx = fx + (rng.standard_normal() * np.cos(mode * grid.x)
                           + rng.standard_normal() * np.sin(mode * grid.x)) / mode
            eta += envelope[:, None] * fx[None, :]
        scale = max(np.max(np.abs(eta)), np.max(np.abs(grid.deriv(eta))))
        members[i] = eta / scale
    return members


def complex_chart_action(grid, times, phi, lam):
    dz = np.diff(lam * np.exp(1j * phi), axis=0)
    return float(grid.h * np.sum(np.abs(dz) ** 2 / np.diff(times)[:, None]))


@pytest.mark.parametrize("n, n_times, n_members, seed",
                         [(64, 101, 100, 11), (128, 51, 8, 7)])
def test_perturbation_family_equals_the_member_loop(n, n_times, n_members,
                                                    seed):
    grid = PeriodicGrid(n)
    times = np.linspace(0.0, 1.0, n_times)
    fam = make_perturbation_family(grid, times, n_members, seed)
    assert np.array_equal(fam,
                          member_loop_family(grid, times, n_members, seed))


def test_competitor_actions_match_the_complex_chart():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, 1.0 + 0.2 * np.sin(grid.x), 1.0, 1e-2)
    fam = make_perturbation_family(grid, traj.times, 12, seed=3)
    amplitudes = (1e-2, 5e-2, 1e-1)
    rep = minimality_test(traj, fam, amplitudes)
    path = flow_map(traj)
    assert rep.competitor_actions.shape == (12, 3)
    assert rep.geodesic_action == pytest.approx(
        complex_chart_action(grid, traj.times, path.phi, path.lam), rel=1e-13)
    for eta, row in zip(fam, rep.competitor_actions):
        for amp, action in zip(amplitudes, row):
            phi = path.phi + amp * eta
            lam = np.sqrt(grid.lift_slope(phi))
            ref = complex_chart_action(grid, traj.times, phi, lam)
            assert action == pytest.approx(ref, rel=1e-13)


def test_path_action_of_a_stack_equals_the_per_path_calls():
    grid = PeriodicGrid(32)
    times = np.linspace(0.0, 0.7, 41) ** 1.5  # uneven steps
    rng = np.random.default_rng(5)
    phi = (grid.x + 0.1 * rng.standard_normal((2, 3, len(times), grid.n))
           + times[:, None])
    lam = 1.0 + 0.2 * rng.random((2, 3, len(times), grid.n))
    stacked = path_action(grid, times, phi, lam)
    assert stacked.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = path_action(grid, times, phi[idx], lam[idx])
        assert np.ndim(single) == 0
        assert abs(stacked[idx] - single) <= 1e-15 * abs(single)


def traced_peak(fn, *args):
    fn(*args)  # warm caches (FFT plans, multipliers) outside the trace
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_perturbation_family_memory_is_the_members_array():
    grid = PeriodicGrid(64)
    times = np.linspace(0.0, 1.0, 101)
    fam, peak = traced_peak(make_perturbation_family, grid, times, 100, 11)
    # an all-at-once build of the (members, time modes, T, n) products
    # would need about four times this
    assert peak < 1.25 * fam.nbytes


def test_minimality_memory_is_a_few_paths():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, np.ones(grid.n), 1.0, 1e-2)
    fam = make_perturbation_family(grid, traj.times, 100, seed=11)
    _, peak = traced_peak(minimality_test, traj, fam)
    # one member at both amplitudes per pass; 8-member blocks need 8.5 MB
    assert peak < fam.nbytes / 4


def test_path_action_rotation_closed_form():
    grid = PeriodicGrid(64)
    c, dt, n_steps = 1.0, 1e-2, 100
    times = np.arange(n_steps + 1) * dt
    phi = grid.x[None, :] + c * times[:, None]
    lam = np.ones_like(phi)
    action = path_action(grid, times, phi, lam)
    # |e^{ic dt} - 1|^2 = 4 sin^2(c dt/2) per step and node
    exact = 2 * np.pi * n_steps * 4 * np.sin(c * dt / 2) ** 2 / dt
    assert action == pytest.approx(exact, rel=1e-12)
    assert action == pytest.approx(2 * np.pi * c ** 2, rel=1e-4)


def test_minimality_rotation_beats_competitors():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, np.ones(grid.n), 1.0, 1e-2)
    fam = make_perturbation_family(grid, traj.times, 20, seed=9)
    rep = minimality_test(traj, fam)
    assert rep.window_ok
    assert rep.window == pytest.approx(np.pi, abs=1e-10)
    assert np.all(rep.competitor_actions > rep.geodesic_action)
    assert rep.min_competitor_action > rep.geodesic_action


def test_oneill_curvature_of_a_zero_vector_is_zero():
    zero = VelocityPair(GRID, np.zeros(GRID.n), np.zeros(GRID.n))
    l2 = horizontal_lift(UNIFORM, np.cos(GRID.x))
    assert oneill_curvature(zero, l2.pair, UNIFORM) == 0.0


def test_minimality_refuses_a_competitor_that_folds_the_flow():
    grid = PeriodicGrid(64)
    traj = ch_solve(grid, np.ones(grid.n), 0.1, 1e-2)
    fam = make_perturbation_family(grid, traj.times, 2, seed=9)
    # members have max |d_x eta| <= 1, so amplitude 100 folds phi
    with pytest.raises(ValueError, match="breaks monotonicity"):
        minimality_test(traj, fam, (0.01, 100.0))
