"""Unbalanced transport: prox, constraint projection, solver, geodesic flows."""
import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct, idct, irfft, rfft

from coneflow import (
    ConeParams,
    DensityField,
    PeriodicGrid,
    StaggeredGrid,
    VelocityPair,
    WFRConvergenceError,
    bump_density,
    continuity_project,
    continuity_residual,
    hellinger_distance,
    horizontal_flow,
    horizontal_lift,
    infinitesimal_action,
    prox_action,
    solve_wfr,
    wfr_action,
)


import coneflow.wfr as wfr
from coneflow.wfr import _projection_operators
from prox_oracle import brute_prox, per_component_prox
from rk4_oracle import tuple_rk4_step
from spectral_oracle import count_transforms, dealias
from wfr_reference import calibrated_pair, circle_w2


# Staggered states are (g, rho, m, mu) tuples: rho (nt+1, nx) at the time
# slices, m and mu (nt, nx) at the space faces and the cell centers.


def dense_projection(state, rho0, rho1, balanced):
    """Pinned-end Euclidean projection through explicit KKT matrices."""
    g, rho_in, m_in, mu_in = state
    nt, nx = g.nt, g.nx
    n_int = (nt - 1) * nx
    n_m = nt * nx
    n_mu = 0 if balanced else nt * nx
    n_z = n_int + n_m + n_mu

    def residual_of(z, pin):
        rho = np.vstack([
            (rho0 if pin else np.zeros(nx))[None, :],
            z[:n_int].reshape(nt - 1, nx),
            (rho1 if pin else np.zeros(nx))[None, :]])
        m = z[n_int:n_int + n_m].reshape(nt, nx)
        mu = (np.zeros((nt, nx)) if balanced
              else z[n_int + n_m:].reshape(nt, nx))
        return ((rho[1:] - rho[:-1]) / g.dt
                + (m - np.roll(m, 1, axis=1)) / g.h - mu).ravel()

    a_mat = np.empty((nt * nx, n_z))
    for col in range(n_z):
        e = np.zeros(n_z)
        e[col] = 1.0
        a_mat[:, col] = residual_of(e, pin=False)
    b_vec = -residual_of(np.zeros(n_z), pin=True)

    parts = [rho_in[1:-1].ravel(), m_in.ravel()]
    if not balanced:
        parts.append(mu_in.ravel())
    u = np.concatenate(parts)
    y, *_ = np.linalg.lstsq(a_mat @ a_mat.T, a_mat @ u - b_vec, rcond=None)
    p = u - a_mat.T @ y
    rho = np.vstack([rho0[None, :], p[:n_int].reshape(nt - 1, nx),
                     rho1[None, :]])
    m = p[n_int:n_int + n_m].reshape(nt, nx)
    mu = (np.zeros((nt, nx)) if balanced
          else p[n_int + n_m:].reshape(nt, nx))
    return g, rho, m, mu


def project(state, rho0, rho1, balanced=False):
    """continuity_project on copies of the arrays of a state."""
    g, rho, m, mu = state
    return (g, *continuity_project(g, rho.copy(), m.copy(), mu.copy(), rho0,
                                   rho1, balanced=balanced))


def reference_centers(rho, m, mu):
    rho_c = 0.5 * (rho[:-1] + rho[1:])
    m_c = 0.5 * (m + np.roll(m, 1, axis=1))
    return rho_c, m_c, mu.copy()


def reference_residual(g, rho, m, mu):
    return ((rho[1:] - rho[:-1]) / g.dt
            + (m - np.roll(m, 1, axis=1)) / g.h
            - mu)


def reference_project(state, rho0, rho1, balanced, by_matrix=True):
    """continuity_project as a copying map of states with np.roll; the time
    cosine transforms are products with the solver's matrices (which
    test_cosine_matrices_are_exact_transforms checks against scipy), or
    scipy's dct and idct (the earlier arithmetic) with by_matrix=False."""
    g, rho, m, mu = state
    rho = rho.copy()
    rho[0] = rho0
    rho[-1] = rho1
    m = m.copy()
    mu = np.zeros_like(mu) if balanced else mu.copy()
    r = reference_residual(g, rho, m, mu)
    c, ci, inv = _projection_operators(g, balanced)
    if by_matrix:
        r_hat = rfft(c @ r, axis=1)
        r_hat *= inv
        q = ci @ irfft(r_hat, n=g.nx, axis=1)
    else:
        r_hat = rfft(dct(r, type=2, axis=0), axis=1)
        r_hat *= inv
        q = idct(irfft(r_hat, n=g.nx, axis=1), type=2, axis=0)
    rho[1:-1] -= (q[:-1] - q[1:]) / g.dt
    m -= (q - np.roll(q, -1, axis=1)) / g.h
    if not balanced:
        mu = mu + q
    return g, rho, m, mu


def start_state(rho0, rho1, nt, balanced, by_matrix=True):
    g = StaggeredGrid(nt, len(rho0))
    frac = g.t_slices[:, None]
    rho = (1.0 - frac) * rho0[None, :] + frac * rho1[None, :]
    mu = np.zeros((nt, g.nx)) if balanced else \
        np.broadcast_to((rho1 - rho0)[None, :], (nt, g.nx)).copy()
    u = (g, rho, np.zeros((nt, g.nx)), mu)
    if balanced:
        u = reference_project(u, rho0, rho1, True, by_matrix)
    return u


def reference_solve(rho0, rho1, nt, params=ConeParams(), balanced=False,
                    tol=1e-7, max_iters=50000):
    """The primal-dual loop over copied states with np.roll, written out,
    on the scaled dual z = w / sigma, with the per-component prox.

    Returns (state, rho_c, m_c, mu_c, action, iterations, rel_change).
    """
    u = start_state(rho0, rho1, nt, balanced)
    g = u[0]
    step = wfr._SIGMA * wfr._TAU
    mass_bound = 2.0 * params.b * (np.sqrt(g.h * rho0.sum())
                                   + np.sqrt(g.h * rho1.sum()))
    noise = max(np.finfo(float).eps * mass_bound ** 2, np.finfo(float).tiny)
    z_rho, z_m, z_mu = (np.zeros((nt, g.nx)) for _ in range(3))
    action_prev = action = rel_change = np.inf
    ku = reference_centers(*u[1:])
    p_rho = ku[0]
    for k in range(1, max_iters + 1):
        _, u_rho, u_m, u_mu = u
        a_rho = np.zeros((nt + 1, g.nx))
        a_rho[1:-1] = 0.5 * (z_rho[:-1] + z_rho[1:])
        a_m = 0.5 * (z_m + np.roll(z_m, -1, axis=1))
        u = reference_project((g, u_rho - step * a_rho, u_m - step * a_m,
                               u_mu - step * z_mu.copy()),
                              rho0, rho1, balanced)
        kn = reference_centers(*u[1:])
        y_rho = z_rho + 2.0 * kn[0] - ku[0]
        y_m = z_m + 2.0 * kn[1] - ku[1]
        y_mu = z_mu + 2.0 * kn[2] - ku[2]
        p_rho, p_m, p_mu = per_component_prox(y_rho, y_m, y_mu,
                                              1.0 / wfr._SIGMA, params, p_rho)
        z_rho, z_m, z_mu = y_rho - p_rho, y_m - p_m, y_mu - p_mu
        ku = kn
        if k % wfr._CHECK_EVERY == 0 or k == max_iters:
            action = wfr_action(g, p_rho, p_m, p_mu, params)
            rel_change = abs(action - action_prev) / max(abs(action), noise)
            action_prev = action
            if k >= wfr._MIN_ITERS and rel_change < tol:
                break
    return u, p_rho, p_m, p_mu, action, k, rel_change


def earlier_prox(rho, m, mu, gamma, params, guess):
    """prox_action as it was before apex cells were resolved up front:
    apex cells are masked by np.where in every round and at the end."""
    c1, c2 = 2.0 * gamma * params.a ** 2, 2.0 * gamma * params.b ** 2
    qm, qmu = params.a ** 2 * m ** 2, params.b ** 2 * mu ** 2
    at_apex = rho + gamma * (qm / c1 ** 2 + qmu / c2 ** 2) <= 0.0
    qm, qmu = gamma * qm, gamma * qmu
    floor = np.maximum(rho, 0.0)
    r = np.maximum(guess, floor)
    for _ in range(200):
        e1 = 1.0 / (r + c1)
        e2 = 1.0 / (r + c2)
        t1 = qm * e1 * e1
        t2 = qmu * e2 * e2
        f = r - rho - t1 - t2
        if np.max(np.where(at_apex, 0.0, np.abs(f))) < 1e-13 * (1.0
                                                                + np.max(r)):
            break
        r = np.maximum(r - f / (1.0 + 2.0 * (t1 * e1 + t2 * e2)), floor)
    r = np.where(at_apex, 0.0, r)
    return (r, np.where(at_apex, 0.0, r * m / (r + c1)),
            np.where(at_apex, 0.0, r * mu / (r + c2)))


def earlier_solve(rho0, rho1, nt, params=ConeParams(), balanced=False,
                  tol=1e-7, max_iters=50000):
    """The primal-dual loop in its earlier arithmetic: unscaled dual w,
    two center interpolations a step, scipy's cosine transforms and the
    np.where prox.  Returns what reference_solve returns."""
    u = start_state(rho0, rho1, nt, balanced, by_matrix=False)
    g = u[0]
    sigma, tau = wfr._SIGMA, wfr._TAU
    w_rho, w_m, w_mu = (np.zeros((nt, g.nx)) for _ in range(3))
    action_prev = action = rel_change = np.inf
    p_rho = reference_centers(*u[1:])[0]
    for k in range(1, max_iters + 1):
        _, u_rho, u_m, u_mu = u
        a_rho = np.zeros((nt + 1, g.nx))
        a_rho[1:-1] = 0.5 * (w_rho[:-1] + w_rho[1:])
        a_m = 0.5 * (w_m + np.roll(w_m, -1, axis=1))
        u_new = reference_project((g, u_rho - tau * a_rho, u_m - tau * a_m,
                                   u_mu - tau * w_mu), rho0, rho1, balanced,
                                  by_matrix=False)
        _, n_rho, n_m, n_mu = u_new
        v_rho, v_m, v_mu = reference_centers(
            2.0 * n_rho - u_rho, 2.0 * n_m - u_m, 2.0 * n_mu - u_mu)
        y_rho = w_rho + sigma * v_rho
        y_m = w_m + sigma * v_m
        y_mu = w_mu + sigma * v_mu
        p_rho, p_m, p_mu = earlier_prox(y_rho / sigma, y_m / sigma,
                                        y_mu / sigma, 1.0 / sigma, params,
                                        p_rho)
        w_rho = y_rho - sigma * p_rho
        w_m = y_m - sigma * p_m
        w_mu = y_mu - sigma * p_mu
        u = u_new
        if k % wfr._CHECK_EVERY == 0 or k == max_iters:
            action = wfr_action(g, p_rho, p_m, p_mu, params)
            rel_change = abs(action - action_prev) / max(abs(action), 1e-30)
            action_prev = action
            if k >= wfr._MIN_ITERS and rel_change < tol:
                break
    return u, p_rho, p_m, p_mu, action, k, rel_change


def assert_same_as_reference(result, ref):
    u, rho_c, m_c, mu_c, action, iterations, rel_change = ref
    assert result.grid == u[0]
    for got, want in zip((result.rho, result.m, result.mu, result.rho_c,
                          result.m_c, result.mu_c), (*u[1:], rho_c, m_c, mu_c)):
        assert np.array_equal(got, want)
    assert result.action == action
    assert result.iterations == iterations
    assert result.rel_change == rel_change
    assert result.constraint_residual == float(
        np.max(np.abs(reference_residual(*u))))


def state_gap(s1, s2):
    return max(np.max(np.abs(a - b)) for a, b in zip(s1[1:], s2[1:]))


# -- staggered grid and operators ------------------------------------------------


def test_staggered_grid_validation_and_layout():
    g = StaggeredGrid(8, 16)
    assert g.dt == pytest.approx(1 / 8)
    assert g.h == pytest.approx(2 * np.pi / 16)
    assert len(g.t_slices) == 9
    assert len(g.t_cells) == 8
    with pytest.raises(ValueError):
        StaggeredGrid(3, 16)
    with pytest.raises(ValueError):
        StaggeredGrid(8, 2)


def test_staggered_grid_sizes_must_be_integers():
    # a float size must fail here, not build a 17-point x (nx = 16.5) or
    # fail later inside np.zeros
    for nt, nx in ((8, 16.5), (8.0, 16), (8.5, 16), (8, 16.0), (True, 16),
                   (8, "16"), (None, 16)):
        with pytest.raises(ValueError, match="must be an integer"):
            StaggeredGrid(nt, nx)
    rho = np.ones(16)
    for nt in (8.5, 8.0):
        with pytest.raises(ValueError, match="nt must be an integer"):
            solve_wfr(rho, rho, nt)
    g = StaggeredGrid(np.int64(8), np.int32(16))
    assert g.x.shape == (16,) and g.t_cells.shape == (8,)
    assert solve_wfr(rho, 2 * rho, np.int64(8)).iterations == 200


# -- action values -------------------------------------------------------------


def test_action_uniform_unit_field():
    # rho = 1, m = 1, mu = 0: integrand a^2 over the unit-time circle: 2 pi
    g = StaggeredGrid(8, 16)
    centers = reference_centers(np.ones((9, 16)), np.ones((8, 16)),
                                np.zeros((8, 16)))
    assert wfr_action(g, *centers) == pytest.approx(2 * np.pi, abs=1e-12)


def test_action_perspective_boundary_cases():
    g = StaggeredGrid(4, 8)

    def action(rho, m):
        return wfr_action(g, *reference_centers(rho, m, np.zeros((4, 8))))

    assert action(np.zeros((5, 8)), np.zeros((4, 8))) == 0.0
    assert action(np.zeros((5, 8)), np.ones((4, 8))) == np.inf  # flux
    assert action(-np.ones((5, 8)), np.zeros((4, 8))) == np.inf


# -- pointwise prox ------------------------------------------------------------


def test_prox_matches_brute_force_oracle():
    rng = np.random.default_rng(61)
    n = 10_000
    rho = rng.uniform(-1.0, 3.0, n)
    m = rng.normal(0, 1.5, n)
    mu = rng.normal(0, 1.5, n)
    for gamma in (0.3, 0.8, 2.0):
        rb, mb, ub = brute_prox(rho, m, mu, gamma)
        rp, mp, up = prox_action(rho, m, mu, gamma)
        gap = max(np.max(np.abs(rb - rp)), np.max(np.abs(mb - mp)),
                  np.max(np.abs(ub - up)))
        assert gap < 1e-6


def test_prox_firmly_nonexpansive():
    rng = np.random.default_rng(62)
    worst = -np.inf
    for _ in range(300):
        x = rng.normal(0, 2, 3)
        y = rng.normal(0, 2, 3)
        gamma = float(rng.uniform(0.1, 3.0))
        px = np.concatenate(prox_action(x[:1], x[1:2], x[2:], gamma))
        py = np.concatenate(prox_action(y[:1], y[1:2], y[2:], gamma))
        worst = max(worst, float(np.sum((px - py) ** 2)
                                 - np.dot(px - py, x - y)))
    assert worst < 1e-10


def test_prox_fixed_points_and_apex():
    rho = np.array([0.0, 0.5, 2.0])
    zero = np.zeros(3)
    r, m, mu = prox_action(rho, zero, zero, 0.7)
    assert np.max(np.abs(r - rho)) < 1e-12
    assert np.all(m == 0.0) and np.all(mu == 0.0)
    # deep in the infeasible region the prox lands on the apex
    r, m, mu = prox_action(np.array([-5.0]), np.array([0.1]),
                           np.array([-0.2]), 1.0)
    assert r[0] == 0.0 and m[0] == 0.0 and mu[0] == 0.0
    with pytest.raises(ValueError):
        prox_action(rho, zero, zero, 0.0)


def kernel_prox(rho, m, mu, gamma, params, guess=None):
    """A fresh prox kernel, as solve_wfr builds it, run once from
    out[0] = guess (from a zeroed out[0], as prox_action runs it, when
    there is no guess)."""
    y = np.empty((3,) + np.shape(rho))
    y[0], y[1], y[2] = rho, m, mu
    out = np.zeros_like(y)
    prox = wfr._prox_kernel(y, gamma, params, out)
    if guess is not None:
        out[0] = guess
    return tuple(prox())


@pytest.mark.parametrize("params", [ConeParams(), ConeParams(1.0, 1.0)],
                         ids=["quintic", "cubic"])
def test_prox_guess_changes_only_the_round_count(params):
    rng = np.random.default_rng(67)
    n = 4000
    rho = rng.uniform(-1.0, 3.0, n)
    m = rng.normal(0, 1.5, n)
    mu = rng.normal(0, 1.5, n)
    rho[:50] = -5.0  # deep apex cells, alongside the random ones
    for gamma in (0.3, 1.0 / 0.95, 2.0):
        cold = prox_action(rho, m, mu, gamma, params)
        root = cold[0]
        assert np.sum(root == 0.0) > 50 and np.sum(rho < 0) > 500
        rb, mb, ub = brute_prox(rho, m, mu, gamma, params)
        assert max(np.max(np.abs(rb - cold[0])), np.max(np.abs(mb - cold[1])),
                   np.max(np.abs(ub - cold[2]))) < 1e-6
        for guess in (0.0, 0.5 * root, root - 0.1, root + 0.1,
                      2.0 * root + 1.0, 1e6 * root, root):
            warm = kernel_prox(rho, m, mu, gamma, params, guess)
            for w, c in zip(warm, cold):
                assert np.max(np.abs(w - c)) < 1e-12


def same_bits(got, want):
    """Equal values, shapes and signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("params", [ConeParams(), ConeParams(1.0, 1.0),
                                    ConeParams(1.5, 0.3)],
                         ids=["default", "cubic", "a1.5-b0.3"])
def test_prox_equals_the_per_component_oracle(params):
    # the stacked Newton rounds repeat the per-component arithmetic bit for
    # bit, with and without a guess, and leave the inputs as they were
    rng = np.random.default_rng(71)
    for shape in ((16, 24), (7,), (1,)):
        rho = rng.uniform(-1.0, 3.0, shape)
        m = rng.normal(0, 1.5, shape)
        mu = rng.normal(0, 1.5, shape)
        rho.flat[::5] = -5.0  # deep apex cells
        rho.flat[1::7] = 0.0
        for gamma in (0.3, 1.0 / 0.95, 2.0):
            inputs = (rho, m, mu)
            before = tuple(v.copy() for v in inputs)
            root = per_component_prox(rho, m, mu, gamma, params)[0]
            if rho.size > 1:
                assert np.sum(root == 0.0) > 0 and np.sum(rho < 0) > 0
            for guess in (None, 0.0, 0.5 * root, root - 0.1, root + 0.1,
                          2.0 * root + 1.0, root):
                want = per_component_prox(rho, m, mu, gamma, params, guess)
                got = (prox_action(rho, m, mu, gamma, params)
                       if guess is None else
                       kernel_prox(rho, m, mu, gamma, params, guess))
                for g_row, w_row in zip(got, want):
                    assert np.array_equal(g_row, w_row)
                    assert same_bits(g_row, w_row)
                assert all(same_bits(v, b) for v, b in zip(inputs, before))


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0])
def test_prox_rejects_a_weight_that_is_not_positive_and_finite(gamma):
    zero = np.zeros(3)
    with pytest.raises(ValueError,
                       match="gamma must be positive and finite"):
        prox_action(np.ones(3), zero, zero, gamma)


def test_prox_rejects_coefficients_whose_squares_overflow():
    # 2 gamma a^2 = 2e154 squares past the float range; at a = 1e76 the
    # square is 4e304, and the solver runs
    zero = np.zeros(3)
    for params in (ConeParams(1e77, 0.5), ConeParams(0.5, 1e77)):
        with pytest.raises(ValueError, match="must have finite squares"):
            prox_action(np.ones(3), zero, zero, 1.0, params)
    rho = np.ones(16)
    result = solve_wfr(rho, 2 * rho, 8, ConeParams(1e76, 0.5))
    assert np.isfinite(result.distance)


def test_prox_rejects_coefficients_whose_squares_underflow():
    # 2 gamma b^2 = 2e-300 squares to 0, where q / c_sq would divide by
    # zero
    zero = np.zeros(3)
    for params in (ConeParams(1e-150, 0.5), ConeParams(0.5, 1e-150)):
        with pytest.raises(ValueError, match="underflow to zero"):
            prox_action(np.ones(3), zero, zero, 1.0, params)


def test_prox_raises_on_nan_input():
    rho = np.array([0.5, np.nan, 1.0])
    zero = np.zeros(3)
    with pytest.raises(RuntimeError, match="max \\|f\\|"):
        prox_action(rho, zero, zero, 0.7)
    with pytest.raises(RuntimeError):
        prox_action(np.ones(3), np.array([0.0, np.nan, 1.0]), zero, 0.7)


@pytest.mark.parametrize("params", [ConeParams(), ConeParams(1.5, 0.3)],
                         ids=["default", "a1.5-b0.3"])
def test_prox_kernel_keeps_no_state_between_runs(params):
    # one kernel, built once on its stack as solve_wfr builds it, run on
    # inputs that change every time (apex, near-vacuum and vacuum cells at
    # changing places and scales) from cold starts (a zeroed out[0]), from
    # what the last run left in out[0] and from new guesses: each run gives
    # the bits of a fresh kernel from the same start
    rng = np.random.default_rng(72)
    shape, gamma = (6, 9), 1.0 / 0.95
    y, out = np.full((2, 3) + shape, np.nan)
    prox = wfr._prox_kernel(y, gamma, params, out)
    for k in range(15):
        rho = rng.uniform(-1.0, 3.0, shape) * 10.0 ** rng.integers(-6, 2)
        m, mu = rng.normal(0.0, 1.5, (2,) + shape)
        rho.flat[k % 5::5] = -5.0  # apex cells
        rho.flat[k % 7::7] = 1e-9  # near vacuum, with small fluxes
        m.flat[k % 7::7] *= 1e-5
        mu.flat[k % 7::7] *= 1e-5
        rho.flat[k % 11::11], m.flat[k % 11::11] = 0.0, 0.0  # vacuum
        y[0], y[1], y[2] = rho, m, mu
        if k % 3 == 0:
            out[0] = 0.0
        elif k % 3 == 2:
            out[0] = rng.uniform(0.0, 3.0, shape)
        guess = out[0].copy() if k % 3 else None
        want = kernel_prox(rho, m, mu, gamma, params, guess)
        assert np.sum(want[0] == 0.0) > 0 and np.sum(rho < 0) > 0
        assert prox() is out
        assert all(same_bits(o, w) for o, w in zip(out, want))


# -- continuity projection ------------------------------------------------------


def test_projection_matches_dense_kkt():
    g = StaggeredGrid(6, 8)
    rng = np.random.default_rng(63)
    x = StaggeredGrid(6, 8).x
    rho0 = 1.0 + 0.3 * np.sin(x)
    rho1 = 1.5 + 0.2 * np.cos(x)
    state = (g, rng.normal(1, 0.5, (7, 8)), rng.normal(0, 1, (6, 8)),
             rng.normal(0, 1, (6, 8)))
    fast = project(state, rho0, rho1)
    dense = dense_projection(state, rho0, rho1, balanced=False)
    assert state_gap(fast, dense) < 1e-10
    assert np.max(np.abs(continuity_residual(*fast))) < 1e-12


def test_projection_matches_dense_kkt_balanced():
    g = StaggeredGrid(6, 8)
    rng = np.random.default_rng(64)
    x = g.x
    rho0 = 1.0 + 0.3 * np.sin(x)
    rho1 = np.roll(rho0, 2)  # equal masses
    state = (g, rng.normal(1, 0.5, (7, 8)), rng.normal(0, 1, (6, 8)),
             np.zeros((6, 8)))
    fast = project(state, rho0, rho1, balanced=True)
    dense = dense_projection(state, rho0, rho1, balanced=True)
    assert state_gap(fast, dense) < 1e-10
    assert np.max(np.abs(fast[3])) == 0.0


def test_projection_zero_input_uniform_case():
    # all-zero fields with uniform pinned ends: the projection is nontrivial
    # in all three variables (checked against the dense KKT solve)
    g = StaggeredGrid(8, 8)
    zeros = (g, np.zeros((9, 8)), np.zeros((8, 8)), np.zeros((8, 8)))
    rho0 = np.ones(8)
    rho1 = np.ones(8)
    fast = project(zeros, rho0, rho1)
    dense = dense_projection(zeros, rho0, rho1, balanced=False)
    assert state_gap(fast, dense) < 1e-10
    assert np.max(np.abs(fast[3])) > 1e-3  # growth participates


@pytest.mark.parametrize("balanced", [False, True])
def test_projection_matches_dense_kkt_at_odd_nx(balanced):
    g = StaggeredGrid(5, 7)
    rng = np.random.default_rng(68)
    rho0 = 1.0 + 0.3 * np.sin(g.x)
    rho1 = np.roll(rho0, 3) if balanced else 1.5 + 0.2 * np.cos(g.x)
    state = (g, rng.normal(1, 0.5, (6, 7)), rng.normal(0, 1, (5, 7)),
             rng.normal(0, 1, (5, 7)))
    fast = project(state, rho0, rho1, balanced=balanced)
    dense = dense_projection(state, rho0, rho1, balanced=balanced)
    assert state_gap(fast, dense) < 1e-10
    assert np.max(np.abs(continuity_residual(*fast))) < 1e-12


@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("nt, nx", [(6, 8), (5, 7)])
def test_projection_kernel_keeps_no_state_between_runs(nt, nx, balanced):
    # the call list, built once on its arrays as solve_wfr builds it, run
    # on new interior values each time, gives the bits of a fresh
    # continuity_project; it pins the end rows when it is built
    g = StaggeredGrid(nt, nx)
    rng = np.random.default_rng(73)
    rho0 = 1.0 + 0.3 * np.sin(g.x)
    rho1 = np.roll(rho0, 3) if balanced else 1.5 + 0.2 * np.cos(g.x)
    rho, m, mu = np.zeros((nt + 1, nx)), np.zeros((nt, nx)), np.ones((nt, nx))
    calls = wfr._projection_kernel(g, rho, m, mu, rho0, rho1, balanced)
    assert same_bits(rho[0], rho0) and same_bits(rho[-1], rho1)
    assert np.all(mu == 1.0)  # written only when the calls run
    for _ in range(5):
        rho[1:-1] = rng.normal(1.0, 0.5, (nt - 1, nx))
        m[...] = rng.normal(0.0, 1.0, (nt, nx))
        mu[...] = rng.normal(0.0, 1.0, (nt, nx))
        want = continuity_project(g, rho.copy(), m.copy(), mu.copy(), rho0,
                                  rho1, balanced=balanced)
        wfr._run(calls)
        assert all(same_bits(a, w) for a, w in zip((rho, m, mu), want))


def test_projection_symbol_across_grids_and_modes():
    # alternating grids and modes must never hand one case another's symbol
    rng = np.random.default_rng(69)
    cases = []
    for nt, nx in ((6, 8), (5, 7)):
        g = StaggeredGrid(nt, nx)
        rho0 = 1.0 + 0.3 * np.sin(g.x)
        state = (g, rng.normal(1, 0.5, (nt + 1, nx)),
                 rng.normal(0, 1, (nt, nx)), rng.normal(0, 1, (nt, nx)))
        for balanced in (False, True):
            rho1 = np.roll(rho0, 2) if balanced else 1.5 + 0.0 * rho0
            dense = dense_projection(state, rho0, rho1, balanced=balanced)
            cases.append((state, rho0, rho1, balanced, dense))
    for _ in range(2):
        for state, rho0, rho1, balanced, dense in cases:
            fast = project(state, rho0, rho1, balanced=balanced)
            assert state_gap(fast, dense) < 1e-10
    symbol = _projection_operators(StaggeredGrid(5, 7), True)[2]
    assert symbol.shape == (5, 4) and symbol[0, 0] == 0.0


def test_cosine_matrices_are_exact_transforms():
    rng = np.random.default_rng(70)
    for nt in (4, 5, 16, 64):
        c, ci, _ = _projection_operators(StaggeredGrid(nt, 8), False)
        # entries within a few ulp of scipy's; without the integer argument
        # reduction they drift to 8.7e-15 at nt = 16 and 3.9e-14 at nt = 64
        assert np.max(np.abs(c - dct(np.eye(nt), type=2, axis=0))) < 4e-15
        r = rng.normal(0, 1, (nt, 7))
        assert np.max(np.abs(c @ r - dct(r, type=2, axis=0))) < 1e-13
        assert np.max(np.abs(ci @ r - idct(r, type=2, axis=0))) < 1e-14
        assert np.max(np.abs(ci @ c - np.eye(nt))) < 1e-14


def bracketed_projections(monkeypatch, before, after):
    """Make every projection call list, the solver's and continuity_project's,
    call before() first and after() last; returns the list of kernels
    built, as (g, balanced)."""
    built = []
    kernel = wfr._projection_kernel

    def bracketed(g, *args):
        built.append((g, args[-1]))
        return [(before, ())] + kernel(g, *args) + [(after, ())]

    monkeypatch.setattr(wfr, "_projection_kernel", bracketed)
    return built


def test_projection_makes_one_transform_each_way(monkeypatch):
    # space: one rfft and one irfft through grid's pocketfft gufuncs; time:
    # the cosine matrices, in every projection of a solve, and no other
    # transform in the solve
    pg = PeriodicGrid(16)
    calls = count_transforms(monkeypatch)
    per_call, start = [], []

    def after():
        names = [name for name, _ in calls[start.pop():]]
        per_call.append({k: names.count(k) for k in ("rfft", "irfft")})

    bracketed_projections(monkeypatch, lambda: start.append(len(calls)),
                          after)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    for kw, setup in (({"rho1": bump_density(pg, 4.0, 0.6, 1.5)}, 0),
                      ({"rho1": np.roll(b1, 3), "balanced": True}, 1)):
        per_call.clear()
        calls.clear()
        with pytest.raises(WFRConvergenceError):
            solve_wfr(b1, nt=8, tol=1e-300, max_iters=50, **kw)
        assert per_call == [dict(rfft=1, irfft=1)] * (50 + setup)
        assert calls == [("rfft", (8, 16)), ("irfft", (8, 9))] * (50 + setup)


def test_projection_idempotent_and_pins_ends():
    g = StaggeredGrid(8, 16)
    rng = np.random.default_rng(65)
    x = g.x
    rho0 = 1.0 + 0.3 * np.sin(x)
    rho1 = 1.5 + 0.2 * np.cos(x)
    state = (g, rng.normal(1, 0.5, (9, 16)), rng.normal(0, 1, (8, 16)),
             rng.normal(0, 1, (8, 16)))
    p1 = project(state, rho0, rho1)
    assert np.max(np.abs(p1[1][0] - rho0)) == 0.0
    assert np.max(np.abs(p1[1][-1] - rho1)) == 0.0
    # the projection writes into the arrays it is given and returns them
    arrays = tuple(a.copy() for a in p1[1:])
    out = continuity_project(g, *arrays, rho0, rho1)
    assert all(a is b for a, b in zip(out, arrays))
    assert state_gap(p1, (g, *out)) < 1e-12


def test_projection_balanced_requires_equal_masses():
    g = StaggeredGrid(6, 8)
    arrays = (np.zeros((7, 8)), np.zeros((6, 8)), np.ones((6, 8)))
    with pytest.raises(ValueError):
        continuity_project(g, *arrays, np.ones(8), 2.0 * np.ones(8),
                           balanced=True)
    # the mass check runs before the projection writes anything
    assert not np.any(arrays[0]) and not np.any(arrays[1])
    assert np.all(arrays[2] == 1.0)


# -- distance solver -------------------------------------------------------------


def test_solver_identical_inputs_gives_zero():
    pg = PeriodicGrid(16)
    rho = bump_density(pg, 2.0, 0.8, 1.0)
    res = solve_wfr(rho, rho.copy(), 8, tol=1e-7)
    assert res.converged
    assert res.distance < 1e-12


@pytest.mark.parametrize("balanced", [False, True])
def test_solver_self_pairs_converge_at_the_first_check(balanced):
    # the action of a zero distance is rounding noise, measured against eps
    # times the squared mass bound: it must not decide when the solver stops
    pg = PeriodicGrid(16)
    rng = np.random.default_rng(5)
    rhos = [bump_density(pg, 3.0, 0.3, 0.7)]
    for _ in range(5):
        rhos.append(bump_density(pg, rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0.3, 1.2), rng.uniform(0.3, 2.0))
                    + rng.uniform(0, 0.3))
    for rho in rhos:
        res = solve_wfr(rho, rho.copy(), 16, tol=1e-7, balanced=balanced)
        assert res.iterations == wfr._MIN_ITERS
        assert res.distance < 1e-12


def test_solver_symmetry():
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    tol = 1e-7
    d12 = solve_wfr(b1, b2, 16, tol=tol).distance
    d21 = solve_wfr(b2, b1, 16, tol=tol).distance
    assert abs(d12 - d21) < 2 * tol


def test_solver_mass_scaling():
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    d = solve_wfr(b1, b2, 16, tol=1e-7).distance
    for sigma in (0.25, 4.0):
        ds = solve_wfr(sigma * b1, sigma * b2, 16, tol=1e-7).distance
        assert abs(ds - np.sqrt(sigma) * d) < 1e-4 * ds


def test_solver_triangle_inequality():
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    b3 = bump_density(pg, 0.5, 0.7, 0.8)
    d12 = solve_wfr(b1, b2, 16, tol=1e-6).distance
    d23 = solve_wfr(b2, b3, 16, tol=1e-6).distance
    d13 = solve_wfr(b1, b3, 16, tol=1e-6).distance
    assert d13 <= d12 + d23 + 1e-6


def test_solver_bounded_by_hellinger_and_total_mass():
    pg = PeriodicGrid(16)
    rng = np.random.default_rng(66)
    for _ in range(10):
        r0 = bump_density(pg, rng.uniform(0, 2 * np.pi),
                          rng.uniform(0.4, 1.2), rng.uniform(0.3, 2.0))
        r0 = r0 + rng.uniform(0, 0.3)
        r1 = bump_density(pg, rng.uniform(0, 2 * np.pi),
                          rng.uniform(0.4, 1.2), rng.uniform(0.3, 2.0))
        r1 = r1 + rng.uniform(0, 0.3)
        d = solve_wfr(r0, r1, 16, tol=1e-5).distance
        hel = hellinger_distance(pg, r0, r1)
        cap = (np.sqrt(pg.integrate(r0)) + np.sqrt(pg.integrate(r1)))
        assert d <= hel * (1 + 1e-3)
        assert d <= cap * (1 + 1e-3)  # 2b = 1 at the default coefficients


def test_solver_uniform_growth_value():
    # uniform 1 -> 2: squared distance 2 pi (sqrt(2) - 1)^2, no transport
    target = 2 * np.pi * (np.sqrt(2.0) - 1.0) ** 2
    for n in (32, 64):
        res = solve_wfr(np.ones(n), 2.0 * np.ones(n), n, tol=1e-7)
        assert abs(res.distance ** 2 - target) < 1e-2 * target
    assert abs(res.distance ** 2 - target) < 1e-4 * target


def test_solver_convergence_error_carries_partial_result():
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    with pytest.raises(WFRConvergenceError) as info:
        solve_wfr(b1, b2, 8, tol=1e-7, max_iters=50)
    partial = info.value.result
    assert partial.iterations == 50
    assert not partial.converged
    assert np.isfinite(partial.distance)


def assert_close_to_earlier(result, ref):
    u, rho_c, m_c, mu_c, action, iterations, _ = ref
    assert result.iterations == iterations
    assert result.action == pytest.approx(action, rel=1e-13, abs=0.0)
    assert result.distance == pytest.approx(np.sqrt(action), rel=1e-13,
                                            abs=0.0)
    for got, want in zip((result.rho, result.m, result.mu, result.rho_c,
                          result.m_c, result.mu_c), (*u[1:], rho_c, m_c, mu_c)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_solver_equals_the_reference_loop():
    # in-place projection and slice shifts change only the plumbing, never
    # the arithmetic; the scaled dual, the cosine matrices and the up-front
    # apex cells change only the rounding of the earlier loop
    pg = PeriodicGrid(16)
    vac0 = bump_density(pg, 1.0, 0.4, 0.5) + 3e-3
    vac1 = bump_density(pg, 4.0, 0.5, 1.5) + 3e-3
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    cases = [((vac0, vac1, 16), {"tol": 1e-5}),
             ((b1, np.roll(b1, 3), 8), {"tol": 1e-6, "balanced": True})]
    for args, kw in cases:
        res = solve_wfr(*args, **kw)
        assert res.converged
        assert_same_as_reference(res, reference_solve(*args, **kw))
        assert_close_to_earlier(res, earlier_solve(*args, **kw))
    with pytest.raises(WFRConvergenceError) as info:
        solve_wfr(b1, b2, 8, tol=1e-7, max_iters=30)
    for oracle, check in ((reference_solve, assert_same_as_reference),
                          (earlier_solve, assert_close_to_earlier)):
        check(info.value.result, oracle(b1, b2, 8, tol=1e-7, max_iters=30))


@pytest.mark.parametrize("balanced", [False, True])
def test_solver_equals_the_reference_loop_at_odd_nx(balanced):
    # the wrapped column of every periodic shift is a slice of its own
    x = StaggeredGrid(5, 7).x
    rho0 = 1.0 + 0.6 * np.cos(x - 1.0)
    rho1 = np.roll(rho0, 3) if balanced else 1.5 + 0.8 * np.sin(2.0 * x)
    kw = {"tol": 1e-6, "balanced": balanced}
    res = solve_wfr(rho0, rho1, 5, **kw)
    assert res.converged
    assert_same_as_reference(res, reference_solve(rho0, rho1, 5, **kw))


def test_solver_partial_result_equals_the_reference_loop_at_192_by_16():
    # the shape of the benchmark's separated pair: two narrow bumps on a
    # 192-point circle, mostly vacuum, stopped after 60 iterations
    pg = PeriodicGrid(192)
    rho0 = bump_density(pg, np.pi - np.pi / 8, 0.16, 1.0)
    rho1 = bump_density(pg, np.pi + np.pi / 8, 0.16, 1.0)
    with pytest.raises(WFRConvergenceError) as info:
        solve_wfr(rho0, rho1, 16, tol=3e-6, max_iters=60)
    assert info.value.result.iterations == 60
    assert_same_as_reference(info.value.result, reference_solve(
        rho0, rho1, 16, tol=3e-6, max_iters=60))


def test_solver_results_own_their_arrays():
    # each solve works in arrays of its own: a later solve changes neither
    # an earlier result nor a partial one, and no solve writes its inputs
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    ends = (b1.copy(), b2.copy())
    first = solve_wfr(b1, b2, 8, tol=1e-6)
    with pytest.raises(WFRConvergenceError) as info:
        solve_wfr(b2, b1, 8, tol=1e-7, max_iters=30)
    partial = info.value.result
    fields = ("rho", "m", "mu", "rho_c", "m_c", "mu_c")
    saved = [{f: getattr(r, f).copy() for f in fields}
             for r in (first, partial)]
    solve_wfr(b1, np.roll(b1, 3), 8, tol=1e-6, balanced=True)
    solve_wfr(b2, b1, 8, tol=1e-6)
    for r, before in zip((first, partial), saved):
        for f in fields:
            assert same_bits(getattr(r, f), before[f])
    assert same_bits(b1, ends[0]) and same_bits(b2, ends[1])


def test_interleaved_solves_equal_the_solves_run_alone(monkeypatch):
    # two solves started inside a third, at its first two action checks,
    # share no kernel, scratch or workspace with it: all three give the
    # bits of the same solves run alone
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    x = StaggeredGrid(5, 7).x
    outer = ((b1, b2, 8), {"tol": 1e-6})
    inner = [((b1, np.roll(b1, 3), 8), {"tol": 1e-6, "balanced": True}),
             ((1.0 + 0.6 * np.cos(x - 1.0), 1.5 + 0.8 * np.sin(2.0 * x), 5),
              {"tol": 1e-6})]
    alone = [solve_wfr(*args, **kw) for args, kw in [outer] + inner]
    action, pending, nested, running = wfr.wfr_action, list(inner), [], []

    def interleaving(*args):
        if pending and not running:  # at the outer solve's checks only
            inner_args, kw = pending.pop(0)
            running.append(True)
            nested.append(solve_wfr(*inner_args, **kw))
            running.pop()
        return action(*args)

    monkeypatch.setattr(wfr, "wfr_action", interleaving)
    together = [solve_wfr(*outer[0], **outer[1])] + nested
    assert not pending
    fields = ("rho", "m", "mu", "rho_c", "m_c", "mu_c")
    for got, want in zip(together, alone):
        for f in ("distance", "action", "iterations", "converged",
                  "constraint_residual", "rel_change", "grid"):
            assert getattr(got, f) == getattr(want, f)
        assert all(same_bits(getattr(got, f), getattr(want, f))
                   for f in fields)


def test_solver_calls_each_layer_once_per_iteration(monkeypatch):
    # each layer's kernel is built once per solve and run once per
    # iteration: one prox run and one whole projection, in that order
    pg = PeriodicGrid(16)
    b1 = bump_density(pg, 2.0, 0.8, 1.0)
    b2 = bump_density(pg, 4.0, 0.6, 1.5)
    events = []
    prox_kernel = wfr._prox_kernel

    def counting_prox_kernel(*args):
        events.append("prox built")
        prox = prox_kernel(*args)

        def counted():
            events.append("prox")
            return prox()
        return counted

    monkeypatch.setattr(wfr, "_prox_kernel", counting_prox_kernel)
    built = bracketed_projections(monkeypatch,
                                  lambda: events.append("project"),
                                  lambda: events.append("projected"))
    # (kwargs, set-up projections): balanced mode runs the loop's own
    # projection kernel once on its starting point, before the loop
    cases = [({}, 0), ({"balanced": True, "rho1": np.roll(b1, 3)}, 1)]
    for kw, setup in cases:
        for max_iters in (200, 975):
            events.clear()
            built.clear()
            args = dict({"rho1": b2, "tol": 1e-300}, **kw)
            with pytest.raises(WFRConvergenceError) as info:
                solve_wfr(b1, nt=8, max_iters=max_iters, **args)
            assert info.value.result.iterations == max_iters
            assert events == (["project", "projected"] * setup
                              + ["prox built"]
                              + ["project", "projected", "prox"] * max_iters)
            balanced = kw.get("balanced", False)
            assert built == [(StaggeredGrid(8, 16), balanced)]


@pytest.mark.parametrize("scale", [1e-14, 1e-20])
def test_solver_rejects_densities_below_the_smallest_scale(scale):
    # the prox's absolute stopping test would end every Newton loop before
    # its first step: 200 iterations, "converged", and a wrong distance
    with pytest.raises(ValueError, match="1e-10"):
        solve_wfr(scale * np.ones(16), 2 * scale * np.ones(16), 8)
    with pytest.raises(ValueError, match="1e-10"):
        solve_wfr(np.zeros(16), scale * np.ones(16), 8)
    # a zero pair has the exact answer 0
    res = solve_wfr(np.zeros(16), np.zeros(16), 8)
    assert res.converged and res.distance == 0.0
    # above 1e-10 the solve runs
    with pytest.raises(WFRConvergenceError):
        solve_wfr(1e-10 * np.ones(16), 2e-10 * np.ones(16), 8, max_iters=1)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_wfr(-np.ones(16), np.ones(16), 8)
    with pytest.raises(ValueError):
        solve_wfr(np.ones(16), np.ones(8), 8)
    with pytest.raises(ValueError, match="1d nodal array"):
        solve_wfr(np.ones((2, 16)), np.ones(16), 8)
    with pytest.raises(ValueError):
        solve_wfr(np.ones(16), 2 * np.ones(16), 8, balanced=True)
    # bad stopping parameters fail before the first iteration
    for kw in ({"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0},
               {"tol": -1e-7}, {"max_iters": 0}, {"max_iters": -5},
               {"max_iters": 10.0}, {"max_iters": None},
               {"max_iters": True}):
        with pytest.raises(ValueError, match="tol|max_iters"):
            solve_wfr(np.ones(16), 2 * np.ones(16), 8, **kw)


def test_balanced_solver_converges_to_the_circle_w2_at_second_order():
    # exact W2^2 from the quantile functions; at nt = 32 the time error
    # (about 1.5e-5) is below a tenth of the space error at every nx
    x = PeriodicGrid(16).x
    w2 = circle_w2(1 + 0.5 * np.cos(x), 1 + 0.5 * np.cos(x - 1))
    assert w2 == pytest.approx(0.7463459647311, abs=1e-12)
    d2 = []
    for nx in (32, 64, 128):
        x = PeriodicGrid(nx).x
        res = solve_wfr(1 + 0.5 * np.cos(x), 1 + 0.5 * np.cos(x - 1), 32,
                        balanced=True, tol=1e-9)
        d2.append(res.distance ** 2)
    err = np.array(d2) - w2
    ratios = err[:-1] / err[1:]
    assert np.all((3 <= ratios) & (ratios <= 5)), ratios
    assert abs((4 * d2[2] - d2[1]) / 3 - w2) < 5e-5


@pytest.mark.parametrize("n", [32, 64, 128])
def test_circle_w2_of_a_two_mode_pair(n):
    # modes 1 and 2, so the optimal plan is no rigid shift: the quantile
    # value is the same on every grid that resolves both densities
    x = PeriodicGrid(n).x
    w2 = circle_w2(1 + 0.3 * np.sin(x), 1 + 0.4 * np.cos(2 * x))
    assert w2 == pytest.approx(0.3540121924601, abs=1e-12)


def translated_bumps(width):
    # unit-mass bumps pi/4 apart, as the benchmark's balanced pair
    grid = PeriodicGrid(128)
    return (bump_density(grid, np.pi - np.pi / 8, width, 1.0),
            bump_density(grid, np.pi + np.pi / 8, width, 1.0))


def test_circle_w2_refuses_near_vacuum_densities():
    # min/max 3.7e-6: the midpoint rule in the mass coordinate gives
    # 0.6300, above the translation plan's cost (pi/4)^2 = 0.61685
    with pytest.raises(ValueError, match="min rho >= 1e-2 max rho"):
        circle_w2(*translated_bumps(0.4), nodes=512)


def test_circle_w2_of_translated_bumps_is_below_the_translation_cost():
    # min/max 1.7e-2: converged in the node count
    pair = translated_bumps(0.7)
    coarse, fine = circle_w2(*pair, nodes=512), circle_w2(*pair, nodes=2048)
    assert abs(coarse - fine) < 1e-9
    assert fine <= (np.pi / 4) ** 2


def test_hellinger_distance_values():
    pg = PeriodicGrid(32)
    # uniform 1 -> 4: 2b |2 - 1| sqrt(2 pi) at b = 1/2
    d = hellinger_distance(pg, np.ones(32), 4.0 * np.ones(32))
    assert d == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)
    rho = bump_density(pg, 1.0, 0.5, 1.0)
    assert hellinger_distance(pg, rho, rho) == 0.0
    # endpoints must live on the grid: no silent broadcast or reshaping
    for rho0, rho1 in ((np.ones(8), np.ones(8)), (np.ones(32), np.ones(1)),
                       (np.ones(1), np.ones(32))):
        with pytest.raises(ValueError, match="shape"):
            hellinger_distance(pg, rho0, rho1)


def test_hellinger_distance_of_huge_densities_is_finite():
    # the gap 1e154 - 1 squares to 1e308, and 16 of them overflowed the sum;
    # the distance itself, 2b sqrt(2 pi) (1e154 - 1), is a float
    pg = PeriodicGrid(16)
    d = hellinger_distance(pg, np.full(16, 1e308), np.ones(16))
    assert d == pytest.approx(np.sqrt(2 * np.pi) * (1e154 - 1), rel=1e-15)


# -- geodesic flows ---------------------------------------------------------------


def test_horizontal_flow_pure_growth_closed_form():
    grid = PeriodicGrid(64)
    c = 0.5
    rho_bar = 1.3
    res = horizontal_flow(grid, rho_bar * np.ones(grid.n),
                          c * np.ones(grid.n), 1.0, 1e-3)
    # constant potential: v = 0, alpha(t) = c/(1+ct), rho = rho0 (1+ct)^2
    assert np.max(np.abs(res.v)) == 0.0
    assert np.max(np.abs(res.alpha - c / (1 + c * res.times)[:, None])) < 1e-12
    assert np.max(np.abs(res.rho - rho_bar
                         * ((1 + c * res.times) ** 2)[:, None])) < 1e-12
    assert res.action == pytest.approx(2 * np.pi * rho_bar * c ** 2, rel=1e-9)
    assert res.horizontality_defect < 1e-12


def test_horizontal_flow_reaches_the_apex_in_closed_form():
    # Phi0 = -2 on rho0 = 1: v = 0, alpha = -2/(1 - 2t), rho = (1 - 2t)^2,
    # so the geodesic reaches the apex at t = 1/2
    grid = PeriodicGrid(16)
    res = horizontal_flow(grid, np.ones(grid.n), -2.0 * np.ones(grid.n),
                          0.4, 1e-3)
    assert np.max(np.abs(res.v)) == 0.0
    assert np.max(np.abs(res.rho[-1] - 0.04)) < 1e-9
    assert np.max(np.abs(res.alpha[-1] + 10.0)) < 1e-8


def test_horizontal_flow_past_the_apex_overflows():
    # alpha = -2/(1 - 2t) would overflow past the apex; the flow stops at
    # the apex itself, the root of lam^2 phi_x = (1 - 2t)^2
    grid = PeriodicGrid(16)
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(grid, np.ones(grid.n), -2.0 * np.ones(grid.n),
                        1.0, 1e-3)
    assert str(info.value) == ("horizontal flow reaches the apex or folds at "
                               "t=0.5 (label y=0)")


def test_horizontal_flow_reports_an_overflowing_field():
    # no label reaches the apex, but rho = 1.7e308 (1 + t/2)^2 overflows
    grid = PeriodicGrid(16)
    with pytest.raises(RuntimeError, match="^horizontal flow overflowed$"):
        horizontal_flow(grid, np.full(16, 1.7e308), np.full(16, 0.5), 0.5,
                        0.1)


def test_calibrated_pair_refuses_a_path_through_the_apex():
    # Phi0 = -2 on rho0 = 1 reaches the apex at t = 1/2, where lam = |1 - 2t|
    # vanishes; at t = 1 lam is back to 1, so only the whole interval tells
    grid = PeriodicGrid(16)
    rho, v, alpha, _ = calibrated_pair(grid, np.ones(16), np.full(16, -2.0),
                                       0.4)
    assert np.max(np.abs(rho - 0.04)) < 1e-15 and np.max(np.abs(v)) == 0.0
    assert np.max(np.abs(alpha + 10.0)) < 1e-13
    with pytest.raises(ValueError, match="reaches the apex or folds"):
        calibrated_pair(grid, np.ones(16), np.full(16, -2.0), 1.0)


def calibrated_data(n):
    # acceptance test 6's horizontal geodesic
    grid = PeriodicGrid(n)
    return grid, 1.0 + 0.3 * np.sin(grid.x), 0.3 * np.cos(grid.x) + 0.2


def test_horizontal_flow_matches_the_closed_form():
    grid, rho0, phi0 = calibrated_data(64)
    flow = horizontal_flow(grid, rho0, phi0, 1.0, 1e-3)
    for i in (500, 1000):
        rho, v, alpha, energy = calibrated_pair(grid, rho0, phi0,
                                                flow.times[i])
        assert np.max(np.abs(flow.rho[i] - rho)) < 1e-11
        assert np.max(np.abs(flow.v[i] - v)) < 1e-11
        assert np.max(np.abs(flow.alpha[i] - alpha)) < 1e-11
    assert energy == pytest.approx(0.6047565858160352, abs=1e-15)
    assert abs(flow.action - energy) < 1e-12


def test_horizontal_flow_inverts_the_labels_in_bounded_chunks():
    # the output is 1.5 MB; the labels of all 1,001 slices at once took
    # 9.8 MB, above ch_solve's peak at n = 1,024
    grid, rho0, phi0 = calibrated_data(64)
    horizontal_flow(grid, rho0, phi0, 1.0, 1e-3)
    tracemalloc.start()
    try:
        horizontal_flow(grid, rho0, phi0, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_unbalanced_distance_converges_to_the_geodesic_energy():
    # the unit-time horizontal geodesic is minimal, so d^2 = E in the limit;
    # the solver's gap d^2 - E shrinks at O(h^2) (nt = 32 is too coarse)
    gaps = []
    for nx in (32, 64, 128):
        grid, rho0, phi0 = calibrated_data(nx)
        rho1, _, _, energy = calibrated_pair(grid, rho0, phi0)
        res = solve_wfr(rho0, rho1, 64, tol=1e-9)
        gaps.append(res.distance ** 2 - energy)
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), (gaps, ratios)


@pytest.mark.parametrize("rho0, phi0, t_final, dt, error", [
    (bump_density(PeriodicGrid(16), np.pi, 0.8, 1.0),
     np.sin(PeriodicGrid(16).x), 2.0, 1e-2, "t=1 (label y=4.71239)"),
    (np.ones(16), np.full(16, -2.0), 1.0, 1e-3, "t=0.5 (label y=0)"),
], ids=["lost-positivity", "overflowed"])
def test_horizontal_flow_raises_at_the_first_failing_step(rho0, phi0, t_final,
                                                          dt, error):
    # the first root of 1 + c1 t + c2 t^2 over the labels, whatever dt is:
    # Phi0 = sin x has the roots 1 and 2 at y = 3 pi/2, where 1 + t w = 1 - t
    # reaches the apex; Phi0 = -2 reaches it at t = 1/2 at every label
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(PeriodicGrid(16), rho0, phi0, t_final, dt)
    assert str(info.value) == ("horizontal flow reaches the apex or folds at "
                               + error)


@pytest.mark.parametrize("t_final", [1.0, 2.0])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6])
def test_horizontal_flow_loses_positivity_at_the_same_step_at_any_scale(
        scale, t_final):
    # the flow is linear in rho (v and alpha never see its scale), and the
    # label y = pi reaches the apex at t = 1 exactly: 1 + t w = 1 - t there
    grid = PeriodicGrid(32)
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(grid, scale * (1.0 + 0.3 * np.sin(grid.x)),
                        -0.6 + 0.4 * np.cos(grid.x), t_final, 1e-3)
    assert str(info.value) == ("horizontal flow reaches the apex or folds at "
                               "t=1 (label y=3.14159)")


@pytest.mark.parametrize("s", [1.0, 3.0, 1e100, 1e154, 1e160, 1e200, 1e300])
def test_horizontal_flow_names_the_apex_of_a_huge_potential(s):
    # Phi0 = s sin x: at y = 3 pi/2, 1 + t w = 1 - s t reaches the apex at
    # t = 1/s.  The label quadratic's coefficients, of order s and s^2,
    # would overflow unscaled (c1^2 - 4 c2 is inf - inf above s ~ 1e154)
    grid = PeriodicGrid(16)
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(grid, np.ones(16), s * np.sin(grid.x), 1.0, 1e-2)
    assert str(info.value) == ("horizontal flow reaches the apex or folds at "
                               f"t={1 / s:.6g} (label y=4.71239)")


def test_horizontal_flow_finds_a_fold_between_the_nodes():
    # Phi0 = 0.3 cos 6(x - h/2) folds first at the label y = h/2, midway
    # between two nodes: c1 = -4.8 and c2 = -1.53 there, so t = 10/51.
    # The nodes alone first fold at t = 0.211
    grid = PeriodicGrid(16)
    phi0 = 0.3 * np.cos(6 * (grid.x - grid.h / 2))
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(grid, np.ones(grid.n), phi0, 0.2, 1e-3)
    assert str(info.value) == ("horizontal flow reaches the apex or folds at "
                               "t=0.196078 (label y=0.19635)")
    res = horizontal_flow(grid, np.ones(grid.n), phi0, 0.196, 1e-3)
    assert res.rho.min() > 0


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_horizontal_flow_breaks_down_at_the_same_time_at_any_resolution(n):
    # the apex time is a property of the data, not of n, and short of it
    # the flow returns
    grid = PeriodicGrid(n)
    rho0, phi0 = 1.0 + 0.3 * np.sin(grid.x), -0.6 + 0.4 * np.cos(grid.x)
    with pytest.raises(RuntimeError, match=r"at t=1 \(label y=3.14159\)$"):
        horizontal_flow(grid, rho0, phi0, 1.0, 1e-3)
    res = horizontal_flow(grid, rho0, phi0, 0.9, 1e-3)
    assert np.all(res.rho > 0) and np.isfinite(res.alpha).all()
    # the label pi stays at x = pi with lam^2 = (1 - t)^2 and
    # phi_y = 1 + 0.2 t / (1 - t), so rho = 0.01 / 2.8 there at t = 0.9
    assert res.rho[-1, n // 2] == pytest.approx(1.0 / 280.0, rel=1e-12)


def test_horizontal_flow_inverts_labels_where_newton_cycles():
    # at t = 0.4774 Newton kept inside its bracket alone cycles between
    # y = 0.50 and 1.93 for the node x = 1.96, about an inflection of phi
    grid = PeriodicGrid(32)
    coeffs = [(-1.3555812394829843, -0.9445066229838364),
              (-0.08738604602758097, -0.21109520578817678),
              (0.10682149874930555, 0.10866096551128179)]
    phi0 = sum(a * np.cos(k * grid.x) + b * np.sin(k * grid.x)
               for k, (a, b) in enumerate(coeffs, 1))
    res = horizontal_flow(grid, np.ones(32), phi0, 0.4774, 0.4774)
    rho, v, alpha, _ = calibrated_pair(grid, np.ones(32), phi0, 0.4774)
    for new, ref in zip((res.rho[-1], res.v[-1], res.alpha[-1]),
                        (rho, v, alpha)):
        assert np.max(np.abs(new - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name, rho0, phi0", [
    ("phi0", np.ones(16), np.full(16, np.nan)),
    ("phi0", np.ones(16), np.zeros(8)),
    ("phi0", np.ones(16), 0.5),
    ("rho0", np.ones(8), np.zeros(16)),
], ids=["nan-phi0", "short-phi0", "scalar-phi0", "short-rho0"])
def test_horizontal_flow_names_a_bad_initial_field(name, rho0, phi0):
    with pytest.raises(ValueError, match=f"{name} must be a finite nodal "
                                         r"array of shape \(16,\)"):
        horizontal_flow(PeriodicGrid(16), rho0, phi0, 0.1, 0.01)


@pytest.mark.parametrize("t_final", [0.499, 0.5, 0.501, 0.502])
def test_horizontal_flow_ending_at_the_apex_raises(t_final):
    # rho = (1 - 2t)^2 up to the hit at t = 1/2, which is named exactly from
    # t_final = 0.5 on; one step short of it the flow returns
    grid = PeriodicGrid(16)
    if t_final < 0.5:
        res = horizontal_flow(grid, np.ones(grid.n), -2.0 * np.ones(grid.n),
                              t_final, 1e-3)
        exact = (1.0 - 2.0 * res.times[:, None]) ** 2
        assert np.max(np.abs(res.rho - exact)) < 1e-15
        assert res.rho[-1] == pytest.approx(4e-6, rel=1e-9)
        return
    with pytest.raises(RuntimeError) as info:
        horizontal_flow(grid, np.ones(grid.n), -2.0 * np.ones(grid.n),
                        t_final, 1e-3)
    assert str(info.value).endswith("at t=0.5 (label y=0)")


def test_horizontal_flow_stays_horizontal():
    grid = PeriodicGrid(64)
    rho0 = 1.0 + 0.3 * np.sin(grid.x)
    phi0 = 0.3 * np.cos(grid.x) + 0.2
    res = horizontal_flow(grid, rho0, phi0, 0.5, 1e-3)
    assert res.horizontality_defect < 1e-6
    assert np.all(res.mass > 0)
    assert res.mass[0] == pytest.approx(grid.integrate(rho0), abs=1e-12)


def lift_defect(grid, v, alpha, rho):
    """|v - lift_v|: the distance of (v, alpha) from the horizontal lift of
    its own action on rho, by horizontal_lift's conjugate-gradient solve."""
    field = DensityField(grid, np.maximum(rho, 0.0))
    pair = VelocityPair(grid, v, alpha)
    lift = horizontal_lift(field, infinitesimal_action(pair, field))
    return float(np.max(np.abs(v - lift.pair.v)))


def reference_horizontal_flow(grid, rho0, phi0, t_final, dt):
    """The Eulerian system of horizontal_flow stepped by RK4, each quadratic
    product dealiased on its own (seven filters per right-hand side), and
    the lift-based defect checked every ten steps and at the end; returns
    (rho, v, alpha, action, defect)."""
    n_steps = int(round(t_final / dt))
    v, alpha, rho = 0.5 * grid.deriv(phi0), phi0.copy(), rho0.copy()

    def rhs(_, y):
        v, alpha, rho = y
        vx = grid.deriv(v)
        ax = grid.deriv(alpha)
        dv = -dealias(v * vx) - 2.0 * dealias(alpha * v)
        da = -dealias(ax * v) - dealias(alpha * alpha) + dealias(v * v)
        dr = -grid.deriv(dealias(v * rho)) + 2.0 * dealias(alpha * rho)
        return dv, da, dr

    out = np.empty((3, n_steps + 1, grid.n))
    out[:, 0] = rho, v, alpha
    defect = lift_defect(grid, v, alpha, rho)
    for i in range(n_steps):
        v, alpha, rho = tuple_rk4_step(rhs, (v, alpha, rho), dt)
        out[:, i + 1] = rho, v, alpha
        if (i + 1) % 10 == 0 or i + 1 == n_steps:
            defect = max(defect, lift_defect(grid, v, alpha, rho))
    times = np.arange(n_steps + 1) * dt
    energies = grid.integrate((out[1] ** 2 + out[2] ** 2) * out[0])
    return (*out, float(np.trapezoid(energies, times)), defect)


def test_horizontal_flow_matches_the_seven_dealias_reference():
    # acceptance test 6's data: the closed form against the stepped PDE,
    # and v = alpha_x / 2 measures what the lift solve measures
    grid = PeriodicGrid(64)
    rho0 = 1.0 + 0.3 * np.sin(grid.x)
    phi0 = 0.3 * np.cos(grid.x) + 0.2
    res = horizontal_flow(grid, rho0, phi0, 1.0, 1e-3)
    rho, v, alpha, action, defect = reference_horizontal_flow(
        grid, rho0, phi0, 1.0, 1e-3)
    for new, ref in ((res.rho, rho), (res.v, v), (res.alpha, alpha)):
        assert np.max(np.abs(new - ref)) < 1e-13 * np.max(np.abs(ref))
    assert res.action == pytest.approx(action, rel=1e-14, abs=0.0)
    assert defect < 1e-13
    assert res.horizontality_defect < 1e-13
    assert max(lift_defect(grid, v_i, a_i, r_i) for v_i, a_i, r_i
               in zip(res.v, res.alpha, res.rho)) < 1e-13


def test_wfr_imports_only_cone_and_grid():
    # the transport solver is a leaf module: the group, submersion and PDE
    # layers must not reach it, relatively or by absolute name
    imported = set()
    for node in ast.walk(ast.parse(Path(wfr.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            imported |= {name for name in names
                         if name.split(".")[0] == "coneflow"}
    assert imported == {"cone", "grid"}

