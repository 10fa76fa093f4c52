"""Dynamic unbalanced transport distance on the circle.

The squared distance is the infimum of the 1-homogeneous action

    J(rho, m, mu) = int int ( a^2 m^2 + b^2 mu^2 ) / rho  dx dt

over solutions of d_t rho + d_x m = mu joining two measures in unit time.
The discretization is a staggered space-time grid (densities at time
slices, momenta at space faces, sources at cell centers) solved with a
first-order primal-dual iteration on a scaled dual that alternates the
exact pointwise proximal map of the action integrand (monotone Newton,
warm-started from the previous iterate) with the Euclidean projection
onto the continuity constraint (real FFT in space, cosine transform in
time by a closed-form matrix, operators cached per grid).
Every operator works on plain arrays: rho (nt+1, nx) at the time slices,
m and mu (nt, nx) at the space faces and the cell centers.

Two scalar conventions coexist in this corner of the code base and are
never converted implicitly (see CONVENTIONS): the lift potential Phi of
horizontal pairs (Phi'/2, Phi) and the geodesic pressure p.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cone import ConeParams
from .grid import (PeriodicGrid, TWO_PI, fourier_multipliers,
                   require_integer, rk4_blocks, step_count)

CONVENTIONS = {
    "lift-potential": "horizontal pairs are (Phi'/2, Phi) with the potential "
                      "solving -(rho Phi')'/2 + 2 Phi rho = X",
    "pressure": "geodesic forcing is (-p'/2, -lam p); p solves "
                "(1 - d_xx/4) p = u^2 + 3/4 u_x^2 + 1/2 u u_xx",
}


_SIGMA = 0.95  # dual and primal step sizes of solve_wfr
_TAU = 0.95
_CHECK_EVERY = 25
_MIN_ITERS = 200


class WFRConvergenceError(RuntimeError):
    """Primal-dual iteration exhausted max_iters; carries the partial result."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class StaggeredGrid:
    """nt time cells on [0, 1] and nx periodic space cells on [0, 2*pi).

    Densities live on the nt+1 time slices, momenta on the nx space faces
    at half-integer positions, sources at the nt * nx cell centers.
    """

    nt: int
    nx: int

    def __post_init__(self):
        require_integer("nt", self.nt)
        require_integer("nx", self.nx)
        if self.nt < 4 or self.nx < 4:
            raise ValueError("staggered grid needs nt >= 4 and nx >= 4")

    @property
    def dt(self) -> float:
        return 1.0 / self.nt

    @property
    def h(self) -> float:
        return TWO_PI / self.nx

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.h

    @property
    def t_slices(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    @property
    def t_cells(self) -> np.ndarray:
        return (np.arange(self.nt) + 0.5) * self.dt


def _shift(a: np.ndarray, s: int) -> np.ndarray:
    """np.roll(a, s, axis=-1) for 0 < |s| < a.shape[-1], by slice assignment."""
    out = np.empty_like(a)
    out[..., s:] = a[..., :-s]
    out[..., :s] = a[..., -s:]
    return out


def interpolate_centers(rho, m, mu):
    """Staggered arrays averaged to the cell centers; mu, which already
    lives there, is returned as is, not copied."""
    return 0.5 * (rho[:-1] + rho[1:]), 0.5 * (m + _shift(m, 1)), mu


def _adjoint_centers(grid: StaggeredGrid, w_rho, w_m, w_mu):
    """Adjoint of interpolate_centers; boundary density slices receive zero."""
    rho = np.zeros((grid.nt + 1, grid.nx))
    rho[1:-1] = 0.5 * (w_rho[:-1] + w_rho[1:])
    return rho, 0.5 * (w_m + _shift(w_m, -1)), w_mu


def continuity_residual(g: StaggeredGrid, rho, m, mu) -> np.ndarray:
    """d_t rho + d_x m - mu at the cell centers."""
    return (rho[1:] - rho[:-1]) / g.dt + (m - _shift(m, 1)) / g.h - mu


def wfr_action(grid: StaggeredGrid, rho_c, m_c, mu_c,
               params: ConeParams = ConeParams()) -> float:
    """Cell-measure-weighted action sum((a^2 m^2 + b^2 mu^2)/rho).

    Takes cell-centered arrays (see interpolate_centers).  The integrand is
    the 1-homogeneous perspective extension: zero mass with zero flux
    contributes nothing, zero mass with flux is infinite.
    """
    quad = params.a ** 2 * m_c ** 2 + params.b ** 2 * mu_c ** 2
    if np.any(rho_c < 0):
        return float("inf")
    pos = rho_c > 0
    if np.any(quad[~pos] > 0):
        return float("inf")
    return grid.dt * grid.h * float(np.sum(quad[pos] / rho_c[pos]))


# -- exact proximal map of the perspective integrand -------------------------


def prox_action(rho, m, mu, gamma: float,
                params: ConeParams = ConeParams(), guess=None):
    """Pointwise prox of gamma * (a^2 m^2 + b^2 mu^2)/rho on rho >= 0.

    Eliminating m and mu leaves one equation f(r) = 0 (cubic when a = b,
    quintic otherwise), increasing and concave on r >= 0 with
    f(max(rho, 0)) <= 0 off the apex.  So Newton clamped at max(rho, 0),
    started from max(guess, max(rho, 0)), is left of the root after one
    step and climbs to it monotonically: a guess changes only the round
    count.  It stops at |f| < 1e-13 (1 + max r) and raises RuntimeError
    with the worst |f| after 200 rounds (NaN input ends there).  The prox
    hits the apex (0, 0, 0) exactly when the root leaves the positive axis.
    """
    rho, m, mu = (np.asarray(v, dtype=float) for v in (rho, m, mu))
    if not 0 < gamma < np.inf:
        raise ValueError("prox weight gamma must be positive and finite")
    c1, c2 = 2.0 * gamma * params.a ** 2, 2.0 * gamma * params.b ** 2
    qm, qmu = params.a ** 2 * m ** 2, params.b ** 2 * mu ** 2
    slack0 = gamma * (qm / c1 ** 2 + qmu / c2 ** 2)
    # apex cells get rho = qm = qmu = 0, so f = 0 at their floor r = 0 and
    # every output there is 0; NaN cells stay live
    live = ~(rho + slack0 <= 0.0)
    rho = rho * live
    qm, qmu = gamma * live * qm, gamma * live * qmu

    floor = np.maximum(rho, 0.0)
    r = floor if guess is None else np.maximum(guess, floor) * live
    # df >= 1 everywhere, so |f(r)| bounds the distance to the root
    for _ in range(200):
        s1 = r + c1
        s2 = r + c2
        t1 = qm / (s1 * s1)
        t2 = qmu / (s2 * s2)
        f = r - rho - t1 - t2
        worst = np.abs(f).max()
        if worst < 1e-13 * (1.0 + r.max()):
            break
        r = np.maximum(r - f / (1.0 + 2.0 * (t1 / s1 + t2 / s2)), floor)
    else:
        raise RuntimeError(f"prox Newton stalled after 200 rounds "
                           f"(max |f| = {worst:.3e})")
    m_out = (r / s1) * m
    mu_out = (r / s2) * mu
    return r, m_out, mu_out


# -- projection onto the continuity constraint --------------------------------


@lru_cache(maxsize=16)
def _projection_operators(g: StaggeredGrid, balanced: bool):
    """Read-only (c, ci, inv) of continuity_project on the grid g.

    c @ r is dct(r, type=2, axis=0) and ci @ r its idct:
    c[j, k] = 2 cos(pi (j (2k + 1) mod 4 nt) / (2 nt)), reduced in integers,
    and ci = c.T / (2 nt) with column 0 halved (the type-3 transform).
    inv is the inverse of the normal-equation symbol on (nt, nx//2 + 1)
    cosine x real-Fourier modes; balanced mode zeroes the constant mode.
    """
    j = np.arange(g.nt)
    c = 2.0 * np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * g.nt)) / (2 * g.nt))
    ci = np.ascontiguousarray(c.T) / (2 * g.nt)
    ci[:, 0] *= 0.5
    lam_t = (2.0 - 2.0 * np.cos(np.pi * j / g.nt)) / g.dt ** 2
    lam_x = (2.0 - 2.0 * np.cos(g.h * np.arange(g.nx // 2 + 1))) / g.h ** 2
    denom = lam_t[:, None] + lam_x[None, :] + (0.0 if balanced else 1.0)
    if balanced:
        denom[0, 0] = np.inf  # the Laplacian's kernel, as the pseudo-inverse
    inv = 1.0 / denom
    for a in (c, ci, inv):
        a.setflags(write=False)
    return c, ci, inv


def continuity_project(g: StaggeredGrid, rho: np.ndarray, m: np.ndarray,
                       mu: np.ndarray, rho0: np.ndarray, rho1: np.ndarray,
                       balanced: bool = False):
    """Euclidean projection onto d_t rho + d_x m - mu = 0 with pinned ends.

    Projects in place: the float arrays rho (nt+1, nx), m and mu (nt, nx)
    on the grid g are overwritten and returned, so pass copies of arrays
    that must survive.  The normal equations decouple as a Neumann
    Laplacian in time (cosine transform) plus a periodic Laplacian in space
    (real FFT) plus the identity from the source term, with both operators
    cached per grid; balanced mode zeroes mu, requires matching
    masses (checked before any write), and treats the constant mode as the
    pseudo-inverse does.
    """
    if balanced:
        mass_gap = g.h * float(np.sum(rho1) - np.sum(rho0))
        scale = g.h * float(np.sum(rho0) + np.sum(rho1)) + 1.0
        if abs(mass_gap) > 1e-9 * scale:
            raise ValueError(
                "balanced projection is infeasible: mass mismatch "
                f"{mass_gap:.3e}")
        mu.fill(0.0)
    rho[0] = rho0
    rho[-1] = rho1
    r = continuity_residual(g, rho, m, mu)

    c, ci, inv = _projection_operators(g, balanced)
    r_hat = np.fft.rfft(c @ r, axis=1)
    r_hat *= inv
    q = ci @ np.fft.irfft(r_hat, n=g.nx, axis=1)

    rho[1:-1] -= (q[:-1] - q[1:]) / g.dt
    m -= (q - _shift(q, -1)) / g.h
    if not balanced:
        mu += q
    return rho, m, mu


# -- distance solver ----------------------------------------------------------


@dataclass(frozen=True)
class WFRResult:
    distance: float
    action: float
    iterations: int
    converged: bool
    constraint_residual: float
    rel_change: float
    grid: StaggeredGrid
    rho: np.ndarray
    m: np.ndarray
    mu: np.ndarray
    rho_c: np.ndarray
    m_c: np.ndarray
    mu_c: np.ndarray


def _validate_endpoint(rho, nx_name="rho"):
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError(f"{nx_name} must be a 1d nodal array")
    if not np.all(np.isfinite(rho)) or np.min(rho) < 0:
        raise ValueError(f"{nx_name} must be finite and nonnegative")
    return rho


def solve_wfr(rho0: np.ndarray, rho1: np.ndarray, nt: int,
              params: ConeParams = ConeParams(), balanced: bool = False,
              tol: float = 1e-7, max_iters: int = 50000) -> WFRResult:
    """Distance between two densities by primal-dual proximal splitting.

    The primal iterate is kept feasible by projecting onto the continuity
    constraint every iteration; the dual update applies the exact prox of
    the action through the Moreau identity, on the dual scaled by
    1/_SIGMA.  The steps _SIGMA and _TAU satisfy _SIGMA * _TAU * |K|^2 < 1,
    where K is the staggered-to-centered interpolation (|K| <= 1).  Stops
    when the change of the action over _CHECK_EVERY iterations, relative
    to the larger of |action| and eps times the squared total-mass bound
    (2b (sqrt m0 + sqrt m1))^2, drops below tol, after at least
    _MIN_ITERS iterations (tol finite and > 0, max_iters an integer >= 1);
    raises WFRConvergenceError at max_iters.  In balanced mode the start
    is projected once before the loop, and continuity_project rejects
    endpoints of unequal mass.  Each prox starts from the last prox
    density: fewer rounds, same iterates.
    """
    require_integer("max_iters", max_iters)
    if not (np.isfinite(tol) and tol > 0 and max_iters >= 1):
        raise ValueError(f"need a finite tol > 0 and an integer max_iters "
                         f">= 1, got tol={tol!r}, max_iters={max_iters!r}")
    rho0 = _validate_endpoint(rho0, "rho0")
    rho1 = _validate_endpoint(rho1, "rho1")
    if rho0.shape != rho1.shape:
        raise ValueError("endpoint densities must share a grid")
    nx = len(rho0)
    g = StaggeredGrid(nt, nx)

    # start: linear density interpolation, mu absorbing growth unless balanced
    frac = g.t_slices[:, None]
    u_rho = (1.0 - frac) * rho0[None, :] + frac * rho1[None, :]
    u_m = np.zeros((g.nt, g.nx))
    if balanced:
        u_mu = np.zeros((g.nt, g.nx))
        continuity_project(g, u_rho, u_m, u_mu, rho0, rho1, balanced=True)
    else:
        u_mu = np.broadcast_to((rho1 - rho0)[None, :], (g.nt, g.nx)).copy()

    # the dual is kept scaled, z = w / _SIGMA, and K u is carried over
    z_rho, z_m, z_mu = (np.zeros((g.nt, g.nx)) for _ in range(3))
    gamma = 1.0 / _SIGMA
    step = _SIGMA * _TAU
    bound = 2.0 * params.b * (np.sqrt(g.h * rho0.sum())
                              + np.sqrt(g.h * rho1.sum()))
    noise = max(np.finfo(float).eps * bound ** 2, np.finfo(float).tiny)
    action_prev = np.inf
    converged = False
    ku_rho, ku_m, ku_mu = interpolate_centers(u_rho, u_m, u_mu)
    p_rho = ku_rho
    for iterations in range(1, max_iters + 1):
        a_rho, a_m, a_mu = _adjoint_centers(g, z_rho, z_m, z_mu)
        u_rho, u_m, u_mu = continuity_project(
            g, u_rho - step * a_rho, u_m - step * a_m, u_mu - step * a_mu,
            rho0, rho1, balanced=balanced)
        kn_rho, kn_m, kn_mu = interpolate_centers(u_rho, u_m, u_mu)
        y_rho = z_rho + 2.0 * kn_rho - ku_rho
        y_m = z_m + 2.0 * kn_m - ku_m
        y_mu = z_mu + 2.0 * kn_mu - ku_mu
        p_rho, p_m, p_mu = prox_action(y_rho, y_m, y_mu, gamma, params, p_rho)
        z_rho, z_m, z_mu = y_rho - p_rho, y_m - p_m, y_mu - p_mu
        ku_rho, ku_m, ku_mu = kn_rho, kn_m, kn_mu
        if iterations % _CHECK_EVERY == 0 or iterations == max_iters:
            action = wfr_action(g, p_rho, p_m, p_mu, params)
            rel_change = abs(action - action_prev) / max(abs(action), noise)
            action_prev = action
            if iterations >= _MIN_ITERS and rel_change < tol:
                converged = True
                break

    constraint = float(np.max(np.abs(continuity_residual(g, u_rho, u_m,
                                                         u_mu))))
    result = WFRResult(float(np.sqrt(max(action, 0.0))), action, iterations,
                       converged, constraint, rel_change, g, u_rho, u_m, u_mu,
                       p_rho, p_m, p_mu)
    if not converged:
        raise WFRConvergenceError(
            f"no convergence in {max_iters} iterations "
            f"(relative change {rel_change:.3e})", result)
    return result


def hellinger_distance(grid: PeriodicGrid, rho0: np.ndarray, rho1: np.ndarray,
                       params: ConeParams = ConeParams()) -> float:
    """Pure growth distance 2 b | sqrt(rho1) - sqrt(rho0) |_{L2}."""
    rho0 = grid.field("rho0", _validate_endpoint(rho0, "rho0"))
    rho1 = grid.field("rho1", _validate_endpoint(rho1, "rho1"))
    gap = np.sqrt(rho1) - np.sqrt(rho0)
    return float(2.0 * params.b * np.sqrt(grid.integrate(gap ** 2)))


# -- geodesic flows of the fibration ------------------------------------------


@dataclass(frozen=True)
class HorizontalFlowResult:
    times: np.ndarray
    rho: np.ndarray    # (len(times), n)
    v: np.ndarray
    alpha: np.ndarray
    action: float
    horizontality_defect: float
    mass: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # the checks report overflow
def horizontal_flow(grid: PeriodicGrid, rho0: np.ndarray, phi0: np.ndarray,
                    t_final: float, dt: float) -> HorizontalFlowResult:
    """Geodesic flow launched horizontally from the potential phi0.

    Integrates the coefficient-(1, 1/2) Eulerian system

        v' + v v_x + 2 alpha v = 0,
        alpha' + alpha_x v + alpha^2 - v^2 = 0,
        rho' + (v rho)_x - 2 alpha rho = 0,

    from (v, alpha)(0) = (phi0_x / 2, phi0).  The horizontal pairs at a
    positive density are exactly (Phi'/2, Phi), so the flow stays
    horizontal while v = alpha_x / 2; the reported defect is the sup of
    |v - alpha_x / 2| over every stored slice.  RK4 steps the rfft
    coefficients of (v, alpha, rho); each equation is dealiased once (the
    2/3-rule filter is linear and commutes with d_x), in two batched
    transforms per stage.  Raises RuntimeError at the first step that
    overflows or loses positivity (guards check every step, a block at a
    time), or on energy drift above 1e-3 (relative), as past an apex hit.
    """
    rho0 = grid.field("rho0", _validate_endpoint(rho0, "rho0"))
    phi0 = grid.field("phi0", phi0)
    n_steps = step_count(t_final, dt)
    _, ik, keep = fourier_multipliers(grid.n)

    def rhs(_, yh):
        v, alpha, rho, vx, ax = np.fft.irfft(
            np.concatenate((yh, ik * yh[:2])), n=grid.n)
        fv, fa, fr, fvr = np.fft.rfft(np.array((
            v * vx + 2.0 * alpha * v, v * v - ax * v - alpha * alpha,
            2.0 * alpha * rho, v * rho)))
        return keep * np.array((-fv, fa, fr - ik * fvr))

    times = np.arange(n_steps + 1) * dt
    out = np.empty((3, n_steps + 1, grid.n))  # v, alpha, rho
    out[:, 0] = 0.5 * grid.deriv(phi0), phi0, rho0
    steps = out[:, 1:].swapaxes(0, 1)  # (n_steps, 3, n) view
    for i, _, nodal in rk4_blocks(rhs, np.fft.rfft(out[:, 0]), dt, steps):
        overflowed = ~np.isfinite(nodal).all(axis=(1, 2))
        bad = np.flatnonzero(overflowed | (nodal[:, 2].min(-1) < -1e-8))
        if bad.size:
            j = int(bad[0])
            t = (i + j + 1) * dt
            what = "state overflowed" if overflowed[j] else "lost positivity"
            raise RuntimeError(f"horizontal flow {what} at t={t:.6g}")
    out_v, out_a, out_rho = out
    energies = grid.integrate((out_v ** 2 + out_a ** 2) * out_rho)
    # E is conserved; past an apex hit it drifts before the state overflows
    bad = np.flatnonzero(~(abs(energies - energies[0]) <= 1e-3 * energies[0]))
    if energies[0] > 0 and bad.size:
        raise RuntimeError(f"horizontal flow energy drifted by more than 1e-3 "
                           f"(relative) at t={times[bad[0]]:.6g}")
    defect = float(np.max(np.abs(out_v - 0.5 * grid.deriv(out_a))))
    action = float(np.trapezoid(energies, times))
    mass = grid.h * np.sum(out_rho, axis=1)
    return HorizontalFlowResult(times, out_rho, out_v, out_a, action,
                                defect, mass)
