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
time by a closed-form matrix).
Every operator works on plain arrays: rho (nt+1, nx) at the time slices,
m and mu (nt, nx) at the space faces and the cell centers; solve_wfr
updates them in place, in a workspace allocated once per solve.  On
that workspace it builds the prox (_prox_kernel) and the projection
(_projection_kernel) once, as lists of ufunc calls bound to fixed
views, so an iteration makes no allocation and no set-up;
prox_action and continuity_project are the same kernels built for one
call, and give the solver's bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams
from .grid import (PeriodicGrid, TWO_PI, _evaluate, _irfft, _rfft,
                   require_integer, step_count)

_SIGMA = 0.95  # dual and primal step sizes of solve_wfr
_TAU = 0.95
_CHECK_EVERY = 25
_MIN_ITERS = 200
_MIN_PEAK = 1e-10  # solve_wfr needs an endpoint density above this, or 0
_max = np.maximum.reduce  # ndarray.max without its Python-level wrapper


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


def _roll_calls(op, a: np.ndarray, s: int, out: np.ndarray) -> list:
    """The ufunc calls that write op(a, np.roll(a, s, axis=-1)) into the
    C-contiguous out, for s = 1 or -1: one over the rows laid end to end,
    then one for the column that wraps around."""
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    if s == 1:
        return [(op, (flat[1:], flat[:-1], flat_out[1:])),
                (op, (a[..., 0], a[..., -1], out[..., 0]))]
    return [(op, (flat[:-1], flat[1:], flat_out[:-1])),
            (op, (a[..., -1], a[..., 0], out[..., -1]))]


def _run(calls: list) -> None:
    """Make the calls (ufunc, operands), each with its output last and
    positional; a call of np.positive is a copy."""
    for op, args in calls:
        op(*args)


def _centers_calls(rho, m, mu, out: np.ndarray) -> list:
    """Calls that write K u into the (3, nt, nx) array out: rho and m
    averaged to the cell centers, and a copy of mu, which lives there (a
    view would follow u, which solve_wfr changes in place)."""
    return ([(np.add, (rho[:-1], rho[1:], out[0]))]
            + _roll_calls(np.add, m, 1, out[1])
            + [(np.multiply, (out[:2], 0.5, out[:2])),
               (np.positive, (mu, out[2]))])


def _adjoint_calls(z: np.ndarray, out: np.ndarray) -> list:
    """Calls that write the adjoint of the centering (_centers_calls) on the
    (3, nt, nx) stack z into the (3 nt + 1, nx) array out; its boundary
    density rows, which receive zero, are not written."""
    nt = z.shape[1]
    return ([(np.add, (z[0, :-1], z[0, 1:], out[1:nt]))]
            + _roll_calls(np.add, z[1], -1, out[nt + 1:2 * nt + 1])
            + [(np.multiply, (out[:2 * nt + 1], 0.5, out[:2 * nt + 1])),
               (np.positive, (z[2], out[2 * nt + 1:]))])


def _residual_calls(g: StaggeredGrid, rho, m, mu, out: np.ndarray,
                    work: np.ndarray) -> list:
    """Calls that write continuity_residual into out, with work as
    scratch."""
    return ([(np.subtract, (rho[1:], rho[:-1], out)),
             (np.divide, (out, g.dt, out))]
            + _roll_calls(np.subtract, m, 1, work)
            + [(np.divide, (work, g.h, work)), (np.add, (out, work, out)),
               (np.subtract, (out, mu, out))])


def continuity_residual(g: StaggeredGrid, rho, m, mu) -> np.ndarray:
    """d_t rho + d_x m - mu at the cell centers."""
    work = np.empty((2, g.nt, g.nx))
    _run(_residual_calls(g, rho, m, mu, *work))
    return work[0]


def wfr_action(grid: StaggeredGrid, rho_c, m_c, mu_c,
               params: ConeParams = ConeParams()) -> float:
    """Cell-measure-weighted action sum((a^2 m^2 + b^2 mu^2)/rho).

    Takes cell-centered arrays (see _centers_calls).  The integrand is
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


def _prox_kernel(y: np.ndarray, gamma: float, params: ConeParams,
                 out: np.ndarray):
    """The prox of prox_action on the (3, ...) stack y = (rho, m, mu),
    written into out of the same shape, which y must not overlap.  Built
    once per solve: it checks gamma and params, lays out the per-flux
    coefficients and the scratch, and binds every ufunc call to them, the
    Newton round as two call lists split at the stopping test.  The two
    fluxes run as one (2, ...) stack, each step one call for both.
    prox() reads y as it is then and returns out; it starts from
    max(out[0], max(rho, 0)) (see prox_action)."""
    if not 0 < gamma < np.inf:
        raise ValueError("prox weight gamma must be positive and finite")
    a2, b2 = params.a ** 2, params.b ** 2
    c1, c2 = 2.0 * gamma * a2, 2.0 * gamma * b2
    if not max(c1 * c1, c2 * c2) < np.inf:  # c1 ** 2 would raise below
        raise ValueError(f"prox coefficients 2 gamma a^2 = {c1:.3e} and "
                         f"2 gamma b^2 = {c2:.3e} must have finite squares")
    if not min(c1 * c1, c2 * c2) > 0.0:  # q / c_sq would divide by zero
        raise ValueError(f"prox coefficients 2 gamma a^2 = {c1:.3e} and "
                         f"2 gamma b^2 = {c2:.3e} must have squares that do "
                         f"not underflow to zero")
    rho, flux = y[0], y[1:]
    # per-flux coefficients, shaped to broadcast over the (2, ...) stacks
    c, weight, c_sq = np.reshape(((c1, c2), (a2, b2), (c1 ** 2, c2 ** 2)),
                                 (3, 2) + (1,) * rho.ndim)
    work = np.empty((8,) + rho.shape)
    q, t = work[:2], work[2:4]
    t1, t2, f, step, floor, rho_live = work[2:]
    live = np.empty(rho.shape, bool)
    r, s = out[0], out[1:]
    # apex cells get rho = q = 0, so f = 0 at their floor r = 0 and every
    # output there is 0; NaN cells stay live, as live = ~(f <= 0)
    start = [(np.multiply, (flux, flux, q)), (np.multiply, (q, weight, q)),
             (np.divide, (q, c_sq, t)), (np.add, (t1, t2, f)),
             (np.multiply, (f, gamma, f)), (np.add, (f, rho, f)),
             (np.less_equal, (f, 0.0, live)), (np.invert, (live, live)),
             (np.multiply, (rho, live, rho_live)),
             (np.multiply, (gamma, live, f)), (np.multiply, (q, f, q))]
    residual = [(np.add, (r, c, s)), (np.multiply, (s, s, t)),
                (np.divide, (q, t, t)), (np.subtract, (r, rho_live, f)),
                (np.subtract, (f, t1, f)), (np.subtract, (f, t2, f)),
                (np.absolute, (f, step))]
    # df >= 1 everywhere, so |f(r)| bounds the distance to the root
    newton = [(np.divide, (t, s, t)), (np.add, (t1, t2, step)),
              (np.multiply, (step, 2.0, step)), (np.add, (step, 1.0, step)),
              (np.divide, (f, step, step)), (np.subtract, (r, step, step))]
    finish = [(np.divide, (r, s, s)), (np.multiply, (s, flux, s))]

    def prox() -> np.ndarray:
        _run(start)
        # out by keyword: numpy deprecates a positional out for np.maximum
        np.maximum(rho_live, 0.0, out=floor)
        np.maximum(r, floor, out=r)
        np.multiply(r, live, r)
        for _ in range(200):
            _run(residual)
            worst = _max(step, axis=None)
            if worst < 1e-13 * (1.0 + _max(r, axis=None)):
                break
            _run(newton)
            np.maximum(step, floor, out=r)
        else:
            raise RuntimeError(f"prox Newton stalled after 200 rounds "
                               f"(max |f| = {worst:.3e})")
        _run(finish)
        return out

    return prox


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
    ValueError unless gamma > 0 and 2 gamma a^2, 2 gamma b^2 have finite
    squares that do not underflow to zero.

    The kernel that solve_wfr builds once per solve (_prox_kernel), built
    for one call on a copy of the inputs; no guess is a guess of 0, as
    max(0, max(rho, 0)) is max(rho, 0).  Returns the rows of a new (3, ...)
    array.
    """
    y = np.empty((3,) + np.shape(rho))
    y[0], y[1], y[2] = rho, m, mu
    out = np.zeros_like(y)
    prox = _prox_kernel(y, gamma, params, out)
    if guess is not None:
        out[0] = guess
    prox()
    return out[0], out[1], out[2]


# -- projection onto the continuity constraint --------------------------------


def _projection_operators(g: StaggeredGrid, balanced: bool):
    """(c, ci, inv) of continuity_project on the grid g.

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
    return c, ci, 1.0 / denom


def _projection_kernel(g: StaggeredGrid, rho: np.ndarray, m: np.ndarray,
                       mu: np.ndarray, rho0: np.ndarray, rho1: np.ndarray,
                       balanced: bool) -> list:
    """The calls of continuity_project bound to rho, m and mu, built once
    per solve: it checks the masses (balanced mode), pins the end rows of
    rho, which the calls never write, and binds the residual, both
    transforms and the update to its scratch, a (2, nt, nx) work array and
    the (nt, nx//2 + 1) coefficients."""
    if balanced:
        mass_gap = g.h * float(np.sum(rho1) - np.sum(rho0))
        scale = g.h * float(np.sum(rho0) + np.sum(rho1)) + 1.0
        if abs(mass_gap) > 1e-9 * scale:
            raise ValueError(
                "balanced projection is infeasible: mass mismatch "
                f"{mass_gap:.3e}")
    rho[0] = rho0
    rho[-1] = rho1
    c, ci, inv = _projection_operators(g, balanced)
    q, d = np.empty((2, g.nt, g.nx))
    r_hat = np.empty(inv.shape, complex)
    calls = [(np.positive, (0.0, mu))] if balanced else []
    # the residual into q, then q = ci irfft(inv rfft(c q)) through d
    calls += _residual_calls(g, rho, m, mu, q, d) + [
        (np.matmul, (c, q, d)), (_rfft, (d, r_hat)),
        (np.multiply, (r_hat, inv, r_hat)), (_irfft, (r_hat, g.nx, d)),
        (np.matmul, (ci, d, q)), (np.subtract, (q[:-1], q[1:], d[:-1])),
        (np.divide, (d[:-1], g.dt, d[:-1])),
        (np.subtract, (rho[1:-1], d[:-1], rho[1:-1]))]
    calls += _roll_calls(np.subtract, q, -1, d) + [
        (np.divide, (d, g.h, d)), (np.subtract, (m, d, m))]
    return calls if balanced else calls + [(np.add, (mu, q, mu))]


def continuity_project(g: StaggeredGrid, rho: np.ndarray, m: np.ndarray,
                       mu: np.ndarray, rho0: np.ndarray, rho1: np.ndarray,
                       balanced: bool = False):
    """Euclidean projection onto d_t rho + d_x m - mu = 0 with pinned ends.

    Projects in place: the float arrays rho (nt+1, nx), m and mu (nt, nx)
    on the grid g are overwritten and returned, so pass copies of arrays
    that must survive.  The normal equations decouple as a Neumann
    Laplacian in time (cosine transform) plus a periodic Laplacian in space
    (real FFT) plus the identity from the source term; balanced mode
    zeroes mu, requires matching masses (checked before any write), and
    treats the constant mode as the pseudo-inverse does.  The call list
    that solve_wfr builds once per solve (_projection_kernel), built for
    one call.
    """
    _run(_projection_kernel(g, rho, m, mu, rho0, rho1, balanced))
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


def _validate_endpoint(rho, name):
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError(f"{name} must be a 1d nodal array")
    if not np.all(np.isfinite(rho)) or np.min(rho) < 0:
        raise ValueError(f"{name} must be finite and nonnegative")
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
    raises WFRConvergenceError at max_iters.  In balanced mode the loop's
    projection also runs once on the start, and rejects endpoints of
    unequal mass.  Each prox starts from the last prox density: fewer
    rounds, same iterates.  Endpoints whose largest value is positive but
    at most _MIN_PEAK raise ValueError; a pair that is zero at both ends
    has distance 0.

    The workspace: the primal state is one (3 nt + 1, nx) array with rho,
    m and mu as row views, so u -= step K^T z is one operation; the dual
    z, K u at the last two iterates, y and the prox output are (3, nt, nx)
    stacks, so each dual update is one operation.  The projection and the
    prox are built once per solve on this workspace (_projection_kernel,
    _prox_kernel), so an iteration is one list of bound ufunc calls and one
    prox run, and the iterates are those of continuity_project and
    prox_action bit for bit.  The result holds views of this workspace,
    which no later solve touches.
    """
    require_integer("max_iters", max_iters)
    if not (np.isfinite(tol) and tol > 0 and max_iters >= 1):
        raise ValueError(f"need a finite tol > 0 and an integer max_iters "
                         f">= 1, got tol={tol!r}, max_iters={max_iters!r}")
    rho0 = _validate_endpoint(rho0, "rho0")
    rho1 = _validate_endpoint(rho1, "rho1")
    if rho0.shape != rho1.shape:
        raise ValueError("endpoint densities must share a grid")
    peak = max(rho0.max(), rho1.max())
    if 0 < peak <= _MIN_PEAK:
        # the prox stops at the absolute |f| < 1e-13 (1 + max r), which such
        # densities meet before any Newton step: the distance would be wrong
        raise ValueError(f"endpoint densities peak at {peak:.3e}, at or "
                         f"below the smallest scale solved, {_MIN_PEAK:.0e}")
    nx = len(rho0)
    g = StaggeredGrid(nt, nx)

    # the workspace; the boundary density rows of kt_z stay zero
    u = np.zeros((3 * g.nt + 1, g.nx))
    u_rho, u_m, u_mu = u[:g.nt + 1], u[g.nt + 1:2 * g.nt + 1], u[2 * g.nt + 1:]
    kt_z = np.zeros_like(u)
    z, y, p, k0, k1 = (np.zeros((3, g.nt, g.nx)) for _ in range(5))

    # start: linear density interpolation, mu absorbing growth unless balanced
    frac = g.t_slices[:, None]
    u_rho[...] = (1.0 - frac) * rho0[None, :] + frac * rho1[None, :]
    project = _projection_kernel(g, u_rho, u_m, u_mu, rho0, rho1, balanced)
    if balanced:
        _run(project)
    else:
        u_mu[...] = rho1 - rho0

    gamma = 1.0 / _SIGMA
    step = _SIGMA * _TAU
    bound = 2.0 * params.b * (np.sqrt(g.h * rho0.sum())
                              + np.sqrt(g.h * rho1.sum()))
    noise = max(np.finfo(float).eps * bound ** 2, np.finfo(float).tiny)
    action_prev = np.inf
    converged = False
    # the dual is kept scaled, z = w / _SIGMA, and K u is carried over in
    # k0 and k1 by turns.  An iteration is one call list on fixed views of
    # the workspace: u -= step K^T z, the projection (its kernel pins the
    # end rows once, and K^T z's are zero), then K u into one buffer and
    # y = z + 2 K u_new - K u_old; then the prox kernel on y, warm from its
    # last density.
    _run(_centers_calls(u_rho, u_m, u_mu, k0))
    p[0] = k0[0]
    primal = _adjoint_calls(z, kt_z) + [(np.multiply, (kt_z, step, kt_z)),
                                        (np.subtract, (u, kt_z, u))]
    iteration = [primal + project + _centers_calls(u_rho, u_m, u_mu, new)
                 + [(np.multiply, (new, 2.0, y)), (np.add, (y, z, y)),
                    (np.subtract, (y, old, y))]
                 for new, old in ((k0, k1), (k1, k0))]
    prox = _prox_kernel(y, gamma, params, p)
    for iterations in range(1, max_iters + 1):
        _run(iteration[iterations % 2])
        prox()
        np.subtract(y, p, z)
        if iterations % _CHECK_EVERY == 0 or iterations == max_iters:
            action = wfr_action(g, *p, params)
            rel_change = abs(action - action_prev) / max(abs(action), noise)
            action_prev = action
            if iterations >= _MIN_ITERS and rel_change < tol:
                converged = True
                break

    constraint = float(np.max(np.abs(continuity_residual(g, u_rho, u_m,
                                                         u_mu))))
    result = WFRResult(float(np.sqrt(max(action, 0.0))), action, iterations,
                       converged, constraint, rel_change, g, u_rho, u_m, u_mu,
                       *p)
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


@np.errstate(over="ignore", invalid="ignore")  # reported below
def _flat_chart(grid: PeriodicGrid, rho0: np.ndarray, phi0: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """Nodal (rho, v, alpha) of the horizontal geodesic from phi0 at the
    times, (3, len(times), n).  The cone chart is flat at (1, 1/2): label y
    moves on the line exp(iy) (1 + t w), w = Phi0 + i Phi0'/2, so phi = y +
    arg(1 + t w), lam^2 = |1 + t w|^2, rho = rho0 lam^2/phi_y, v = Phi0'/(2
    lam^2) and alpha = (Phi0 + t|w|^2)/lam^2 at y = phi^-1(x_i), found by
    Newton inside |y - x_i| < pi to 2e-14 pi.  RuntimeError names the first
    time and label, of 8 per node spacing (the nodes among them), at which
    lam^2 phi_y = 1 + c1 t + c2 t^2 reaches 0 (1e-12), or if a field
    overflows."""
    nodal = np.array((rho0, phi0, grid.deriv(phi0), grid.deriv(phi0, 2)))
    block, labels = grid._trig_block(nodal), np.arange(8 * grid.n) * grid.h / 8
    p = _evaluate(block, np.broadcast_to(labels, (4, 8 * grid.n)))[1:]
    # in tau = sigma t, sigma a power of two >= max|p|: exact, and no overflow
    sigma = np.ldexp(1.0, np.frexp(max(1.0, np.max(np.abs(p))))[1])
    p, p1, p2 = p / sigma
    c1, c2 = 2 * p + 0.5 * p2, p * (p + 0.5 * p2) - 0.25 * p1 * p1
    # the first root 2/den if den > 0; near the minimum if disc < 0 (a touch)
    den = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2, 0.0)) - c1
    tau = 2.0 / np.maximum(den, 2.0 / (sigma * times[-1]))  # t <= t_final
    bad = np.flatnonzero(1.0 + c1 * tau + c2 * tau ** 2 <= 1e-12)
    if bad.size:
        j = bad[np.argmin(tau[bad])]
        raise RuntimeError(f"horizontal flow reaches the apex or folds at "
                           f"t={tau[j] / sigma:.6g} (label y={labels[j]:.6g})")
    x, out = grid.x, np.empty((3, len(times), grid.n))
    per = max(1, 2048 // grid.n)  # slices per chunk: bounds the temporaries
    for i in range(0, len(times), per):
        t, y, lo, hi = times[i:i + per, None], x, x - np.pi, x + np.pi
        r, p, p1, p2, step = *nodal[:, None], 2 * np.pi
        for _ in range(100):
            a, b = 1.0 + t * p, 0.5 * t * p1  # 1 + t w
            lam2 = a * a + b * b
            phi_y = 1.0 + t * (0.5 * p2 * a - p1 * b) / lam2
            f = y + np.arctan2(b, a) - x
            live = np.abs(f) > 2e-14 * np.pi  # NaN, an overflow, stops too
            if not live.any():
                break
            lo, hi = np.where(f <= 0, y, lo), np.where(f > 0, y, hi)
            # bisect where Newton, unconverged, leaves the bracket or fails
            # to halve the last step, as when it cycles about an inflection
            new = y - f / phi_y
            new = np.where(~live | ((lo <= new) & (new <= hi) & (
                np.abs(new - y) <= 0.5 * np.abs(step))), new, 0.5 * (lo + hi))
            y, step = new, new - y
            r, p, p1, p2 = _evaluate(block, np.broadcast_to(y, (4,) + y.shape))
        else:
            raise RuntimeError("horizontal flow labels did not converge")
        out[:, i:i + per] = (r * lam2 / phi_y, 0.5 * p1 / lam2,
                             (p + t * (p * p + 0.25 * p1 * p1)) / lam2)
    if not np.isfinite(out).all():
        raise RuntimeError("horizontal flow overflowed")
    return out


def horizontal_flow(grid: PeriodicGrid, rho0: np.ndarray, phi0: np.ndarray,
                    t_final: float, dt: float) -> HorizontalFlowResult:
    """Geodesic flow launched horizontally from the potential phi0: the
    (1, 1/2) system v' + v v_x + 2 alpha v = 0, alpha' + alpha_x v + alpha^2
    = v^2, rho' + (v rho)_x = 2 alpha rho from (phi0_x/2, phi0, rho0), in
    closed form (_flat_chart), so dt only spaces the stored slices.  The
    defect is the sup of |v - alpha_x/2|, as horizontal pairs are (Phi'/2,
    Phi); the action is E t_final, E = int (phi0_x^2/4 + phi0^2) rho0.
    RuntimeError at the exact first apex or fold time of a label."""
    rho0 = grid.field("rho0", _validate_endpoint(rho0, "rho0"))
    phi0 = grid.field("phi0", phi0)
    times = np.arange(step_count(t_final, dt) + 1) * dt
    rho, v, alpha = _flat_chart(grid, rho0, phi0, times)
    energy = grid.integrate((0.25 * grid.deriv(phi0) ** 2 + phi0 ** 2) * rho0)
    return HorizontalFlowResult(
        times, rho, v, alpha, float(energy * times[-1]),
        float(np.max(np.abs(v - 0.5 * grid.deriv(alpha)))),
        grid.h * np.sum(rho, axis=1))
