"""Horizontal/vertical calculus of the density-fibration and minimality.

The map sending a group element to the push-forward of the reference
density is a Riemannian submersion for the coefficient pair (1, 1/2); all
operations here are pinned to that pair.  Velocity pairs split at a
positive density rho into a vertical part (div(rho v) = 2 alpha rho) and a
horizontal part (grad Phi / 2, Phi), where the lift potential solves

    -(1/2) div(rho grad Phi) + 2 Phi rho = X,

the action of that pair on rho, by preconditioned conjugate gradients.
The second fundamental form of the isotropy orbit produces a pressure via
the operator 2 - Laplacian/2 (at (u, u_x/2) it is pressure_from_state), and
the minimality harness certifies time windows (t1 - t0) < pi / sqrt(C) with
C a sup bound on the pressure Hessian blocks ((p''/2, p'), (p', p)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ch import CHTrajectory, flow_map
from .euler import pressure_from_state, require_unit_coefficients
from .grid import PeriodicGrid
from .group import DensityField, VelocityPair, infinitesimal_action, lie_bracket

_HORIZONTALITY_RTOL = 1e-6
_LIFT_RTOL = 1e-14
_LIFT_MAX_ITERS = 500
_N_X_MODES = 3
_N_T_MODES = 3


@dataclass(frozen=True)
class LiftResult:
    """Horizontal lift of a density perturbation at a positive density."""

    potential: np.ndarray
    pair: VelocityPair
    residual: float
    iterations: int


def pair_inner(xi1: VelocityPair, xi2: VelocityPair,
               rho: DensityField) -> float:
    """Metric at rho for coefficient pair (1, 1/2): int (v1 v2 + a1 a2) rho."""
    grid = xi1.grid
    return float(grid.integrate(
        (xi1.v * xi2.v + xi1.alpha * xi2.alpha) * rho.values))


def horizontal_lift(rho: DensityField, x_rho: np.ndarray) -> LiftResult:
    """Solve -(rho Phi')'/2 + 2 Phi rho = X and return (Phi'/2, Phi).

    The left side is the infinitesimal action of (Phi'/2, Phi) on rho,
    symmetric positive definite for rho > 0.  Conjugate gradients with
    M^-1 = rho^-1/2 (2 - d_xx/2)^-1 rho^-1/2, exact for uniform rho, stop
    once r.M^-1 r <= _LIFT_RTOL^2 X.M^-1 X (the 2-norm of r has a rounding
    floor near eps n^2/8) or raise RuntimeError at _LIFT_MAX_ITERS.  Near
    vacuum the stop can be met by a meaningless answer, so RuntimeError is
    also raised when the final max residual exceeds 1e-6 max|X|.
    """
    grid = rho.grid
    x_rho = np.asarray(x_rho, dtype=float)
    if x_rho.shape != (grid.n,) or not np.all(np.isfinite(x_rho)):
        raise ValueError("perturbation must be a finite nodal array on the grid")
    if np.min(rho.values) <= 0:
        raise ValueError("horizontal lift requires a strictly positive density")
    root = np.sqrt(rho.values)

    def apply(phi):
        return infinitesimal_action(
            VelocityPair(grid, 0.5 * grid.deriv(phi), phi), rho)

    def precondition(r):
        return grid.solve_helmholtz(0.5 * r / root, 1.0, 0.5) / root

    phi, r = np.zeros(grid.n), x_rho.copy()
    p = precondition(r)
    rz = r @ p
    tol = _LIFT_RTOL ** 2 * rz
    iterations = 0
    # "not <=" keeps iterating on a NaN residual, so it ends in the error
    while not rz <= tol and iterations < _LIFT_MAX_ITERS:
        iterations += 1
        ap = apply(p)
        step = rz / (p @ ap)
        phi += step * p
        r -= step * ap
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    residual = float(np.max(np.abs(apply(phi) - x_rho)))
    x_max = float(np.max(np.abs(x_rho)))
    if not rz <= tol:
        raise RuntimeError(f"horizontal lift: CG stalled after {iterations} "
                           f"iterations at residual {residual:.3g}, max|X| "
                           f"{x_max:.3g}")
    if not residual <= 1e-6 * x_max:
        raise RuntimeError(f"horizontal lift: residual {residual:.3g} exceeds "
                           f"1e-6 max|X| = {x_max:.3g}; the density (min rho "
                           f"{np.min(rho.values):.3g}) is too close to vacuum")
    pair = VelocityPair(grid, 0.5 * grid.deriv(phi), phi)
    return LiftResult(phi, pair, residual, iterations)


@dataclass(frozen=True)
class SplitResult:
    horizontal: VelocityPair
    vertical: VelocityPair
    lift: LiftResult
    orthogonality_defect: float
    vertical_defect: float


def vertical_horizontal_split(xi: VelocityPair, rho: DensityField) -> SplitResult:
    """Split xi at rho: the horizontal part lifts the action of xi on rho."""
    grid = xi.grid
    x_rho = infinitesimal_action(xi, rho)
    lift = horizontal_lift(rho, x_rho)
    vertical = VelocityPair(grid, xi.v - lift.pair.v, xi.alpha - lift.pair.alpha)
    ortho = abs(pair_inner(lift.pair, vertical, rho))
    vert_defect = float(np.max(np.abs(infinitesimal_action(vertical, rho))))
    return SplitResult(lift.pair, vertical, lift, ortho, vert_defect)


@dataclass(frozen=True)
class IIResult:
    """Second fundamental form value (-p'/2, -p) of the isotropy orbit."""

    pair: VelocityPair
    pressure: np.ndarray
    raw_asymmetry: float
    tangency_defect: float


def _ii_rhs(grid: PeriodicGrid, xi1: VelocityPair, xi2: VelocityPair) -> np.ndarray:
    u, alpha = xi1.v, xi1.alpha
    v, beta = xi2.v, xi2.alpha
    return (grid.deriv(u * grid.deriv(v) + beta * u + alpha * v)
            - 2.0 * grid.deriv(beta) * u + 2.0 * u * v - 2.0 * alpha * beta)


def second_fundamental_form(xi1: VelocityPair, xi2: VelocityPair) -> IIResult:
    """Second fundamental form at the identity over the uniform density.

    The defining right-hand side is symmetrized over the two arguments;
    the raw asymmetry (zero for isotropy-tangent inputs) is recorded.
    The pressure solves (2 - d_xx/2) p = rhs, i.e. (1 - d_xx/4) p = rhs/2.
    """
    grid = xi1.grid
    rhs12 = _ii_rhs(grid, xi1, xi2)
    rhs21 = _ii_rhs(grid, xi2, xi1)
    raw_asymmetry = float(np.max(np.abs(rhs12 - rhs21)))
    rhs = 0.5 * (rhs12 + rhs21)
    p = grid.solve_helmholtz(0.5 * rhs, 1.0, 0.5)
    tangency = max(
        float(np.max(np.abs(xi1.alpha - 0.5 * grid.deriv(xi1.v)))),
        float(np.max(np.abs(xi2.alpha - 0.5 * grid.deriv(xi2.v)))))
    pair = VelocityPair(grid, -0.5 * grid.deriv(p), -p)
    return IIResult(pair, p, raw_asymmetry, tangency)


def gauss_codazzi_sectional(xi1: VelocityPair, xi2: VelocityPair) -> float:
    """Sectional curvature of the isotropy orbit from the Gauss equation.

    The ambient space is flat, so the curvature reduces to
    (<II(x1,x1), II(x2,x2)> - |II(x1,x2)|^2) / Gram(x1, x2) with the
    identity-based metric over the uniform density.
    """
    grid = xi1.grid
    rho1 = DensityField(grid, np.ones(grid.n))
    g11 = pair_inner(xi1, xi1, rho1)
    g22 = pair_inner(xi2, xi2, rho1)
    g12 = pair_inner(xi1, xi2, rho1)
    gram = g11 * g22 - g12 * g12
    if gram <= 1e-14 * max(g11 * g22, 1e-300):
        raise ValueError("sectional curvature of a degenerate plane")
    ii11 = second_fundamental_form(xi1, xi1).pair
    ii22 = second_fundamental_form(xi2, xi2).pair
    ii12 = second_fundamental_form(xi1, xi2).pair
    num = (pair_inner(ii11, ii22, rho1) - pair_inner(ii12, ii12, rho1))
    return float(num / gram)


def oneill_curvature(xi1: VelocityPair, xi2: VelocityPair,
                     rho: DensityField) -> float:
    """Sectional curvature of the density space via the O'Neill correction.

    Inputs must be horizontal at rho, (Phi'/2, Phi) up to a rho-weighted
    relative _HORIZONTALITY_RTOL; the pair is orthonormalized internally
    (a degenerate plane returns 0).  The cone over the circle is flat away
    from the apex, so only 3/4 |vertical([xi1, xi2])|^2 survives.
    """
    for xi in (xi1, xi2):
        gap = xi.v - 0.5 * xi.grid.deriv(xi.alpha)
        gap_sq = xi.grid.integrate(gap * gap * rho.values)
        if gap_sq > _HORIZONTALITY_RTOL ** 2 * pair_inner(xi, xi, rho):
            raise ValueError("oneill_curvature requires horizontal inputs")
    n1 = np.sqrt(pair_inner(xi1, xi1, rho))
    if n1 <= 0:
        return 0.0
    e1 = VelocityPair(xi1.grid, xi1.v / n1, xi1.alpha / n1)
    c = pair_inner(xi2, e1, rho)
    w = VelocityPair(xi2.grid, xi2.v - c * e1.v, xi2.alpha - c * e1.alpha)
    n2 = np.sqrt(pair_inner(w, w, rho))
    if n2 <= 1e-12 * np.sqrt(pair_inner(xi2, xi2, rho)):
        return 0.0
    e2 = VelocityPair(w.grid, w.v / n2, w.alpha / n2)
    bracket = lie_bracket(e1, e2)
    vert = vertical_horizontal_split(bracket, rho).vertical
    return 0.75 * pair_inner(vert, vert, rho)


# -- minimality of constrained geodesics ------------------------------------


@dataclass(frozen=True)
class PerturbationFamily:
    """Seeded competitors: _N_X_MODES Fourier modes in x with _N_T_MODES
    sine envelopes in t that vanish at both endpoints.  Members are
    normalized so that max(|eta|, |d_x eta|) = 1."""

    members: np.ndarray  # (n_members, n_times, n)
    seed: int


def make_perturbation_family(grid: PeriodicGrid, times: np.ndarray,
                             n_members: int, seed: int) -> PerturbationFamily:
    rng = np.random.default_rng(seed)
    # per member and time mode: the constant, then cos/sin of each x mode
    coef = rng.standard_normal((n_members, _N_T_MODES, 1 + 2 * _N_X_MODES))
    s = (times - times[0]) / (times[-1] - times[0])
    envelopes = np.sin(np.pi * np.arange(1, _N_T_MODES + 1)[:, None] * s)
    mode = np.arange(1, _N_X_MODES + 1)[:, None]
    terms = (coef[..., 1::2, None] * np.cos(mode * grid.x)
             + coef[..., 2::2, None] * np.sin(mode * grid.x)) / mode
    terms[..., 0, :] += coef[..., :1]
    profiles = terms.sum(axis=-2)  # (n_members, _N_T_MODES, n)
    members = np.empty((n_members, len(times), grid.n))
    for eta, profile in zip(members, profiles):
        eta[...] = np.sum(envelopes[:, :, None] * profile[:, None, :], axis=0)
        eta /= max(np.max(np.abs(eta)), np.max(np.abs(grid.deriv(eta))))
    return PerturbationFamily(members, seed)


def path_action(grid: PeriodicGrid, times: np.ndarray, phi: np.ndarray,
                lam: np.ndarray) -> float | np.ndarray:
    """Discrete kinetic action of paths of pairs (phi, lam), shape (..., T, n).

    In the flat planar chart z = lam exp(i phi) the squared increment equals
    the cone line element at coefficients (1, 1/2); the action is
    sum |z_{j+1} - z_j|^2 / dt integrated in x, with the increment written
    without cancellation as (d lam)^2 + 4 lam_j lam_{j+1} sin^2(d phi / 2).
    One value per path: a scalar for a single (T, n) path.
    """
    dz2 = (np.diff(lam, axis=-2) ** 2
           + 4.0 * lam[..., :-1, :] * lam[..., 1:, :]
           * np.sin(0.5 * np.diff(phi, axis=-2)) ** 2)
    return grid.integrate(np.sum(dz2 / np.diff(times)[:, None], axis=-2))


def hessian_certificate(traj: CHTrajectory) -> tuple[float, float]:
    """Sup bound C on the pressure Hessian blocks and the window pi/sqrt(C).

    The blocks are ((p''/2, p'), (p', p)) pointwise in x at every stored
    slice; C is the largest absolute eigenvalue over all of them.
    """
    require_unit_coefficients(traj, "hessian_certificate")
    grid = traj.grid
    p = pressure_from_state(grid, traj.u)
    px = grid.deriv(p)
    pxx = grid.deriv(p, 2)
    tr = 0.5 * pxx + p
    det = 0.5 * pxx * p - px * px
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    c_max = float(np.max(0.5 * (np.abs(tr) + disc)))  # max |eigenvalue|
    window = np.inf if c_max == 0.0 else np.pi / np.sqrt(c_max)
    return c_max, window


@dataclass(frozen=True)
class MinimalityReport:
    geodesic_action: float
    competitor_actions: np.ndarray  # (n_members, n_amplitudes)
    min_competitor_action: float
    hessian_bound: float
    window: float
    window_ok: bool
    amplitudes: tuple


def minimality_test(traj: CHTrajectory, family: PerturbationFamily,
                    amplitudes: tuple = (1e-2, 1e-1)) -> MinimalityReport:
    """Compare the geodesic action against isotropy-constrained competitors.

    Competitors perturb the flow phi by amplitude x member and recompute
    lam = sqrt(d_x phi), so they stay on the constraint with the same
    endpoints; one (n_amplitudes, T, n) pass per member keeps memory at a
    few paths.  window_ok states whether the trajectory length is inside
    the certified window.
    """
    require_unit_coefficients(traj, "minimality_test")
    grid = traj.grid
    path = flow_map(traj)
    a_geo = path_action(grid, path.times, path.phi, path.lam)
    c_bound, window = hessian_certificate(traj)
    duration = float(path.times[-1] - path.times[0])
    window_ok = duration < window
    amps = np.asarray(amplitudes, dtype=float)[:, None, None]
    actions = np.empty((len(family.members), len(amplitudes)))
    for row, eta in zip(actions, family.members):
        phi_c = path.phi + amps * eta
        phi_x = grid.lift_slope(phi_c)
        if np.min(phi_x) <= 0:
            raise ValueError(
                "competitor perturbation breaks monotonicity; "
                "reduce the amplitude")
        row[:] = path_action(grid, path.times, phi_c, np.sqrt(phi_x))
    return MinimalityReport(float(a_geo), actions, float(np.min(actions)),
                            c_bound, window, window_ok, tuple(amplitudes))
