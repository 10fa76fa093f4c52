"""Circle velocity fields as incompressible flows of the punctured plane.

A velocity u on the circle maps to the polar field with physical components
v_theta = r u(theta), v_r = (r/2) u_x(theta).  This field has vanishing
divergence against the weight r^-4 Leb, and solutions of the two-parameter
equation at coefficients (1, 1/2) satisfy the Euler momentum equation with
pressure potential Psi_p(x, r) = r^2 p(x) / 2.  The Lagrangian counterpart
Phi(theta, r) = (phi(theta), lam(theta) r) preserves the measure
r^-3 dr dtheta exactly when lam^2 = d_x phi.

The pressure comes from u alone (pressure_from_state, the isotropy orbit's
second-fundamental-form pressure), so both momentum residuals are checks.
The trajectory diagnostics make no per-slice loops: polar fields are held
by their angular profiles (u, u_x/2), with the time slices as a batch axis,
and the pressure-free balances are composed with the flow map by one
batched PeriodicGrid.trig_eval call each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ch import CHTrajectory, FlowPath
from .cone import ConeParams
from .grid import PeriodicGrid


@dataclass(frozen=True)
class AnnulusGrid:
    """Angular grid crossed with a finite family of radii r > 0."""

    grid: PeriodicGrid
    radii: np.ndarray

    def __post_init__(self):
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        # the weight r^-4 and its inverse must be representable; range
        # failures are reported by the check below, not as warnings
        with np.errstate(all="ignore"):
            powers = np.stack([radii ** 4.0, radii ** -4.0])
        if radii.size == 0 or not np.all(
                (radii > 0) & np.isfinite(powers) & (powers > 0)):
            raise ValueError("annulus radii must be positive with r^4 and "
                             "r^-4 finite and nonzero")
        object.__setattr__(self, "radii", radii)


@dataclass(frozen=True)
class PolarVectorField:
    """Polar field V = (r w_theta, r w_r), held by its angular profiles of
    shape (..., n), so radially 1-homogeneous; leading axes are a batch."""

    agrid: AnnulusGrid
    w_theta: np.ndarray
    w_r: np.ndarray

    def __post_init__(self):
        n = self.agrid.grid.n
        w_theta = np.asarray(self.w_theta, dtype=float)
        w_r = np.asarray(self.w_r, dtype=float)
        if w_r.shape != w_theta.shape or w_theta.shape[-1:] != (n,):
            raise ValueError(f"angular profiles must have shape (..., {n})")
        object.__setattr__(self, "w_theta", w_theta)
        object.__setattr__(self, "w_r", w_r)


def polar_velocity(agrid: AnnulusGrid, u: np.ndarray) -> PolarVectorField:
    """Polar field (r u, (r/2) u_x) of u (..., n): profiles (u, u_x/2)."""
    u = np.asarray(u, dtype=float)
    return PolarVectorField(agrid, u, 0.5 * agrid.grid.deriv(u))


def weighted_divergence(field: PolarVectorField) -> np.ndarray:
    """div(rho V) against rho = r^-4 Leb, (n_radii, ..., n): the radial
    derivative of r w is analytic, so it is r^-4 (d_theta w_theta - 2 w_r)."""
    profile = field.agrid.grid.deriv(field.w_theta) - 2.0 * field.w_r
    r = field.agrid.radii.reshape((-1,) + (1,) * profile.ndim)
    return profile / r ** 4


def pressure_from_state(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Pressure of u (shape (..., n)) at coefficients (1, 1/2).

    Eliminating u_t between the momentum balances leaves
    (1 - d_xx/4) p = u^2 + (3/4) u_x^2 + (1/2) u u_xx; this p is also the
    isotropy orbit's second-fundamental-form pressure at (u, u_x/2).
    """
    ux = grid.deriv(u)
    rhs = u * u + 0.75 * ux * ux + 0.5 * u * grid.deriv(u, 2)
    return grid.solve_helmholtz(rhs, 1.0, 0.5)


def require_unit_coefficients(traj: CHTrajectory, name: str) -> None:
    """ValueError unless traj is at (a, b) = (1, 1/2), the coefficients of
    pressure_from_state and of the planar chart."""
    if traj.params != ConeParams():
        raise ValueError(f"{name} needs a trajectory at coefficients (a, b) = "
                         f"(1, 1/2), got ({traj.params.a}, {traj.params.b})")


def _balances(traj: CHTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Pressure-free angular and radial balances, (T-2, n) each.

    u_t + 2 u u_x and alpha_t + u alpha_x + alpha^2 - u^2 (alpha = u_x/2,
    centered u_t) at the interior slices; adding p_x/2 and p gives the
    momentum residuals at unit radius (both scale linearly in r).
    """
    if len(traj.times) < 3:
        raise ValueError("trajectory too short for centered differences")
    grid = traj.grid
    u = traj.u[1:-1]
    u_dot = (traj.u[2:] - traj.u[:-2]) / (2.0 * traj.dt)
    ux = grid.deriv(u)
    alpha = 0.5 * ux
    angular = u_dot + 2.0 * u * ux
    radial = (0.5 * grid.deriv(u_dot) + u * grid.deriv(alpha) + alpha ** 2
              - u ** 2)
    return angular, radial


@dataclass(frozen=True)
class EulerResidualReport:
    times: np.ndarray
    max_momentum_residual: float
    max_div: float
    residual_theta: np.ndarray  # per interior time, sup over x (unit radius)
    residual_r: np.ndarray


def euler_residual(traj: CHTrajectory, agrid: AnnulusGrid) -> EulerResidualReport:
    """Momentum residual of the mapped polar field along a trajectory.

    Time derivatives use centered differences at the stored interior times
    and p is pressure_from_state, computed from u alone, so both the
    angular and the radial residual test the correspondence.  They scale
    linearly in r and are reported at the largest annulus radius.  max_div
    tests the polar_velocity formula, not the trajectory: every u maps to a
    divergence-free field, so it is zero up to rounding.
    """
    require_unit_coefficients(traj, "euler_residual")
    angular, radial = _balances(traj)
    p = pressure_from_state(traj.grid, traj.u[1:-1])
    res_theta = np.max(np.abs(angular + 0.5 * traj.grid.deriv(p)), axis=1)
    res_r = np.max(np.abs(radial + p), axis=1)
    max_div = float(np.max(np.abs(weighted_divergence(
        polar_velocity(agrid, traj.u[1:-1])))))
    r_max = float(np.max(agrid.radii))
    max_mom = r_max * float(max(np.max(res_theta), np.max(res_r)))
    return EulerResidualReport(traj.times[1:-1].copy(), max_mom, max_div,
                               res_theta, res_r)


@dataclass(frozen=True)
class MeasureReport:
    det_residual: float
    pushforward_residual: float
    equivalence_gap: float


def lagrangian_measure_check(path: FlowPath,
                             radii: np.ndarray | None = None) -> MeasureReport:
    """Volume distortion of Phi(theta, r) = (phi(theta), lam(theta) r).

    det_residual: sup of |d_x phi * lam - (d_x phi)^(3/2)| (coordinate
    Jacobian against its isotropy value).  pushforward_residual: sup of
    |d_x phi / lam^2 - 1|, the exact condition for preserving r^-3 dr dtheta.
    equivalence_gap: the same condition recomputed with the r^-4 Leb weights
    at explicit radii.  It is radius-free by algebra, so like max_div it is
    a formula check: it agrees with the r-free form to rounding.
    """
    grid = path.grid
    if radii is None:
        radii = np.array([0.5, 1.0, 2.0])
    radii = AnnulusGrid(grid, radii).radii
    phi_x = grid.lift_slope(path.phi)
    lam = path.lam_ode
    det_residual = float(np.max(np.abs(phi_x * lam - phi_x ** 1.5)))
    res_polar = phi_x / lam ** 2 - 1.0
    pushforward_residual = float(np.max(np.abs(res_polar)))
    # density ratio of the push-forward of r^-4 Leb, one radius at a time,
    # so the temporaries are (T, n); scalar r^4, as numpy's vectorised pow
    # may round the last bit otherwise
    weight = phi_x * lam ** 2
    gap = max(float(np.max(np.abs(weight * (lam * r) ** -4.0 * r ** 4.0 - 1.0
                                  - res_polar))) for r in radii.tolist())
    return MeasureReport(det_residual, pushforward_residual, gap)


@dataclass(frozen=True)
class FormConsistencyReport:
    times: np.ndarray
    angular_gap: float
    radial_gap: float


def geodesic_form_consistency(traj: CHTrajectory,
                              path: FlowPath) -> FormConsistencyReport:
    """Lagrangian vs Eulerian residuals of the constrained geodesic forms.

    The Lagrangian residuals phi'' + 2 (lam'/lam) phi' + (p_x/2) o phi and
    lam'' - lam phi'^2 + lam p o phi, with centered time differences, are
    compared with the Eulerian residual fields composed with phi.  p
    cancels exactly, so only the pressure-free parts are formed; the gap
    measures only the consistency of the two discretizations.
    """
    grid = traj.grid
    dt = traj.dt
    angular, radial = _balances(traj)
    phi, lam = path.phi, path.lam_ode
    phi_0, lam_0 = phi[1:-1], lam[1:-1]
    phi_dot = (phi[2:] - phi[:-2]) / (2.0 * dt)
    phi_ddot = (phi[2:] - 2.0 * phi_0 + phi[:-2]) / dt ** 2
    lam_dot = (lam[2:] - lam[:-2]) / (2.0 * dt)
    lam_ddot = (lam[2:] - 2.0 * lam_0 + lam[:-2]) / dt ** 2
    # one batched call per balance: slice j is composed with phi at slice j
    lag_theta = phi_ddot + 2.0 * (lam_dot / lam_0) * phi_dot
    lag_rad = lam_ddot - lam_0 * phi_dot ** 2
    angular_gap = float(np.max(np.abs(
        lag_theta - grid.trig_eval(angular, phi_0))))
    radial_gap = float(np.max(np.abs(
        lag_rad - lam_0 * grid.trig_eval(radial, phi_0))))
    return FormConsistencyReport(traj.times[1:-1].copy(), angular_gap,
                                 radial_gap)
