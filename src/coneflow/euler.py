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
The trajectory diagnostics make no per-slice loops: polar fields carry the
time slices as a batch axis, and the pressure-free balances are composed
with the flow map by one batched PeriodicGrid.trig_eval call each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ch import CHTrajectory, FlowPath
from .cone import ConeParams
from .grid import PeriodicGrid
from .group import GroupElement

_HOMOGENEITY_RTOL = 1e-8


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
    """Physical polar components (n_radii, ..., n); middle axes are a batch."""

    agrid: AnnulusGrid
    v_theta: np.ndarray
    v_r: np.ndarray

    def __post_init__(self):
        n_radii, n = len(self.agrid.radii), self.agrid.grid.n
        v_theta = np.asarray(self.v_theta, dtype=float)
        v_r = np.asarray(self.v_r, dtype=float)
        if v_theta.ndim < 2 or v_r.shape != v_theta.shape \
                or (v_theta.shape[0], v_theta.shape[-1]) != (n_radii, n):
            raise ValueError(f"polar components must have shape "
                             f"({n_radii}, ..., {n})")
        object.__setattr__(self, "v_theta", v_theta)
        object.__setattr__(self, "v_r", v_r)


def madelung(g: GroupElement) -> np.ndarray:
    """Map (phi, lam) to the complex field lam * exp(i phi)."""
    return g.lam * np.exp(1j * g.phi)


def polar_velocity(agrid: AnnulusGrid, u: np.ndarray) -> PolarVectorField:
    """Polar field (v_theta, v_r) = (r u, (r/2) u_x) of u, shape (..., n)."""
    u = np.asarray(u, dtype=float)
    ux = agrid.grid.deriv(u)
    r = agrid.radii.reshape((-1,) + (1,) * u.ndim)
    return PolarVectorField(agrid, r * u, 0.5 * r * ux)


def _homogeneous_profiles(field: PolarVectorField) -> tuple[np.ndarray, np.ndarray]:
    """Extract w = V/r, checking each slice's radial 1-homogeneity.

    Slices are checked at their own scale, so a large slice cannot hide an
    inhomogeneous small one.
    """
    r = field.agrid.radii.reshape((-1,) + (1,) * (field.v_theta.ndim - 1))

    def sup(w):  # max |w| over the radius and angle axes, with no |w| copy
        return np.maximum(np.max(w, axis=(0, -1)), -np.min(w, axis=(0, -1)))

    # one component at a time, so one (n_radii, ..., n) temporary is alive:
    # this pass sets euler check's peak memory, and stacking both raises it
    profiles, scale, spread = [], 0.0, 0.0
    for v in (field.v_theta, field.v_r):
        w = v / r
        scale = np.maximum(scale, sup(w))
        profiles.append(w[0].copy())
        w -= profiles[-1]
        spread = np.maximum(spread, sup(w))
    if np.any(spread > _HOMOGENEITY_RTOL * np.maximum(scale, 1e-300)):
        raise ValueError("field is not radially 1-homogeneous")
    return profiles[0], profiles[1]


def weighted_divergence(field: PolarVectorField) -> np.ndarray:
    """div(rho V) against rho = r^-4 Leb for radially 1-homogeneous fields.

    With V = (r w_theta(theta), r w_r(theta)) the radial derivative is
    analytic and the result is r^-4 (d_theta w_theta - 2 w_r), with the
    shape of the components.
    """
    w_theta, w_r = _homogeneous_profiles(field)
    profile = field.agrid.grid.deriv(w_theta) - 2.0 * w_r
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
    del angular, radial, p  # freed before the (n_radii, T, n) divergence
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
    at explicit radii; it must agree with the r-free form to rounding.
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
    # density ratio of the push-forward of r^-4 Leb, radii kept explicit;
    # scalar r^4, as numpy's vectorised pow may round the last bit otherwise
    r = radii[:, None, None]
    r4 = np.array([x ** 4.0 for x in radii.tolist()])[:, None, None]
    res_leb = phi_x * lam ** 2 * (lam * r) ** -4.0 * r4 - 1.0
    gap = float(np.max(np.abs(res_leb - res_polar)))
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
