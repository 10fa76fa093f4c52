"""Circle velocity fields as incompressible flows of the punctured plane.

A velocity u on the circle maps to the polar field with physical components
v_theta = r u(theta), v_r = (r/2) u_x(theta).  This field has vanishing
divergence against the weight r^-4 Leb, and solutions of the two-parameter
equation at coefficients (1, 1/2) satisfy the Euler momentum equation with
pressure potential Psi_p(x, r) = r^2 p(x) / 2.  The Lagrangian counterpart
Phi(theta, r) = (phi(theta), lam(theta) r) preserves the measure
r^-3 dr dtheta exactly when lam^2 = d_x phi.

eulerian_residuals computes u_dot, p and both momentum residuals on all
interior slices of a trajectory in one pass; the Euler report, the
geodesic-form comparison and the minimality Hessian bound read from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ch import CHTrajectory, FlowPath
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
        if np.any(radii <= 0):
            raise ValueError("annulus radii must be positive")
        object.__setattr__(self, "radii", radii)


@dataclass(frozen=True)
class PolarVectorField:
    """Physical polar components sampled on the annuli (n_radii, n)."""

    agrid: AnnulusGrid
    v_theta: np.ndarray
    v_r: np.ndarray

    def __post_init__(self):
        shape = (len(self.agrid.radii), self.agrid.grid.n)
        v_theta = np.asarray(self.v_theta, dtype=float)
        v_r = np.asarray(self.v_r, dtype=float)
        if v_theta.shape != shape or v_r.shape != shape:
            raise ValueError(f"polar components must have shape {shape}")
        object.__setattr__(self, "v_theta", v_theta)
        object.__setattr__(self, "v_r", v_r)


def madelung(g: GroupElement) -> np.ndarray:
    """Map (phi, lam) to the complex field lam * exp(i phi)."""
    return g.lam * np.exp(1j * g.phi)


def polar_velocity(agrid: AnnulusGrid, u: np.ndarray) -> PolarVectorField:
    """Polar field (v_theta, v_r) = (r u, (r/2) u_x) induced by u."""
    grid = agrid.grid
    u = np.asarray(u, dtype=float)
    ux = grid.deriv(u)
    r = agrid.radii[:, None]
    return PolarVectorField(agrid, r * u[None, :], 0.5 * r * ux[None, :])


def _homogeneous_profiles(field: PolarVectorField) -> tuple[np.ndarray, np.ndarray]:
    """Extract w = V/r, checking radial 1-homogeneity of the input."""
    r = field.agrid.radii[:, None]
    w_theta = field.v_theta / r
    w_r = field.v_r / r
    scale = max(np.max(np.abs(w_theta)), np.max(np.abs(w_r)), 1e-300)
    spread = max(np.max(np.abs(w_theta - w_theta[0])),
                 np.max(np.abs(w_r - w_r[0])))
    if spread > _HOMOGENEITY_RTOL * scale:
        raise ValueError("field is not radially 1-homogeneous")
    return w_theta[0], w_r[0]


def weighted_divergence(field: PolarVectorField) -> np.ndarray:
    """div(rho V) against rho = r^-4 Leb for radially 1-homogeneous fields.

    With V = (r w_theta(theta), r w_r(theta)) the radial derivative is
    analytic and the result is r^-4 (d_theta w_theta - 2 w_r).
    """
    w_theta, w_r = _homogeneous_profiles(field)
    grid = field.agrid.grid
    profile = grid.deriv(w_theta) - 2.0 * w_r
    r = field.agrid.radii[:, None]
    return profile[None, :] / r ** 4


def pressure_from_state(grid: PeriodicGrid, u: np.ndarray,
                        u_dot: np.ndarray) -> np.ndarray:
    """Pressure from the radial momentum balance with alpha = u_x / 2:

        p = -(alpha_dot + u alpha_x + alpha^2 - u^2).
    """
    alpha = 0.5 * grid.deriv(u)
    alpha_dot = 0.5 * grid.deriv(u_dot)
    return -(alpha_dot + u * grid.deriv(alpha) + alpha ** 2 - u ** 2)


def eulerian_residuals(traj: CHTrajectory):
    """(u_dot, p, res_theta, res_r) on the interior slices of a trajectory.

    Each is a (T-2, n) array.  u_dot is the centered time difference, p
    the pressure recovered from the radial momentum balance, and res_theta,
    res_r the angular and radial momentum residuals of the polar field at
    unit radius (both scale linearly in r).  Because p is recovered from
    the radial balance, res_r is identically 0.0; only res_theta tests
    the correspondence.
    """
    grid = traj.grid
    if len(traj.times) < 3:
        raise ValueError("trajectory too short for centered differences")
    u = traj.u[1:-1]
    u_dot = (traj.u[2:] - traj.u[:-2]) / (2.0 * traj.dt)
    ux = grid.deriv(u)
    p = pressure_from_state(grid, u, u_dot)
    alpha = 0.5 * ux
    alpha_dot = 0.5 * grid.deriv(u_dot)
    res_theta = u_dot + 2.0 * u * ux + 0.5 * grid.deriv(p)
    res_r = alpha_dot + u * grid.deriv(alpha) + alpha ** 2 - u ** 2 + p
    return u_dot, p, res_theta, res_r


@dataclass(frozen=True)
class EulerResidualReport:
    times: np.ndarray
    max_momentum_residual: float
    max_div: float
    residual_theta: np.ndarray  # per interior time, sup over x (unit radius)
    residual_r: np.ndarray


def euler_residual(traj: CHTrajectory, agrid: AnnulusGrid) -> EulerResidualReport:
    """Momentum residual of the mapped polar field along a trajectory.

    Time derivatives use centered differences at the stored interior times.
    The pressure is recovered from the radial balance, so the radial
    residual is identically 0.0 and the reported momentum residual is the
    angular one; both scale linearly in r and are reported at the largest
    annulus radius.
    """
    res_theta, res_r = (np.max(np.abs(field), axis=1)
                        for field in eulerian_residuals(traj)[2:])
    max_div = max(float(np.max(np.abs(weighted_divergence(
        polar_velocity(agrid, u))))) for u in traj.u[1:-1])
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
    phi_x = 1.0 + grid.deriv(path.phi - grid.x[None, :])
    lam = path.lam_ode
    det_residual = float(np.max(np.abs(phi_x * lam - phi_x ** 1.5)))
    res_polar = phi_x / lam ** 2 - 1.0
    pushforward_residual = float(np.max(np.abs(res_polar)))
    gap = 0.0
    for r in np.atleast_1d(radii):
        # density ratio of the push-forward of r^-4 Leb, radii kept explicit
        jac_leb = phi_x * lam ** 2
        res_leb = jac_leb * (lam * r) ** -4.0 * r ** 4.0 - 1.0
        gap = max(gap, float(np.max(np.abs(res_leb - res_polar))))
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
    lam'' - lam phi'^2 + lam p o phi are evaluated with centered time
    differences and compared with the Eulerian residual fields composed
    with phi.  The pressure term cancels exactly, so the gap measures only
    the consistency of the two discretizations.
    """
    grid = traj.grid
    dt = traj.dt
    p, res_theta, res_r = eulerian_residuals(traj)[1:]
    phi, lam = path.phi, path.lam_ode
    phi_0, lam_0 = phi[1:-1], lam[1:-1]
    phi_dot = (phi[2:] - phi[:-2]) / (2.0 * dt)
    phi_ddot = (phi[2:] - 2.0 * phi_0 + phi[:-2]) / dt ** 2
    lam_dot = (lam[2:] - lam[:-2]) / (2.0 * dt)
    lam_ddot = (lam[2:] - 2.0 * lam_0 + lam[:-2]) / dt ** 2

    def composed(fields, order=0):
        # trig_eval takes one slice of nodal values at a time
        return np.array([grid.trig_eval(f, x, order)
                         for f, x in zip(fields, phi_0)])

    lag_theta = phi_ddot + 2.0 * (lam_dot / lam_0) * phi_dot \
        + 0.5 * composed(p, order=1)
    lag_rad = lam_ddot - lam_0 * phi_dot ** 2 + lam_0 * composed(p)
    angular_gap = float(np.max(np.abs(lag_theta - composed(res_theta))))
    radial_gap = float(np.max(np.abs(lag_rad - lam_0 * composed(res_r))))
    return FormConsistencyReport(traj.times[1:-1].copy(), angular_gap,
                                 radial_gap)
