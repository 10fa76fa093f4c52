"""Semidirect product of circle diffeomorphisms with positive gauge factors.

Elements are pairs (phi, lam): phi a circle diffeomorphism stored by nodal
values of its monotone lift, lam a positive field.  The product is
(phi1, lam1) * (phi2, lam2) = (phi1 o phi2, (lam1 o phi2) lam2) and the
group acts on densities on the left by rho -> push-forward of lam^2 rho
under phi.  The right-trivialized tangent at the identity is a velocity
pair (v, alpha).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams
from .grid import PeriodicGrid, rk4_step, step_count

_MONOTONE_TOL = 1e-10


@dataclass(frozen=True)
class GroupElement:
    """(phi, lam) with phi strictly increasing, phi(x+2pi) = phi(x)+2pi."""

    grid: PeriodicGrid
    phi: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", self.grid.field("phi", self.phi))
        object.__setattr__(self, "lam", self.grid.field("lam", self.lam))
        if not np.min(self.phi_x) > _MONOTONE_TOL:
            raise ValueError("phi must be strictly increasing")
        if not np.min(self.lam) > 0:
            raise ValueError("lam must be positive")

    @property
    def phi_x(self) -> np.ndarray:
        return self.grid.lift_slope(self.phi)


@dataclass(frozen=True)
class VelocityPair:
    """Right-trivialized tangent (v, alpha) at the identity."""

    grid: PeriodicGrid
    v: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", self.grid.field("v", self.v))
        object.__setattr__(self, "alpha", self.grid.field("alpha", self.alpha))


@dataclass(frozen=True)
class DensityField:
    """Nonnegative density against dx on the circle."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        values = self.grid.field("density", self.values)
        if np.min(values) < 0:
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "values", values)

    @property
    def mass(self) -> float:
        return float(self.grid.integrate(self.values))


def identity(grid: PeriodicGrid) -> GroupElement:
    return GroupElement(grid, grid.x.copy(), np.ones(grid.n))


def embed_diffeo(grid: PeriodicGrid, phi: np.ndarray) -> GroupElement:
    """Isotropy embedding phi -> (phi, sqrt(phi_x)) of the diffeomorphisms."""
    phi = grid.field("phi", phi)
    slope = np.maximum(grid.lift_slope(phi), 0.0)  # GroupElement rejects folds
    return GroupElement(grid, phi, np.sqrt(slope))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """(phi1, lam1) * (phi2, lam2) = (phi1 o phi2, (lam1 o phi2) lam2)."""
    grid = g1.grid
    disp, lam = grid.trig_eval(np.array((g1.phi - grid.x, g1.lam)),
                               np.broadcast_to(g2.phi, (2, grid.n)))
    return GroupElement(grid, g2.phi + disp, lam * g2.lam)


def inverse(g: GroupElement) -> GroupElement:
    """(phi, lam)^-1 = (phi^-1, (1/lam) o phi^-1)."""
    grid = g.grid
    phi_inv = grid.invert_lift(g.phi)
    lam_inv = 1.0 / grid.trig_eval(g.lam, phi_inv)
    return GroupElement(grid, phi_inv, lam_inv)


def pushforward_action(g: GroupElement, rho: DensityField) -> DensityField:
    """Left action: the push-forward of lam^2 rho under phi.

    Evaluated as (phi_inv)'(y) * (lam^2 rho)(phi_inv(y)) so that the
    Riemann-sum mass of the output telescopes to the mass of lam^2 rho.
    """
    grid = g.grid
    phi_inv = grid.invert_lift(g.phi)
    d_phi_inv = grid.lift_slope(phi_inv)
    weighted = g.lam ** 2 * rho.values
    vals = d_phi_inv * grid.trig_eval(weighted, phi_inv)
    return DensityField(grid, np.maximum(vals, 0.0))


def infinitesimal_action(xi: VelocityPair, rho: DensityField) -> np.ndarray:
    """Derivative of the action at the identity: -(v rho)' + 2 alpha rho."""
    grid = xi.grid
    return -grid.deriv(xi.v * rho.values) + 2.0 * xi.alpha * rho.values


def adjoint_action(g: GroupElement, xi: VelocityPair) -> VelocityPair:
    """Ad_g xi = d/ds g exp(s xi) g^{-1} at s = 0."""
    grid = g.grid
    phi_inv = grid.invert_lift(g.phi)
    log_deriv = grid.deriv(g.lam) / g.lam
    v_new, a_new = grid.trig_eval(
        np.array((g.phi_x * xi.v, log_deriv * xi.v + xi.alpha)),
        np.broadcast_to(phi_inv, (2, grid.n)))
    return VelocityPair(grid, v_new, a_new)


def lie_bracket(xi1: VelocityPair, xi2: VelocityPair) -> VelocityPair:
    """[(v1, a1), (v2, a2)] = (v1' v2 - v2' v1, a1' v2 - a2' v1).

    This is d/dt Ad_{exp(t xi1)} xi2 at t = 0, so antisymmetry and Jacobi
    hold exactly for band-limited fields.  For gradient pairs
    (p1'/2, p1), (p2'/2, p2) the gauge component cancels.
    """
    grid = xi1.grid
    v = grid.deriv(xi1.v) * xi2.v - grid.deriv(xi2.v) * xi1.v
    alpha = grid.deriv(xi1.alpha) * xi2.v - grid.deriv(xi2.alpha) * xi1.v
    return VelocityPair(grid, v, alpha)


def pair_flow(grid: PeriodicGrid, stages, dt: float, n_steps: int):
    """Yield the stack (phi, lam), shape (2, n), after each RK4 step of
    phi' = v o phi, lam' = (alpha o phi) lam from the identity.  stages(j)
    returns the stack (v, alpha) at fractions 0, 1/2 and 1 of step j; each
    RK4 stage is one trig_eval call at phi broadcast to both rows."""
    at = {}

    def rhs(c, y):
        dy = grid.trig_eval(at[c], np.broadcast_to(y[0], y.shape))
        dy[1] *= y[1]
        return dy

    y = np.array((grid.x, np.ones(grid.n)))
    for j in range(n_steps):
        at.update(zip((0.0, 0.5, 1.0), stages(j)))
        y = rk4_step(rhs, y, dt)
        yield y


def group_exponential(xi: VelocityPair, t: float, dt: float) -> GroupElement:
    """Flow of the right-invariant field: phi' = v o phi, lam' = (alpha o phi) lam."""
    n_steps = step_count(abs(t), dt)  # t < 0 takes the steps backwards
    stack = (np.array((xi.v, xi.alpha)),) * 3  # the same at every stage
    for phi, lam in pair_flow(xi.grid, lambda _: stack, t / n_steps, n_steps):
        pass  # only the last state is kept: memory is O(n) for any step count
    return GroupElement(xi.grid, phi, lam)


def hdiv_energy(grid: PeriodicGrid, v: np.ndarray,
                params: ConeParams = ConeParams()) -> float | np.ndarray:
    """Right-invariant H(div) energy: int a^2 v^2 + b^2 (v')^2 dx.

    One value per slice of v (..., n): a scalar for a single field.
    """
    vx = grid.deriv(np.asarray(v, dtype=float))
    return grid.integrate(params.a ** 2 * v ** 2 + params.b ** 2 * vx ** 2)


def cone_l2_energy(g: GroupElement, phi_dot: np.ndarray, lam_dot: np.ndarray,
                   params: ConeParams = ConeParams()) -> float:
    """Energy of a group tangent in the space of cone-valued maps.

    int a^2 lam^2 phi_dot^2 + 4 b^2 lam_dot^2 dx; the 4 b^2 factor is the
    radial weight of the cone metric written in the gauge variable.
    """
    grid = g.grid
    integrand = (params.a ** 2 * g.lam ** 2 * phi_dot ** 2
                 + 4.0 * params.b ** 2 * lam_dot ** 2)
    return float(grid.integrate(integrand))
