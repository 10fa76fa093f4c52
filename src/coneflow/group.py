"""Semidirect product of circle diffeomorphisms with positive gauge factors.

Elements are pairs (phi, lam): phi a circle diffeomorphism stored by nodal
values of its monotone lift, lam a positive field.  The product is
(phi1, lam1) * (phi2, lam2) = (phi1 o phi2, (lam1 o phi2) lam2) and the
group acts on densities on the left by rho -> push-forward of lam^2 rho
under phi.  The right-trivialized tangent at the identity is a velocity
pair (v, alpha).  This module holds the group algebra the package
computes with on the tangent side: the infinitesimal action and the Lie
bracket (the horizontal lift and O'Neill's curvature in submersion), and
the two energies.  The flow of a time-dependent pair, from the identity,
is stepped where it is used: ch.flow_map, for the isotropy pair
(u, u_x/2) of a CH trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams
from .grid import PeriodicGrid

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


def infinitesimal_action(xi: VelocityPair, rho: DensityField) -> np.ndarray:
    """Derivative of the action at the identity: -(v rho)' + 2 alpha rho."""
    grid = xi.grid
    return -grid.deriv(xi.v * rho.values) + 2.0 * xi.alpha * rho.values


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
