"""Semidirect product of circle diffeomorphisms with positive gauge factors."""
import numpy as np
import pytest

from coneflow import (
    ConeParams,
    DensityField,
    GroupElement,
    PeriodicGrid,
    VelocityPair,
    cone_l2_energy,
    hdiv_energy,
    lie_bracket,
)

GRID = PeriodicGrid(128)


def random_pair(rng, scale=1.0):
    x = GRID.x
    v = np.zeros(GRID.n)
    al = np.zeros(GRID.n)
    for k in range(1, 4):
        v += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
        al += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
    return VelocityPair(GRID, scale * v, scale * al)


def pair_gap(x1, x2):
    return max(np.max(np.abs(x1.v - x2.v)), np.max(np.abs(x1.alpha - x2.alpha)))


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(28)
    xi1, xi2, xi3 = (random_pair(rng) for _ in range(3))
    b12 = lie_bracket(xi1, xi2)
    b21 = lie_bracket(xi2, xi1)
    assert pair_gap(b12, VelocityPair(GRID, -b21.v, -b21.alpha)) < 1e-12
    j1 = lie_bracket(xi1, lie_bracket(xi2, xi3))
    j2 = lie_bracket(xi2, lie_bracket(xi3, xi1))
    j3 = lie_bracket(xi3, lie_bracket(xi1, xi2))
    jac = max(np.max(np.abs(j1.v + j2.v + j3.v)),
              np.max(np.abs(j1.alpha + j2.alpha + j3.alpha)))
    assert jac < 1e-8


def test_gradient_pairs_have_vanishing_gauge_bracket():
    # (p1'/2, p1) against (p2'/2, p2): the gauge component cancels
    p1 = np.cos(GRID.x)
    p2 = np.sin(2 * GRID.x)
    xi1 = VelocityPair(GRID, 0.5 * GRID.deriv(p1), p1)
    xi2 = VelocityPair(GRID, 0.5 * GRID.deriv(p2), p2)
    br = lie_bracket(xi1, xi2)
    assert np.max(np.abs(br.alpha)) < 1e-12


@pytest.mark.parametrize("xi1, xi2, bracket", [
    ((np.cos, 0), (np.sin, 0), (-1, 0)),
    ((1, 0), (0, np.sin), (0, lambda x: -np.cos(x))),
    ((np.sin, np.cos), (np.cos, 1), (1, lambda x: -np.sin(2 * x) / 2))],
    ids=["rotations", "gauge", "mixed"])
def test_lie_bracket_closed_forms(xi1, xi2, bracket):
    # (v1' v2 - v2' v1, a1' v2 - a2' v1) by hand: this pins the sign, which
    # antisymmetry, Jacobi and the gradient pairs leave free
    def pair(fields):
        return VelocityPair(GRID, *(f(GRID.x) if callable(f)
                                    else np.full(GRID.n, float(f))
                                    for f in fields))

    assert pair_gap(lie_bracket(pair(xi1), pair(xi2)), pair(bracket)) < 1e-13


def test_hdiv_energy_values():
    # int a^2 sin^2 + b^2 cos^2 = pi (a^2 + b^2): 5 pi / 4 at (1, 1/2)
    u = np.sin(GRID.x)
    assert hdiv_energy(GRID, u) == pytest.approx(1.25 * np.pi, abs=1e-12)
    c = 0.4
    assert hdiv_energy(GRID, c * np.ones(GRID.n)) == pytest.approx(
        2 * np.pi * c ** 2, abs=1e-12)
    scaled = hdiv_energy(GRID, u, ConeParams(2.0, 1.0))
    assert scaled == pytest.approx(np.pi * (4.0 + 1.0), abs=1e-12)


def test_cone_l2_energy_matches_hdiv_on_isotropy_tangents():
    # right-translated tangent (u o phi, (u_x/2 o phi) lam) has equal energy
    rng = np.random.default_rng(29)
    u = np.sin(GRID.x) + 0.3 * np.cos(2 * GRID.x)
    for _ in range(3):
        phi = GRID.x + 0.2 * np.sin(GRID.x + rng.uniform(0, 6))
        g = GroupElement(GRID, phi, np.sqrt(GRID.lift_slope(phi)))  # isotropy
        u_at = GRID.trig_eval(u, g.phi)
        ux_at = GRID.trig_eval(GRID.deriv(u), g.phi)
        phi_dot = u_at
        lam_dot = 0.5 * ux_at * g.lam
        e_map = cone_l2_energy(g, phi_dot, lam_dot)
        e_field = hdiv_energy(GRID, u)
        assert abs(e_map - e_field) < 1e-8 * max(1.0, e_field)


def test_velocity_pair_and_element_validation():
    with pytest.raises(ValueError):
        VelocityPair(GRID, np.ones(GRID.n - 1), np.ones(GRID.n))
    with pytest.raises(ValueError):
        GroupElement(GRID, GRID.x, -np.ones(GRID.n))  # gauge must be positive
    with pytest.raises(ValueError):
        DensityField(GRID, -np.ones(GRID.n))
    with pytest.raises(ValueError, match="phi must be a finite nodal array"):
        GroupElement(GRID, GRID.x[:-1], np.ones(GRID.n - 1))
    folded = GRID.x + 1.5 * np.sin(GRID.x)  # d_x phi = 1 + 1.5 cos x < 0
    with pytest.raises(ValueError, match="strictly increasing"):
        GroupElement(GRID, folded, np.ones(GRID.n))
    with pytest.raises(ValueError, match="nodal array"):
        DensityField(GRID, np.ones((2, GRID.n)))
    with pytest.raises(ValueError, match="finite"):
        DensityField(GRID, np.full(GRID.n, np.nan))


@pytest.mark.parametrize("phi, lam, message", [
    (np.full(GRID.n, np.nan), np.ones(GRID.n), "phi must be a finite nodal"),
    (GRID.x, np.full(GRID.n, np.nan), "lam must be a finite nodal"),
    (GRID.x, np.full(GRID.n, np.inf), "lam must be a finite nodal")],
    ids=["nan-phi", "nan-lam", "inf-lam"])
def test_group_element_rejects_non_finite_fields(phi, lam, message):
    with pytest.raises(ValueError, match=message):
        GroupElement(GRID, phi, lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["v", "alpha"])
def test_velocity_pair_rejects_non_finite_fields(name, bad):
    # a NaN pair used to flow on into NaN brackets and curvatures
    fields = {"v": np.sin(GRID.x), "alpha": np.cos(GRID.x)}
    fields[name][3] = bad
    with pytest.raises(ValueError, match=f"^{name} must be a finite nodal"):
        VelocityPair(GRID, **fields)
