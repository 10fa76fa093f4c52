"""Semidirect product of circle diffeomorphisms with positive gauge factors."""
import numpy as np
import pytest

from coneflow import (
    ConeParams,
    DensityField,
    GroupElement,
    PeriodicGrid,
    VelocityPair,
    adjoint_action,
    compose,
    cone_l2_energy,
    embed_diffeo,
    group_exponential,
    hdiv_energy,
    identity,
    infinitesimal_action,
    inverse,
    lie_bracket,
    pushforward_action,
)

GRID = PeriodicGrid(128)


def random_element(rng, scale=0.25):
    x = GRID.x
    disp = np.zeros(GRID.n)
    for k in range(1, 4):
        disp += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
    disp *= scale / max(1.0, np.max(np.abs(GRID.deriv(disp))) + 0.1)
    lam = np.exp(scale * rng.normal() * np.cos(x + rng.uniform(0, 2 * np.pi)))
    return GroupElement(GRID, x + disp, lam)


def random_pair(rng, scale=1.0):
    x = GRID.x
    v = np.zeros(GRID.n)
    al = np.zeros(GRID.n)
    for k in range(1, 4):
        v += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
        al += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
    return VelocityPair(GRID, scale * v, scale * al)


def element_gap(g1, g2):
    return max(np.max(np.abs(g1.phi - g2.phi)), np.max(np.abs(g1.lam - g2.lam)))


def pair_gap(x1, x2):
    return max(np.max(np.abs(x1.v - x2.v)), np.max(np.abs(x1.alpha - x2.alpha)))


def test_identity_element_is_neutral():
    rng = np.random.default_rng(20)
    g = random_element(rng)
    e = identity(GRID)
    assert element_gap(compose(g, e), g) < 1e-10
    assert element_gap(compose(e, g), g) < 1e-10


def test_inverse_composes_to_identity():
    # phi and lam are both read through the trigonometric interpolant, so
    # the right inverse is exact by construction and the left one is exact
    # to roundoff for well-resolved elements
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = random_element(rng)
        e = identity(GRID)
        assert element_gap(compose(g, inverse(g)), e) < 1e-12
        assert element_gap(compose(inverse(g), g), e) < 1e-12


def test_composition_associative():
    rng = np.random.default_rng(22)
    g1, g2, g3 = (random_element(rng) for _ in range(3))
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert element_gap(left, right) < 1e-6


def test_composition_is_associative_to_roundoff():
    # one spectral evaluator for phi and lam: no interpolation error to decay
    for n in (128, 256, 512):
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(22)
        els = []
        for _ in range(3):
            disp = np.zeros(n)
            for k in range(1, 4):
                disp += (rng.normal() * np.cos(k * grid.x)
                         + rng.normal() * np.sin(k * grid.x)) / k
            disp *= 0.25 / max(1.0, np.max(np.abs(grid.deriv(disp))) + 0.1)
            lam = np.exp(0.25 * rng.normal()
                         * np.cos(grid.x + rng.uniform(0, 2 * np.pi)))
            els.append(GroupElement(grid, grid.x + disp, lam))
        g1, g2, g3 = els
        left = compose(compose(g1, g2), g3)
        right = compose(g1, compose(g2, g3))
        assert element_gap(left, right) < 1e-12, n


def test_embed_diffeo_isotropy_gauge():
    # the embedded gauge factor is sqrt(d_x phi)
    phi = GRID.x + 0.3 * np.sin(GRID.x)
    g = embed_diffeo(GRID, phi)
    phi_x = 1.0 + GRID.deriv(phi - GRID.x)
    assert np.max(np.abs(g.lam ** 2 - phi_x)) < 1e-12


def test_pushforward_preserves_weighted_mass():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_element(rng)
        rho = DensityField(GRID, 1.0 + 0.5 * np.sin(GRID.x + rng.uniform(0, 6)))
        out = pushforward_action(g, rho)
        mass_in = GRID.integrate(g.lam ** 2 * rho.values)
        assert abs(out.mass - mass_in) < 1e-10 * max(1.0, mass_in)


def test_pushforward_is_a_left_action():
    rng = np.random.default_rng(24)
    g1 = random_element(rng, scale=0.15)
    g2 = random_element(rng, scale=0.15)
    rho = DensityField(GRID, 1.0 + 0.3 * np.cos(GRID.x))
    via_product = pushforward_action(compose(g1, g2), rho)
    via_steps = pushforward_action(g1, pushforward_action(g2, rho))
    assert np.max(np.abs(via_product.values - via_steps.values)) < 1e-6


def test_identity_acts_trivially_on_densities():
    rho = DensityField(GRID, 1.0 + 0.4 * np.sin(2 * GRID.x))
    out = pushforward_action(identity(GRID), rho)
    assert np.max(np.abs(out.values - rho.values)) < 1e-12


def test_infinitesimal_action_is_action_derivative():
    # central difference of t -> exp(t xi) . rho at t = 0
    rng = np.random.default_rng(25)
    xi = random_pair(rng, scale=0.5)
    rho = DensityField(GRID, 1.2 + 0.4 * np.sin(GRID.x))
    eps = 1e-4
    plus = pushforward_action(group_exponential(xi, eps, eps / 8), rho)
    minus = pushforward_action(group_exponential(xi, -eps, eps / 8), rho)
    fd = (plus.values - minus.values) / (2 * eps)
    exact = infinitesimal_action(xi, rho)
    assert np.max(np.abs(fd - exact)) < 1e-6


def test_adjoint_action_is_conjugation_derivative():
    rng = np.random.default_rng(26)
    g = random_element(rng, scale=0.2)
    xi = random_pair(rng, scale=0.5)
    eps = 1e-4
    plus = compose(compose(g, group_exponential(xi, eps, eps / 8)), inverse(g))
    minus = compose(compose(g, group_exponential(xi, -eps, eps / 8)), inverse(g))
    v_fd = (plus.phi - minus.phi) / (2 * eps)
    a_fd = (np.log(plus.lam) - np.log(minus.lam)) / (2 * eps)
    ad = adjoint_action(g, xi)
    assert np.max(np.abs(v_fd - ad.v)) < 1e-6
    assert np.max(np.abs(a_fd - ad.alpha)) < 1e-6


def test_lie_bracket_is_adjoint_derivative():
    rng = np.random.default_rng(27)
    xi1 = random_pair(rng, scale=0.5)
    xi2 = random_pair(rng, scale=0.5)
    eps = 1e-4
    plus = adjoint_action(group_exponential(xi1, eps, eps / 8), xi2)
    minus = adjoint_action(group_exponential(xi1, -eps, eps / 8), xi2)
    fd = VelocityPair(GRID, (plus.v - minus.v) / (2 * eps),
                      (plus.alpha - minus.alpha) / (2 * eps))
    br = lie_bracket(xi1, xi2)
    assert pair_gap(fd, br) < 1e-6


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


def test_group_exponential_closed_forms():
    # constant velocity: rigid rotation; pure gauge: pointwise exponential
    c = 0.7
    rot = group_exponential(VelocityPair(GRID, c * np.ones(GRID.n),
                                         np.zeros(GRID.n)), 1.0, 1e-2)
    assert np.max(np.abs(rot.phi - (GRID.x + c))) < 1e-10
    assert np.max(np.abs(rot.lam - 1.0)) < 1e-10
    al = 0.3 * np.cos(GRID.x)
    gauge = group_exponential(VelocityPair(GRID, np.zeros(GRID.n), al), 1.0, 1e-2)
    assert np.max(np.abs(gauge.phi - GRID.x)) < 1e-12
    assert np.max(np.abs(gauge.lam - np.exp(al))) < 1e-10


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
        g = embed_diffeo(GRID, GRID.x + 0.2 * np.sin(GRID.x + rng.uniform(0, 6)))
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
