"""Semidirect product of circle diffeomorphisms with positive gauge factors."""
import tracemalloc
import warnings

import numpy as np
import pytest

import coneflow.grid
import coneflow.group
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
from rk4_oracle import tuple_pair_flow

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


@pytest.mark.parametrize("t, dt", [(0.5, 0.05), (1.0, 0.01)])
def test_group_exponential_backwards_is_exponential_of_negated_pair(t, dt):
    # negative t takes |t|/dt signed steps, not one step of size t
    xi = random_pair(np.random.default_rng(18), scale=0.5)
    neg = VelocityPair(GRID, -xi.v, -xi.alpha)
    back = group_exponential(xi, -t, dt)
    ref = group_exponential(neg, t, dt)
    assert np.max(np.abs(back.phi - ref.phi)) < 1e-14
    assert np.max(np.abs(back.lam - ref.lam)) < 1e-14


@pytest.mark.parametrize("t", [0.0, float("nan"), 0.55, -0.55])
def test_group_exponential_rejects_partial_and_empty_horizons(t):
    xi = random_pair(np.random.default_rng(19), scale=0.5)
    with pytest.raises(ValueError):
        group_exponential(xi, t, 0.1)


def test_group_exponential_stage_is_one_stacked_evaluation(monkeypatch):
    # (v, alpha) is one coefficient block, built once per call; each RK4
    # stage evaluates it in one 2-row call, and the same block evaluated
    # row by row gives the same bits
    xi = random_pair(np.random.default_rng(17), scale=0.5)
    stacked = group_exponential(xi, 0.5, 0.05)
    evaluate, giant_rows = coneflow.grid._evaluate, coneflow.grid._giant_rows
    rows_per_call, built = [], []

    def row_by_row(block, points):
        rows_per_call.append(block.shape[1:-1])
        return np.array([evaluate(block[:, i], p)
                         for i, p in enumerate(points)])

    def counted(coeff):
        built.append(coeff.shape)
        return giant_rows(coeff)

    monkeypatch.setattr(coneflow.group, "_evaluate", row_by_row)
    monkeypatch.setattr(coneflow.grid, "_giant_rows", counted)
    rows = group_exponential(xi, 0.5, 0.05)
    assert rows_per_call == [(2,)] * (4 * 10)
    assert built == [(2, GRID.n // 2 + 1)]
    assert np.array_equal(stacked.phi, rows.phi)
    assert np.array_equal(stacked.lam, rows.lam)


@pytest.mark.parametrize("steps", [1, 7, 400])
def test_group_exponential_transforms_its_pair_once(monkeypatch, steps):
    # one rfft of the stacked (v, alpha) for any number of steps; the
    # returned element's own check (phi_x) takes one more
    xi = random_pair(np.random.default_rng(19), scale=0.5)
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    group_exponential(xi, 0.2, 0.2 / steps)
    assert calls == [(2, GRID.n), (GRID.n,)]


@pytest.mark.parametrize("t", [0.5, -0.3])
def test_group_exponential_is_bit_identical_to_the_tuple_state_flow(t):
    # (phi, lam) stepped as one stacked state rounds as the two fields
    # stepped separately
    grid = PeriodicGrid(64)
    xi = VelocityPair(grid, 0.3 * np.sin(grid.x), 0.2 * np.cos(2 * grid.x))
    n_steps = round(abs(t) / 0.01)
    stages = ((xi.v, xi.alpha),) * 3
    for phi, lam in tuple_pair_flow(grid, lambda _: stages, t / n_steps,
                                    n_steps):
        pass
    g = group_exponential(xi, t, 0.01)
    assert np.array_equal(g.phi, phi)
    assert np.array_equal(g.lam, lam)


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
    with pytest.raises(ValueError, match="phi must be a finite nodal array"):
        GroupElement(GRID, GRID.x[:-1], np.ones(GRID.n - 1))
    folded = GRID.x + 1.5 * np.sin(GRID.x)  # d_x phi = 1 + 1.5 cos x < 0
    with pytest.raises(ValueError, match="strictly increasing"):
        GroupElement(GRID, folded, np.ones(GRID.n))
    with pytest.raises(ValueError, match="strictly increasing"):
        embed_diffeo(GRID, folded)
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


def test_embed_diffeo_rejects_nan():
    with pytest.raises(ValueError, match="phi must be a finite nodal array"):
        embed_diffeo(GRID, np.full(GRID.n, np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["v", "alpha"])
def test_velocity_pair_rejects_non_finite_fields(name, bad):
    # a NaN pair used to flow on into NaN brackets, adjoints and curvatures
    fields = {"v": np.sin(GRID.x), "alpha": np.cos(GRID.x)}
    fields[name][3] = bad
    with pytest.raises(ValueError, match=f"^{name} must be a finite nodal"):
        VelocityPair(GRID, **fields)


def test_group_exponential_of_an_infinite_field_raises_before_stepping(
        monkeypatch):
    steps = []
    monkeypatch.setattr(PeriodicGrid, "trig_eval",
                        lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="v must be a finite nodal array"):
        group_exponential(VelocityPair(GRID, np.full(GRID.n, np.inf),
                                       np.zeros(GRID.n)), 1.0, 0.1)
    assert steps == []


def test_embed_diffeo_rejects_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phi must be a finite nodal"):
            embed_diffeo(PeriodicGrid(16), np.full(16, np.inf))


def test_group_exponential_stores_no_path(monkeypatch):
    # only the last state is kept: the peak does not grow with the steps.
    # A pointwise stand-in for trig_eval keeps 10,000 traced steps to a few
    # seconds; what is measured is the storage of the states.
    monkeypatch.setattr(PeriodicGrid, "trig_eval",
                        lambda self, values, points: values * np.cos(points))
    grid = PeriodicGrid(64)
    xi = VelocityPair(grid, 0.3 * np.sin(grid.x), 0.2 * np.cos(grid.x))
    group_exponential(xi, 1.0, 1e-2)  # warm caches outside the trace
    peaks = []
    for dt in (1e-2, 1e-4):  # 100 and 10,000 steps
        tracemalloc.start()
        try:
            group_exponential(xi, 1.0, dt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 10,000 stored (phi, lam) slices would be 10 MB
    assert peaks[1] < 1.1 * peaks[0] + 4096
