"""Spectral grid utilities: differentiation, interpolation, monotone lifts."""
import tracemalloc

import numpy as np
import pytest

from coneflow import (ConePoint, ConeTangent, PeriodicGrid, bump_density,
                      ch_solve, circle_distance, cone_geodesic, diff_matrix,
                      hamiltonian_flow, horizontal_flow, wrap)
from coneflow.grid import rk4_step, step_count


def random_trig(grid, rng, n_modes=5, scale=1.0):
    # band-limited real field, well inside the dealiasing cutoff
    x = grid.x
    f = np.zeros(grid.n)
    for k in range(1, n_modes + 1):
        f += (rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k
    return scale * f


def test_wrap_and_circle_distance():
    assert wrap(2 * np.pi) == 0.0
    assert wrap(-0.5) == pytest.approx(2 * np.pi - 0.5, abs=1e-15)
    assert circle_distance(0.0, np.pi) == pytest.approx(np.pi)
    assert circle_distance(0.1, 2 * np.pi - 0.1) == pytest.approx(0.2, abs=1e-15)
    assert circle_distance(1.3, 1.3) == 0.0


def test_deriv_exact_on_band_limited_fields():
    grid = PeriodicGrid(64)
    x = grid.x
    u = np.sin(3 * x) + 0.5 * np.cos(7 * x)
    du = 3 * np.cos(3 * x) - 3.5 * np.sin(7 * x)
    d2u = -9 * np.sin(3 * x) - 24.5 * np.cos(7 * x)
    assert np.max(np.abs(grid.deriv(u) - du)) < 1e-12
    assert np.max(np.abs(grid.deriv(u, 2) - d2u)) < 1e-11


def test_integrate_and_mean():
    grid = PeriodicGrid(32)
    assert grid.integrate(np.ones(32)) == pytest.approx(2 * np.pi, abs=1e-13)
    assert grid.integrate(np.sin(grid.x)) == pytest.approx(0.0, abs=1e-13)
    assert grid.mean(3.0 * np.ones(32)) == pytest.approx(3.0, abs=1e-14)


def test_solve_helmholtz_manufactured():
    grid = PeriodicGrid(64)
    x = grid.x
    a, b = 1.3, 0.7
    u = np.cos(2 * x) - 0.2 * np.sin(5 * x)
    rhs = a ** 2 * u - b ** 2 * grid.deriv(u, 2)
    sol = grid.solve_helmholtz(rhs, a, b)
    assert np.max(np.abs(sol - u)) < 1e-12


def test_dealias_zeroes_top_third():
    grid = PeriodicGrid(48)
    u = np.cos(20 * grid.x)  # 20 > 48/3, must be removed
    v = np.cos(5 * grid.x)   # 5 < 48/3, must survive
    assert np.max(np.abs(grid.dealias(u))) < 1e-13
    assert np.max(np.abs(grid.dealias(v) - v)) < 1e-13


def test_trig_eval_matches_analytic_off_grid():
    grid = PeriodicGrid(32)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2 * np.pi, 200)
    u = np.sin(2 * grid.x) + 0.3 * np.cos(4 * grid.x)
    exact = np.sin(2 * pts) + 0.3 * np.cos(4 * pts)
    exact_d = 2 * np.cos(2 * pts) - 1.2 * np.sin(4 * pts)
    assert np.max(np.abs(grid.trig_eval(u, pts) - exact)) < 1e-12
    assert np.max(np.abs(grid.trig_eval(u, pts, order=1) - exact_d)) < 1e-11
    # nodal evaluation reproduces the samples
    assert np.max(np.abs(grid.trig_eval(u, grid.x) - u)) < 1e-12


def dense_trig_eval(grid, values, points, order=0):
    """Reference evaluator: the sum over an explicit P x (n/2 + 1) phase matrix."""
    points = np.asarray(points, dtype=float)
    c = np.fft.rfft(values)
    k = np.arange(grid.n // 2 + 1, dtype=float)
    if order > 0:
        c = c * (1j * k) ** order
        c[-1] = 0.0
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    phase = np.exp(1j * np.outer(points, k))
    return (phase @ (w * c / grid.n)).real.reshape(points.shape)


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_trig_eval_matches_dense_evaluator(n, order):
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(10 * n + order)
    values = rng.normal(size=n)
    k = np.arange(n // 2 + 1)
    w = np.where((k == 0) | (k == n // 2), 1.0, 2.0)
    c_abs = np.abs(np.fft.rfft(values)) / n
    if order > 0:
        c_abs[-1] = 0.0
    bound = 1e-13 * np.sum(w * c_abs * k ** order)
    inside = rng.uniform(0.0, 2 * np.pi, 300)
    # far points lie on the 2**-20 lattice so that k*x is exact in the
    # reference; otherwise its phase rounding, |k x| eps / 2 per mode,
    # exceeds the bound at n = 1024
    far = rng.integers(-50 * 2 ** 20, 50 * 2 ** 20, size=(12, 25)) / 2 ** 20
    far[0, :2] = (-50.0, 50.0)
    for pts in (inside, far):
        fast = grid.trig_eval(values, pts, order)
        dense = dense_trig_eval(grid, values, pts, order)
        assert fast.shape == pts.shape
        assert np.max(np.abs(fast - dense)) <= bound


def test_trig_eval_memory_is_linear_in_points():
    grid = PeriodicGrid(1024)
    rng = np.random.default_rng(4)
    values = rng.normal(size=1024)
    pts = rng.uniform(0.0, 2 * np.pi, 1024)
    grid.trig_eval(values, pts)
    tracemalloc.start()
    try:
        grid.trig_eval(values, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 1024 x 513 complex phase matrix alone takes 8.4 MB
    assert peak < 1_000_000


def test_trig_eval_rejects_bad_samples_and_order():
    grid = PeriodicGrid(8)
    pts = np.linspace(0.0, 1.0, 5)
    for bad in (np.ones(9), np.ones(7), np.ones((2, 8)), np.float64(1.0)):
        with pytest.raises(ValueError, match="8 nodal samples"):
            grid.trig_eval(bad, pts)
    for order in (-1, 0.5, 1.0, None):
        with pytest.raises(ValueError, match="order"):
            grid.trig_eval(np.ones(8), pts, order)


def test_eval_lift_reproduces_monotone_map():
    # the lift is read through the trigonometric interpolant of phi - id,
    # which reproduces a band-limited displacement to roundoff
    grid = PeriodicGrid(256)
    phi = grid.x + 0.3 * np.sin(grid.x)
    pts = np.random.default_rng(1).uniform(0, 2 * np.pi, 100)
    vals = grid.eval_lift(phi, pts)
    assert np.max(np.abs(vals - (pts + 0.3 * np.sin(pts)))) < 1e-13


def inversion_gap(grid, phi):
    # |phi(y_i) - x_i| for the computed preimages y_i of the nodes
    return np.max(np.abs(grid.eval_lift(phi, grid.invert_lift(phi)) - grid.x))


def test_invert_lift_random_monotone_maps():
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(2)
    for _ in range(10):
        disp = random_trig(grid, rng, n_modes=3, scale=0.2)
        disp = disp - grid.mean(disp)
        assert inversion_gap(grid, grid.x + disp) <= 1e-13


def test_invert_lift_identity_and_near_identity():
    grid = PeriodicGrid(32)
    inv = grid.invert_lift(grid.x.copy())
    assert np.max(np.abs(inv - grid.x)) < 1e-12
    phi = grid.x + 1e-9 * np.sin(grid.x)
    inv = grid.invert_lift(phi)
    assert np.max(np.abs(grid.eval_lift(phi, inv) - grid.x)) < 1e-12


def test_invert_lift_steep_map():
    for n in (64, 256):
        grid = PeriodicGrid(n)
        phi = grid.x + 0.95 * np.sin(grid.x) + 1.0
        assert np.min(1.0 + grid.deriv(phi - grid.x)) == pytest.approx(
            0.05, abs=1e-9)
        assert inversion_gap(grid, phi) <= 1e-13


def test_invert_lift_when_the_interpolant_overshoots_the_nodes():
    # an under-resolved bump: between nodes the displacement dips below its
    # nodal minimum, so the nodal range does not bracket every root
    grid = PeriodicGrid(16)
    bump = np.exp((np.cos(grid.x - np.pi) - 1.0) / 0.3 ** 2)
    disp = bump - grid.mean(bump)
    disp *= 0.8 / np.max(np.abs(grid.deriv(disp)))
    fine = np.linspace(0.0, 2 * np.pi, 4001)
    assert np.min(disp) - np.min(grid.trig_eval(disp, fine)) > 1e-3
    assert inversion_gap(grid, grid.x + disp) <= 1e-13


def test_invert_lift_large_grid():
    grid = PeriodicGrid(1024)
    disp = random_trig(grid, np.random.default_rng(4), n_modes=8, scale=0.1)
    assert np.min(1.0 + grid.deriv(disp)) > 0.1
    assert inversion_gap(grid, grid.x + disp) <= 1e-13


def test_invert_lift_converges_in_few_newton_rounds(monkeypatch):
    # each round evaluates the displacement and its derivative; Newton needs
    # 5 rounds here, bisection to roundoff over the 2S-wide bracket about 50
    grid = PeriodicGrid(128)
    disp = random_trig(grid, np.random.default_rng(5), n_modes=3, scale=0.2)
    calls = []
    trig_eval = PeriodicGrid.trig_eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return trig_eval(self, *args, **kwargs)

    monkeypatch.setattr(PeriodicGrid, "trig_eval", counted)
    grid.invert_lift(grid.x + disp)
    assert len(calls) <= 2 * 8 + 1


def test_invert_lift_raises_when_it_cannot_converge():
    grid = PeriodicGrid(16)
    phi = grid.x.copy()
    phi[3] = np.nan
    with pytest.raises(RuntimeError, match="failed to converge"):
        grid.invert_lift(phi)


def test_diff_matrix_agrees_with_deriv():
    grid = PeriodicGrid(24)
    d = diff_matrix(24)
    rng = np.random.default_rng(3)
    u = random_trig(grid, rng)
    assert np.max(np.abs(d @ u - grid.deriv(u))) < 1e-11


def test_bump_density_mass_and_shape():
    grid = PeriodicGrid(96)
    rho = bump_density(grid, np.pi, 0.4, 2.5)
    assert grid.integrate(rho) == pytest.approx(2.5, abs=1e-12)
    assert np.all(rho > 0)
    assert grid.x[np.argmax(rho)] == pytest.approx(np.pi, abs=grid.h)
    with pytest.raises(ValueError):
        bump_density(grid, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        bump_density(grid, 0.0, 0.1, -1.0)


def test_periodic_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(0)
    with pytest.raises(ValueError):
        PeriodicGrid(7)  # odd sizes are rejected, rfft layout assumes even n


def test_rk4_step_is_fourth_order_on_a_rotation():
    # y' = (-y2, y1) from (1, 0) is (cos t, sin t); the state is a tuple
    def rotation(_, y):
        return -y[1], y[0]

    def error(n_steps):
        dt = 1.0 / n_steps
        y = (np.array([1.0]), np.array([0.0]))
        for _ in range(n_steps):
            y = rk4_step(rotation, y, dt)
        return max(abs(y[0][0] - np.cos(1.0)), abs(y[1][0] - np.sin(1.0)))

    errors = [error(n) for n in (10, 20, 40)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.1)


def test_rk4_step_stage_fractions():
    seen = []

    def clock(c, y):
        seen.append(c)
        return (np.ones(1),)

    y, = rk4_step(clock, (np.zeros(1),), 0.25)
    assert seen == [0.0, 0.5, 0.5, 1.0]
    assert y[0] == 0.25


def test_step_count_requires_a_whole_number_of_steps():
    assert step_count(1.0, 1e-3) == 1000
    assert step_count(0.25, 1e-3) == 250
    for t_final, dt in ((0.25, 0.1), (1.0, 0.3), (0.04, 0.1)):
        with pytest.raises(ValueError, match="whole number of steps"):
            step_count(t_final, dt)
    for t_final, dt in ((1.0, 0.0), (0.0, 0.1), (-0.5, -0.1), (1.0, -0.1)):
        with pytest.raises(ValueError, match="must be positive"):
            step_count(t_final, dt)


@pytest.mark.parametrize("integrate", [
    lambda t, dt: ch_solve(PeriodicGrid(16), 0.2 * np.sin(PeriodicGrid(16).x),
                           t, dt),
    lambda t, dt: cone_geodesic(ConePoint(0.0, 1.0), ConeTangent(0.3, -0.1),
                                t, dt),
    lambda t, dt: horizontal_flow(PeriodicGrid(16), np.ones(16),
                                  0.1 * np.cos(PeriodicGrid(16).x), t, dt),
    lambda t, dt: hamiltonian_flow(PeriodicGrid(16), np.ones(16),
                                   0.1 * np.cos(PeriodicGrid(16).x), t, dt),
], ids=["ch_solve", "cone_geodesic", "horizontal_flow", "hamiltonian_flow"])
def test_integrators_reject_a_partial_last_step(integrate):
    # round(t/dt)*dt would end at 0.2 and at 0.0; only whole steps are taken
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(0.25, 0.1)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(0.04, 0.1)
    assert integrate(0.3, 0.1).times[-1] == pytest.approx(0.3, abs=1e-15)
