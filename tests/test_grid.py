"""Spectral grid utilities: differentiation, interpolation, monotone lifts."""
import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coneflow.ch
import coneflow.grid

from coneflow import (ConeParams, ConePoint, ConeTangent, PeriodicGrid,
                      bump_density, ch_rhs, ch_solve, circle_distance,
                      cone_geodesic, horizontal_flow, wrap)
from coneflow.grid import fourier_multipliers, rk4_step, step_count
from dense_oracle import dense_diff_matrix
from rk4_oracle import tuple_rk4_step
from spectral_oracle import count_transforms


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
    assert grid.integrate(3.0 * np.ones(32)) / (2 * np.pi) == pytest.approx(
        3.0, abs=1e-14)


def test_solve_helmholtz_manufactured():
    grid = PeriodicGrid(64)
    x = grid.x
    a, b = 1.3, 0.7
    u = np.cos(2 * x) - 0.2 * np.sin(5 * x)
    rhs = a ** 2 * u - b ** 2 * grid.deriv(u, 2)
    sol = grid.solve_helmholtz(rhs, a, b)
    assert np.max(np.abs(sol - u)) < 1e-12


def uncached_wavenumbers(n):
    return np.arange(n // 2 + 1, dtype=float)


def uncached_deriv(n, values, order):
    vh = np.fft.rfft(values, axis=-1) * (1j * uncached_wavenumbers(n)) ** order
    if order % 2 == 1:
        vh[..., -1] = 0.0
    return np.fft.irfft(vh, n=n, axis=-1)


def uncached_helmholtz(n, rhs, a, b):
    k = uncached_wavenumbers(n)
    return np.fft.irfft(np.fft.rfft(rhs, axis=-1) / (a * a + b * b * k * k),
                        n=n, axis=-1)


def uncached_trig_eval(n, values, points, order):
    c = np.fft.rfft(values)
    if order > 0:
        c = c * (1j * uncached_wavenumbers(n)) ** order
        c[..., -1] = 0.0
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    return coneflow.grid._evaluate(
        coneflow.grid._giant_rows(weights * c / n), points)


def test_cached_multipliers_change_no_bit():
    # every operator against its formula with the multipliers rebuilt per
    # call; full-band data make the Nyquist mode count, and the grids
    # alternate so a multiplier cached under the wrong n would show
    rng = np.random.default_rng(41)
    for n in (8, 1024, 48, 16, 64, 8, 64, 1024, 16, 48):
        grid = PeriodicGrid(n)
        for values in (rng.normal(size=n), rng.normal(size=(3, n))):
            for order in range(4):
                assert np.array_equal(grid.deriv(values, order),
                                      uncached_deriv(n, values, order))
            assert np.array_equal(grid.solve_helmholtz(values, 1.3, 0.4),
                                  uncached_helmholtz(n, values, 1.3, 0.4))
            points = rng.uniform(-4.0, 10.0, size=values.shape[:-1] + (9,))
            for order in range(4):
                assert np.array_equal(
                    grid.trig_eval(values, points, order),
                    uncached_trig_eval(n, values, points, order))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def test_transform_helpers_match_np_fft_bit_for_bit_at_every_size():
    # both parities pick their own rfft kernel; irfft scales by 1/n
    rng = np.random.default_rng(43)
    for n in range(7, 4097):
        values = rng.normal(size=n)
        coeff = np.fft.rfft(values)
        assert same_bits(coeff, coneflow.grid._rfft(values))
        assert same_bits(np.fft.irfft(coeff, n),
                         coneflow.grid._irfft(coeff, n))


def test_transform_helpers_match_np_fft_on_stacks_and_views():
    rng = np.random.default_rng(44)
    rfft, irfft = coneflow.grid._rfft, coneflow.grid._irfft
    for shape in ((5, 64), (3, 33), (4, 7), (4, 3, 32), (6, 3, 17)):
        values = rng.normal(size=shape)
        coeff = np.fft.rfft(values)
        assert same_bits(rfft(values), coeff)
        assert same_bits(irfft(coeff, shape[-1]),
                         np.fft.irfft(coeff, shape[-1]))
    # a stacked trajectory's layout: slices of a (3, T, n) array, read from
    # and written to as a (T, 3, n) view
    fields = rng.normal(size=(3, 6, 32))
    states = rfft(fields[:, 0])
    assert same_bits(states, np.fft.rfft(fields[:, 0]))
    stack = np.fft.rfft(rng.normal(size=(5, 3, 32)))
    view = fields[:, 1:].swapaxes(0, 1)
    assert irfft(stack, 32, out=view) is view
    assert same_bits(fields[:, 1:].swapaxes(0, 1), np.fft.irfft(stack, 32))
    assert same_bits(rfft(view), np.fft.rfft(view))
    # ints are transformed as floats, as np.fft casts them
    ints = np.arange(-5, 20)
    assert same_bits(rfft(ints), np.fft.rfft(ints))
    assert same_bits(irfft(ints, 48), np.fft.irfft(ints, 48))
    # float32 is transformed in float64, where np.fft keeps float32
    single = rng.normal(size=64).astype(np.float32)
    assert same_bits(rfft(single), np.fft.rfft(single.astype(float)))
    assert not np.array_equal(rfft(single), np.fft.rfft(single))


def test_every_transform_goes_through_the_grid_helpers():
    # no src/coneflow module calls np.fft, and grid.py alone imports
    # numpy.fft, for its pocketfft gufuncs: one transform path
    package = Path(coneflow.grid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "fft" \
                    and getattr(node.value, "id", None) in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno} np.fft")
            elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and path.name != "grid.py":
                prefix = f"{node.module}." \
                    if isinstance(node, ast.ImportFrom) else ""
                if any((prefix + a.name).startswith("numpy.fft")
                       for a in node.names):
                    found.append(f"{path.name}:{node.lineno} import")
    assert found == []


def test_fourier_multipliers_are_read_only():
    k, ik, keep = coneflow.grid.fourier_multipliers(12)
    assert np.array_equal(k, np.arange(7.0))
    assert np.array_equal(ik, 1j * np.array([0, 1, 2, 3, 4, 5, 0.0]))
    assert np.array_equal(keep, [1, 1, 1, 1, 1, 0, 0.0])
    for a in (k, ik, keep):
        with pytest.raises(ValueError):
            a[0] = 1.0


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
    """Reference evaluator: the sum over an explicit P x (n/2 + 1) phase
    matrix, built 256 points at a time to keep its memory small."""
    points = np.asarray(points, dtype=float)
    c = np.fft.rfft(values)
    k = np.arange(grid.n // 2 + 1, dtype=float)
    if order > 0:
        c = c * (1j * k) ** order
        c[-1] = 0.0
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    x = points.ravel()
    sums = [np.exp(1j * np.outer(x[i:i + 256], k)) @ (w * c / grid.n)
            for i in range(0, x.size, 256)]
    return np.concatenate(sums).real.reshape(points.shape)


@pytest.mark.parametrize("n", [8, 64, 256, 1024, 4096])
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
    # 5,000 points on one row span several of the kernel's point blocks
    for pts in (inside, far, rng.uniform(0.0, 2 * np.pi, 5000)):
        fast = grid.trig_eval(values, pts, order)
        dense = dense_trig_eval(grid, values, pts, order)
        assert fast.shape == pts.shape
        assert np.max(np.abs(fast - dense)) <= bound
    # (S, n) values at (S, P) or (S, P1, P2) points: row i of the values at
    # row i of the points, bit for bit the 1-D call on that row; the last
    # two batches split each row across point blocks
    rows = np.vstack([values, rng.normal(size=(2, n))])
    for pts in (rng.uniform(-7.0, 13.0, (3, 40)),
                rng.uniform(-7.0, 13.0, (3, 6, 5)),
                rng.uniform(-7.0, 13.0, (3, 5000)),
                rng.uniform(-7.0, 13.0, (3, 700, 7))):
        batched = grid.trig_eval(rows, pts, order)
        assert batched.shape == pts.shape
        for row, x, out in zip(rows, pts, batched):
            assert np.array_equal(out, grid.trig_eval(row, x, order))


@pytest.mark.parametrize("n", [8, 256, 1024])
def test_trig_eval_broadcast_points_equal_copied_points(n):
    # points broadcast along the batch axes (zero strides) take the
    # kernel's shared-powers path; the bits are those of the same points
    # copied, and of one call per row.  700 and 5,000 points split each
    # row across point blocks, and a batch broadcast along one of its two
    # axes only is no shared batch
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n + 3)
    for batch in ((2,), (2, 3)):
        values = rng.normal(size=batch + (n,))
        for shape in ((40,), (700,), (5000,), (70, 10)):
            x = rng.uniform(-7.0, 13.0, shape)
            shared = np.broadcast_to(x, batch + shape)
            assert not any(shared.strides[:len(batch)])
            rows = rng.uniform(-7.0, 13.0, batch[-1:] + shape)
            partial = np.broadcast_to(rows, batch + shape)
            for order in (0, 1):
                out = grid.trig_eval(values, shared, order)
                assert out.shape == shared.shape
                assert np.array_equal(
                    out, grid.trig_eval(values, shared.copy(), order))
                for i in np.ndindex(batch):
                    assert np.array_equal(out[i],
                                          grid.trig_eval(values[i], x, order))
                assert np.array_equal(
                    grid.trig_eval(values, partial, order),
                    grid.trig_eval(values, partial.copy(), order))


@pytest.mark.parametrize("rows", [2, 8])
def test_trig_eval_broadcast_rows_hold_one_set_of_powers(rows):
    # with fewer than a block of points per row, copied points put several
    # rows in one block, each with its own L x P powers of exp(ix); rows of
    # broadcast points share one set, so their peak is lower by the others
    n = 1024
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, n))
    points = np.broadcast_to(rng.uniform(0.0, 2 * np.pi, 512 // rows),
                             (rows, 512 // rows))
    peaks = []
    for pts in (points, points.copy()):
        grid.trig_eval(values, pts)
        tracemalloc.start()
        try:
            grid.trig_eval(values, pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    powers = (math.isqrt(n // 2) + 1) * points.shape[1] * 16
    assert peaks[1] - peaks[0] >= 0.9 * (rows - 1) * powers


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


def test_trig_eval_memory_of_a_trajectory_batch():
    # the (slices, n) batch of the Euler diagnostics: the kernel's powers
    # of exp(ix) are held for one block of points, not for the whole batch
    grid = PeriodicGrid(256)
    rng = np.random.default_rng(6)
    values = rng.normal(size=(249, 256))
    pts = rng.uniform(0.0, 2 * np.pi, (249, 256))
    grid.trig_eval(values, pts)
    tracemalloc.start()
    try:
        grid.trig_eval(values, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rfft coefficients and the output alone take about 1.5 MB
    assert peak < 4_000_000


def test_trig_eval_rejects_bad_samples_and_order():
    grid = PeriodicGrid(8)
    pts = np.linspace(0.0, 1.0, 5)
    for bad in (np.ones(9), np.ones(7), np.ones((2, 8)), np.float64(1.0)):
        with pytest.raises(ValueError, match="8 nodal samples"):
            grid.trig_eval(bad, pts)
    # a batch of 3 rows of samples cannot be evaluated at 2 rows of points
    with pytest.raises(ValueError, match="8 nodal samples"):
        grid.trig_eval(np.ones((3, 8)), np.ones((2, 5)))
    for order in (-1, 0.5, 1.0, None, True):
        with pytest.raises(ValueError, match="order"):
            grid.trig_eval(np.ones(8), pts, order)


def eval_lift(grid, phi, points):
    # the lift read through the trigonometric interpolant of phi - id
    return points + grid.trig_eval(phi - grid.x, points)


def inversion_gap(grid, phi):
    # |phi(y_i) - x_i| for the computed preimages y_i of the nodes
    return np.max(np.abs(eval_lift(grid, phi, grid.invert_lift(phi)) - grid.x))


def test_invert_lift_random_monotone_maps():
    grid = PeriodicGrid(128)
    rng = np.random.default_rng(2)
    for _ in range(10):
        disp = random_trig(grid, rng, n_modes=3, scale=0.2)
        disp = disp - np.mean(disp)
        assert inversion_gap(grid, grid.x + disp) <= 1e-13


def test_invert_lift_identity_and_near_identity():
    grid = PeriodicGrid(32)
    inv = grid.invert_lift(grid.x.copy())
    assert np.max(np.abs(inv - grid.x)) < 1e-12
    phi = grid.x + 1e-9 * np.sin(grid.x)
    inv = grid.invert_lift(phi)
    assert np.max(np.abs(eval_lift(grid, phi, inv) - grid.x)) < 1e-12


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
    disp = bump - np.mean(bump)
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
    evaluate = coneflow.grid._evaluate

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(coneflow.grid, "_evaluate", counted)
    grid.invert_lift(grid.x + disp)
    assert 3 <= len(calls) <= 2 * 8 + 1


def test_invert_lift_transforms_the_displacement_once(monkeypatch):
    # the value and slope coefficients are computed before the Newton loop
    grid = PeriodicGrid(128)
    disp = random_trig(grid, np.random.default_rng(5), n_modes=3, scale=0.2)
    calls = count_transforms(monkeypatch)
    assert inversion_gap(grid, grid.x + disp) <= 1e-13
    # value and slope, then inversion_gap's check
    assert [name for name, _ in calls].count("rfft") == 3


def test_invert_lift_builds_its_coefficient_block_once(monkeypatch):
    # the block of d and d' is laid out before the Newton loop, and each
    # round evaluates it at the new points
    grid = PeriodicGrid(128)
    disp = random_trig(grid, np.random.default_rng(5), n_modes=3, scale=0.2)
    built = []
    giant_rows = coneflow.grid._giant_rows

    def counted(coeff):
        built.append(coeff.shape)
        return giant_rows(coeff)

    monkeypatch.setattr(coneflow.grid, "_giant_rows", counted)
    grid.invert_lift(grid.x + disp)
    assert built == [(2, 65)]


def test_invert_lift_raises_when_it_cannot_converge():
    grid = PeriodicGrid(16)
    phi = grid.x.copy()
    phi[3] = np.nan
    with pytest.raises(RuntimeError, match="failed to converge"):
        grid.invert_lift(phi)


def test_diff_matrix_agrees_with_deriv():
    # the closed-form test oracle against the spectral derivative
    grid = PeriodicGrid(24)
    d = dense_diff_matrix(24)
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


@pytest.mark.parametrize("center, width, mass, message", [
    (np.nan, 0.4, 1.0, "center must be finite"),
    (np.inf, 0.4, 1.0, "center must be finite"),
    (0.0, np.nan, 1.0, "width must be positive"),
    (0.0, np.inf, 1.0, "width must be positive"),
    (0.0, 0.4, np.nan, "mass must be nonnegative"),
    (0.0, 0.4, np.inf, "mass must be nonnegative"),
], ids=["nan-center", "inf-center", "nan-width", "inf-width", "nan-mass",
        "inf-mass"])
def test_bump_density_rejects_non_finite_parameters(center, width, mass,
                                                    message):
    # each used to return an all-NaN, infinite or uniform density, or warn
    with pytest.raises(ValueError, match=f"bump {message}"):
        bump_density(PeriodicGrid(16), center, width, mass)


@pytest.mark.parametrize("values", [
    np.zeros(15), np.zeros((2, 16)), 0.0, np.full(16, np.nan),
    np.full(16, np.inf), np.full(16, -np.inf)],
    ids=["short", "stacked", "scalar", "nan", "inf", "-inf"])
def test_field_names_a_bad_nodal_array(values):
    with pytest.raises(ValueError, match=r"^rho must be a finite nodal array "
                                         r"of shape \(16,\)$"):
        PeriodicGrid(16).field("rho", values)


def test_field_returns_a_float_array():
    values = PeriodicGrid(8).field("u", [0, 1, 2, 3, 4, 5, 6, 7])
    assert values.dtype == float
    assert np.array_equal(values, np.arange(8.0))


def test_periodic_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(0)
    with pytest.raises(ValueError):
        PeriodicGrid(7)  # odd sizes are rejected, rfft layout assumes even n


def test_periodic_grid_size_must_be_an_integer():
    for n in (16.0, 16.5, True, "16", None, np.float64(16)):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            PeriodicGrid(n)
    for n in (np.int64(16), np.int32(16)):
        grid = PeriodicGrid(n)
        assert grid.x.shape == (16,) and grid == PeriodicGrid(16)


def test_rk4_step_is_fourth_order_on_a_rotation():
    # y' = (-y2, y1) from (1, 0) is (cos t, sin t); the state is one array
    def rotation(_, y):
        return np.array((-y[1], y[0]))

    def error(n_steps):
        dt = 1.0 / n_steps
        y = np.array([1.0, 0.0])
        for _ in range(n_steps):
            y = rk4_step(rotation, y, dt)
        return max(abs(y[0] - np.cos(1.0)), abs(y[1] - np.sin(1.0)))

    errors = [error(n) for n in (10, 20, 40)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.1)


def test_rk4_step_stage_fractions():
    seen = []

    def clock(c, y):
        seen.append(c)
        return np.ones(1)

    y = rk4_step(clock, np.zeros(1), 0.25)
    assert seen == [0.0, 0.5, 0.5, 1.0]
    assert y[0] == 0.25


def test_step_count_requires_a_whole_number_of_steps():
    assert step_count(1.0, 1e-3) == 1000
    assert step_count(0.25, 1e-3) == 250
    for t_final, dt in ((0.25, 0.1), (1.0, 0.3), (0.04, 0.1)):
        with pytest.raises(ValueError, match="whole number of steps"):
            step_count(t_final, dt)
    for t_final, dt in ((1.0, 0.0), (0.0, 0.1), (-0.5, -0.1), (1.0, -0.1),
                        (np.inf, 1e-3), (1.0, np.inf), (np.nan, 1e-3),
                        (1.0, np.nan), (np.inf, np.inf), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="must be positive"):
            step_count(t_final, dt)


@pytest.mark.parametrize("integrate", [
    lambda: ch_solve(PeriodicGrid(32), 0.2 * np.sin(PeriodicGrid(32).x), 3e-3,
                     1e-3, ConeParams(1.5, 0.3)),
], ids=["ch_rhs"])
def test_spectral_rhs_makes_one_transform_each_way(monkeypatch, integrate):
    # the state is rfft coefficients: one batched irfft for the fields and
    # derivatives and one rfft of the products inside every RK4 stage, so a
    # whole step makes 8 transforms, and one batched irfft stores the slices
    # of a block of steps; counted at grid's pocketfft gufuncs, steps from
    # one rk4_step call to the next
    calls = count_transforms(monkeypatch)
    per_stage = []
    step_starts = []

    def counting_step(f, y, dt):
        def counted_f(c, y):
            before = len(calls)
            out = f(c, y)
            per_stage.append(sorted(name for name, _ in calls[before:]))
            return out
        step_starts.append(len(calls))
        return rk4_step(counted_f, y, dt)

    monkeypatch.setattr(coneflow.ch, "rk4_step", counting_step)
    integrate()
    assert per_stage == [["irfft", "rfft"]] * 12
    assert np.diff(step_starts).tolist() == [8, 8]
    # the 3 steps fit in one block: its 3 states go through one irfft
    name, shape = calls[step_starts[-1] + 8]
    assert name == "irfft" and shape[0] == 3 and shape[-1] == 17


def per_step_ch_solve(grid, u0, n_steps, dt, params=ConeParams()):
    """ch_solve's RK4 loop one step at a time: a step of the rfft state,
    then an irfft to its stored slice.  The right-hand side is written out
    with its own multipliers and temporaries."""
    k, ik, keep = fourier_multipliers(grid.n)
    symbol = params.a ** 2 + params.b ** 2 * k * k
    lift = np.array((np.ones_like(ik), 2.0 * ik, symbol, ik * symbol))
    filt = -keep / symbol

    def rhs(_, y):
        u, ux2, m, mx = np.fft.irfft(lift * y[0], n=grid.n)
        return (filt * np.fft.rfft(u * mx + ux2 * m),)

    out = np.empty((n_steps + 1, grid.n))
    out[0] = u0
    uh = np.fft.rfft(u0)
    for i in range(n_steps):
        uh, = tuple_rk4_step(rhs, (uh,), dt)
        out[i + 1] = np.fft.irfft(uh, n=grid.n)
    return out


def per_step_horizontal_flow(grid, rho0, phi0, n_steps, dt):
    """The Eulerian (v, alpha, rho) system of horizontal_flow by dealiased
    RK4, one step at a time; returns the stored (v, alpha, rho) slices."""
    _, ik, keep = fourier_multipliers(grid.n)

    def rhs(_, y):
        v, alpha, rho, vx, ax = np.fft.irfft(
            np.concatenate((y[0], ik * y[0][:2])), n=grid.n)
        fv, fa, fr, fvr = np.fft.rfft(np.array((
            v * vx + 2.0 * alpha * v, v * v - ax * v - alpha * alpha,
            2.0 * alpha * rho, v * rho)))
        return (keep * np.array((-fv, fa, fr - ik * fvr)),)

    out = np.empty((3, n_steps + 1, grid.n))
    out[:, 0] = 0.5 * grid.deriv(phi0), phi0, rho0
    state = np.fft.rfft(out[:, 0])
    for i in range(n_steps):
        state, = tuple_rk4_step(rhs, (state,), dt)
        out[:, i + 1] = np.fft.irfft(state, n=grid.n)
    return out


BLOCK = coneflow.ch._BLOCK_STEPS


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK + 5])
def test_block_stepping_matches_the_per_step_loop(n_steps):
    # a block's batched irfft stores the same bits as one irfft per step
    grid = PeriodicGrid(64)
    u0 = 0.2 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x)
    traj = ch_solve(grid, u0, n_steps * 1e-3, 1e-3)
    assert np.array_equal(traj.u, per_step_ch_solve(grid, u0, n_steps, 1e-3))


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     2 * BLOCK + 5])
@pytest.mark.parametrize("n", [32, 64])
def test_horizontal_flow_solves_the_eulerian_system(n, n_steps):
    # the closed form against the PDE it solves, stepped by RK4: the step
    # error is far below the tolerance at dt = 1e-3.  At n = 16 the 2/3 rule
    # keeps only |k| <= 5, and the stepped fields are 1e-10 off their own
    # n = 64 run by 133 steps; the closed form is not (next test)
    grid = PeriodicGrid(n)
    rho0 = 1.0 + 0.3 * np.sin(grid.x)
    phi0 = 0.3 * np.cos(grid.x) + 0.2
    res = horizontal_flow(grid, rho0, phi0, n_steps * 1e-3, 1e-3)
    v, alpha, rho = per_step_horizontal_flow(grid, rho0, phi0, n_steps, 1e-3)
    for new, ref in ((res.v, v), (res.alpha, alpha), (res.rho, rho)):
        assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_horizontal_flow_is_exact_on_a_coarse_grid():
    # data that n = 16 resolves: its nodes take the n = 64 values
    fields = []
    for n in (16, 64):
        grid = PeriodicGrid(n)
        res = horizontal_flow(grid, 1.0 + 0.3 * np.sin(grid.x),
                              0.3 * np.cos(grid.x) + 0.2, 0.133, 1e-3)
        fields.append(np.array((res.v, res.alpha, res.rho)))
    coarse, fine = fields
    assert np.max(np.abs(coarse - fine[..., ::4])) < 1e-14 * np.max(fine)


def test_block_stepping_matches_the_per_step_loop_on_the_readme_run():
    grid = PeriodicGrid(256)
    u0 = 0.2 * np.sin(grid.x)
    traj = ch_solve(grid, u0, 0.25, 1e-3)
    assert np.array_equal(traj.u, per_step_ch_solve(grid, u0, 250, 1e-3))


def test_block_stepping_matches_the_per_step_loop_at_other_coefficients():
    grid = PeriodicGrid(32)
    u0 = 0.2 * np.sin(grid.x)
    params = ConeParams(1.5, 0.3)
    traj = ch_solve(grid, u0, 0.07, 1e-3, params)
    assert np.array_equal(traj.u, per_step_ch_solve(grid, u0, 70, 1e-3,
                                                    params))


def test_ch_solve_builds_its_right_hand_side_once(monkeypatch):
    # the multipliers are read once per solve, not once per stage, and
    # ch_rhs, the one-shot form, reads them once per call
    lookups = []
    real = coneflow.ch.fourier_multipliers

    def counted(*key):
        lookups.append(key)
        return real(*key)

    monkeypatch.setattr(coneflow.ch, "fourier_multipliers", counted)
    grid = PeriodicGrid(32)
    ch_solve(grid, 0.2 * np.sin(grid.x), 3e-3, 1e-3, ConeParams(1.5, 0.3))
    assert lookups == [(32,)]
    ch_rhs(grid, np.fft.rfft(np.sin(grid.x)))
    assert lookups == [(32,), (32,)]


@pytest.mark.parametrize("integrate", [
    lambda t, dt: ch_solve(PeriodicGrid(16), 0.2 * np.sin(PeriodicGrid(16).x),
                           t, dt),
    lambda t, dt: cone_geodesic(ConePoint(0.0, 1.0), ConeTangent(0.3, -0.1),
                                t, dt),
    lambda t, dt: horizontal_flow(PeriodicGrid(16), np.ones(16),
                                  0.1 * np.cos(PeriodicGrid(16).x), t, dt),
], ids=["ch_solve", "cone_geodesic", "horizontal_flow"])
def test_integrators_reject_a_partial_last_step(integrate):
    # round(t/dt)*dt would end at 0.2 and at 0.0; only whole steps are taken
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(0.25, 0.1)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(0.04, 0.1)
    assert integrate(0.3, 0.1).times[-1] == pytest.approx(0.3, abs=1e-15)
