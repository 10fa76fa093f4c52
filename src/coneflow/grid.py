"""Uniform periodic grids on [0, 2*pi) and the calculus used everywhere else.

All fields are sampled on n equispaced nodes.  Derivatives are Fourier
collocation derivatives, integrals are uniform Riemann sums (exact for
trigonometric polynomials below the Nyquist band), and off-grid evaluation
sums the trigonometric interpolant as a polynomial in z = exp(ix) by
baby-step giant-step: O(P*n) flops in about 2 sqrt(n/2) numpy rounds, with
temporaries bounded by a fixed block of points.  A stack of fields of
shape (..., n) is laid out once as one coefficient block and evaluated in
the same pass, each row at its own row of points.
Circle maps are handled through their monotone lifts, evaluated through
the same interpolant and inverted by safeguarded Newton.  Fixed-step
integrators use rk4_step; ch_solve, the only block stepper, rk4_blocks.
Spectral operators read the rfft multipliers of fourier_multipliers,
built once per n, so each costs one rfft and one irfft.
Every transform of the package goes through _rfft and _irfft, which call
numpy's pocketfft gufuncs directly, as np.fft.rfft and np.fft.irfft do
inside their Python wrappers: the same kernels and factors, so the same
bits, but without the wrapper, which on the small grids of ch_solve
costs more than the transform itself.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # numpy >= 2.0

TWO_PI = 2.0 * np.pi
_BLOCK = 512  # points per block in _horner, which bounds its temporaries
_BLOCK_STEPS = 64  # RK4 steps per block in rk4_blocks


def wrap(x):
    """Reduce angles to [0, 2*pi)."""
    return np.mod(x, TWO_PI)


def circle_distance(x1, x2):
    """Geodesic distance on the unit circle: min(|dx|, 2*pi - |dx|)."""
    d = np.abs(wrap(x1) - wrap(x2))
    return np.minimum(d, TWO_PI - d)


def require_integer(name: str, value) -> None:
    """ValueError unless value is an integer; numpy integers pass, bool not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PeriodicGrid:
    """n equispaced nodes x_i = 2*pi*i/n.  n must be even and >= 8."""

    n: int

    def __post_init__(self):
        require_integer("grid size", self.n)
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def field(self, name: str, values) -> np.ndarray:
        """values as a float array; ValueError unless finite of shape (n,)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n,) or not np.isfinite(values).all():
            raise ValueError(f"{name} must be a finite nodal array of shape "
                             f"({self.n},)")
        return values

    # -- spectral calculus -------------------------------------------------

    def deriv(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Fourier collocation derivative along the last axis."""
        k, ik, _ = fourier_multipliers(self.n)
        # the Nyquist mode has no well-defined odd derivative on the grid;
        # even orders keep it, as (ik)^order with k = n/2 does
        symbol = ik ** order if order % 2 else (-k * k) ** (order // 2)
        return _irfft(_rfft(values) * symbol, self.n)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Uniform Riemann sum; spectrally accurate for smooth periodic data."""
        return self.h * np.sum(values, axis=-1)

    def solve_helmholtz(self, rhs: np.ndarray, a: float, b: float) -> np.ndarray:
        """Invert (a^2 - b^2 d_xx) with the Fourier symbol a^2 + b^2 k^2."""
        k = fourier_multipliers(self.n)[0]
        return _irfft(_rfft(rhs) / (a * a + b * b * k * k), self.n)

    # -- off-grid evaluation ----------------------------------------------

    def trig_eval(self, values: np.ndarray, points: np.ndarray,
                  order: int = 0) -> np.ndarray:
        """Evaluate the trigonometric interpolant (or its derivative) off-grid.

        ``values`` holds the n nodal samples along its last axis, and
        ``order`` is an integer >= 0; anything else raises ValueError.  The
        result has the shape of ``points``, a real array.  Leading (batch)
        axes of ``values`` must also lead ``points``: row i of the values
        is evaluated at row i of the points.  The Nyquist mode is
        interpreted as cos(n/2 x), the standard real interpolation
        convention, and contributes nothing to derivatives.

        The sum over the n/2 + 1 modes is a polynomial in z = exp(ix),
        evaluated by baby-step giant-step (_horner): O(P*n) flops for P
        points in about 2 sqrt(n/2) numpy rounds per block of 512 points,
        with O(sqrt(n)) complex temporaries per point of one block.  Rows
        of points broadcast with np.broadcast_to share those powers.
        """
        points = np.asarray(points, dtype=float)
        batch = np.shape(values)[:-1]
        if np.shape(values)[-1:] != (self.n,) \
                or points.shape[:len(batch)] != batch:
            raise ValueError(f"trig_eval needs the {self.n} nodal samples on "
                             f"the last axis and the other axes leading "
                             f"points, got shapes {np.shape(values)} and "
                             f"{points.shape}")
        require_integer("derivative order", order)
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order!r}")
        return _horner(self._trig_coeffs(values, order), points)

    def _trig_coeffs(self, values: np.ndarray, order: int) -> np.ndarray:
        """Coefficients of z^0 .. z^(n/2) of the real interpolant's order-th
        derivative, (..., n/2 + 1), for _horner."""
        c = _rfft(values)
        if order > 0:
            c = c * fourier_multipliers(self.n)[1] ** order
        weights = np.full(self.n // 2 + 1, 2.0)  # 1, 2, ..., 2, 1
        weights[0] = weights[-1] = 1.0
        return weights * c / self.n

    def _trig_block(self, values: np.ndarray) -> np.ndarray:
        """The _giant_rows block of values' interpolant, for _evaluate."""
        return _giant_rows(self._trig_coeffs(values, 0))

    # -- monotone circle-map lifts ------------------------------------------

    def lift_slope(self, phi: np.ndarray) -> np.ndarray:
        """d_x phi of lifts stored along the last axis, as 1 + (phi - id)'."""
        return 1.0 + self.deriv(phi - self.x)

    def invert_lift(self, phi: np.ndarray) -> np.ndarray:
        """Solve phi(y) = x_i at every grid node x_i.

        phi is read through the trigonometric interpolant of its
        displacement d = phi - id, so phi(x + 2pi) = phi(x) + 2pi; the
        coefficients of d and d' are computed once, and each Newton round
        sums both at once.
        |d| is bounded by the 1-norm S of its Fourier coefficients, so each
        root lies in [x_i - S, x_i + S]; Newton steps that leave the
        shrinking bracket are replaced by bisection.  It stops once
        |phi(y) - x_i| is within 1e-14 (2pi + S), the roundoff scale of y,
        and raises RuntimeError if it stalls.
        """
        disp = phi - self.x
        coeff = np.array([self._trig_coeffs(disp, k) for k in (0, 1)])
        bound = float(np.sum(np.abs(coeff[0])))
        lo = self.x - bound
        hi = self.x + bound
        y = self.x - disp
        tol = 1e-14 * (TWO_PI + bound)
        for _ in range(100):
            d, d_x = _horner(coeff, np.broadcast_to(y, (2, self.n)))
            f = y + d - self.x
            if np.max(np.abs(f)) <= tol:
                return y
            lo = np.where(f <= 0, y, lo)
            hi = np.where(f > 0, y, hi)
            y_new = y - f / (1.0 + d_x)
            # non-strict: a converged point sits on its bracket end
            outside = (y_new < lo) | (y_new > hi)
            y = np.where(outside, 0.5 * (lo + hi), y_new)
        raise RuntimeError("lift inversion failed to converge")


def _rfft(values) -> np.ndarray:
    """np.fft.rfft of values along the last axis, bit for bit: pocketfft's
    rfft gufunc for the parity of n, with factor 1, into a new complex128
    array.  Real input of any dtype is transformed in float64: ints as
    np.fft casts them, float32 unlike np.fft, which keeps float32."""
    values = np.asarray(values)
    n = values.shape[-1]
    out = np.empty(values.shape[:-1] + (n // 2 + 1,), complex)
    rfft = _pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even
    return rfft(values, 1, out=out)


def _irfft(coeff, n: int, out=None) -> np.ndarray:
    """np.fft.irfft(coeff, n) along the last axis, bit for bit: pocketfft's
    irfft gufunc with factor 1/n, into out (..., n) of float64, which may
    be a strided view; the length of its last axis is the output length."""
    if out is None:
        out = np.empty(np.shape(coeff)[:-1] + (n,))
    return _pocketfft.irfft(coeff, 1 / n, out=out)


@lru_cache(maxsize=16)
def fourier_multipliers(n: int) -> tuple:
    """Read-only rfft multipliers on n nodes, shared by every caller: the
    wavenumbers k = 0 .. n/2, ik with its Nyquist entry zeroed, and the
    2/3-rule mask, 1.0 where k <= n/3 and 0.0 above."""
    k = np.arange(n // 2 + 1, dtype=float)
    ik = 1j * k
    ik[-1] = 0.0
    keep = (k <= n / 3.0).astype(float)
    for a in (k, ik, keep):
        a.setflags(write=False)
    return k, ik, keep


def _horner(coeff: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Real part of sum_j coeff[..., j] exp(i j x) at x = points, batch rows
    at rows of points, by baby-step giant-step: _evaluate of _giant_rows."""
    return _evaluate(_giant_rows(coeff), points)


def _giant_rows(coeff: np.ndarray) -> np.ndarray:
    """coeff (..., m) zero-padded to G*L, L = ceil(sqrt(m)), as the block
    (G, ..., L) whose [g, ..., l] is the coefficient of z^(g*L + l)."""
    m = coeff.shape[-1]
    size = math.isqrt(m - 1) + 1
    c = np.zeros((coeff[..., 0].size, -(-m // size), size), complex)
    c.reshape(len(c), -1)[:, :m] = coeff.reshape(len(c), m)
    return np.ascontiguousarray(c.swapaxes(0, 1)).reshape(
        c.shape[1:2] + coeff.shape[:-1] + (size,))


def _evaluate(block: np.ndarray, points: np.ndarray) -> np.ndarray:
    """_horner of a _giant_rows block: per _BLOCK points, one matmul by the
    powers of z = exp(ix), then Horner in z^L on contiguous (rows, P) slices;
    shared (broadcast) points take one flat (G*rows, L) @ (L, P) matmul."""
    c = block.reshape(len(block), -1, block.shape[-1])
    (n_giant, n_rows, size), nb = c.shape, block.ndim - 2
    shared = points.size > 0 and not any(points.strides[:nb])
    x = (points[(0,) * nb] if shared else points).reshape(
        1 if shared else n_rows, math.prod(points.shape[nb:]))
    out = np.empty((n_rows, x.shape[1]))
    per = max(1, _BLOCK // max(x.shape[1], 1))
    for i in range(0, len(x), per):
        rows = slice(None) if shared else slice(i, i + per)
        for j in range(0, x.shape[1], _BLOCK):
            z = np.exp(1j * x[i:i + per, j:j + _BLOCK])
            powers = np.ones((len(z), size) + z.shape[1:], complex)
            for k in range(1, size):
                np.multiply(powers[:, k - 1], z, out=powers[:, k])
            if shared:
                giant = (c.reshape(-1, size) @ powers[0]).reshape(
                    n_giant, n_rows, -1)
            else:
                giant = np.empty((n_giant,) + z.shape, complex)
                np.matmul(c[:, rows].swapaxes(0, 1), powers,
                          out=giant.swapaxes(0, 1))
            acc = giant[-1]
            z *= powers[:, -1]  # z^L, at the accumulator's shape
            z = z.repeat(len(acc), axis=0) if shared else z
            for q in range(n_giant - 2, -1, -1):
                acc *= z
                acc += giant[q]
            out[rows, j:j + _BLOCK] = acc.real
    return out.reshape(points.shape)


def step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps of size dt that end exactly at t_final.

    Raises ValueError unless both and their ratio are positive and finite
    and t_final is a whole number of steps (to a relative 1e-9), so no
    integrator silently stops short of or past the requested horizon.
    """
    if not (0 < dt < np.inf and 0 < t_final / dt < np.inf):  # NaN fails
        raise ValueError("t_final, dt and t_final/dt must be positive and "
                         "finite")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * abs(t_final):
        raise ValueError(f"t_final={t_final!r} is not a whole number of "
                         f"steps dt={dt!r}")
    return n_steps


def rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of the state array y.

    ``f(c, y)`` returns the derivative array at the stage whose time is the
    fraction c in (0, 1/2, 1/2, 1) of the step, so time-dependent right-hand
    sides can locate the stage exactly.  Several fields of one shape step
    together as rows of one stacked state.
    """
    k1 = f(0.0, y)
    k2 = f(0.5, y + 0.5 * dt * k1)
    k3 = f(0.5, y + 0.5 * dt * k2)
    k4 = f(1.0, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_blocks(f, yh: np.ndarray, dt: float, nodal: np.ndarray):
    """RK4 steps of the rfft state yh (f as in rk4_step), _BLOCK_STEPS at a
    time; ch_solve is the only block stepper.  Row k of nodal (n_steps,
    ..., n) gets the irfft after step k + 1, one irfft per block; each block
    yields (its first k, states, rows)."""
    states = np.empty((_BLOCK_STEPS,) + yh.shape, dtype=complex)
    for i in range(0, len(nodal), _BLOCK_STEPS):
        rows = nodal[i:i + _BLOCK_STEPS]
        for j in range(len(rows)):
            yh = states[j] = rk4_step(f, yh, dt)
        _irfft(states[:len(rows)], nodal.shape[-1], out=rows)
        yield i, states[:len(rows)], rows


def bump_density(grid: PeriodicGrid, center: float, width: float,
                 mass: float) -> np.ndarray:
    """Smooth periodic bump of prescribed mass, concentration kappa = width^-2.

    exp(kappa(cos(x-c)-1)) is the von Mises shape; the discrete sum is
    renormalized so the Riemann-sum mass is exact on the given grid.
    """
    if not np.isfinite(center):
        raise ValueError("bump center must be finite")
    if not 0 < width < np.inf:  # NaN fails
        raise ValueError("bump width must be positive")
    if not 0 <= mass < np.inf:
        raise ValueError("bump mass must be nonnegative")
    kappa = 1.0 / (width * width)
    vals = np.exp(kappa * (np.cos(grid.x - center) - 1.0))
    total = grid.integrate(vals)
    return vals * (mass / total)
