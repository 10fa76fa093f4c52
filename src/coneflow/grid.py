"""Uniform periodic grids on [0, 2*pi) and the calculus used everywhere else.

All fields are sampled on n equispaced nodes.  Derivatives are Fourier
collocation derivatives, integrals are uniform Riemann sums (exact for
trigonometric polynomials below the Nyquist band), and off-grid evaluation
of smooth fields sums the trigonometric interpolant as a polynomial in
z = exp(ix) by Horner's rule: O(P*n) time and O(P) memory for P points.
Circle maps are handled through their monotone lifts, evaluated through
the same interpolant and inverted by safeguarded Newton.  All fixed-step
integrators use rk4_step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(x):
    """Reduce angles to [0, 2*pi)."""
    return np.mod(x, TWO_PI)


def circle_distance(x1, x2):
    """Geodesic distance on the unit circle: min(|dx|, 2*pi - |dx|)."""
    d = np.abs(wrap(x1) - wrap(x2))
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class PeriodicGrid:
    """n equispaced nodes x_i = 2*pi*i/n.  n must be even and >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    # -- spectral calculus -------------------------------------------------

    def _wavenumbers(self) -> np.ndarray:
        return np.arange(self.n // 2 + 1, dtype=float)

    def _mode_weights(self) -> np.ndarray:
        """Weight of each rfft mode in the real interpolant: 1, 2, ..., 2, 1."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w

    def deriv(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Fourier collocation derivative along the last axis."""
        vh = np.fft.rfft(values, axis=-1)
        k = self._wavenumbers()
        vh = vh * (1j * k) ** order
        if order % 2 == 1:
            # the Nyquist mode has no well-defined odd derivative on the grid
            vh[..., -1] = 0.0
        return np.fft.irfft(vh, n=self.n, axis=-1)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Uniform Riemann sum; spectrally accurate for smooth periodic data."""
        return self.h * np.sum(values, axis=-1)

    def mean(self, values: np.ndarray):
        return np.mean(values, axis=-1)

    def solve_helmholtz(self, rhs: np.ndarray, a: float, b: float) -> np.ndarray:
        """Invert (a^2 - b^2 d_xx) with the Fourier symbol a^2 + b^2 k^2."""
        vh = np.fft.rfft(rhs, axis=-1)
        k = self._wavenumbers()
        return np.fft.irfft(vh / (a * a + b * b * k * k), n=self.n, axis=-1)

    def dealias(self, values: np.ndarray) -> np.ndarray:
        """Zero all modes with |k| > n/3 (2/3 rule for quadratic products)."""
        vh = np.fft.rfft(values, axis=-1)
        k = self._wavenumbers()
        vh[..., k > self.n / 3.0] = 0.0
        return np.fft.irfft(vh, n=self.n, axis=-1)

    # -- off-grid evaluation ----------------------------------------------

    def trig_eval(self, values: np.ndarray, points: np.ndarray,
                  order: int = 0) -> np.ndarray:
        """Evaluate the trigonometric interpolant (or its derivative) off-grid.

        ``values`` must be the n nodal samples (a 1-D array of length n) and
        ``order`` an integer >= 0; anything else raises ValueError.  The
        result has the shape of ``points``, which may be any real array.
        The Nyquist mode is interpreted as cos(n/2 x), the standard real
        interpolation convention, and contributes nothing to derivatives.

        The sum over the n/2 + 1 modes is a polynomial in z = exp(ix),
        evaluated by Horner's rule: one complex exponential per point and
        n/2 multiply-adds, so O(P*n) time and O(P) memory for P points.
        """
        if np.shape(values) != (self.n,):
            raise ValueError(f"trig_eval needs the {self.n} nodal samples as "
                             f"a 1-D array, got shape {np.shape(values)}")
        if not isinstance(order, (int, np.integer)) or order < 0:
            raise ValueError(f"derivative order must be an integer >= 0, "
                             f"got {order!r}")
        points = np.asarray(points, dtype=float)
        c = np.fft.rfft(values)
        k = self._wavenumbers()
        if order > 0:
            c = c * (1j * k) ** order
            c[-1] = 0.0
        coeff = (self._mode_weights() * c / self.n).tolist()
        z = np.exp(1j * points.ravel())
        acc = np.full(z.shape, coeff[-1])
        for a in reversed(coeff[:-1]):
            acc *= z
            acc += a
        return acc.real.reshape(points.shape)

    # -- monotone circle-map lifts ------------------------------------------

    def eval_lift(self, phi: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the lift at arbitrary reals using phi(x+2pi)=phi(x)+2pi."""
        points = np.asarray(points, dtype=float)
        return points + self.trig_eval(phi - self.x, points)

    def invert_lift(self, phi: np.ndarray) -> np.ndarray:
        """Solve phi(y) = x_i at every grid node x_i.

        phi is read through the trigonometric interpolant of its
        displacement d = phi - id, as in eval_lift.  |d| is bounded by the
        1-norm S of its Fourier coefficients, so each root lies in
        [x_i - S, x_i + S]; Newton steps that leave the shrinking bracket
        are replaced by bisection.  It stops once |phi(y) - x_i| is within
        1e-14 (2pi + S), the roundoff scale of y, and raises RuntimeError
        if it stalls.
        """
        disp = phi - self.x
        bound = float(np.sum(self._mode_weights()
                             * np.abs(np.fft.rfft(disp)))) / self.n
        lo = self.x - bound
        hi = self.x + bound
        y = self.x - disp
        tol = 1e-14 * (TWO_PI + bound)
        for _ in range(100):
            f = y + self.trig_eval(disp, y) - self.x
            if np.max(np.abs(f)) <= tol:
                return y
            lo = np.where(f <= 0, y, lo)
            hi = np.where(f > 0, y, hi)
            y_new = y - f / (1.0 + self.trig_eval(disp, y, 1))
            # non-strict: a converged point sits on its bracket end
            outside = (y_new < lo) | (y_new > hi)
            y = np.where(outside, 0.5 * (lo + hi), y_new)
        raise RuntimeError("lift inversion failed to converge")


def step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps of size dt that end exactly at t_final.

    Raises ValueError unless both are positive and t_final is a whole
    number of steps (to a relative 1e-9), so no integrator silently stops
    short of or past the requested horizon.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("t_final and dt must be positive")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * abs(t_final):
        raise ValueError(f"t_final={t_final!r} is not a whole number of "
                         f"steps dt={dt!r}")
    return n_steps


def rk4_step(f, y: tuple, dt: float) -> tuple:
    """One classical Runge-Kutta step for a state given as a tuple of arrays.

    ``f(c, y)`` returns the derivative tuple at the stage whose time is the
    fraction c in (0, 1/2, 1/2, 1) of the step, so time-dependent right-hand
    sides can locate the stage exactly.
    """
    # list comprehensions: per-stage generators cost ~6 us more a step
    k1 = f(0.0, y)
    k2 = f(0.5, tuple([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)]))
    k3 = f(0.5, tuple([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)]))
    k4 = f(1.0, tuple([yi + dt * ki for yi, ki in zip(y, k3)]))
    return tuple([yi + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])


@lru_cache(maxsize=8)
def diff_matrix(n: int) -> np.ndarray:
    """Dense matrix of the Fourier collocation derivative on n nodes."""
    grid = PeriodicGrid(n)
    return grid.deriv(np.eye(n)).T


def bump_density(grid: PeriodicGrid, center: float, width: float,
                 mass: float) -> np.ndarray:
    """Smooth periodic bump of prescribed mass, concentration kappa = width^-2.

    exp(kappa(cos(x-c)-1)) is the von Mises shape; the discrete sum is
    renormalized so the Riemann-sum mass is exact on the given grid.
    """
    if width <= 0:
        raise ValueError("bump width must be positive")
    if mass < 0:
        raise ValueError("bump mass must be nonnegative")
    kappa = 1.0 / (width * width)
    vals = np.exp(kappa * (np.cos(grid.x - center) - 1.0))
    total = grid.integrate(vals)
    return vals * (mass / total)
