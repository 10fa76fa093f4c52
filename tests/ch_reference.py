"""Exact traveling waves of the two-parameter Camassa-Holm family, as an
oracle for ch_solve that does not run its arithmetic.

A wave u(x, t) = U(x - c t) of m_t = -(u m_x + 2 u_x m), m = a^2 u - b^2 u_xx,
satisfies ((U - c)^2 m)' = 0, so (U - c)^2 (a^2 U - b^2 U'') = K.  While
c > max U the profile is analytic (periodic CH traveling waves: Lenells,
J. Nonlinear Sci. 2005), so its trigonometric interpolant is exact to
rounding on a modest grid.  The branch through mode 1 leaves the constant
state U = U0 at c = U0 (1 + 2 a^2 / (a^2 + b^2)).
"""
import numpy as np


def traveling_wave(n, amplitude, mean=1.0, a=1.0, b=0.5, tol=1e-13):
    """(U, c, K): the nodal profile on n equispaced nodes of [0, 2 pi), its
    speed and the constant K, on the mode-1 branch with mean U = mean, cos x
    coefficient amplitude and sin x coefficient 0.

    Gauss-Newton on the n collocation equations and the three constraints,
    in the n + 2 unknowns (U, c, K), with spectral second derivatives.
    Raises RuntimeError unless the residual falls below tol * K.
    """
    x = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(n // 2 + 1)
    d2 = np.fft.irfft(-(k * k)[:, None] * np.fft.rfft(np.eye(n), axis=0),
                      n=n, axis=0)  # U'' = d2 @ U
    helmholtz = a * a * np.eye(n) - b * b * d2
    constraints = np.array((np.ones(n) / n, 2.0 * np.cos(x) / n,
                            2.0 * np.sin(x) / n))
    targets = np.array((mean, amplitude, 0.0))

    c = mean * (1.0 + 2.0 * a * a / (a * a + b * b))
    U = mean + amplitude * np.cos(x)
    K = (mean - c) ** 2 * a * a * mean
    for _ in range(50):
        m = helmholtz @ U
        residual = np.concatenate(((U - c) ** 2 * m - K,
                                   constraints @ U - targets))
        if np.max(np.abs(residual)) < tol * abs(K):
            return U, c, K
        jac = np.zeros((n + 3, n + 2))
        jac[:n, :n] = (2.0 * (U - c) * m)[:, None] * np.eye(n) \
            + ((U - c) ** 2)[:, None] * helmholtz
        jac[:n, n] = -2.0 * (U - c) * m
        jac[:n, n + 1] = -1.0
        jac[n:, :n] = constraints
        step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        U = U + step[:n]
        c += step[n]
        K += step[n + 1]
    raise RuntimeError("traveling wave solve did not converge")


def shifted(U, distance):
    """U(x - distance), through the trigonometric interpolant of U."""
    n = len(U)
    k = np.arange(n // 2 + 1)
    return np.fft.irfft(np.fft.rfft(U) * np.exp(-1j * k * distance), n=n)
