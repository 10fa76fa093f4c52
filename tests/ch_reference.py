"""Exact traveling waves of the two-parameter Camassa-Holm family, as an
oracle for ch_solve and flow_map that does not run their arithmetic.

A wave u(x, t) = U(x - c t) of m_t = -(u m_x + 2 u_x m), m = a^2 u - b^2 u_xx,
satisfies ((U - c)^2 m)' = 0, so (U - c)^2 (a^2 U - b^2 U'') = K.  While
c > max U the profile is analytic (periodic CH traveling waves: Lenells,
J. Nonlinear Sci. 2005), so its trigonometric interpolant is exact to
rounding on a modest grid.  The branch through mode 1 leaves the constant
state U = U0 at c = U0 (1 + 2 a^2 / (a^2 + b^2)).
"""
import numpy as np


def traveling_wave(n, amplitude, mean=1.0, a=1.0, b=0.5, tol=None):
    """(U, c, K): the nodal profile on n equispaced nodes of [0, 2 pi), its
    speed and the constant K, on the mode-1 branch with mean U = mean, cos x
    coefficient amplitude and sin x coefficient 0.

    Gauss-Newton on the n collocation equations and the three constraints,
    in the n + 2 unknowns (U, c, K), with spectral second derivatives.
    Raises RuntimeError unless the residual falls below tol * K.  tol
    defaults to eps n^2: the rounding of U'' = d2 @ U grows with the
    largest |k|^2 = n^2/4, and the residual's floor measured 1.1e-10 K at
    n = 1024 (4e-17 n^2 to 1e-16 n^2 for n = 64 to 1024), while the round
    before it was at 4e-10 K or above.
    """
    if tol is None:
        tol = np.finfo(float).eps * n * n
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


def _trig_sum(coeff, k, points):
    """Real part of sum_k coeff_k exp(i k x) at x = points, summed densely;
    coeff are np.fft.fft coefficients divided by their length.  A 2-d
    (times, n) points array is summed 8 times at a time, which bounds the
    exponentials held at once and keeps every sum's bits."""
    points = np.asarray(points)
    blocks = ([points] if points.ndim < 2 else
              [points[i:i + 8] for i in range(0, len(points), 8)])
    return np.concatenate([(np.exp(1j * np.multiply.outer(p, k)) @ coeff).real
                           for p in blocks])


def traveling_flow(U, c, times):
    """(phi, lam): the Lagrangian flow phi' = u(phi, t) of u = U(x - c t)
    from the identity and lam = sqrt(d_x phi), at the n nodes of the
    profile U and the given times, (len(times), n) each; c > max U.

    xi = phi - c t obeys xi' = U(xi) - c < 0, so F(xi) = int_0^xi ds/(c -
    U(s)) falls at unit rate: F(xi(t)) = F(x) - t, solved for xi by Newton.
    F is the mean of g = 1/(c - U) times xi plus the periodic antiderivative
    of the rest, from the fft of g sampled on 8n points, and d_x phi =
    d_x xi = g(x)/g(xi) = (c - U(xi))/(c - U(x)).  Raises RuntimeError
    unless the Newton steps fall below 1e-14.
    """
    n = len(U)
    x = 2.0 * np.pi * np.arange(n) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    u_hat = np.fft.fft(U) / n

    def gap(points):  # c - U at points
        return c - _trig_sum(u_hat, k, points)

    big = 8 * n
    g_hat = np.fft.fft(1.0 / gap(2.0 * np.pi * np.arange(big) / big)) / big
    freq = np.fft.fftfreq(big, 1.0 / big)
    mean = g_hat[0].real
    anti = np.zeros(big, complex)
    inner = (freq != 0) & (np.abs(freq) < big // 2)
    anti[inner] = g_hat[inner] / (1j * freq[inner])

    def F(points):
        return mean * points + _trig_sum(anti, freq, points)

    t = np.asarray(times, dtype=float)[:, None]
    target = F(x) - t
    xi = x - t / mean
    for _ in range(50):
        step = (F(xi) - target) * gap(xi)
        xi = xi - step
        if np.max(np.abs(step)) < 1e-14:
            return xi + c * t, np.sqrt(gap(xi) / gap(x))
    raise RuntimeError("traveling flow labels did not converge")
