"""Exact continuum references for transport on the circle.

circle_w2 is the quadratic Wasserstein distance between two densities on
the circle of length 2 pi, computed from their quantile functions (Delon,
Salomon, Sobolevski, SIAM J. Appl. Math. 2010): with X and Y the inverse
cumulative functions of rho0 and rho1 over the mass coordinate s in [0, M),

    W2^2 = min over theta of C(theta) = int_0^M |X(s) - Y(s + theta)|^2 ds,

where Y(s + M) = Y(s) + 2 pi.  C is convex, with
C'(theta) = 2 int (Y(s + theta) - X(s)) Y'(s + theta) ds and
C''(theta) = 2 int X'(s) Y'(s + theta) ds > 0, so theta is found by Newton
steps kept inside a sign-change bracket of C'.  X - Y(. + theta) is smooth
and periodic in s, so the midpoint rule in s converges spectrally.
Numpy only; used by the tests as an oracle for solve_wfr(balanced=True).
calibrated_pair, the closed-form horizontal geodesic, is the oracle for
horizontal_flow and for the unbalanced solve_wfr.
"""
import numpy as np

TWO_PI = 2.0 * np.pi


class _Density:
    """Trigonometric polynomial density given by n nodal samples on
    [0, 2 pi), with its exact cumulative function F(x) = int_0^x rho."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        n = len(values)
        c = np.fft.rfft(values) / n
        self.mean = c[0].real
        self.mass = TWO_PI * self.mean
        self.k = np.arange(1, len(c))
        # real interpolant: weight 2 on 0 < k < n/2, 1 on the Nyquist mode
        self.c = c[1:] * np.where(self.k == n / 2, 1.0, 2.0)
        # |F(x) - mean x| is at most twice the 1-norm of the c_k / k
        self.bound = 2.0 * float(np.sum(np.abs(self.c) / self.k))
        # the midpoint rule in s divides by rho at the quantiles, and on
        # near-vacuum data it converges too slowly to be a reference: two
        # bumps with min/max 3.7e-6 gave a value above the translation cost
        if not np.min(values) >= 1e-2 * np.max(values):
            raise ValueError("circle_w2 needs densities with min rho >= "
                             "1e-2 max rho")

    def __call__(self, x):
        return self.mean + (np.exp(1j * np.multiply.outer(x, self.k))
                            @ self.c).real

    def cumulative(self, x):
        waves = np.exp(1j * np.multiply.outer(x, self.k)) - 1.0
        return self.mean * x + (waves @ (self.c / (1j * self.k))).real

    def quantile(self, s):
        """X(s), the solution of F(X) = s, by Newton inside [lo, hi]."""
        s = np.asarray(s, dtype=float)
        lo = (s - self.bound) / self.mean
        hi = (s + self.bound) / self.mean
        x = s / self.mean
        for _ in range(100):
            f = self.cumulative(x) - s
            if np.max(np.abs(f)) <= 1e-14 * (self.mass + np.max(np.abs(s))):
                return x
            lo = np.where(f <= 0, x, lo)
            hi = np.where(f > 0, x, hi)
            x_new = x - f / self(x)
            outside = (x_new < lo) | (x_new > hi)
            x = np.where(outside, 0.5 * (lo + hi), x_new)
        raise RuntimeError("quantile inversion did not converge")


def circle_w2(rho0, rho1, nodes: int = 2048) -> float:
    """Squared W2 distance between positive densities of equal mass,
    each with min >= 1e-2 max (ValueError otherwise).

    rho0 and rho1 are nodal samples on a uniform grid of [0, 2 pi) of
    trigonometric polynomials that the grid resolves; nodes is the
    number of midpoint nodes in the mass coordinate.
    """
    d0, d1 = _Density(rho0), _Density(rho1)
    mass = d0.mass
    if abs(d1.mass - mass) > 1e-12 * mass:
        raise ValueError("circle_w2 needs densities of equal mass")
    s = (np.arange(nodes) + 0.5) * (mass / nodes)
    x = d0.quantile(s)
    dx = 1.0 / d0(x)
    weight = mass / nodes

    def moments(theta):
        # Y(s + theta) from the quantile on [0, M) and the period shift
        shifted = s + theta
        turns = np.floor(shifted / mass)
        y = d1.quantile(shifted - turns * mass) + TWO_PI * turns
        dy = 1.0 / d1(y)
        gap = y - x
        return (weight * np.sum(gap * gap), 2 * weight * np.sum(gap * dy),
                2 * weight * np.sum(dx * dy))

    # C' is increasing: widen a bracket around 0 until it changes sign
    lo, hi = -0.5 * mass, 0.5 * mass
    while moments(lo)[1] > 0:
        lo -= mass
    while moments(hi)[1] < 0:
        hi += mass
    theta = 0.0
    for _ in range(100):
        cost, slope, curvature = moments(theta)
        if slope < 0:
            lo = theta
        else:
            hi = theta
        step = slope / curvature
        if abs(step) <= 1e-15 * mass or hi - lo <= 1e-15 * mass:
            return cost
        theta -= step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    raise RuntimeError("shift minimisation did not converge")


def calibrated_pair(grid, rho0, phi0, t=1.0):
    """Exact horizontal geodesic from rho0 launched by the potential phi0.

    At the coefficient pair (1, 1/2) the cone chart z = lam exp(i phi) is
    flat, so the label x of a horizontal geodesic moves on the straight
    line z = exp(ix) (1 + s w) with w = Phi0 + i Phi0'/2; lam^2 = |1 + s w|^2
    and phi = x + arg(1 + s w).  The label fields are rho0 lam^2 / phi_x,
    (Phi0'/2) / lam^2 and (Phi0 + s |w|^2) / lam^2.  Returns the nodal
    (rho, v, alpha) at time t, which read them at phi(t)^-1 of the nodes,
    and the conserved energy E = int (Phi0'^2 / 4 + Phi0^2) rho0, the
    squared WFR distance from rho0 to rho while the geodesic is minimal.

    rho0 and phi0 are nodal samples of trigonometric polynomials that the
    grid resolves, so they are evaluated off the nodes exactly.  Raises
    ValueError if a label reaches the apex (lam = 0) or folds (phi_x = 0)
    by time t: lam^2 phi_x = Im(conj(1 + s w) (i (1 + s w) + s w_x)) is a
    quadratic in s, 1 at s = 0, that vanishes at both, and its minimum over
    [0, t] must exceed 1e-12 at every node.
    """
    rho0, phi0 = np.asarray(rho0, float), np.asarray(phi0, float)

    def labels(y):
        p, p1, p2 = (grid.trig_eval(phi0, y, order=k) for k in (0, 1, 2))
        return p, p1, p + 0.5j * p1, p1 + 0.5j * p2

    # u = 1 + c1 s + c2 s^2 at the nodes; its minimum on [0, t]
    _, _, w, w_x = labels(grid.x)
    c1 = 2.0 * w.real + w_x.imag
    c2 = np.abs(w) ** 2 + (np.conj(w) * w_x).imag
    vertex = np.divide(-c1, 2.0 * c2, out=np.zeros(grid.n), where=c2 > 0)
    s = np.stack((np.full(grid.n, t), np.clip(vertex, 0.0, t)))
    if np.min(1.0 + c1 * s + c2 * s * s) <= 1e-12:  # rounding of a touch
        raise ValueError("a label reaches the apex or folds by time t")
    # |arg(1 + t w)| < pi off the apex.  invert_lift reads phi through the
    # interpolant of its nodal samples; Newton on the exact phi polishes it
    z = 1.0 + t * w
    y = grid.invert_lift(grid.x + np.angle(z))
    for _ in range(20):
        p, p1, w, w_x = labels(y)
        z = 1.0 + t * w
        lam2 = np.abs(z) ** 2
        phi_x = 1.0 + t * (w_x * np.conj(z)).imag / lam2
        gap = y + np.angle(z) - grid.x
        if np.max(np.abs(gap)) <= 1e-14 * TWO_PI:
            break
        y = y - gap / phi_x
    else:
        raise RuntimeError("inverse flow map did not converge")
    rho = grid.trig_eval(rho0, y) * lam2 / phi_x
    energy = grid.integrate((0.25 * grid.deriv(phi0) ** 2 + phi0 ** 2) * rho0)
    return rho, 0.5 * p1 / lam2, (p + t * np.abs(w) ** 2) / lam2, energy
