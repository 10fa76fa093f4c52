"""Dense reference operators in closed form, independent of grid.deriv."""
import numpy as np


def dense_diff_matrix(n):
    """Fourier collocation derivative on n (even) equispaced nodes:
    D_ij = (-1)^(i-j) cot((x_i - x_j)/2) / 2 off the diagonal, 0 on it
    (Trefethen, Spectral Methods in MATLAB, ch. 3)."""
    i = np.arange(n)
    diff = i[:, None] - i[None, :]
    off = diff != 0
    d = np.zeros((n, n))
    d[off] = (0.5 * (-1.0) ** diff[off]
              / np.tan(np.pi * diff[off] / n))
    return d


def dense_lift(rho, x_rho):
    """Potential of the lift by a dense solve of -D rho D / 2 + 2 rho."""
    d = dense_diff_matrix(len(rho))
    op = -0.5 * d @ (rho[:, None] * d) + 2.0 * np.diag(rho)
    return np.linalg.solve(op, x_rho)
