"""Tuple-state RK4 written out on its own, as an oracle for the package's
one-array rk4_step and the integrators built on it."""
import numpy as np


def tuple_rk4_step(f, y: tuple, dt: float) -> tuple:
    """One classical Runge-Kutta step of a tuple of arrays, field by field.

    ``f(c, y)`` returns the derivative tuple at the stage fraction c in
    (0, 1/2, 1/2, 1) of the step.
    """
    k1 = f(0.0, y)
    k2 = f(0.5, tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k1)))
    k3 = f(0.5, tuple(yi + 0.5 * dt * ki for yi, ki in zip(y, k2)))
    k4 = f(1.0, tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    return tuple(yi + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def tuple_pair_flow(grid, stages, dt, n_steps):
    """The group flow phi' = v o phi, lam' = (alpha o phi) lam from the
    identity with phi and lam as two separate fields; yields (phi, lam)
    after each step.  stages(j) gives (v, alpha) pairs at fractions 0, 1/2
    and 1 of step j."""
    at = {}

    def rhs(c, y):
        v, alpha = grid.trig_eval(np.array(at[c]),
                                  np.broadcast_to(y[0], (2, grid.n)))
        return v, alpha * y[1]

    y = (grid.x, np.ones(grid.n))
    for j in range(n_steps):
        at.update(zip((0.0, 0.5, 1.0), stages(j)))
        y = tuple_rk4_step(rhs, y, dt)
        yield y
