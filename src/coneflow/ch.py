"""Two-parameter Camassa-Holm family on the circle and its Lagrangian flow.

The evolution is integrated in momentum form: with m = a^2 u - b^2 u_xx,

    dm/dt = -(u m_x + 2 u_x m),    u = (a^2 - b^2 d_xx)^{-1} m,

which conserves the energy int a^2 u^2 + b^2 u_x^2 dx and the mean of m.
Spatial derivatives are Fourier collocation, quadratic products are
dealiased with the 2/3 rule, and time stepping is fixed-step RK4 over a
whole number of steps (grid.rk4_step, grid.step_count).  The flow map
integrates phi' = u(t, phi) after the fact from the stored trajectory,
together with the gauge factor lam' = (u_x/2)(t, phi) lam whose square
must track d_x phi (isotropy residual).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams
from .grid import PeriodicGrid, rk4_step, step_count

# fraction of spectral energy allowed above k = n/6 before declaring breaking
_TAIL_FRACTION_LIMIT = 0.02
_PHI_X_FLOOR = 1e-6


class CHBlowupError(RuntimeError):
    """Gradient blow-up (wave breaking) detected by a solver guard."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class CHTrajectory:
    grid: PeriodicGrid
    params: ConeParams
    dt: float
    times: np.ndarray
    u: np.ndarray  # (len(times), n)


@dataclass(frozen=True)
class FlowPath:
    """Lagrangian flow (phi(t), lam(t)) with lam = sqrt(d_x phi).

    lam_ode is the independently integrated gauge factor; its squared
    mismatch with d_x phi is the reported isotropy residual.
    """

    grid: PeriodicGrid
    times: np.ndarray
    phi: np.ndarray       # (len(times), n) monotone lifts
    lam: np.ndarray       # sqrt(d_x phi), spectral
    lam_ode: np.ndarray   # gauge factor integrated along the flow
    isotropy_residual: float
    min_phi_x: float


def ch_rhs(grid: PeriodicGrid, u: np.ndarray,
           params: ConeParams = ConeParams()) -> np.ndarray:
    """du/dt of the momentum-form evolution (dealiased pseudospectral)."""
    a2 = params.a ** 2
    b2 = params.b ** 2
    ux = grid.deriv(u)
    m = a2 * u - b2 * grid.deriv(u, 2)
    mx = grid.deriv(m)
    dm_dt = -grid.dealias(u * mx) - 2.0 * grid.dealias(ux * m)
    return grid.solve_helmholtz(dm_dt, params.a, params.b)


def _tail_fraction(grid: PeriodicGrid, u: np.ndarray) -> float:
    uh = np.abs(np.fft.rfft(u)) ** 2
    k = np.arange(grid.n // 2 + 1)
    total = float(np.sum(uh[1:]))
    if total < 1e-28:
        return 0.0
    return float(np.sum(uh[k > grid.n / 6.0]) / total)


def ch_solve(grid: PeriodicGrid, u0: np.ndarray, t_final: float, dt: float,
             params: ConeParams = ConeParams()) -> CHTrajectory:
    """Integrate from u0 to t_final with fixed-step RK4.

    Negative dt integrates backwards (the equation is time reversible).
    Raises CHBlowupError when the spectral tail indicates wave breaking.
    """
    if dt == 0 or t_final == 0 or np.sign(dt) != np.sign(t_final):
        raise ValueError("dt and t_final must be nonzero with matching signs")
    n_steps = step_count(abs(t_final), abs(dt))
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (grid.n,):
        raise ValueError("u0 must be a nodal array on the grid")
    out = np.empty((n_steps + 1, grid.n))
    out[0] = u
    scale0 = np.max(np.abs(u)) + 1.0

    def rhs(_, y):
        return (ch_rhs(grid, y[0], params),)

    for i in range(n_steps):
        u, = rk4_step(rhs, (u,), dt)
        t = (i + 1) * dt
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 100.0 * scale0:
            raise CHBlowupError(
                f"solution blew up at t={t:.6g}",
                {"time": t, "tail_fraction": float("nan")})
        tail = _tail_fraction(grid, u)
        if tail > _TAIL_FRACTION_LIMIT:
            raise CHBlowupError(
                f"spectral tail indicates wave breaking at t={t:.6g}",
                {"time": t, "tail_fraction": tail})
        out[i + 1] = u
    times = np.arange(n_steps + 1) * dt
    return CHTrajectory(grid, params, dt, times, out)


def ch_invariants(grid: PeriodicGrid, u: np.ndarray,
                  params: ConeParams = ConeParams()) -> dict:
    """Conserved quantities: the H(div) energy and the momentum mean."""
    ux = grid.deriv(u)
    m = params.a ** 2 * u - params.b ** 2 * grid.deriv(u, 2)
    energy = grid.integrate(params.a ** 2 * u ** 2 + params.b ** 2 * ux ** 2)
    return {"energy": float(energy), "momentum_mean": float(grid.integrate(m))}


def _lagrange_weights(s: float) -> np.ndarray:
    """Weights of cubic Lagrange interpolation on nodes 0, 1, 2, 3."""
    nodes = np.arange(4.0)
    w = np.empty(4)
    for i in range(4):
        others = np.delete(nodes, i)
        w[i] = np.prod((s - others) / (nodes[i] - others))
    return w


# a step's stencil starts 0, 1 or 2 slices before it; its RK4 stages sit at
# fractions 0, 1/2 and 1 of the step, so nine weight sets serve every step
_STAGE_WEIGHTS = {(offset, c): _lagrange_weights(offset + c)
                  for offset in range(3) for c in (0.0, 0.5, 1.0)}


def flow_map(traj: CHTrajectory) -> FlowPath:
    """Integrate the Lagrangian flow and gauge factor along a trajectory.

    u is interpolated in time with 4-point Lagrange stencils (order matched
    to RK4) and evaluated off-grid through its trigonometric interpolant.
    Aborts when min d_x phi reaches the breaking floor.
    """
    grid = traj.grid
    n_steps = len(traj.times) - 1
    if n_steps < 3:
        raise ValueError("trajectory too short for the flow map")
    dt = traj.dt
    ux_all = grid.deriv(traj.u)
    phi = np.empty((n_steps + 1, grid.n))
    lam_ode = np.empty((n_steps + 1, grid.n))
    phi[0] = grid.x
    lam_ode[0] = 1.0
    for j in range(n_steps):
        j0 = min(max(j - 1, 0), n_steps - 3)
        stages = {}  # (u, u_x) at the stage times, cubic in time
        for c in (0.0, 0.5, 1.0):
            w = _STAGE_WEIGHTS[j - j0, c]
            stages[c] = w @ traj.u[j0:j0 + 4], w @ ux_all[j0:j0 + 4]

        def rhs(c, y):
            u_t, ux_t = stages[c]
            p, l = y
            return grid.trig_eval(u_t, p), 0.5 * grid.trig_eval(ux_t, p) * l

        phi[j + 1], lam_ode[j + 1] = rk4_step(rhs, (phi[j], lam_ode[j]), dt)
        phi_x = 1.0 + grid.deriv(phi[j + 1] - grid.x)
        m = float(np.min(phi_x))
        if m < _PHI_X_FLOOR:
            raise CHBlowupError(
                f"flow map lost invertibility at t={traj.times[j + 1]:.6g}",
                {"time": float(traj.times[j + 1]), "min_phi_x": m})

    phi_x = 1.0 + grid.deriv(phi - grid.x[None, :])
    lam = np.sqrt(phi_x)
    residual = float(np.max(np.abs(lam_ode ** 2 - phi_x)))
    return FlowPath(grid, traj.times.copy(), phi, lam, lam_ode, residual,
                    float(np.min(phi_x)))
