"""Two-parameter Camassa-Holm family on the circle and its Lagrangian flow.

The evolution is integrated in momentum form: with m = a^2 u - b^2 u_xx,

    dm/dt = -(u m_x + 2 u_x m),    u = (a^2 - b^2 d_xx)^{-1} m,

which conserves the energy int a^2 u^2 + b^2 u_x^2 dx and the mean of m.
Spatial derivatives are Fourier collocation, quadratic products are
dealiased with the 2/3 rule, and time stepping is fixed-step RK4 over a
whole number of steps (grid.rk4_step, grid.step_count) on the rfft
coefficients of u.  A right-hand side makes two transforms, both
through grid's pocketfft helpers: one batched irfft to u, 2 u_x, m and
m_x, and one rfft of the products.  ch_solve builds it once per solve
(_rhs_kernel), with its multipliers and scratch arrays, and ch_rhs is its
one-shot form.  The solver's guards check every step, a block of
_BLOCK_STEPS steps at a time, whose slices one irfft stores.
The flow map is the group flow of (u, u_x/2) along the stored trajectory,
stepped by RK4 with one grid._evaluate a stage; its gauge factor squared
must track d_x phi (isotropy residual).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams
from .grid import (PeriodicGrid, _evaluate, _irfft, _rfft,
                   fourier_multipliers, rk4_step, step_count)
from .group import hdiv_energy

# fraction of spectral energy allowed above k = n/6 before declaring breaking
_TAIL_FRACTION_LIMIT = 0.02
_PHI_X_FLOOR = 1e-6
_BLOCK_STEPS = 64  # RK4 steps per block of ch_solve: one irfft stores them


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


def _rhs_kernel(n: int, params: ConeParams):
    """The right-hand side f(c, uh) of ch_rhs on n nodes, built once per
    solve with its multipliers: lift = [1, 2ik, s, ik s] takes uh to u,
    2 u_x, m and m_x, for the symbol s of a^2 - b^2 d_xx, and the filter
    is -keep/s.  The factor 2 of 2 u_x m rides in the lift; scaling by 2
    is exact, so the products keep their bits.  It owns its scratch,
    lift * uh (4, n/2 + 1) and the fields (4, n), whose rows take u m_x,
    2 u_x m and their sum in place.  Each call returns a new array, as
    RK4 holds its four stage derivatives at once."""
    k, ik, keep = fourier_multipliers(n)
    symbol = params.a ** 2 + params.b ** 2 * k * k
    lift = np.array((np.ones_like(ik), 2.0 * ik, symbol, ik * symbol))
    filt = -keep / symbol
    lifted = np.empty(lift.shape, complex)
    fields = np.empty((4, n))
    u, ux2, m, mx = fields

    def rhs(_, uh):
        _irfft(np.multiply(lift, uh, out=lifted), n, out=fields)
        np.multiply(u, mx, out=mx)
        np.multiply(ux2, m, out=m)
        np.add(mx, m, out=mx)
        out = _rfft(mx)
        out *= filt
        return out

    return rhs


def ch_rhs(grid: PeriodicGrid, uh: np.ndarray,
           params: ConeParams = ConeParams()) -> np.ndarray:
    """d(uh)/dt of the momentum-form evolution (dealiased pseudospectral):
    uh and the result are the n/2 + 1 rfft coefficients of u and of du/dt.
    The kernel that ch_solve builds once per solve, built for one call."""
    return _rhs_kernel(grid.n, params)(0.0, uh)


def _tail_fraction(grid: PeriodicGrid, uh: np.ndarray) -> np.ndarray:
    power = np.abs(uh) ** 2
    total = np.sum(power[..., 1:], axis=-1)
    tail = np.sum(power[..., grid.n // 6 + 1:], axis=-1)  # the k > n/6
    return np.where(total < 1e-28, 0.0, tail / total)


@np.errstate(over="ignore", invalid="ignore")  # the guards report overflow
def ch_solve(grid: PeriodicGrid, u0: np.ndarray, t_final: float, dt: float,
             params: ConeParams = ConeParams()) -> CHTrajectory:
    """Integrate from u0 to t_final with fixed-step RK4.

    Raises CHBlowupError at the first step that blows up or whose spectral
    tail indicates wave breaking; guards check every step, a block at a time.
    """
    n_steps = step_count(t_final, dt)
    u = grid.field("u0", u0)
    out = np.empty((n_steps + 1, grid.n))
    out[0] = u
    scale0 = np.max(np.abs(u)) + 1.0

    rhs, uh = _rhs_kernel(grid.n, params), _rfft(u)
    states = np.empty((_BLOCK_STEPS, len(uh)), complex)
    for i in range(0, n_steps, _BLOCK_STEPS):
        u = out[i + 1:i + 1 + _BLOCK_STEPS]
        for j in range(len(u)):
            uh = states[j] = rk4_step(rhs, uh, dt)
        _irfft(states[:len(u)], grid.n, out=u)
        blown = ~np.isfinite(u).all(-1) | (np.abs(u).max(-1) > 100.0 * scale0)
        tail = _tail_fraction(grid, states[:len(u)])
        bad = np.flatnonzero(blown | (tail > _TAIL_FRACTION_LIMIT))
        if bad.size:
            j = int(bad[0])
            t = (i + j + 1) * dt
            if blown[j]:
                raise CHBlowupError(f"solution blew up at t={t:.6g}",
                                    {"time": t, "tail_fraction": float("nan")})
            raise CHBlowupError(
                f"spectral tail indicates wave breaking at t={t:.6g}",
                {"time": t, "tail_fraction": float(tail[j])})
    times = np.arange(n_steps + 1) * dt
    return CHTrajectory(grid, params, dt, times, out)


def ch_invariants(grid: PeriodicGrid, u: np.ndarray,
                  params: ConeParams = ConeParams()) -> dict:
    """Conserved quantities: the H(div) energy and the momentum mean.

    For one slice u of shape (n,) each value is a float; for a stack of
    slices (T, n) it is a list with one float per slice.
    """
    m = params.a ** 2 * u - params.b ** 2 * grid.deriv(u, 2)
    return {"energy": hdiv_energy(grid, u, params).tolist(),
            "momentum_mean": grid.integrate(m).tolist()}


def flow_map(traj: CHTrajectory) -> FlowPath:
    """Integrate the Lagrangian flow and gauge factor along a trajectory:
    phi' = u o phi, lam' = (u_x/2 o phi) lam from the identity, by RK4 on
    the stacked state (phi, lam), each stage one evaluation at phi.

    u is interpolated in time with 4-point Lagrange stencils (order matched
    to RK4).  The RK4 stages at fractions 0 and 1 of a step are the stored
    slices, the midpoint stage weights the stencil's four slices by
    (5, 15, -5, 1)/16 on the first step, (-1, 9, 9, -1)/16 inside and
    (1, -5, 15, 5)/16 on the last, and each is one block, built once.
    Raises CHBlowupError at the first slice where min d_x phi < _PHI_X_FLOOR.
    """
    grid = traj.grid
    n_steps = len(traj.times) - 1
    if n_steps < 3:
        raise ValueError("trajectory too short for the flow map")
    pairs = np.stack((traj.u, 0.5 * grid.deriv(traj.u)), axis=1)  # (T, 2, n)
    mid_weights = np.array([[5, 15, -5, 1], [-1, 9, 9, -1],
                            [1, -5, 15, 5]]) / 16
    blocks = [None, None, grid._trig_block(pairs[0])]  # at c = 0, 1/2, 1

    def rhs(c, y):
        dy = _evaluate(blocks[int(2 * c)], np.broadcast_to(y[0], y.shape))
        dy[1] *= y[1]
        return dy

    out = np.empty((2, n_steps + 1, grid.n))
    out[0, 0], out[1, 0] = grid.x, 1.0
    for j in range(n_steps):  # each slice's block and the midpoint's once
        j0 = min(max(j - 1, 0), n_steps - 3)
        mid = mid_weights[j - j0] @ pairs[j0:j0 + 4].reshape(4, -1)
        blocks = [blocks[2], grid._trig_block(mid.reshape(2, -1)),
                  grid._trig_block(pairs[j + 1])]
        out[:, j + 1] = rk4_step(rhs, out[:, j], traj.dt)
    phi, lam_ode = out

    phi_x = grid.lift_slope(phi)
    min_phi_x = np.min(phi_x, axis=-1)
    broken = np.flatnonzero(min_phi_x < _PHI_X_FLOOR)
    if broken.size:
        t, m = float(traj.times[broken[0]]), float(min_phi_x[broken[0]])
        raise CHBlowupError(f"flow map lost invertibility at t={t:.6g}",
                            {"time": t, "min_phi_x": m})
    lam = np.sqrt(phi_x)
    residual = float(np.max(np.abs(lam_ode ** 2 - phi_x)))
    return FlowPath(grid, traj.times.copy(), phi, lam, lam_ode, residual,
                    float(np.min(min_phi_x)))
