"""Two-parameter Camassa-Holm family on the circle and its Lagrangian flow.

The evolution is integrated in momentum form: with m = a^2 u - b^2 u_xx,

    dm/dt = -(u m_x + 2 u_x m),    u = (a^2 - b^2 d_xx)^{-1} m,

which conserves the energy int a^2 u^2 + b^2 u_x^2 dx and the mean of m.
Spatial derivatives are Fourier collocation, quadratic products are
dealiased with the 2/3 rule, and time stepping is fixed-step RK4 over a
whole number of steps (grid.rk4_blocks, grid.step_count) on the rfft
coefficients of u.  A right-hand side makes two transforms: one batched
irfft to u, u_x, m and m_x, and one rfft of the products.  The solver's
guards check every step, a block of steps at a time.
The flow map is the group flow of (u, u_x/2) along the stored trajectory;
its gauge factor squared must track d_x phi (isotropy residual).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cone import ConeParams
from .grid import PeriodicGrid, fourier_multipliers, rk4_blocks, step_count
from .group import hdiv_energy, pair_flow

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


@lru_cache(maxsize=16)
def _rhs_multipliers(n: int, a: float, b: float) -> tuple:
    """Read-only multipliers of ch_rhs: [1, ik, s, ik s] from uh to u, u_x, m
    and m_x, and the filter -keep/s, for the symbol s of a^2 - b^2 d_xx."""
    k, ik, keep = fourier_multipliers(n)
    symbol = a ** 2 + b ** 2 * k * k
    lift = np.array((np.ones_like(ik), ik, symbol, ik * symbol))
    filt = -keep / symbol
    for arr in (lift, filt):
        arr.setflags(write=False)
    return lift, filt


def ch_rhs(grid: PeriodicGrid, uh: np.ndarray,
           params: ConeParams = ConeParams()) -> np.ndarray:
    """d(uh)/dt of the momentum-form evolution (dealiased pseudospectral):
    uh and the result are the n/2 + 1 rfft coefficients of u and of du/dt."""
    lift, filt = _rhs_multipliers(grid.n, params.a, params.b)
    u, ux, m, mx = np.fft.irfft(lift * uh, n=grid.n)
    return filt * np.fft.rfft(u * mx + 2.0 * ux * m)


def _tail_fraction(grid: PeriodicGrid, uh: np.ndarray) -> np.ndarray:
    power = np.abs(uh) ** 2
    total = np.sum(power[..., 1:], axis=-1)
    tail = np.sum(power[..., grid.n // 6 + 1:], axis=-1)  # the k > n/6
    return np.where(total < 1e-28, 0.0, tail / total)


@np.errstate(over="ignore", invalid="ignore")  # the guards report overflow
def ch_solve(grid: PeriodicGrid, u0: np.ndarray, t_final: float, dt: float,
             params: ConeParams = ConeParams()) -> CHTrajectory:
    """Integrate from u0 to t_final with fixed-step RK4.

    Negative dt integrates backwards (the equation is time reversible).
    Raises CHBlowupError at the first step that blows up or whose spectral
    tail indicates wave breaking; guards check every step, a block at a time.
    """
    if dt == 0 or t_final == 0 or np.sign(dt) != np.sign(t_final):
        raise ValueError("dt and t_final must be nonzero with matching signs")
    n_steps = step_count(abs(t_final), abs(dt))
    u = grid.field("u0", u0)
    out = np.empty((n_steps + 1, grid.n))
    out[0] = u
    scale0 = np.max(np.abs(u)) + 1.0

    def rhs(_, uh):
        return ch_rhs(grid, uh, params)

    for i, uh, u in rk4_blocks(rhs, np.fft.rfft(u), dt, out[1:]):
        blown = ~np.isfinite(u).all(-1) | (np.abs(u).max(-1) > 100.0 * scale0)
        tail = _tail_fraction(grid, uh)
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
    the group flow (group.pair_flow) of the isotropy pair (u, u_x/2).

    u is interpolated in time with 4-point Lagrange stencils (order matched
    to RK4).  The RK4 stages at fractions 0 and 1 of a step are the stored
    slices; the midpoint stage weights the stencil's four slices by
    (5, 15, -5, 1)/16 on the first step, (-1, 9, 9, -1)/16 inside and
    (1, -5, 15, 5)/16 on the last.  Raises CHBlowupError at the first slice
    where min d_x phi is below the breaking floor.
    """
    grid = traj.grid
    n_steps = len(traj.times) - 1
    if n_steps < 3:
        raise ValueError("trajectory too short for the flow map")
    half_ux = 0.5 * grid.deriv(traj.u)
    pairs = np.stack((traj.u, half_ux), axis=1)  # (T, 2, n)
    mid_weights = np.array([[5, 15, -5, 1], [-1, 9, 9, -1],
                            [1, -5, 15, 5]]) / 16

    def stages(j):  # the midpoint is formed once and used by two stages
        j0 = min(max(j - 1, 0), n_steps - 3)
        mid = mid_weights[j - j0] @ pairs[j0:j0 + 4].reshape(4, -1)
        return pairs[j], mid.reshape(2, -1), pairs[j + 1]

    steps = pair_flow(grid, stages, traj.dt, n_steps)
    phi, lam_ode = map(np.array, zip((grid.x, np.ones(grid.n)), *steps))

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
