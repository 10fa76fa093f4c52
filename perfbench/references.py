"""Independent references for the transport distances the benchmark checks.

Nothing here calls the solver under test.  The discrete problem that
``coneflow.wfr.solve_wfr`` solves by primal-dual splitting is solved again
as a smooth convex minimisation: the source is eliminated through the
continuity constraint (mu = d_t rho + d_x m), which leaves the interior
density slices and the face momenta as free variables of

    J(rho, m) = dt h sum_cells (a^2 m_c^2 + b^2 mu_c^2) / rho_c,

minimised by a log-barrier interior-point method (damped Newton steps
with a sparse direct solve).  The barrier parameter bounds the duality
gap, so each reference carries its own certificate.
"""
from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TWO_PI = 2.0 * np.pi


class ReferenceSolveError(RuntimeError):
    """A reference minimisation did not reach its certificate."""


class ReducedProblem:
    """The staggered-grid action with the source eliminated, as f(z)."""

    def __init__(self, rho0, rho1, nt: int, a: float = 1.0, b: float = 0.5):
        rho0 = np.asarray(rho0, dtype=float)
        rho1 = np.asarray(rho1, dtype=float)
        nx = rho0.size
        self.nt, self.nx, self.a2, self.b2 = nt, nx, a * a, b * b
        self.dt, self.h = 1.0 / nt, TWO_PI / nx
        self.measure = self.dt * self.h
        n_r = (nt - 1) * nx
        n_m = nt * nx
        self.size = n_r + n_m
        cells = nt * nx
        eye_x = sp.identity(nx, format="csr")
        # density slices k = 1..nt-1 are free; k = 0 and k = nt are pinned
        lower = sp.eye(nt, nt - 1, k=-1, format="csr")   # slice k of cell k
        upper = sp.eye(nt, nt - 1, k=0, format="csr")    # slice k+1 of cell k
        shift = sp.eye(nx, nx, k=-1, format="csr") + sp.eye(nx, nx, k=nx - 1)
        zero_r = sp.csr_matrix((cells, n_r))
        zero_m = sp.csr_matrix((cells, n_m))
        avg_r = 0.5 * sp.kron(lower + upper, eye_x)
        diff_r = sp.kron(upper - lower, eye_x) / self.dt
        avg_m = 0.5 * sp.kron(sp.identity(nt), eye_x + shift)
        diff_m = sp.kron(sp.identity(nt), eye_x - shift) / self.h
        self.A_r = sp.hstack([avg_r, zero_m]).tocsr()
        self.A_m = sp.hstack([zero_r, avg_m]).tocsr()
        self.A_u = sp.hstack([diff_r, diff_m]).tocsr()
        first = np.zeros(nt)
        first[0] = 1.0
        last = np.zeros(nt)
        last[-1] = 1.0
        self.c_r = 0.5 * (np.kron(first, rho0) + np.kron(last, rho1))
        self.c_u = (np.kron(last, rho1) - np.kron(first, rho0)) / self.dt
        frac = np.arange(1, nt)[:, None] / nt
        self.z0 = np.concatenate([((1 - frac) * rho0 + frac * rho1).ravel(),
                                  np.zeros(n_m)])

    def centers(self, z):
        return (self.A_r @ z + self.c_r, self.A_m @ z, self.A_u @ z + self.c_u)

    def value(self, z) -> float:
        r, x, y = self.centers(z)
        if np.min(r) <= 0:
            return np.inf
        return self.measure * float(np.sum((self.a2 * x * x
                                            + self.b2 * y * y) / r))

    def gradient(self, z) -> np.ndarray:
        r, x, y = self.centers(z)
        q = self.a2 * x * x + self.b2 * y * y
        return self.measure * (self.A_r.T @ (-q / r ** 2)
                               + self.A_m.T @ (2 * self.a2 * x / r)
                               + self.A_u.T @ (2 * self.b2 * y / r))

    def hessian(self, z):
        r, x, y = self.centers(z)
        q = self.a2 * x * x + self.b2 * y * y
        blocks = ((self.A_r, self.A_r, 2 * q / r ** 3),
                  (self.A_m, self.A_m, 2 * self.a2 / r),
                  (self.A_u, self.A_u, 2 * self.b2 / r),
                  (self.A_r, self.A_m, -2 * self.a2 * x / r ** 2),
                  (self.A_r, self.A_u, -2 * self.b2 * y / r ** 2))
        hess = sp.csr_matrix((self.size, self.size))
        for left, right, w in blocks:
            term = left.T @ sp.diags(w) @ right
            hess = hess + (term if left is right else term + term.T)
        return self.measure * hess


def barrier_reference(rho0, rho1, nt: int, a: float = 1.0, b: float = 0.5,
                      rel_gap: float = 1e-10, max_newton: int = 2000):
    """Distance by a log-barrier interior-point method.

    Returns (distance, certified relative gap, last-stage change, Newton
    steps).  Optimal plans vanish on whole cells between separated masses,
    so rho_c >= 0 is active there and plain Newton would crawl along the
    boundary; the barrier -eps sum log rho_c keeps the iterate inside.
    After each centring, the action exceeds its minimum by at most
    cells * eps (the duality gap of the barrier problem), which is the
    certificate once it falls below rel_gap times the action.
    """
    prob = ReducedProblem(rho0, rho1, nt, a, b)
    n_cells = prob.nt * prob.nx
    z = prob.z0.copy()
    eps = 1e-2 * prob.value(z) / n_cells
    steps = 0
    previous = np.inf

    def phi(zz):
        r = prob.A_r @ zz + prob.c_r
        if np.min(r) <= 0:
            return np.inf
        return prob.value(zz) - eps * float(np.sum(np.log(r)))

    while True:
        f = phi(z)
        for _ in range(max_newton):
            r = prob.A_r @ z + prob.c_r
            g = prob.gradient(z) - eps * (prob.A_r.T @ (1.0 / r))
            hess = (prob.hessian(z)
                    + eps * (prob.A_r.T @ sp.diags(1.0 / r ** 2) @ prob.A_r))
            # the action is 1-homogeneous, so its Hessian is nearly
            # singular along the iterate; when roundoff makes the solve
            # indefinite, a growing ridge restores a descent direction
            ridge = 0.0
            while True:
                step = spla.spsolve(hess.tocsc(), -g)
                dec2 = float(-g @ step)
                if np.isfinite(dec2) and dec2 >= 0:
                    break
                ridge = max(1e3 * ridge, 1e-14 * float(hess.diagonal().max()))
                if ridge > 1e-3 * float(hess.diagonal().max()):
                    raise ReferenceSolveError(
                        "barrier Hessian lost definiteness")
                hess = hess + ridge * sp.identity(prob.size)
            steps += 1
            if dec2 <= 1e-3 * eps:
                break
            t = 1.0
            while True:
                f_new = phi(z + t * step)
                if f_new <= f - 0.25 * t * dec2:
                    break
                t *= 0.5
                if t < 1e-14:
                    raise ReferenceSolveError("barrier line search stalled")
            z = z + t * step
            f = f_new
        else:
            raise ReferenceSolveError(
                f"barrier centring exceeded {max_newton} Newton steps")
        action = prob.value(z)
        distance = float(np.sqrt(action))
        change = abs(distance - previous) / distance
        previous = distance
        gap = n_cells * eps / action
        if gap <= rel_gap:
            return distance, gap, change, steps
        eps *= 0.1


def uniform_reference(c0: float, c1: float, nt: int, b: float = 0.5) -> float:
    """Exact discrete optimum between the uniform densities c0 and c1.

    By translation invariance the optimal momentum vanishes and every
    cell carries the same profile, so the problem is one-dimensional in
    time: minimise 2 pi dt sum_k b^2 mu_k^2 / rho_k over the nt - 1
    interior slice values.
    """
    dt = 1.0 / nt

    def action(inner):
        rho = np.concatenate([[c0], inner, [c1]])
        rho_c = 0.5 * (rho[:-1] + rho[1:])
        mu = np.diff(rho) / dt
        if np.min(rho_c) <= 0:
            return np.inf, np.zeros_like(inner)
        val = TWO_PI * dt * b * b * np.sum(mu * mu / rho_c)
        d_mu = 2 * mu / rho_c
        d_rc = -mu * mu / rho_c ** 2
        grad_full = (np.concatenate([[0.0], d_rc]) * 0.5
                     + np.concatenate([d_rc, [0.0]]) * 0.5
                     + (np.concatenate([[0.0], d_mu])
                        - np.concatenate([d_mu, [0.0]])) / dt)
        return val, TWO_PI * dt * b * b * grad_full[1:-1]

    start = np.linspace(c0, c1, nt + 1)[1:-1]
    res = scipy.optimize.minimize(action, start, jac=True, method="BFGS",
                                  options={"gtol": 1e-14, "maxiter": 10_000})
    return float(np.sqrt(res.fun))
