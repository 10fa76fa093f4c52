"""Oracles for the action-integrand prox: an independent staged grid
search, and the per-component Newton arithmetic of prox_action."""
import numpy as np

from coneflow import ConeParams


def brute_prox(rho, m, mu, gamma, params=ConeParams(), n_grid=801, stages=4):
    """Staged 1d scan over the density axis with closed-form flux shrinkage.

    For fixed density r the flux minimizers are explicit quadratic
    shrinkages; the density axis is scanned and locally refined, and the
    boundary candidate (0, 0, 0) is compared at the end.
    """
    a2, b2 = params.a ** 2, params.b ** 2
    c1, c2 = 2 * gamma * a2, 2 * gamma * b2
    slack = gamma * (a2 * m ** 2 / c1 ** 2 + b2 * mu ** 2 / c2 ** 2)
    best_lo = np.zeros_like(rho)
    best_hi = np.maximum(rho + slack, 0.0) + 1e-12

    def val(r, rho_c, m_c, mu_c):
        mm = r * m_c / (r + c1)
        uu = r * mu_c / (r + c2)
        pen = np.where(r > 0,
                       gamma * (a2 * mm ** 2 + b2 * uu ** 2)
                       / np.maximum(r, 1e-300),
                       0.0)
        return 0.5 * ((r - rho_c) ** 2 + (mm - m_c) ** 2
                      + (uu - mu_c) ** 2) + pen

    r_best = best_lo
    for _ in range(stages):
        frac = np.linspace(0.0, 1.0, n_grid)[None, :]
        rr = best_lo[:, None] + (best_hi - best_lo)[:, None] * frac
        vv = val(rr, rho[:, None], m[:, None], mu[:, None])
        idx = np.argmin(vv, axis=1)
        step = (best_hi - best_lo) / (n_grid - 1)
        r_best = best_lo + idx * step
        best_lo = np.maximum(r_best - 2 * step, 0.0)
        best_hi = r_best + 2 * step
    use_apex = 0.5 * (rho ** 2 + m ** 2 + mu ** 2) < val(r_best, rho, m, mu)
    r_out = np.where(use_apex, 0.0, r_best)
    m_out = np.where(use_apex, 0.0, r_out * m / (r_out + c1))
    mu_out = np.where(use_apex, 0.0, r_out * mu / (r_out + c2))
    return r_out, m_out, mu_out


def per_component_prox(rho, m, mu, gamma, params=ConeParams(), guess=None):
    """The Newton prox of the action integrand with each flux as its own
    array: the arithmetic prox_action must reproduce bit for bit."""
    rho, m, mu = (np.asarray(v, dtype=float) for v in (rho, m, mu))
    c1, c2 = 2.0 * gamma * params.a ** 2, 2.0 * gamma * params.b ** 2
    qm, qmu = params.a ** 2 * m ** 2, params.b ** 2 * mu ** 2
    slack0 = gamma * (qm / c1 ** 2 + qmu / c2 ** 2)
    live = ~(rho + slack0 <= 0.0)
    rho = rho * live
    qm, qmu = gamma * live * qm, gamma * live * qmu

    floor = np.maximum(rho, 0.0)
    r = floor if guess is None else np.maximum(guess, floor) * live
    for _ in range(200):
        s1 = r + c1
        s2 = r + c2
        t1 = qm / (s1 * s1)
        t2 = qmu / (s2 * s2)
        f = r - rho - t1 - t2
        if np.abs(f).max() < 1e-13 * (1.0 + r.max()):
            break
        r = np.maximum(r - f / (1.0 + 2.0 * (t1 / s1 + t2 / s2)), floor)
    else:
        raise RuntimeError("prox Newton stalled after 200 rounds")
    return r, (r / s1) * m, (r / s2) * mu
