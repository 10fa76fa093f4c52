"""The four benchmark workloads: inputs from a seed, timed cases, checks.

Every workload is a fixed list of cases run one after another in a closed
loop (one caller, next case only after the previous returns).  The seed
picks a placement of each input under an exact symmetry of the discrete
problem: a rotation of the circle (by whole cells where the grid must map
to itself), the reflection x -> -x, and, for transport, time reversal.
So every seed feeds the program different arrays with the same exact
answer and the same amount of work, which keeps the timings comparable
across seeds and lets one checked-in reference table serve them all.

A case's ``run`` is the only code timed.  Its ``check`` runs afterwards
and returns an Outcome: whether the output is correct, and its relative
error against an independent reference where the workload has one.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import coneflow
import coneflow.cli
import coneflow.ch
import coneflow.cone
import coneflow.grid
import coneflow.wfr

REFERENCE_TABLE = Path(__file__).resolve().parent / "references.json"
TWO_PI = 2.0 * np.pi


@dataclass
class Outcome:
    ok: bool
    rel_err: float | None = None
    detail: str = ""


@dataclass
class Case:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    cases: list[Case]
    diagnostics: dict = field(default_factory=dict)


def _fail(detail: str) -> Outcome:
    return Outcome(False, None, detail)


# -- transport --------------------------------------------------------------


def _transport_image(rho0, rho1, shift: int, reflect: bool, reverse: bool):
    """Image of an endpoint pair under a grid symmetry of the WFR problem."""
    def place(r):
        r = np.roll(r[::-1], 1) if reflect else r
        return np.roll(r, shift)
    a, b = place(rho0), place(rho1)
    return (b, a) if reverse else (a, b)


def random_image(rng, rho0, rho1):
    return _transport_image(rho0, rho1, int(rng.integers(rho0.size)),
                            bool(rng.integers(2)), bool(rng.integers(2)))


def _transport_bounds(rho0, rho1, b=0.5):
    """Zero-transport (Hellinger) bound and the total-mass bound."""
    h = TWO_PI / rho0.size
    hellinger = 2 * b * math.sqrt(h * float(np.sum((np.sqrt(rho1)
                                                   - np.sqrt(rho0)) ** 2)))
    mass = 2 * b * (math.sqrt(h * float(np.sum(rho0)))
                    + math.sqrt(h * float(np.sum(rho1))))
    return hellinger, mass


def pairs16_pool():
    """The first 16 endpoint pairs of acceptance test 5's generator.

    Bumps of random width and mass on a random uniform floor, several of
    them near vacuum (minimum density down to ~3e-3).
    """
    grid = coneflow.grid.PeriodicGrid(16)
    bump = coneflow.grid.bump_density
    rng = np.random.default_rng(80)
    pool = []
    for _ in range(16):
        r0 = bump(grid, rng.uniform(0, TWO_PI), rng.uniform(0.4, 1.2),
                  rng.uniform(0.3, 2.0)) + rng.uniform(0, 0.3)
        r1 = bump(grid, rng.uniform(0, TWO_PI), rng.uniform(0.4, 1.2),
                  rng.uniform(0.3, 2.0)) + rng.uniform(0, 0.3)
        pool.append((r0, r1))
    return pool


def grid128_configs():
    """Larger solves, each with a known answer: (name, rho0, rho1, kwargs)."""
    bump = coneflow.grid.bump_density
    g192 = coneflow.grid.PeriodicGrid(192)
    g128 = coneflow.grid.PeriodicGrid(128)
    c0, c1 = np.pi - np.pi / 8, np.pi + np.pi / 8
    shift = np.pi / 4
    return [
        ("separated", bump(g192, c0, 0.16, 1.0), bump(g192, c1, 0.16, 1.0),
         {"nt": 16, "tol": 3e-6}),
        ("colocated", bump(g128, np.pi, 0.4, 1.0),
         bump(g128, np.pi, 0.4, 2.25), {"nt": 16, "tol": 3e-6}),
        ("uniform", np.ones(128), 2.0 * np.ones(128), {"nt": 32, "tol": 1e-7}),
        ("balanced", bump(g128, np.pi - shift / 2, 0.4, 1.0),
         bump(g128, np.pi + shift / 2, 0.4, 1.0),
         {"nt": 16, "tol": 3e-6, "balanced": True}),
    ]


def load_reference_table():
    with open(REFERENCE_TABLE) as fh:
        return json.load(fh)


def _solve(rho0, rho1, nt, **kwargs):
    # looked up at call time so that traced runs see the wrapped solver
    return coneflow.wfr.solve_wfr(rho0, rho1, nt, max_iters=200_000,
                                  **kwargs)


def _transport_check(rho0, rho1, reference, limit=None, limit_tol=None,
                     balanced=False):
    hellinger, mass = _transport_bounds(rho0, rho1)

    def check(result) -> Outcome:
        d = result.distance
        if not result.converged:
            return _fail(f"not converged after {result.iterations}")
        # both bounds hold for transport with growth, not for balanced
        # transport, which may not create or destroy mass
        if not balanced and d > hellinger:
            return _fail(f"d={d!r} exceeds the Hellinger bound {hellinger!r}")
        if not balanced and d > mass:
            return _fail(f"d={d!r} exceeds the mass bound {mass!r}")
        if result.constraint_residual > 1e-9:
            return _fail(f"continuity residual "
                         f"{result.constraint_residual:.3e}")
        err = abs(d - reference) / reference
        if limit is not None and abs(d - limit) / limit > limit_tol:
            return _fail(f"d={d!r} is not within {limit_tol} of {limit!r}")
        # the balanced reference is a continuum value, not a discrete
        # optimum, so its gap is a discretisation error and is not reported
        return Outcome(True, None if balanced else err)
    return check


def build_wfr_pairs16(seed: int, workdir: Path) -> Workload:
    table = load_reference_table()["wfr_pairs16"]
    rng = np.random.default_rng(seed)
    cases = []
    for index, (r0, r1) in enumerate(pairs16_pool()):
        a, b = random_image(rng, r0, r1)
        ref = table[index]["distance"]
        cases.append(Case(f"pair{index:02d}",
                          lambda a=a, b=b: _solve(a, b, 16, tol=1e-5),
                          _transport_check(a, b, ref)))
    order = rng.permutation(len(cases))
    return Workload([cases[i] for i in order])


def build_wfr_grid128(seed: int, workdir: Path) -> Workload:
    table = load_reference_table()["wfr_grid128"]
    rng = np.random.default_rng(seed)
    cases = []
    diagnostics = {}
    for name, r0, r1, kw in grid128_configs():
        a, b = random_image(rng, r0, r1)
        kw = dict(kw)
        nt = kw.pop("nt")
        if name == "balanced":
            # translation by pi/4 of a unit mass: d = a * shift * sqrt(mass)
            ref = np.pi / 4
            check = _transport_check(a, b, ref, ref, 2e-2, balanced=True)
        else:
            # the discrete optimum is certified; the solve stops at its
            # tolerance, so it must land well inside 1e-3 of it
            ref = table[name]["distance"]
            check = _transport_check(a, b, ref, ref, 1e-3)
        diagnostics[f"{name}.reference"] = ref
        cases.append(Case(name, lambda a=a, b=b, nt=nt, kw=kw:
                          _solve(a, b, nt, **kw), check))
    return Workload(cases, diagnostics)


# -- pde steppers -----------------------------------------------------------


def _placement(rng, cells):
    """A rotation by whole cells of the coarsest grid, and a reflection.

    Whole-cell rotations permute the nodes of every finer grid too, so
    aliasing errors rotate with the data and the answer is unchanged.
    """
    return TWO_PI * int(rng.integers(cells)) / cells, bool(rng.integers(2))


def build_pde_steppers(seed: int, workdir: Path) -> Workload:
    """Fixed-step RK4 integrations of the acceptance scenarios 1, 2 and 6."""
    rng = np.random.default_rng(seed)
    s, reflect = _placement(rng, 64)
    sign = -1.0 if reflect else 1.0

    def velocity(grid):
        # u -> -u(-x) maps solutions to solutions
        y = sign * grid.x - s
        return sign * (0.2 * np.sin(y) + 0.1 * np.cos(2 * y))

    state = {}
    cases = []

    def ch_case(n):
        grid = coneflow.grid.PeriodicGrid(n)
        u0 = velocity(grid)

        def run():
            return coneflow.ch.ch_solve(grid, u0, 1.0, 1e-3)

        def check(traj) -> Outcome:
            inv = [coneflow.ch.ch_invariants(grid, u) for u in traj.u]
            energy = np.array([v["energy"] for v in inv])
            drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
            if drift >= 1e-8:
                return _fail(f"n={n}: energy drift {drift:.3e}")
            if n == 1024:
                state["ref"] = traj.u[-1]
                return Outcome(True)
            err = float(np.max(np.abs(traj.u[-1] - state["ref"][::1024 // n])))
            state[n] = err
            if n == 256 and err >= 1e-12:
                return _fail(f"n=256 differs from n=1024 by {err:.3e}")
            if n == 64:
                if not state[128] < 1e-3 * err:
                    return _fail(f"no spectral convergence: {state[128]:.3e} "
                                 f"at n=128 vs {err:.3e} at n=64")
                return Outcome(True, err / float(np.max(np.abs(state["ref"]))))
            return Outcome(True)
        return Case(f"ch_solve_n{n}", run, check)

    for n in (1024, 256, 128, 64):
        cases.append(ch_case(n))

    g64 = coneflow.grid.PeriodicGrid(64)
    y = sign * g64.x - s
    rho0 = 1.0 + 0.3 * np.sin(y)
    phi0 = 0.3 * np.cos(y) + 0.2

    def flow_check(flow) -> Outcome:
        if not flow.horizontality_defect < 1e-6:
            return _fail(f"horizontality defect "
                         f"{flow.horizontality_defect:.3e}")
        if not (np.isfinite(flow.action) and flow.action > 0):
            return _fail(f"action {flow.action!r}")
        return Outcome(True)

    cases.append(Case("horizontal_flow_n64",
                      lambda: coneflow.wfr.horizontal_flow(g64, rho0, phi0,
                                                           1.0, 1e-3),
                      flow_check))

    shots = [(0.0, 1.0, 0.0, 0.8), (1.0, 1.0, 1.0, 0.0), (2.0, 0.5, 0.7, -0.3)]
    params = coneflow.ConeParams()
    while len(shots) < 23:
        shot = (float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(-1, 1)), float(rng.uniform(-0.5, 0.5)))
        p0, v0 = coneflow.ConePoint(*shot[:2]), coneflow.ConeTangent(*shot[2:])
        if 1e-3 <= math.sqrt(coneflow.cone_metric(p0, v0, v0, params)) <= 2.0:
            shots.append(shot)
    shots = [((x0 + s) % TWO_PI, m0, dx0, dm0) for x0, m0, dx0, dm0 in shots]

    def run_shots():
        return [coneflow.cone.cone_geodesic(coneflow.ConePoint(x0, m0),
                                            coneflow.ConeTangent(dx0, dm0),
                                            0.5, 1e-3, params)
                for x0, m0, dx0, dm0 in shots]

    def shots_check(geos) -> Outcome:
        worst = 0.0
        for (x0, m0, _, _), geo in zip(shots, geos):
            d = coneflow.cone_distance(coneflow.ConePoint(x0, m0),
                                       geo.endpoint, params)
            worst = max(worst, abs(d - 0.5 * geo.speed) / (0.5 * geo.speed))
        if worst >= 1e-6:
            return _fail(f"geodesic endpoint off the closed form by "
                         f"{worst:.3e}")
        return Outcome(True, worst)

    cases.append(Case("cone_geodesic_x23", run_shots, shots_check))
    return Workload(cases)


# -- the README pipeline through the CLI --------------------------------------

EULER_N = 256
EULER_T_FINAL = 0.25
EULER_AMPLITUDE = 0.2


def run_cli(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = coneflow.cli.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def build_euler_check_cli(seed: int, workdir: Path) -> Workload:
    """ch solve -> euler check -> minimality, run in-process via cli.main."""
    rng = np.random.default_rng(seed)
    s, reflect = _placement(rng, EULER_N)
    sign = -1.0 if reflect else 1.0
    grid = coneflow.grid.PeriodicGrid(EULER_N)
    u0 = sign * EULER_AMPLITUDE * np.sin(sign * grid.x - s)
    init = workdir / "u0.csv"
    with open(init, "w") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.x, u0))
    members_seed = int(rng.integers(1 << 30))
    traj_path = workdir / "run.csv"
    solve_argv = ["ch", "solve", "--n", str(EULER_N), "--dt", "1e-3",
                  "--t-final", str(EULER_T_FINAL), "--init", f"file:{init}",
                  "--out", "run.csv"]
    check_argv = ["euler", "check", "--traj", str(traj_path)]
    minimality_argv = ["minimality", "--init", "const:1", "--members", "100",
                       "--seed", str(members_seed)]

    def solve_check(out) -> Outcome:
        code, body = out
        if code != 0:
            return _fail(f"ch solve exited {code}: {body}")
        if Path(body["out"]).resolve() != traj_path.resolve():
            return _fail(f"trajectory written to {body['out']}")
        if not body["energy_rel_drift"] < 1e-8:
            return _fail(f"energy drift {body['energy_rel_drift']:.3e}")
        return Outcome(True)

    def euler_check(out) -> Outcome:
        code, body = out
        if code != 0:
            return _fail(f"euler check exited {code}: {body}")
        if not body["max_div"] < 1e-10:
            return _fail(f"max_div {body['max_div']:.3e}")
        if not body["max_momentum_residual"] < 1e-5:
            return _fail(f"momentum residual "
                         f"{body['max_momentum_residual']:.3e}")
        if not body["pushforward_residual"] < 1e-10:
            return _fail(f"pushforward residual "
                         f"{body['pushforward_residual']:.3e}")
        # the residual is a time-discretisation error; scale it by the size
        # of the advective term, r_max * amplitude^2
        scale = max(body["radii"]) * EULER_AMPLITUDE ** 2
        return Outcome(True, body["max_momentum_residual"] / scale)

    def minimality_check(out) -> Outcome:
        code, body = out
        if code != 0:
            return _fail(f"minimality exited {code}: {body}")
        if not (body["geodesic_below_all"] and body["window_ok"]):
            return _fail(f"minimality not certified: {body}")
        return Outcome(True)

    return Workload([
        Case("cli_ch_solve", lambda: run_cli(solve_argv), solve_check),
        Case("cli_euler_check", lambda: run_cli(check_argv), euler_check),
        Case("cli_minimality", lambda: run_cli(minimality_argv),
             minimality_check),
    ])


BUILDERS = {
    "wfr_pairs16": build_wfr_pairs16,
    "wfr_grid128": build_wfr_grid128,
    "pde_steppers": build_pde_steppers,
    "euler_check_cli": build_euler_check_cli,
}
