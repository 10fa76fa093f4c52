"""coneflow benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the workload's cases run in a closed loop, pass after pass,
until S seconds have gone, and the end-to-end metrics are reported.  Times
are reported in reference seconds (see calibration.py): each case's wall
time is scaled by a fixed numpy kernel timed right before and after it,
which cancels the drift of a shared host's speed; the raw wall-clock
figures are printed in the report lines.  With
--trace 1 the run makes one pass without tracing and two traced passes
and reports the per-layer metrics (see tracer.py); the difference
between the plain and the traced pass is the tracing overhead.  Every
case's output is checked; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Lines before it are a
readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bootstrap

WORKLOADS = ("wfr_pairs16", "wfr_grid128", "pde_steppers", "euler_check_cli")
SETUP_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Fresh processes that import, build inputs and a parser.

    Returns (wall seconds, reference seconds) per probe; the reference
    time uses the calibration kernel timed before and after the probe in
    this process and twice inside the probe.
    """
    import calibration
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    cal = calibration.kernel_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(probe), "--workload",
                               workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        inside = json.loads(proc.stdout.strip().splitlines()[-1])
        wall -= inside["spent"]
        cal_after = calibration.kernel_seconds()
        speed = [cal, cal_after] + inside["rounds"]
        times.append((wall, calibration.to_reference(wall, speed)))
        cal = cal_after
    return times


def log(msg: str) -> None:
    print(msg, flush=True)


def run_pass(workload, probe_speed=True):
    """Run every case once, timing the calibration kernel around it.

    Returns (wall latencies, reference latencies, outcomes).  With
    probe_speed the kernel is also sampled during each case, and the
    samples' own time is taken out of the case's wall time.
    """
    import calibration
    from workloads import Outcome
    walls, refs, outcomes = [], [], []
    cal = calibration.kernel_seconds()
    for case in workload.cases:
        probe = calibration.SpeedProbe()
        start = time.perf_counter()
        outcome = None
        try:
            with probe if probe_speed else contextlib.nullcontext():
                result = case.run()
        except Exception as exc:  # a failing case is counted, not fatal
            outcome = Outcome(False, None,
                              f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start - probe.spent
        if outcome is None:
            try:
                outcome = case.check(result)
            except Exception as exc:
                outcome = Outcome(False, None, f"check raised "
                                  f"{type(exc).__name__}: {exc}")
        cal_after = calibration.kernel_seconds()
        walls.append(wall)
        refs.append(calibration.to_reference(
            wall, [cal, cal_after] + probe.samples))
        cal = cal_after
        if not outcome.ok:
            log(f"FAIL {case.name}: {outcome.detail}")
        outcomes.append(outcome)
    return walls, refs, outcomes


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS}}


def end_to_end(args, workload):
    passes, rel_errs = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        walls, refs, outcomes = run_pass(workload)
        passes.append((walls, refs))
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        rel_errs += [o.rel_err for o in outcomes
                     if o.ok and o.rel_err is not None]
    # medians over passes; quantiles over the case latencies of whole
    # passes only, so every case is weighted alike
    summary = {}
    for kind, index in (("wall", 0), ("reference", 1)):
        pooled = [x for p in passes for x in p[index]]
        q = quartiles(pooled)
        summary[kind] = (statistics.median(sum(p[index]) for p in passes),
                         q[1], q[2])
    wall, p50, p75 = summary["wall"]
    log(f"wall_s {wall!r} s  solve_p50_s {p50!r} s  solve_p75_s {p75!r} s "
        "(raw wall clock, not reported as metrics)")
    log(f"passes {len(passes)}  case samples {len(pooled)}  "
        f"samples above p75 {sum(x > q[2] for x in pooled)}")
    log(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    wall, p50, p75 = summary["reference"]
    metrics = {"wall_ref_s": (wall, "s"), "solve_p50_ref_s": (p50, "s"),
               "solve_p75_ref_s": (p75, "s"),
               "rel_err_max": (max(rel_errs) if rel_errs else None, "ratio")}
    return metrics, attempted, failed


def traced(args, workload):
    """One plain pass, then two traced passes whose counts must agree."""
    from tracer import Tracer
    attempted = failed = 0
    walls, _, outcomes = run_pass(workload, probe_speed=False)
    plain_wall = sum(walls)
    attempted += len(outcomes)
    failed += sum(not o.ok for o in outcomes)
    tracer = Tracer()
    runs = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            walls, _, outcomes = run_pass(workload, probe_speed=False)
            wall = sum(walls)
            attempted += len(outcomes)
            failed += sum(not o.ok for o in outcomes)
            layers, cover = tracer.summary()
            runs.append((wall, layers, dict(tracer.counts), cover))
    finally:
        restored = tracer.uninstall()
    bootstrap.OUT_ROOT.mkdir(exist_ok=True)
    spans_path = bootstrap.OUT_ROOT / f"spans-{args.workload}-{args.seed}.npz"
    tracer.save(spans_path)
    log(f"spans of the second traced pass written to {spans_path}")

    def exact_counts(run):
        _, lay, cnt, _ = run
        calls = {name: lay.get(name, {}).get("calls", 0)
                 for name in ("grid.trig_eval", "ch.ch_rhs",
                              "wfr.prox_action")}
        return calls, cnt.get("wfr.solve_wfr.iterations", 0)

    wall, layers, counts, cover = runs[-1]
    checks = {"wrappers_restored": restored,
              "counts_repeat": exact_counts(runs[0]) == exact_counts(runs[1])}
    remainder = wall - cover["roots_s"]
    checks["self_time_adds_up"] = (
        cover["nested_ok"] and remainder >= 0
        and abs(cover["self_total_s"] + remainder - wall) <= 1e-9 * wall)
    for name, ok in checks.items():
        log(f"self-check {name}: {'ok' if ok else 'FAILED'}")

    def layer(name):
        return layers.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    solves = layer("wfr.solve_wfr")
    iters = counts.get("wfr.solve_wfr.iterations", 0)
    rhs = layer("ch.ch_rhs")
    metrics = {
        "wfr.iterations": (iters, "count"),
        "wfr.us_per_iter": (1e6 * solves["incl_s"] / iters if iters else 0.0,
                            "us"),
        "wfr.converged_frac": (counts.get("wfr.solve_wfr.converged", 0)
                               / solves["calls"] if solves["calls"] else 0.0,
                               "ratio"),
    }
    for name in ("wfr.prox_action", "wfr.continuity_project",
                 "wfr.solve_wfr", "grid.trig_eval", "grid.invert_lift",
                 "ch.ch_rhs", "submersion.horizontal_lift"):
        metrics[f"{name}.calls"] = (layer(name)["calls"], "count")
        metrics[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    metrics["grid.trig_eval.points"] = (counts.get("grid.trig_eval.points", 0),
                                        "count")
    metrics["grid.trig_eval.bytes_computed"] = (
        counts.get("grid.trig_eval.bytes_computed", 0), "B")
    metrics["ch.ch_rhs.us_per_call"] = (
        1e6 * rhs["incl_s"] / rhs["calls"] if rhs["calls"] else 0.0, "us")
    for name in ("ch.ch_solve", "ch.flow_map", "euler.euler_residual",
                 "euler.geodesic_form_consistency",
                 "euler.lagrangian_measure_check",
                 "submersion.hessian_certificate",
                 "submersion.minimality_test", "cone.cone_geodesic",
                 "formats.write_trajectory_csv",
                 "formats.read_trajectory_csv", "cli.ch_solve",
                 "cli.euler_check", "cli.minimality", "wfr.horizontal_flow"):
        metrics[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    metrics["euler.pressure_from_state.calls"] = (
        layer("euler.pressure_from_state")["calls"], "count")
    metrics["formats.bytes_written"] = (
        counts.get("formats.write_trajectory_csv.bytes_written", 0), "B")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    metrics["trace.outside_spans_s"] = (remainder, "s")
    metrics["trace.spans"] = (cover["spans"], "count")
    return metrics, attempted, failed, all(checks.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        bootstrap.prepare()
    except bootstrap.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import coneflow
    bootstrap.check_imported(coneflow)
    import workloads

    env = environment()
    log(f"environment {json.dumps(env, sort_keys=True)}")
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    bootstrap.TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=bootstrap.TMP_ROOT))
    os.environ["CONEFLOW_OUTDIR"] = str(workdir)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        for key, value in workload.diagnostics.items():
            log(f"diagnostic {key} {value!r}")
        if args.trace:
            metrics, attempted, failed, self_ok = traced(args, workload)
        else:
            metrics, attempted, failed = end_to_end(args, workload)
            self_ok = True
            metrics["setup_s"] = (statistics.median(r for _, r in setup), "s")
            log(f"set-up wall seconds {[round(w, 4) for w, _ in setup]}, "
                f"reference seconds {[round(r, 4) for _, r in setup]}")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        log(f"{name} {value!r} {unit}")
    correct = failed == 0 and self_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
