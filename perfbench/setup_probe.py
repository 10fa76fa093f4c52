"""One set-up, in a fresh interpreter, as a user pays it before any solve.

Imports the package, builds the workload's inputs for the seed, builds the
CLI parser and makes and removes a temporary output directory.  run.py
times this whole process from outside, several times, for setup_s.  The
calibration kernel is timed once after numpy is imported and once at the
end; the last stdout line reports those per-round times and the seconds
they took, which run.py takes out of the probe's wall time.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import bootstrap


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    bootstrap.prepare()
    import calibration
    start = time.perf_counter()
    rounds = [calibration.kernel_seconds(calibration.ROUNDS_DURING)]
    spent = time.perf_counter() - start
    import coneflow.cli
    bootstrap.check_imported(coneflow.cli)
    import workloads
    bootstrap.TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=bootstrap.TMP_ROOT))
    try:
        workloads.BUILDERS[args.workload](args.seed, workdir)
        coneflow.cli.build_parser()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    rounds.append(calibration.kernel_seconds(calibration.ROUNDS_DURING))
    spent += time.perf_counter() - start
    print(json.dumps({"rounds": rounds, "spent": spent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
