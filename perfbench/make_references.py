"""Regenerate references.json, the certified distances the workloads check.

Run from the root of a checkout:  python3 perfbench/make_references.py

Each entry is solved twice by the barrier method of references.py: on the
pool input and on one image of it under the grid symmetries the workloads
draw from (rotation, reflection, time reversal), which has the same exact
answer.  ``spread`` is their relative difference; ``gap`` is the larger
of the two certified relative duality gaps of the action.  The table is
computed once, outside any timed or set-up section.  The uniform pair's
entry is the exact discrete optimum of its one-dimensional problem.
"""
from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import references  # noqa: E402
import workloads  # noqa: E402


def certify(rho0, rho1, nt, image_seed):
    d, gap, change, steps = references.barrier_reference(rho0, rho1, nt)
    rng = np.random.default_rng(image_seed)
    a, b = workloads.random_image(rng, rho0, rho1)
    d2, gap2, _, _ = references.barrier_reference(a, b, nt)
    return {"distance": d, "spread": abs(d - d2) / d, "gap": max(gap, gap2),
            "last_stage_change": change, "newton_steps": steps}


def main() -> int:
    table = {"method": "log-barrier interior point on the source-eliminated "
                       "staggered action; see perfbench/references.py",
             "wfr_pairs16": [], "wfr_grid128": {}}
    for index, (r0, r1) in enumerate(workloads.pairs16_pool()):
        entry = certify(r0, r1, 16, index)
        table["wfr_pairs16"].append(entry)
        print(f"pair{index:02d}", entry, file=sys.stderr, flush=True)
    for name, r0, r1, kw in workloads.grid128_configs():
        if name in ("separated", "colocated"):
            entry = certify(r0, r1, kw["nt"], 100)
        elif name == "uniform":
            entry = {"distance": references.uniform_reference(
                r0[0], r1[0], kw["nt"])}
        else:
            continue
        table["wfr_grid128"][name] = entry
        print(name, entry, file=sys.stderr, flush=True)
    with open(workloads.REFERENCE_TABLE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
