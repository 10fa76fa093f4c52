"""Process set-up shared by the benchmark and its set-up probe.

Call ``prepare()`` before numpy is imported: it pins the BLAS/OpenMP
thread pools and puts the checkout's ``src`` first on the import path, so
the package measured is the one built from this checkout's source.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One thread per pool: the small arrays here are dispatch-bound, and a
# single thread keeps timings steady on a shared two-core machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"


class MissingSourceError(RuntimeError):
    """The checkout holds no coneflow source to benchmark."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "coneflow" / "__init__.py").is_file():
        raise MissingSourceError(f"no coneflow package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse to measure a coneflow imported from anywhere but src/."""
    where = Path(module.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSourceError(f"coneflow was imported from {where}")
