"""Stdlib-only helpers shared by the benchmark scripts.

Nothing here imports NumPy or symsq, so the set-up probe can time those
imports from a clean interpreter.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seeds the benchmark documents: the default for day-to-day runs, and one
# held out for confirming a claim made while tuning on the default.
DEFAULT_SEED = 1
HELD_OUT_SEED = 90017

WORKLOAD_NAMES = ("pair_verdicts", "lu_equivalence", "model_sweep", "oracle_concordance")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no symsq sources next to the benchmark."""


def pin_threads() -> None:
    """Force single-threaded BLAS; must run before NumPy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def add_src_path() -> None:
    """Make ``import symsq`` resolve to this checkout's ``src`` tree only."""
    if not (SRC / "symsq" / "__init__.py").is_file():
        raise SourceMissing(f"no symsq package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse a symsq that was imported from anywhere but this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SourceMissing(f"symsq was imported from {path}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, seconds: float) -> dict:
    import numpy as np

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "run_seconds": seconds,
    }
