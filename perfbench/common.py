"""Shared helpers: locating the program, statistics, result records.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` next to this directory.  Everything it writes goes
under ``.perfbench_out/`` in that checkout.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def use_program() -> None:
    """Put the checkout's ``src/`` on ``sys.path``, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(
            f"no program found: {os.path.join(SRC, 'repro')} is missing"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def stop_helper_processes() -> None:
    """Stop and wait for the helper processes ``multiprocessing`` leaves.

    The service's spawn workers share semaphores, so ``multiprocessing``
    starts a resource-tracker process.  It is not a tracked child: on its
    own it exits only after this interpreter has gone, so it would
    outlive the benchmark.  Registered with ``atexit``, this first runs
    ``multiprocessing``'s own exit hook (it runs once, whichever caller
    comes first: it joins the workers and releases their semaphores),
    then closes the tracker's pipe and waits for the tracker to end.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    import multiprocessing.util

    multiprocessing.util._exit_function()
    tracker._resource_tracker._stop()


def out_path(*parts: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, *parts)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))
    return float(s[k])


def geomean(values: Sequence[float]) -> float:
    return float(statistics.geometric_mean(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Counts operations and their failures (an operation is one design
    run or one service job; it fails if it raises or its outputs are
    wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def ok_rate(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def result_line(tally: Tally, metrics: Dict[str, tuple]) -> dict:
    """The final stdout record: ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }
