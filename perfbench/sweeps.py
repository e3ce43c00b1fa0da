"""The three cold-sweep workloads: fixed matrices run through ``run_sweep``.

Every pass sweeps each matrix entry at the program's defaults (``jobs=1``,
validation off, host telemetry on) into a fresh write-through store, and
times each cell as the gap between consecutive ``progress`` callbacks.
A run makes at least three passes, so every cell has a median gap that
a burst of host noise in one pass does not move.
"""

from __future__ import annotations

import contextlib
import shutil
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from perfbench import reference

#: ROADMAP's long pole: recursive and patterned task graphs, no loop analytics.
GRAPH = (("fib", {"n": 18}), ("taskbench", {"width": 64}))
#: Loop kernels and Rodinia codes at registry defaults.
LOOP = tuple((w, {}) for w in ("axpy", "sum", "hotspot", "lud", "srad"))

#: workload name -> (matrix, fidelity tier)
SWEEPS = {
    "graph-sweep": (GRAPH, 2),
    "loop-sweep": (LOOP, 2),
    "estimate-sweep": (GRAPH + LOOP, 0),
}

#: passes a run makes at least
MIN_PASSES = 3


@dataclass
class SweepLog:
    """What a series of passes measured, plus every settled cell."""

    cells: int = 0
    seconds: float = 0.0
    passes: int = 0
    gaps: list = field(default_factory=list)
    #: cell id -> its gap in every pass
    by_cell: dict = field(default_factory=lambda: defaultdict(list))
    #: host seconds inside run_sweep per workload
    by_workload: dict = field(default_factory=lambda: defaultdict(float))
    #: (cell id, digest, simulated time or None)
    settled: list = field(default_factory=list)
    #: (start, end) of every pass, for trace coverage
    windows: list = field(default_factory=list)


def run_pass(matrix, fidelity: int, store_dir, log: SweepLog, tracer=None) -> None:
    """Sweep every matrix entry once, cold, into a fresh store.

    The pass's window closes when the last sweep returns; digesting the
    results and removing the store happen after it.
    """
    from repro.sweep import ResultCache, run_sweep

    swept = []
    start = perf_counter()
    for workload, params in matrix:
        marks: list[tuple] = []

        def progress(done, total, cell, status, marks=marks):
            marks.append((perf_counter(), cell.version, cell.nthreads))

        store = ResultCache(store_dir)
        t0 = perf_counter()
        with tracer.span("executor") if tracer else contextlib.nullcontext():
            sweep = run_sweep(workload, params=params, fidelity=fidelity,
                              cache=store, progress=progress)
        t1 = perf_counter()
        prev = t0
        for mark, version, nthreads in marks:
            log.gaps.append(mark - prev)
            cid = reference.cell_id(workload, params, version, nthreads, fidelity)
            log.by_cell[cid].append(mark - prev)
            prev = mark
        log.cells += len(marks)
        log.seconds += t1 - t0
        log.by_workload[workload] += t1 - t0
        swept.append((workload, params, sweep))
    log.windows.append((start, perf_counter()))
    log.passes += 1
    for workload, params, sweep in swept:
        for version, nthreads, res, err in reference.outcomes(sweep):
            cid = reference.cell_id(workload, params, version, nthreads, fidelity)
            log.settled.append((cid, reference.cell_digest(res, err),
                                None if res is None else res.time))
    shutil.rmtree(store_dir, ignore_errors=True)


def run_for(seconds: float, matrix, fidelity: int, tmp, tracer=None,
            min_passes: int = MIN_PASSES) -> SweepLog:
    """Whole passes for about ``seconds``: at least ``min_passes``, and
    another one only while it is expected to end less than half a pass
    past ``seconds``.  Three passes give each cell a median gap that
    rejects one slow pass, and a p90 over the cell gaps ten samples
    beyond it."""
    log = SweepLog()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if log.passes >= min_passes and elapsed + elapsed / log.passes / 2 >= seconds:
            return log
        run_pass(matrix, fidelity, tmp / f"store-{log.passes}", log, tracer)


def check(log: SweepLog, checker: reference.Checker) -> None:
    for cid, digest, time in log.settled:
        checker.check(cid, digest, time)


def regenerate() -> dict[str, Any]:
    """Reference entries for every cell of every sweep matrix."""
    from repro.sweep import run_sweep

    cells: dict[str, Any] = {}
    for matrix, fidelity in SWEEPS.values():
        for workload, params in matrix:
            sweep = run_sweep(workload, params=params, fidelity=fidelity)
            for version, nthreads, res, err in reference.outcomes(sweep):
                cid = reference.cell_id(workload, params, version, nthreads, fidelity)
                cells[cid] = reference.entry(res, err)
    return cells
