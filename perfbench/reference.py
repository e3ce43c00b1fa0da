"""The pinned correctness reference every benchmark run is checked against.

``reference.json`` holds, for every cell of the fixed sweep matrices, a
SHA-256 digest over the cell's simulated time, every region's per-worker
statistics and its error text, plus the simulated time itself (the tier-2
times are what each tier-0 estimate's error is measured against).  Floats
enter the digest through ``repr``, so a one-ulp change in any time is a
mismatch.

Regenerate it (only when a change is *meant* to move simulated results)
with ``python3 perfbench/run.py --regenerate``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Mapping, Optional

PATH = pathlib.Path(__file__).with_name("reference.json")


def cell_id(workload: str, params: Mapping[str, Any], version: str, nthreads: int,
            fidelity: int) -> str:
    tag = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{workload}[{tag}]/{version}/p{nthreads}/t{fidelity}"


def cell_digest(res, err: Optional[str]) -> str:
    """Digest of a settled cell: simulated time, per-worker stats, error."""
    if err is not None:
        doc: list = ["error", err]
    elif res is None:  # the sweep dropped the cell: never matches
        doc = ["missing"]
    else:
        doc = [
            res.time,
            [
                [r.time, r.nthreads,
                 [[w.busy, w.overhead, w.tasks, w.steals, w.failed_steals]
                  for w in r.workers]]
                for r in res.regions
            ],
        ]
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def outcomes(sweep):
    """``(version, nthreads, result or None, error or None)`` per cell."""
    for version in sweep.config.versions:
        for nthreads in sweep.config.threads:
            slot = (version, nthreads)
            yield version, nthreads, sweep.results.get(slot), sweep.errors.get(slot)


def entry(res, err: Optional[str]) -> dict[str, Any]:
    return {
        "digest": cell_digest(res, err),
        "time": None if err is not None else res.time,
        "error": err,
    }


def load(path: pathlib.Path = PATH) -> dict[str, dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def write(cells: Mapping[str, Mapping[str, Any]], path: pathlib.Path = PATH) -> None:
    """One cell a line, sorted, so a regenerated reference diffs by cell."""
    about = ("Pinned per-cell digests (simulated time, per-worker stats, error "
             "text) and simulated times; regenerate with "
             "`python3 perfbench/run.py --regenerate`.")
    lines = [f"{json.dumps(k)}: {json.dumps(cells[k], sort_keys=True)}"
             for k in sorted(cells)]
    path.write_text(f'{{"about": {json.dumps(about)},\n"cells": {{\n'
                    + ",\n".join(lines) + "\n}}\n", encoding="utf-8")


class Checker:
    """Compares settled cells against the reference and tallies failures."""

    def __init__(self, cells: Mapping[str, Mapping[str, Any]]) -> None:
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: largest relative error of a tier-0 estimate vs its tier-2 twin
        self.tier0_err_max = 0.0

    def fail(self, cid: str, why: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{cid}: {why}")

    def expect(self, what: str, ok: bool, why: str) -> None:
        """One check that is not a cell, such as the server's accounting."""
        self.attempted += 1
        if not ok:
            self.fail(what, why)

    def check(self, cid: str, digest: str, time: Optional[float]) -> bool:
        """One settled cell; ``time`` is its simulated time (None on error)."""
        self.attempted += 1
        pinned = self.cells.get(cid)
        if pinned is None:
            self.fail(cid, "no pinned reference")
            return False
        if digest != pinned["digest"]:
            self.fail(cid, f"digest {digest[:12]} != pinned {pinned['digest'][:12]}")
            return False
        if cid.endswith("/t0") and time is not None:
            twin = self.cells.get(cid[:-1] + "2")
            if twin is None or twin["time"] is None:
                self.fail(cid, "no pinned tier-2 twin")
                return False
            err = abs(time - twin["time"]) / twin["time"]
            self.tier0_err_max = max(self.tier0_err_max, err)
        return True
