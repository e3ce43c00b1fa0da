"""The served-replay workload: two closed-loop clients against ``repro serve``.

Set-up warms a store with the tier-2 default matrices of the cheap
workloads and starts ``repro serve --jobs 1`` on it.  Each client then
sends seeded random sub-matrix queries through ``run_sweep(server=...)``,
the next one only after the previous answer has been assembled.  Every
:data:`MISS_EVERY`-th query of each client asks for the same seeded fresh
problem size as the other client's, so those cells are tier-2 misses that
the server simulates once and single-flights or replays for the twin.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from perfbench import reference

#: Warm matrices (each is also a cell set of the pinned reference).
WARM = (("axpy", {}), ("sum", {}), ("hotspot", {}), ("taskbench", {"width": 64}))
#: One query in this many asks for a fresh problem size.
MISS_EVERY = 10
CLIENTS = 2


def warm_store(root) -> None:
    """Cold tier-2 sweeps of :data:`WARM` into the store at ``root``."""
    from repro.sweep import ResultCache, run_sweep

    for workload, params in WARM:
        run_sweep(workload, params=params, cache=ResultCache(root))


def _fresh_params(workload: str, rng: random.Random) -> dict[str, Any]:
    if workload in ("axpy", "sum"):
        return {"n": rng.randrange(200_000, 4_000_000, 1000)}
    if workload == "hotspot":
        return {"grid": rng.randrange(256, 1536, 16), "steps": rng.randint(1, 3)}
    return {"width": rng.randrange(8, 48), "steps": rng.randint(2, 6)}


@dataclass(frozen=True)
class Query:
    workload: str
    versions: tuple
    threads: tuple
    params: dict
    fresh: bool


def make_query(seed: int, client: int, index: int) -> Query:
    """The ``index``-th query of ``client``; a pure function of its inputs."""
    from repro.core.experiment import PAPER_THREADS
    from repro.core.registry import get_workload

    fresh = index % MISS_EVERY == MISS_EVERY - 1
    rng = random.Random(f"{seed}:miss:{index}" if fresh else f"{seed}:{client}:{index}")
    workload, params = WARM[rng.randrange(len(WARM))]
    spec = get_workload(workload)
    picked = set(rng.sample(spec.versions, rng.randint(1, 3)))
    versions = tuple(v for v in spec.versions if v in picked)
    threads = tuple(sorted(rng.sample(PAPER_THREADS, rng.randint(2, 4))))
    if fresh:
        params = _fresh_params(workload, rng)
    return Query(workload, versions, threads, dict(params), fresh)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """``repro serve --jobs 1`` in its own process group."""

    def __init__(self, store, log_path, env) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
             "--cache-dir", str(store)],
            stdout=subprocess.DEVNULL, stderr=self._log, env=env,
            start_new_session=True,
        )
        # server and clients on separate CPUs, as on separate hosts: the
        # clients' interpreter lock and the server's event loop would
        # otherwise trade one CPU back and forth
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(self.proc.pid, {cpus[-1]})
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        from repro.serve.client import SweepClient

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   f"{self.log_path.read_text()[-500:]}")
            if self.url is None:
                for line in self.log_path.read_text().splitlines():
                    if "listening on " in line:
                        self.url = line.split("listening on ", 1)[1].split()[0]
            if self.url is not None and SweepClient(self.url, timeout=5).health():
                return self.url
            time.sleep(0.01)
        raise RuntimeError("server did not answer its health probe in time")

    def stats(self) -> dict[str, Any]:
        from repro.serve.client import SweepClient

        return SweepClient(self.url).stats()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, wait, then make sure the whole process group is gone."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 30
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.02)
        self._log.close()


# ---------------------------------------------------------------------------
# the closed-loop clients
# ---------------------------------------------------------------------------
@dataclass
class ClientLog:
    requests: list = field(default_factory=list)  # request latencies
    gaps: list = field(default_factory=list)  # cell gaps
    cells: int = 0
    #: (query, sweep result or None, error text or None)
    answers: list = field(default_factory=list)
    next_index: int = 0


def _client(seed: int, client: int, url: str, deadline: float, log: ClientLog,
            tracer) -> None:
    from repro.sweep import run_sweep

    while perf_counter() < deadline:
        query = make_query(seed, client, log.next_index)
        log.next_index += 1
        marks: list[float] = []
        t0 = perf_counter()
        try:
            kwargs = dict(versions=query.versions, threads=query.threads,
                          params=query.params, server=url,
                          progress=lambda *_a: marks.append(perf_counter()))
            with tracer.span("executor") if tracer else contextlib.nullcontext():
                sweep = run_sweep(query.workload, **kwargs)
            failure = None
        except Exception as exc:  # a failed request is counted, not fatal
            sweep, failure = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        log.requests.append(t1 - t0)
        prev = t0
        for mark in marks:
            log.gaps.append(mark - prev)
            prev = mark
        log.cells += len(marks)
        log.answers.append((query, sweep, failure))


def replay(seed: int, url: str, seconds: float, logs: list, tracer=None
           ) -> tuple[float, float]:
    """Run the clients for ``seconds``; returns the (start, end) window.

    The client threads run on the first CPU, the server on the last.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
    start = perf_counter()
    threads = [
        threading.Thread(target=_client, name=f"client-{c}",
                         args=(seed, c, url, start + seconds, logs[c], tracer))
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, perf_counter()


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def _encoded(res, err) -> str:
    from repro.sweep import codec

    if err is not None or res is None:
        return json.dumps({"error": err})
    return json.dumps(codec.result_to_dict(res, with_trace=False), sort_keys=True)


def check(logs: list, checker: reference.Checker) -> set:
    """Check every served cell; returns the distinct fresh cells served.

    Warm cells must match the pinned digests.  A fresh cell must decode
    byte-identically to the same cell resolved locally.
    """
    from repro.sweep import run_sweep

    fresh: dict[tuple, list[str]] = {}
    for log in logs:
        for query, sweep, failure in log.answers:
            ncells = len(query.versions) * len(query.threads)
            if failure is not None:
                for _ in range(ncells):
                    checker.expect(f"{query.workload}{query.params}", False, failure)
                continue
            for version, nthreads, res, err in reference.outcomes(sweep):
                cid = reference.cell_id(query.workload, query.params, version,
                                        nthreads, 2)
                if not query.fresh:
                    checker.check(cid, reference.cell_digest(res, err),
                                  None if res is None else res.time)
                    continue
                key = (query.workload, json.dumps(query.params, sort_keys=True),
                       version, nthreads)
                fresh.setdefault(key, []).append(_encoded(res, err))
    for (workload, params, version, nthreads), served in sorted(fresh.items()):
        local = run_sweep(workload, versions=(version,), threads=(nthreads,),
                          params=json.loads(params))
        _v, _p, res, err = next(reference.outcomes(local))
        want = _encoded(res, err)
        for got in served:
            checker.attempted += 1
            if got != want:
                checker.fail(f"{workload}{params}/{version}/p{nthreads}",
                             "served cell differs from local resolution")
    return set(fresh)
