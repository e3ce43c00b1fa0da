"""Outside-in host tracing: spans around each layer's public entry point.

Nothing in ``src/`` is modified.  :func:`instrument` swaps each layer's
entry point for a wrapper that records a span (name, start, end, parent)
into per-thread in-memory logs and restores the originals on exit, the
same seam ``benchmarks/conftest.py`` uses for ``run_program``.  Spans are
turned into per-layer *self* times (a span's duration minus the part of
it that its child spans cover) by :func:`self_times` / :func:`layer_totals`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator, Optional, Union

#: Loop/graph executor name -> executor family reported as ``runtime.<F>``.
FAMILIES = {
    "threadpool_graph": "threadpool",
    "charm_loop": "charm",
    "charm_graph": "charm",
    "hpx_loop": "hpx",
    "hpx_graph": "hpx",
    "mpi_loop": "mpi",
    "mpi_graph": "mpi",
}


def region_family(region) -> str:
    executor = getattr(region, "executor", None)
    if executor is None:
        return "serial"
    return FAMILIES.get(executor, executor)


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "counts")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        # one span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """In-memory span recorder; one log per thread, merged on read."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self.logs.append(log)
            self._local.log = log
        return log

    def _open(self, log: _ThreadLog, name: str) -> list:
        span = [name, 0.0, 0.0, log.stack[-1] if log.stack else -1, None]
        log.stack.append(len(log.spans))
        log.spans.append(span)
        span[1] = perf_counter()
        return span

    @staticmethod
    def _close(log: _ThreadLog, span: list) -> None:
        span[2] = perf_counter()
        log.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        log = self._log()
        span = self._open(log, name)
        try:
            yield
        finally:
            self._close(log, span)

    def count(self, name: str, n: float = 1) -> None:
        """Add to a per-thread counter (no span)."""
        self._log().counts[name] += n

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[..., str]],
        attrs: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments; ``attrs``
        maps ``(args, kwargs, result)`` to counts stored on the span.  A
        layer that re-enters itself (a builder falling back to its
        scalar twin) stays one span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if log.stack and log.spans[log.stack[-1]][0] == label:
                return fn(*args, **kwargs)
            span = self._open(log, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(log, span)
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """``fn`` returning a generator; each ``next`` is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            log = self._log()
            try:
                while True:
                    span = self._open(log, name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(log, span)
                    yield item
            finally:
                gen.close()

        return wrapper

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for log in self.logs:
            for k, v in log.counts.items():
                total[k] += v
        return dict(total)

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for t, log in enumerate(self.logs):
                for i, (name, start, end, parent, attrs) in enumerate(log.spans):
                    fh.write(json.dumps(
                        {"thread": t, "id": i, "parent": parent, "name": name,
                         "start": start, "end": end, "attrs": attrs},
                        separators=(",", ":")) + "\n")
                    n += 1
        return n


# ---------------------------------------------------------------------------
# arithmetic over spans
# ---------------------------------------------------------------------------
def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _attrs) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ())]
        covered = union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out.append(end - start - covered)
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: summed self time ``s``, span count ``calls`` and
    the sum of every count the spans carried."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for log in tracer.logs:
        for span, own in zip(log.spans, self_times(log.spans)):
            row = totals[span[0]]
            row["s"] += own
            row["calls"] += 1
            for k, v in (span[4] or {}).items():
                row[k] += v
    return {k: dict(v) for k, v in totals.items()}


def coverage(tracer: Tracer, windows: list[tuple[float, float]]) -> float:
    """Share of the windows' wall time that root spans cover, per thread.

    Each thread that recorded spans contributes the full window length
    to the denominator, so an idle client thread lowers coverage.
    """
    wall = sum(hi - lo for lo, hi in windows)
    logs = [log for log in tracer.logs if log.spans]
    if wall <= 0 or not logs:
        return 0.0
    covered = 0.0
    for log in logs:
        roots = [(s[1], s[2]) for s in log.spans if s[3] < 0]
        for lo, hi in windows:
            clipped = [(max(a, lo), min(b, hi)) for a, b in roots]
            covered += union_length([(a, b) for a, b in clipped if b > a])
    return covered / (wall * len(logs))


# ---------------------------------------------------------------------------
# the layer entry points
# ---------------------------------------------------------------------------
def _tasks_of_graph(_args, _kwargs, graph) -> dict:
    return {"tasks": len(graph)}


def _region_counts(_args, _kwargs, res) -> dict:
    return {
        "tasks": sum(w.tasks for w in res.workers),
        "events": res.meta.get("events", 0),
    }


def _get_counts(_args, _kwargs, payload) -> dict:
    return {"hits": int(payload is not None)}


def _put_counts(_args, _kwargs, path) -> dict:
    return {"bytes": path.stat().st_size}


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's entry point for the duration of the block."""
    from repro.core import registry
    from repro.runtime import run, workstealing
    from repro.serve import client, protocol
    from repro.sim import task, tiers
    from repro.sweep import cache, codec, executor

    def decode_event(fn):
        @functools.wraps(fn)
        def wrapper(line):
            tracer.count("codec.bytes", len(line))
            return fn(line)
        return wrapper

    patches = [
        (registry.WorkloadSpec, "build", lambda f: tracer.wrap(f, "registry.build")),
        (task.TaskRegion, "graph_for",
         lambda f: tracer.wrap(f, "task.graph_for", _tasks_of_graph)),
        (run, "execute_region", lambda f: tracer.wrap(
            f, lambda region, *a, **k: "runtime." + region_family(region),
            _region_counts)),
        (tiers, "estimate_program", lambda f: tracer.wrap(f, "tiers.estimate")),
        (codec, "result_to_dict", lambda f: tracer.wrap(f, "codec.encode")),
        (codec, "result_from_dict", lambda f: tracer.wrap(f, "codec.decode")),
        (executor, "cache_key", lambda f: tracer.wrap(f, "cache.key")),
        (cache.ResultCache, "get", lambda f: tracer.wrap(f, "cache.get", _get_counts)),
        (cache.ResultCache, "put", lambda f: tracer.wrap(f, "cache.put", _put_counts)),
        (client.SweepClient, "query",
         lambda f: tracer.wrap_generator(f, "serve.client")),
        (protocol, "decode_event", decode_event),
    ]
    for name in ("cilk_for_graph", "cilk_for_graph_batched", "flat_chunk_graph"):
        patches.append((workstealing, name, lambda f: tracer.wrap(
            f, "workstealing.build", _tasks_of_graph)))
    saved = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
