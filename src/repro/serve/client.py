"""Client library for the sweep service (:mod:`repro.serve.server`).

:class:`SweepClient` is the thin transport: it POSTs a
:class:`~repro.serve.protocol.MatrixQuery` and yields the NDJSON
events as they stream in (stdlib ``http.client`` only — the response
is chunk-framed, and ``http.client`` decodes chunked transfer
transparently, so ``readline`` on the response object is the whole
streaming story).

:func:`run_sweep_remote` is the drop-in integration:
``run_sweep(..., server=URL)`` (or ``REPRO_SWEEP_SERVER`` in the
environment) routes here, and the assembled
:class:`~repro.core.experiment.SweepResult` is indistinguishable from
a locally executed sweep — same decoded results (the payloads are the
exact cache-entry documents the local path stores), same series/errors
assembly, same metrics counter schema, same host-telemetry snapshot
shape.  The benchmark harness and the ``repro sweep`` CLI therefore
need no sweep-shaped code of their own to go remote.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from repro.core.experiment import PAPER_THREADS, SweepResult
from repro.obs.metrics import MetricsRegistry, result_metrics
from repro.perf.spans import recording as perf_recording
from repro.perf.spans import span as perf_span
from repro.runtime.base import ExecContext
from repro.serve import protocol
from repro.serve.protocol import MatrixQuery

__all__ = ["ServerError", "SweepClient", "run_sweep_remote"]

#: Environment variable naming the sweep service to route through.
SERVER_ENV = "REPRO_SWEEP_SERVER"


class ServerError(RuntimeError):
    """The service refused or aborted a query."""


class SweepClient:
    """Blocking HTTP client for one sweep service endpoint.

    ``url`` accepts ``http://host:port`` or bare ``host:port``.
    """

    def __init__(self, url: str, timeout: float = 600.0) -> None:
        if "//" not in url:
            url = "http://" + url
        parts = urlsplit(url)
        if parts.scheme not in ("", "http"):
            raise ValueError(f"sweep service URL must be http://, got {url!r}")
        if not parts.hostname:
            raise ValueError(f"sweep service URL has no host: {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _connection(self):
        import http.client

        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _get_json(self, path: str) -> dict[str, Any]:
        conn = self._connection()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise ServerError(f"GET {path} -> {resp.status}: {body[:200]!r}")
            return json.loads(body.decode("utf-8"))
        finally:
            conn.close()

    def health(self) -> bool:
        """True when the service answers its health probe."""
        try:
            return bool(self._get_json("/healthz").get("ok"))
        except (OSError, ServerError, ValueError):
            return False

    def stats(self) -> dict[str, Any]:
        """The server's live telemetry snapshot (``serve.*`` counters)."""
        return self._get_json("/stats")

    def query(self, query: MatrixQuery) -> Iterator[dict[str, Any]]:
        """POST one matrix query; yield protocol events as they stream.

        Raises :class:`ServerError` on a non-200 answer or a ``fatal``
        event (the server aborted mid-stream, e.g. a worker crash).
        """
        body = json.dumps(query.to_dict(), separators=(",", ":")).encode("utf-8")
        conn = self._connection()
        try:
            conn.request(
                "POST",
                "/sweep",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            if resp.status != 200:
                detail = resp.read().decode("utf-8", "replace").strip()
                raise ServerError(f"POST /sweep -> {resp.status}: {detail[:500]}")
            while True:
                line = resp.readline()
                if not line:
                    raise ServerError("stream ended before the 'end' event "
                                      "(server died mid-query?)")
                if not line.strip():
                    continue
                event = protocol.decode_event(line)
                if event["type"] == "fatal":
                    raise ServerError(f"server aborted query: {event['error']}")
                yield event
                if event["type"] == "end":
                    # The protocol is self-terminating: 'end' is always
                    # the last event, so don't hold the generator open
                    # waiting on transport EOF.
                    break
        finally:
            conn.close()


def run_sweep_remote(
    workload: str,
    versions: Optional[Sequence[str]] = None,
    threads: Sequence[int] = PAPER_THREADS,
    ctx: Optional[ExecContext] = None,
    *,
    params: Optional[Mapping[str, Any]] = None,
    fidelity: int = 2,
    trace: bool = False,
    refresh: bool = False,
    server: str,
    metrics: Optional[MetricsRegistry] = None,
    progress=None,
) -> SweepResult:
    """Serve one sweep from a running service; returns a ``SweepResult``.

    The result is assembled exactly like the local executor's phase 3:
    every cell event's payload is decoded through the same
    ``_decode_entry``/codec pipeline a cache hit uses, so results are
    byte-identical to the direct :func:`~repro.sweep.run_sweep` path.
    Counter mapping: server ``hits`` → ``cache_hits``, ``runs`` →
    ``simulations``/``estimates`` (by tier), ``dedup_joins`` →
    ``dedup_hits`` — a warm service answers with ``simulations == 0``
    just like a warm local cache.
    """
    from repro.sweep.executor import _decode_entry

    # Protocol v1 serves one execution context per server (the default
    # paper machine) — exactly like one cache directory serves one
    # context's entries.  A custom machine/costs/seed sweep silently
    # answered from the server's context would be *wrong*, not slow, so
    # refuse it here instead.
    if ctx is not None and ctx != ExecContext():
        raise ValueError(
            "server mode serves the default execution context (protocol v1); "
            "sweeps under a custom machine/cost-model/seed context must run "
            "locally (drop server=/REPRO_SWEEP_SERVER)"
        )
    query = MatrixQuery(
        workload=workload,
        versions=tuple(versions) if versions is not None else None,
        threads=tuple(threads),
        params=dict(params or {}),
        fidelity=int(fidelity),
        trace=bool(trace),
        refresh=bool(refresh),
    )
    spec, config, cells = protocol.expand_query(query)
    slots = {(c.version, c.nthreads): i for i, c in enumerate(cells)}
    client = SweepClient(server)
    reg = metrics if metrics is not None else MetricsRegistry()
    for name in ("sweep_cells", "cache_hits", "cache_misses", "cache_stores",
                 "cache_evictions", "simulations", "estimates", "sweep_errors",
                 "dedup_hits"):
        reg.counter(name)
    reg.counter("sweep_cells").inc(len(cells))

    sweep = SweepResult(config=config, figure=spec.figure, metrics=reg)
    done = 0
    with perf_recording("sweep") as host:
        with perf_span("serve.client_request"):
            events = client.query(query)
            expected_digest = protocol.context_digest(ExecContext())
            for event in events:
                if event["type"] == "start":
                    if event.get("ctx") and event["ctx"] != expected_digest:
                        raise ServerError(
                            "server simulates a different execution context "
                            "(machine/costs/seed) than this client expects; "
                            "refusing to mix result spaces"
                        )
                elif event["type"] == "cell":
                    slot = (event["version"], int(event["nthreads"]))
                    if slot not in slots:
                        raise ServerError(f"server answered unknown cell {slot}")
                    with perf_span("codec.decode"):
                        decoded = _decode_entry(event["payload"], query.fidelity)
                    if decoded is None:
                        raise ServerError(
                            f"undecodable payload for cell {slot} "
                            "(format/fidelity mismatch — server and client "
                            "package versions agree?)"
                        )
                    res, err = decoded
                    done += 1
                    if err is not None:
                        sweep.errors[slot] = err
                        reg.counter("sweep_errors").inc()
                    elif res is not None:
                        sweep.results[slot] = res
                        reg.merge(result_metrics(res))
                    if progress is not None:
                        progress(done, len(cells), cells[slots[slot]],
                                 event["status"])
                elif event["type"] == "end":
                    counters = event["counters"]
                    reg.counter("cache_hits").inc(counters.get("hits", 0))
                    reg.counter("cache_misses").inc(counters.get("runs", 0))
                    owned = counters.get("runs", 0) - counters.get("dedup_joins", 0)
                    sim_counter = "estimates" if query.fidelity == 0 else "simulations"
                    reg.counter(sim_counter).inc(max(0, owned))
                    reg.counter("dedup_hits").inc(counters.get("dedup_joins", 0))
    if done != len(cells):
        raise ServerError(f"server settled {done}/{len(cells)} cells")
    for v in config.versions:
        sweep.series[v] = [
            sweep.results[(v, p)].time if (v, p) in sweep.results else None
            for p in config.threads
        ]
    if host is not None:
        sweep.perf = host.snapshot()
    return sweep
