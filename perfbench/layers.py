"""Per-layer metrics of a traced run, named as in ``BENCHMARK.json``.

Every workload reports every metric; a layer a workload does not
exercise reads 0.  Times are self times (see :mod:`perfbench.tracing`).
"""

from __future__ import annotations

from typing import Mapping, Optional

#: executor families reported as ``runtime.<F>``
RUNTIME_FAMILIES = ("stealing", "stealing_loop", "worksharing", "threadpool",
                    "charm", "hpx", "mpi", "serial")
#: families whose executor drains a discrete-event queue
EVENT_FAMILIES = ("stealing", "stealing_loop")
#: workloads with a ``tiers.t2_over_t0.<workload>`` row
TIER_WORKLOADS = ("fib", "taskbench", "axpy", "sum", "hotspot", "lud", "srad")
#: ``GET /stats`` counters reported as ``serve.<name>``
SERVE_COUNTERS = (("requests", "serve.request"), ("cache_hits", "serve.cache_hit"),
                  ("dedup_hits", "serve.dedup_hit"),
                  ("simulations", "serve.simulations"))


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(
    totals: Mapping[str, Mapping[str, float]],
    counts: Mapping[str, float],
    *,
    import_s: float,
    coverage: float,
    overhead_ratio: float,
    t2_over_t0: Optional[Mapping[str, float]] = None,
    serve: Optional[Mapping[str, float]] = None,
) -> dict[str, dict[str, float | str]]:
    """The flat ``{name: {"value", "unit"}}`` per-layer metric set.

    ``serve`` carries the server's ``/stats`` counter deltas over the
    traced window plus ``request_s`` (its summed request seconds).
    """
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    def row(name: str) -> Mapping[str, float]:
        return totals.get(name, {})

    put("import.s", import_s, "s")
    build = row("registry.build")
    put("registry.build.s", build.get("s", 0.0), "s")
    put("registry.build.calls", build.get("calls", 0), "count")
    put("registry.build.us_per_call",
        _per(build.get("s", 0.0), build.get("calls", 0), 1e6), "us")
    for layer in ("task.graph_for", "workstealing.build"):
        r = row(layer)
        put(f"{layer}.s", r.get("s", 0.0), "s")
        put(f"{layer}.tasks", r.get("tasks", 0), "count")
        put(f"{layer}.ns_per_task", _per(r.get("s", 0.0), r.get("tasks", 0), 1e9), "ns")
    for fam in RUNTIME_FAMILIES:
        r = row(f"runtime.{fam}")
        put(f"runtime.{fam}.s", r.get("s", 0.0), "s")
        put(f"runtime.{fam}.tasks", r.get("tasks", 0), "count")
        put(f"runtime.{fam}.ns_per_task", _per(r.get("s", 0.0), r.get("tasks", 0), 1e9), "ns")
        if fam in EVENT_FAMILIES:
            put(f"runtime.{fam}.events", r.get("events", 0), "count")
            put(f"runtime.{fam}.ns_per_event",
                _per(r.get("s", 0.0), r.get("events", 0), 1e9), "ns")
    est = row("tiers.estimate")
    put("tiers.estimate.s", est.get("s", 0.0), "s")
    put("tiers.estimate.calls", est.get("calls", 0), "count")
    put("tiers.estimate.us_per_cell", _per(est.get("s", 0.0), est.get("calls", 0), 1e6), "us")
    for workload in TIER_WORKLOADS:
        put(f"tiers.t2_over_t0.{workload}", (t2_over_t0 or {}).get(workload, 0.0), "ratio")
    enc, dec = row("codec.encode"), row("codec.decode")
    nbytes = row("cache.put").get("bytes", 0) + counts.get("codec.bytes", 0)
    put("codec.encode.s", enc.get("s", 0.0), "s")
    put("codec.decode.s", dec.get("s", 0.0), "s")
    put("codec.bytes", nbytes, "B")
    put("codec.mb_per_s",
        _per(nbytes, enc.get("s", 0.0) + dec.get("s", 0.0), 1e-6), "MB/s")
    key, get, put_ = row("cache.key"), row("cache.get"), row("cache.put")
    put("cache.key.s", key.get("s", 0.0), "s")
    put("cache.get.s", get.get("s", 0.0), "s")
    put("cache.put.s", put_.get("s", 0.0), "s")
    put("cache.gets", get.get("calls", 0), "count")
    put("cache.puts", put_.get("calls", 0), "count")
    put("cache.hit_ratio", _per(get.get("hits", 0), get.get("calls", 0), 1.0), "ratio")
    put("cache.us_per_get", _per(get.get("s", 0.0), get.get("calls", 0), 1e6), "us")
    put("cache.us_per_put", _per(put_.get("s", 0.0), put_.get("calls", 0), 1e6), "us")
    put("executor.self.s", row("executor").get("s", 0.0), "s")
    put("serve.client.s", row("serve.client").get("s", 0.0), "s")
    serve = serve or {}
    for name, _counter in SERVE_COUNTERS:
        put(f"serve.{name}", serve.get(name, 0), "count")
    put("serve.dedup_ratio",
        _per(serve.get("dedup_hits", 0),
             serve.get("dedup_hits", 0) + serve.get("simulations", 0), 1.0), "ratio")
    put("serve.request.s", serve.get("request_s", 0.0), "s")
    put("trace.coverage", coverage, "ratio")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
