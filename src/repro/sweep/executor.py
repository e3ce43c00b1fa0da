"""Parallel sweep executor with write-through result caching.

:func:`run_sweep` is the engine behind :func:`repro.core.experiment.run_experiment`
and the ``repro sweep`` CLI.  It expands an experiment matrix into
independent :class:`~repro.sweep.cells.SweepCell` instances and drives
each one through exactly one of three paths:

- **cache hit** — the cell's content address (:func:`~repro.sweep.cache.cache_key`)
  resolves to a stored payload, which is decoded without simulating;
- **parallel simulation** — with ``jobs > 1`` on a platform that can
  ``fork``, cells fan out across OS processes via
  :class:`concurrent.futures.ProcessPoolExecutor`;
- **serial simulation** — with ``jobs <= 1``, or when the platform
  lacks ``fork``, cells run in-process through the same
  :func:`~repro.runtime.run.run_program` the legacy loop used.

The ``fidelity`` tier (:mod:`repro.sim.tiers`) selects *what* runs at
each cell: the discrete-event simulation (2) or the closed-form tier-0
estimator (0, always in-process — an estimate costs microseconds).  The
tier is part of the cell's cache address and is stamped into the stored
payload, so an estimate can never be replayed as a simulation.

All three paths are bit-identical: the simulator is deterministic, and
the JSON codec round-trips floats exactly, so a parallel or replayed
sweep produces the same times, worker statistics and trace events as a
serial one (enforced by ``tests/test_golden_traces.py`` and
``tests/test_sweep_executor.py``).

Completed cells are written through to the cache *as they finish*, so
an interrupted sweep resumes deterministically: re-running it replays
the finished cells and simulates only the missing ones.  Failures that
the sweep semantics expect (:class:`~repro.runtime.base.ThreadExplosionError`,
the paper's C++11 fib hang) are recorded — and cached — as cell errors
without poisoning the worker pool; any other worker exception is
re-raised in the parent.

Progress and accounting go through one
:class:`~repro.obs.metrics.MetricsRegistry`: ``sweep_cells``,
``cache_hits`` / ``cache_misses`` / ``cache_stores`` /
``cache_evictions``, ``simulations`` and ``sweep_errors`` counters,
plus the merged per-run metrics of every successful cell.

Host telemetry (:mod:`repro.perf`) is threaded through every phase:
the whole sweep runs under one perf recording whose snapshot is
attached as ``SweepResult.perf``, with named spans for cache keying
and probes (``cache.*``), payload encode/decode (``codec.*``),
in-process simulation/estimation (``cell.*``) and process-pool fan-out
(``fanout.*``) — the vocabulary ``repro perf report`` attributes host
wall time in.  With ``REPRO_PERF_OFF=1`` (or outside any recording)
all of it is inert and results are bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from dataclasses import asdict
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.core.experiment import PAPER_THREADS, ExperimentConfig, SweepResult
from repro.core.registry import get_workload
from repro.faults.policy import RegionFailedError
from repro.obs.metrics import MetricsRegistry, result_metrics
from repro.perf.spans import counter as perf_count
from repro.perf.spans import recording as perf_recording
from repro.perf.spans import span as perf_span
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import run_program
from repro.sim.trace import SimResult
from repro.sweep import codec
from repro.sweep.cache import ResultCache, cache_key
from repro.sweep.cells import SweepCell, expand_cells

__all__ = ["PAYLOAD_FORMAT", "run_sweep"]

#: Version stamp of the cached cell payload layout.
PAYLOAD_FORMAT = 1

#: ``progress`` callback signature: (done, total, cell, status) with
#: status one of "hit", "run", "error".
ProgressFn = Callable[[int, int, SweepCell, str], None]


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------
def _cell_payload(
    cell: SweepCell, ctx: ExecContext, trace: bool, validate: bool
) -> dict[str, Any]:
    """Self-contained, picklable description of one cell execution."""
    return {
        "workload": cell.workload,
        "version": cell.version,
        "nthreads": cell.nthreads,
        "params": dict(cell.params),
        "machine": asdict(ctx.machine),
        "costs": asdict(ctx.costs),
        "seed": ctx.seed,
        "max_events": ctx.max_events,
        "thread_cap": ctx.thread_cap,
        "trace": bool(trace),
        "validate": bool(validate),
        "faults": dict(cell.faults) if cell.faults else None,
        "policy": dict(cell.policy) if cell.policy else None,
    }


def _exec_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Simulate one cell from its payload (worker-process entry point).

    Returns ``{"result": ...}`` (codec dict) on success, ``{"error": msg}``
    for an expected :class:`ThreadExplosionError`, and ``{"crash": ...}``
    for anything else so the parent can re-raise with context instead of
    losing the pool.
    """
    from repro.sim.costs import CostModel
    from repro.sim.machine import Machine

    ctx = ExecContext(
        machine=Machine(**payload["machine"]),
        costs=CostModel(**payload["costs"]),
        seed=payload["seed"],
        max_events=payload["max_events"],
        thread_cap=payload["thread_cap"],
    )
    spec = get_workload(payload["workload"])
    try:
        program = spec.build(payload["version"], ctx.machine, **payload["params"])
        res = run_program(
            program,
            payload["nthreads"],
            ctx,
            payload["version"],
            validate=payload["validate"],
            trace=payload["trace"],
            faults=payload.get("faults"),
            policy=payload.get("policy"),
        )
    except (ThreadExplosionError, RegionFailedError) as exc:
        return {"error": str(exc)}
    except Exception as exc:
        import traceback

        return {
            "crash": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    return {"result": codec.result_to_dict(res, with_trace=payload["trace"])}


def _run_cell_local(
    cell: SweepCell,
    ctx: ExecContext,
    trace: bool,
    validate: bool,
    metrics: Optional[MetricsRegistry],
) -> tuple[Optional[SimResult], Optional[str]]:
    """Simulate one cell in-process (the serial path).

    Resolves ``run_program`` through this module's namespace so test
    harnesses can interpose on every simulated cell by patching
    ``repro.sweep.executor.run_program``.
    """
    spec = get_workload(cell.workload)
    try:
        program = spec.build(cell.version, ctx.machine, **cell.params)
        res = run_program(
            program,
            cell.nthreads,
            ctx,
            cell.version,
            validate=validate,
            trace=trace,
            metrics=metrics,
            faults=cell.faults,
            policy=cell.policy,
        )
    except (ThreadExplosionError, RegionFailedError) as exc:
        return None, str(exc)
    return res, None


def _estimate_cell_local(
    cell: SweepCell, ctx: ExecContext
) -> tuple[Optional[SimResult], Optional[str]]:
    """Tier-0 path: closed-form estimate instead of simulation.

    Returns a :class:`~repro.sim.tiers.Tier0Result` (a ``SimResult``
    subclass carrying the calibrated error bound).  Thread-per-task
    versions past the cap raise :class:`ThreadExplosionError` exactly as
    a tier-2 run would — the check rides along with the delegated
    regions — so the sweep records the same cell errors.
    """
    from repro.sim.tiers import estimate_program

    spec = get_workload(cell.workload)
    try:
        program = spec.build(cell.version, ctx.machine, **cell.params)
        res = estimate_program(program, cell.nthreads, ctx, cell.version)
    except (ThreadExplosionError, RegionFailedError) as exc:
        return None, str(exc)
    return res, None


# ---------------------------------------------------------------------------
# cache payloads
# ---------------------------------------------------------------------------
def _encode_entry(
    cell: SweepCell, res: Optional[SimResult], err: Optional[str], trace: bool
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": PAYLOAD_FORMAT,
        "workload": cell.workload,
        "version": cell.version,
        "nthreads": cell.nthreads,
        "params": dict(cell.params),
    }
    if cell.fidelity != 2:
        doc["fidelity"] = cell.fidelity
    if err is not None:
        doc["error"] = err
    else:
        assert res is not None
        doc["result"] = codec.result_to_dict(res, with_trace=trace)
    return doc


def _decode_entry(
    payload: dict[str, Any], fidelity: int = 2
) -> Optional[tuple[Optional[SimResult], Optional[str]]]:
    """Decode a cached payload; ``None`` means unusable (treat as miss).

    ``fidelity`` is the tier of the *requesting* cell: a payload stamped
    with a different tier is rejected even though tiers already address
    distinct cache keys — a belt-and-braces guard so a tier-0 estimate
    can never be served for a tier-2 request (copied cache files, key
    collisions, hand-edited entries).
    """
    if payload.get("format") != PAYLOAD_FORMAT:
        return None
    if int(payload.get("fidelity", 2)) != int(fidelity):
        return None
    if "error" in payload:
        return None, str(payload["error"])
    if "result" not in payload:
        return None
    return codec.result_from_dict(payload["result"]), None


def _coerce_cache(
    cache: Union[None, bool, str, os.PathLike, ResultCache]
) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    return cache


def _pool_context():
    """The fork multiprocessing context, or ``None`` when unavailable.

    Fork is required so worker processes inherit the already-imported
    package (and any test-time state) without re-importing through
    ``spawn``; platforms without it fall back to serial execution.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------
def run_sweep(
    workload: str,
    versions: Optional[Sequence[str]] = None,
    threads: Sequence[int] = PAPER_THREADS,
    ctx: Optional[ExecContext] = None,
    *,
    params: Optional[Mapping[str, Any]] = None,
    jobs: int = 1,
    cache: Union[None, bool, str, os.PathLike, ResultCache] = None,
    refresh: bool = False,
    trace: bool = False,
    validate: bool = False,
    faults=None,
    policy=None,
    fidelity: Union[int, str] = 2,
    server: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run one workload's full sweep, parallel and/or cached.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs in-process —
        exactly the legacy serial loop; ``> 1`` fans cells out over a
        fork-based :class:`~concurrent.futures.ProcessPoolExecutor`
        (falling back to serial when the platform lacks fork).
    cache:
        ``None``/``False`` disables caching; ``True`` uses
        :data:`~repro.sweep.cache.DEFAULT_CACHE_DIR`; a path or
        :class:`~repro.sweep.cache.ResultCache` selects a directory.
        Completed cells (including expected errors) are written through
        as they finish, which is also the resume mechanism.
    refresh:
        Ignore existing entries (every cell re-simulates and overwrites
        its entry) — the ``--refresh`` escape hatch.
    trace:
        Simulate every cell with the observability tracer attached (and
        cache the full event streams with the results).
    validate:
        Run the PR 1 invariant audit on every simulated cell.
    faults, policy:
        A fault-injection plan (:class:`~repro.faults.FaultPlan`, spec
        string, or dict) and recovery policy
        (:class:`~repro.faults.Policy` or dict) applied to every cell.
        Both enter the cell's content address, so fault-injected and
        fault-free sweeps never share cache entries; a region failing
        past its retry budget under ``on_failure="raise"`` is recorded
        (and cached) as a cell error, like the modelled C++11 hang.
    fidelity:
        Simulation fidelity tier (:mod:`repro.sim.tiers`): ``2`` (the
        default) is the discrete-event simulation, ``0`` the closed-form
        analytic estimator (cells return
        :class:`~repro.sim.tiers.Tier0Result` with calibrated error
        bounds, always in-process — estimates are far cheaper than
        process fan-out).  ``"auto"`` picks tier 0 for plain timing
        sweeps and tier 2 whenever exact event semantics are required
        (tracing, validation, or fault injection).  Anything else,
        including the retired tier ``1``, is a ``ValueError``.
        Requesting tier 0 *explicitly* together with those options is a
        ``ValueError`` — an estimate has no events to trace, audit or
        fault.  The tier
        enters the cell's content address (tier 2 keeps its pre-tiers
        address), so tiers never share cache entries.
    server:
        Route the whole sweep through a running sweep service
        (:mod:`repro.serve`) at this URL instead of executing locally;
        ``None`` falls back to the ``REPRO_SWEEP_SERVER`` environment
        variable, and empty/unset means local execution.  The service
        owns the store and the worker pool, so ``jobs`` and ``cache``
        are ignored in server mode; results are byte-identical to the
        local path (same codec, same cache-entry documents).
        Validation and fault injection are not part of protocol v1 and
        raise ``ValueError`` when combined with a server.
    metrics:
        Registry to account into (one is created when omitted); it is
        attached to the returned sweep as ``SweepResult.metrics``.
    progress:
        Callback ``(done, total, cell, status)`` invoked as each cell
        settles, with status ``"hit"``, ``"run"`` or ``"error"``.
    """
    spec = get_workload(workload)
    if versions is None:
        versions = spec.versions
    else:
        versions = tuple(versions)
        for v in versions:
            if v not in spec.versions:
                raise ValueError(f"{workload} has no version {v!r}")
    ctx = ctx or ExecContext()
    config = ExperimentConfig(
        workload, tuple(versions), tuple(threads), dict(params or {})
    )
    fault_doc = policy_doc = None
    if faults is not None or policy is not None:
        # canonicalize up front: unknown kinds/keys fail here, before
        # any simulation, and the dict forms feed the cache key
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import Policy

        plan = FaultPlan.coerce(faults)
        pol = Policy.coerce(policy)
        fault_doc = plan.to_dict() if plan else None
        policy_doc = pol.to_dict() if pol is not None else None
    needs_events = bool(trace) or bool(validate) or fault_doc is not None or policy_doc is not None
    if fidelity == "auto":
        fid = 2 if needs_events else 0
    elif fidelity in (0, 2):
        fid = int(fidelity)
    else:
        raise ValueError(f"fidelity must be 'auto', 0 or 2, got {fidelity!r}")
    if fid == 0 and needs_events:
        raise ValueError(
            "fidelity=0 is an analytic estimate with no event stream; "
            "tracing, validation and fault injection need fidelity 2 "
            "(or fidelity='auto' to pick for you)"
        )
    if server is None:
        server = os.environ.get("REPRO_SWEEP_SERVER") or None
    if server:
        if validate or fault_doc is not None or policy_doc is not None:
            raise ValueError(
                "server mode (repro.serve protocol v1) does not carry "
                "validation or fault injection; run those sweeps locally"
            )
        from repro.serve.client import run_sweep_remote

        return run_sweep_remote(
            workload,
            versions,
            threads,
            ctx,
            params=params,
            fidelity=fid,
            trace=trace,
            refresh=refresh,
            server=server,
            metrics=metrics,
            progress=progress,
        )
    reg = metrics if metrics is not None else MetricsRegistry()
    store = _coerce_cache(cache)

    # Pre-register the accounting counters so exported snapshots always
    # carry the full schema (a fully-cached sweep still reports
    # ``simulations: 0`` rather than omitting the counter).
    for name in ("sweep_cells", "cache_hits", "cache_misses", "cache_stores",
                 "cache_evictions", "simulations", "estimates", "sweep_errors"):
        reg.counter(name)

    # Host telemetry (repro.perf): the whole sweep runs inside one
    # recording whose snapshot lands on ``SweepResult.perf``.  With
    # ``REPRO_PERF_OFF=1`` the recorder is None and every perf_span /
    # perf_count below is a no-op — the simulation itself never sees
    # any of this, so instrumented and uninstrumented sweeps are
    # bit-identical.
    with perf_recording("sweep") as host:
        sweep = _run_sweep_cells(
            spec, config, ctx, fid, reg, store, jobs=jobs, refresh=refresh,
            trace=trace, validate=validate, fault_doc=fault_doc,
            policy_doc=policy_doc, progress=progress,
        )
    if host is not None:
        sweep.perf = host.snapshot()
    return sweep


def _run_sweep_cells(
    spec,
    config: ExperimentConfig,
    ctx: ExecContext,
    fid: int,
    reg: MetricsRegistry,
    store: Optional[ResultCache],
    *,
    jobs: int,
    refresh: bool,
    trace: bool,
    validate: bool,
    fault_doc,
    policy_doc,
    progress: Optional[ProgressFn],
) -> SweepResult:
    """Drive every cell through probe / simulate / assemble (see run_sweep)."""
    cells = expand_cells(config, fault_doc, policy_doc, fid)
    reg.counter("sweep_cells").inc(len(cells))
    with perf_span("cache.key"):
        keys = [cache_key(c, ctx, trace=trace) for c in cells] if store is not None else []

    #: per-cell outcome: (SimResult | None, error message | None)
    outcomes: list[Optional[tuple[Optional[SimResult], Optional[str]]]]
    outcomes = [None] * len(cells)
    total = len(cells)
    done = 0

    def settle(i: int, res: Optional[SimResult], err: Optional[str], status: str,
               merge: bool = True) -> None:
        nonlocal done
        outcomes[i] = (res, err)
        done += 1
        if err is not None:
            reg.counter("sweep_errors").inc()
            status = "error"
        elif merge and res is not None:
            reg.merge(result_metrics(res))
        if progress is not None:
            progress(done, total, cells[i], status)

    # -- phase 1: cache probe ------------------------------------------
    pending: list[int] = []
    for i in range(len(cells)):
        if store is not None and not refresh:
            with perf_span("cache.probe"):
                payload = store.get(keys[i])
            if payload is not None:
                with perf_span("codec.decode"):
                    decoded = _decode_entry(payload, fid)
            else:
                decoded = None
            if decoded is not None:
                reg.counter("cache_hits").inc()
                settle(i, decoded[0], decoded[1], "hit")
                continue
            if payload is not None:
                # a stored entry the decoder refused: stale format or
                # wrong tier stamp — re-simulated and overwritten below
                perf_count("cache.corrupt")
        if store is not None:
            reg.counter("cache_misses").inc()
        pending.append(i)

    def finish_simulated(i: int, res: Optional[SimResult], err: Optional[str],
                         merge: bool = True, counter: str = "simulations") -> None:
        reg.counter(counter).inc()
        if store is not None:
            with perf_span("codec.encode"):
                doc = _encode_entry(cells[i], res, err, trace)
            with perf_span("cache.store"):
                store.put(keys[i], doc)
            reg.counter("cache_stores").inc()
        settle(i, res, err, "run", merge=merge)

    # -- phase 2: simulate (or estimate) the misses --------------------
    if fid == 0:
        # tier 0: closed-form estimates, microseconds per cell — always
        # in-process, a worker pool would cost more than the work.
        for i in pending:
            with perf_span("cell.estimate"):
                res, err = _estimate_cell_local(cells[i], ctx)
            finish_simulated(i, res, err, counter="estimates")
        pool_ctx = None
        pending = []
    else:
        pool_ctx = _pool_context() if jobs > 1 and len(pending) > 1 else None
    if pool_ctx is None:
        for i in pending:
            # serial path: run_program folds this run's metrics directly
            # into the sweep registry, so don't merge a second time.
            with perf_span("cell.simulate"):
                res, err = _run_cell_local(cells[i], ctx, trace, validate, reg)
            finish_simulated(i, res, err, merge=False)
    else:
        workers = min(jobs, len(pending))
        with perf_span("fanout.pool"):
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=pool_ctx
            )
        try:
            with perf_span("fanout.submit"):
                futures = {
                    pool.submit(_exec_cell, _cell_payload(cells[i], ctx, trace, validate)): i
                    for i in pending
                }
            completed = concurrent.futures.as_completed(futures)
            while True:
                with perf_span("fanout.wait"):
                    fut = next(completed, None)
                if fut is None:
                    break
                i = futures[fut]
                out = fut.result()
                if "crash" in out:
                    raise RuntimeError(
                        f"sweep cell {cells[i].describe()} failed in worker: "
                        f"{out['crash']}\n{out.get('traceback', '')}"
                    )
                if "result" in out:
                    with perf_span("codec.decode"):
                        res = codec.result_from_dict(out["result"])
                else:
                    res = None
                finish_simulated(i, res, out.get("error"))
        finally:
            with perf_span("fanout.pool"):
                pool.shutdown()

    # -- phase 3: assemble + housekeeping ------------------------------
    sweep = SweepResult(config=config, figure=spec.figure, metrics=reg)
    for i, cell in enumerate(cells):
        res, err = outcomes[i]
        if err is not None:
            sweep.errors[cell.key] = err
        elif res is not None:
            sweep.results[cell.key] = res
    for v in config.versions:
        sweep.series[v] = [
            sweep.results[(v, p)].time if (v, p) in sweep.results else None
            for p in config.threads
        ]
    if store is not None and store.max_entries is not None:
        with perf_span("cache.prune"):
            evicted = store.prune()
        reg.counter("cache_evictions").inc(evicted)
    return sweep
