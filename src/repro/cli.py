"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artifacts:

- ``tables``       — render Tables I-III;
- ``workloads``    — list the registered benchmarks and their figures;
- ``figure NAME``  — rerun one figure's sweep and print the report;
- ``claims``       — check every encoded finding of the paper;
- ``compare M...`` — side-by-side feature comparison of named models;
- ``microbench``   — EPCC-style runtime-overhead table;
- ``offload``      — the host-vs-accelerator extension study;
- ``machine``      — describe the simulated testbed;
- ``report``       — regenerate every table/figure/claim into a directory;
- ``validate``     — audit the simulator itself (trace invariants,
  differential runtime oracle, random-program property suite);
- ``trace``        — run one workload/version with the observability
  layer on: bottleneck attribution on stdout, Chrome ``trace_event``
  JSON (Perfetto-loadable) and per-run metrics JSON on request;
- ``sweep``        — run one workload's full sweep through the parallel
  executor with content-addressed result caching (``--jobs N``
  fans cells out across processes; a second invocation replays
  cached cells without simulating; ``--server URL`` or
  ``REPRO_SWEEP_SERVER`` routes the sweep through a running sweep
  service instead of executing locally);
- ``serve``        — long-running sweep service (:mod:`repro.serve`):
  an asyncio HTTP front end over the sharded result store that
  accepts experiment-matrix queries, single-flight-dedupes identical
  in-flight cells across concurrent requests, fans misses onto a
  process pool, and streams per-cell results back as NDJSON;
- ``synth``        — seeded workload synthesizer: generate N apps from
  the kernel pool (stable names hash the seed + config), print their
  canonical spec digests and sweep cache keys (stdout is deterministic:
  two invocations with the same seed are bit-identical), optionally
  sweep (``--run``) and audit (``--validate``) them;
- ``faults``       — inject deterministic faults into one run and
  report the model's Table III error-handling semantics: useful vs
  wasted work, cancellation, retries (``--list-demos`` enumerates the
  per-model demos);
- ``perf``         — host-side telemetry (:mod:`repro.perf`):
  ``perf report`` ranks where a run's *real* wall time went
  (simulate / cache / codec / fan-out / other), ``perf ledger``
  tails/queries the append-only run ledger, ``perf compare`` checks a
  run against a committed baseline (exit 1 on regression), and
  ``perf record`` measures a workload sweep into the ledger (and
  optionally a new baseline).

``sweep``, ``faults`` and ``validate`` append one record per
invocation to the run ledger (``benchmarks/out/ledger/``, override
with ``REPRO_LEDGER_DIR``); ``REPRO_PERF_OFF=1`` disables all host
telemetry.

Exit codes: 0 success, 1 failed checks (claims/validate), a region
failing past its recovery policy (``faults --strict``), or a perf
regression (``perf compare``), 2 bad input (unknown workload, model,
fault spec, or missing baseline/ledger record).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.faults.policy import RegionFailedError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Comparison of Threading Programming Models' (IPPS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="render Tables I-III")
    sub.add_parser("workloads", help="list benchmarks")
    sub.add_parser("machine", help="describe the simulated machine")
    sub.add_parser("claims", help="check the paper's findings")

    fig = sub.add_parser("figure", help="rerun one figure's sweep")
    fig.add_argument("workload", help="workload name (axpy, sum, ..., srad)")
    fig.add_argument("--threads", type=int, nargs="+", default=None)
    fig.add_argument("--full", action="store_true", help="paper-scale parameters")
    fig.add_argument("--chart", action="store_true", help="include the ASCII chart")
    fig.add_argument("--out", default=None,
                     help="also write the report to this file (directories created)")

    tr = sub.add_parser(
        "trace", help="trace one run: attribution report + Chrome trace JSON"
    )
    tr.add_argument("workload", help="workload name (axpy, sum, ..., srad)")
    tr.add_argument("--model", "-m", required=True,
                    help="version name or prefix (omp_task, cilk, cxx_thread, ...)")
    tr.add_argument("--threads", "-p", type=int, default=16)
    tr.add_argument("--out", default=None,
                    help="Chrome trace_event JSON path (open in ui.perfetto.dev)")
    tr.add_argument("--metrics-out", default=None,
                    help="per-run metrics/attribution JSON path")
    tr.add_argument("--gantt", action="store_true", help="print the ASCII timeline")
    tr.add_argument("--full", action="store_true", help="paper-scale parameters")

    swp = sub.add_parser(
        "sweep", help="parallel cached sweep of one workload's full matrix"
    )
    swp.add_argument("workload", help="workload name (axpy, sum, ..., srad)")
    swp.add_argument("--threads", type=int, nargs="+", default=None)
    swp.add_argument("--jobs", "-j", type=int, default=1,
                     help="worker processes (1 = in-process serial execution)")
    swp.add_argument("--cache-dir", default=None,
                     help="result cache directory (default benchmarks/out/cache)")
    swp.add_argument("--no-cache", action="store_true",
                     help="disable the result cache entirely")
    swp.add_argument("--refresh", action="store_true",
                     help="ignore cached entries: re-simulate and overwrite")
    swp.add_argument("--cache-max-entries", type=int, default=None,
                     help="evict least-recently-used entries beyond this bound")
    swp.add_argument("--full", action="store_true", help="paper-scale parameters")
    swp.add_argument("--chart", action="store_true", help="include the ASCII chart")
    swp.add_argument("--metrics-out", default=None,
                     help="write sweep accounting JSON (counters, wall time)")
    swp.add_argument("--quiet", "-q", action="store_true",
                     help="suppress per-cell progress on stderr")
    swp.add_argument("--fidelity", choices=("auto", "0", "2"), default="2",
                     help="simulation tier: 2 discrete-event simulation, 0 "
                          "closed-form analytic estimates with calibrated "
                          "error bounds, auto = cheapest tier the sweep's "
                          "options allow")
    swp.add_argument("--server", default=None, metavar="URL",
                     help="route the sweep through a running sweep service "
                          "(repro serve) instead of executing locally; "
                          "defaults to $REPRO_SWEEP_SERVER when set")

    srv = sub.add_parser(
        "serve", help="long-running sweep service over the sharded result store"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765,
                     help="TCP port (0 picks a free one, printed on stderr)")
    srv.add_argument("--jobs", "-j", type=int, default=2,
                     help="worker processes for cache-miss simulation")
    srv.add_argument("--cache-dir", default=None,
                     help="result store directory (default benchmarks/out/cache)")
    srv.add_argument("--cache-max-entries", type=int, default=None,
                     help="evict least-recently-used entries beyond this bound")
    srv.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                     help="expire entries unused for longer than this window")
    srv.add_argument("--quiet", "-q", action="store_true",
                     help="suppress startup/shutdown lines on stderr")

    syn = sub.add_parser(
        "synth", help="seeded workload synthesizer: generate, sweep, validate"
    )
    syn.add_argument("--seed", type=int, default=0,
                     help="master seed (per-app seeds derive from it)")
    syn.add_argument("--count", type=int, default=5,
                     help="number of applications to synthesize")
    syn.add_argument("--threads", type=int, nargs="+", default=None,
                     help="thread counts for cache keys and --run sweeps")
    syn.add_argument("--fidelity", choices=("0", "2"), default="0",
                     help="simulation tier for --run sweeps (and the "
                          "printed cache keys)")
    syn.add_argument("--run", action="store_true",
                     help="run an uncached sweep over every generated app "
                          "(simulated results on stdout, host wall time on "
                          "stderr)")
    syn.add_argument("--validate", action="store_true",
                     help="run the synthesized-program audit battery "
                          "(spec stability, determinism, invariants, "
                          "speedup ordering); violations exit 1")
    syn.add_argument("--json", dest="json_out", default=None,
                     help="write the specs, digests and cache keys as JSON")

    flt = sub.add_parser(
        "faults", help="fault-injected run: error-handling semantics in action"
    )
    flt.add_argument("workload", nargs="?", default=None,
                     help="workload name (axpy, sum, ..., srad)")
    flt.add_argument("--model", "-m", default=None,
                     help="version name or prefix (omp_task, cilk, cxx_thread, ...)")
    flt.add_argument("--threads", "-p", type=int, default=4)
    flt.add_argument("--inject", default="fail:task=1",
                     help="fault spec, e.g. 'fail:task=5' or 'stall:worker=0,"
                          "duration=2e-4;bandwidth:factor=0.5,duration=1'")
    flt.add_argument("--retries", type=int, default=0,
                     help="retry budget per region (with --backoff delay)")
    flt.add_argument("--backoff", type=float, default=0.0,
                     help="base backoff before the first retry (seconds, simulated)")
    flt.add_argument("--timeout", type=float, default=None,
                     help="per-region timeout (seconds, simulated)")
    flt.add_argument("--strict", action="store_true",
                     help="exit 1 when a region fails past its retry budget "
                          "(default: continue and report the degradation)")
    flt.add_argument("--gantt", action="store_true", help="print the ASCII timeline")
    flt.add_argument("--metrics-out", default=None,
                     help="write fault summary + per-run metrics JSON")
    flt.add_argument("--full", action="store_true", help="paper-scale parameters")
    flt.add_argument("--list-demos", action="store_true",
                     help="list the Table III error-handling demos and exit")

    perf = sub.add_parser(
        "perf", help="host telemetry: cost attribution, run ledger, regressions"
    )
    psub = perf.add_subparsers(dest="perf_command", required=True)

    prep = psub.add_parser(
        "report", help="ranked host-cost attribution of a ledger record"
    )
    prep.add_argument("--name", default=None,
                      help="record name filter (e.g. sweep:axpy); default latest")
    prep.add_argument("--kind", default=None,
                      help="record kind filter (sweep, bench, faults, ...)")
    prep.add_argument("--ledger-dir", default=None,
                      help="ledger directory (default benchmarks/out/ledger)")
    prep.add_argument("--input", default=None,
                      help="read the record from this JSON file instead of the ledger")

    pled = psub.add_parser("ledger", help="tail/query the run ledger")
    pled.add_argument("--tail", type=int, default=10,
                      help="show the last N matching records")
    pled.add_argument("--name", default=None, help="record name filter")
    pled.add_argument("--kind", default=None, help="record kind filter")
    pled.add_argument("--ledger-dir", default=None)
    pled.add_argument("--json", action="store_true",
                      help="print raw records as JSON lines")

    pcmp = psub.add_parser(
        "compare", help="compare a run against a committed baseline (exit 1 on regression)"
    )
    pcmp.add_argument("--baseline", required=True,
                      help="baseline name (benchmarks/baselines/<name>.json) or path")
    pcmp.add_argument("--tolerance", type=float, default=0.5,
                      help="allowed slowdown fraction (0.5 = up to 1.5x the baseline)")
    pcmp.add_argument("--name", default=None,
                      help="ledger record to compare (default: the baseline's subject)")
    pcmp.add_argument("--kind", default=None, help="record kind filter")
    pcmp.add_argument("--ledger-dir", default=None)
    pcmp.add_argument("--input", default=None,
                      help="compare this record JSON file instead of the ledger tail")
    pcmp.add_argument("--warn-only", action="store_true",
                      help="report regressions but exit 0 (noisy CI runners)")

    prec = psub.add_parser(
        "record", help="measure one workload sweep into the ledger (uncached)"
    )
    prec.add_argument("workload", help="workload name (axpy, sum, ..., srad)")
    prec.add_argument("--threads", type=int, nargs="+", default=None)
    prec.add_argument("--jobs", "-j", type=int, default=1)
    prec.add_argument("--fidelity", choices=("auto", "0", "2"), default="2")
    prec.add_argument("--repeat", type=int, default=1,
                      help="measure N times (baseline takes the best)")
    prec.add_argument("--full", action="store_true", help="paper-scale parameters")
    prec.add_argument("--ledger-dir", default=None)
    prec.add_argument("--update-baseline", action="store_true",
                      help="write benchmarks/baselines/<name>.json from the best repeat")
    prec.add_argument("--baseline-dir", default=None,
                      help="baseline directory (default benchmarks/baselines)")

    cmp_p = sub.add_parser("compare", help="feature comparison of models")
    cmp_p.add_argument("models", nargs="+", help="model names (e.g. openmp cilk tbb)")

    micro = sub.add_parser("microbench", help="runtime overhead table")
    micro.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8, 16, 36])

    off = sub.add_parser("offload", help="host vs accelerator study")
    off.add_argument("--n", type=int, default=8_000_000)
    off.add_argument("--iterations", type=int, default=10)

    val = sub.add_parser("validate", help="audit the simulator's own traces")
    val.add_argument(
        "--deep", action="store_true",
        help="wider thread sweeps (into SMT/oversubscription) and 5x the "
             "random programs",
    )
    val.add_argument("--seed", type=int, default=0,
                     help="seed for the random-program property suite")
    val.add_argument("--programs", type=int, default=None,
                     help="number of random programs (default 20, or 100 with --deep)")
    val.add_argument("--inject", default=None,
                     help="additionally audit every workload under this fault "
                          "spec (e.g. 'fail:task=1'); bad specs exit 2")
    val.add_argument("--model", action="append", dest="models", default=None,
                     metavar="NAME",
                     help="restrict the per-version audits to this model "
                          "family or version (repeatable; e.g. openmp, "
                          "charm++, hpx, mpi, omp_task); unknown names exit 2")

    rep = sub.add_parser("report", help="regenerate every table/figure/claim")
    rep.add_argument("--out", default="report_out")
    rep.add_argument("--full", action="store_true", help="paper-scale parameters")
    rep.add_argument("--threads", type=int, nargs="+", default=None)
    rep.add_argument("--workloads", nargs="+", default=None)
    rep.add_argument("--no-claims", action="store_true", help="skip the claim battery")
    return parser


def _cmd_tables() -> int:
    from repro.features import render_table1, render_table2, render_table3

    print(render_table1())
    print()
    print(render_table2())
    print()
    print(render_table3())
    return 0


def _cmd_workloads() -> int:
    from repro.core.registry import WORKLOADS

    for name, spec in sorted(WORKLOADS.items(), key=lambda kv: kv[1].figure):
        print(
            f"{spec.figure:<9} {name:<8} versions={len(spec.versions)} "
            f"paper={dict(spec.paper_params)} — {spec.description}"
        )
    return 0


def _cmd_machine() -> int:
    from repro.sim.machine import PAPER_MACHINE as m

    print(f"{m.name}: {m.sockets} sockets x {m.cores_per_socket} cores x {m.smt} SMT "
          f"@ {m.ghz} GHz")
    print(f"  {m.physical_cores} physical cores, {m.hw_threads} hardware threads")
    print(f"  {m.socket_bandwidth / 1e9:.0f} GB/s per socket "
          f"({m.total_bandwidth / 1e9:.0f} GB/s total), "
          f"{m.core_bandwidth / 1e9:.0f} GB/s per-core cap")
    print(f"  NUMA: remote fraction {m.numa_remote_fraction}, penalty {m.numa_penalty}x")
    return 0


def _cmd_claims() -> int:
    from repro.core.claims import run_all_claims

    results = run_all_claims()
    for r in results:
        print(r)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} findings reproduce")
    return 1 if failed else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.core.experiment import run_experiment
    from repro.core.registry import get_workload
    from repro.core.report import render_sweep

    spec = get_workload(args.workload)
    params = dict(spec.paper_params if args.full else spec.default_params)
    kwargs = {}
    if args.threads:
        kwargs["threads"] = tuple(args.threads)
    sweep = run_experiment(args.workload, **kwargs, **params)
    text = render_sweep(sweep, chart=args.chart)
    print(text)
    if args.out:
        import pathlib

        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.registry import get_workload
    from repro.obs.export import render_timeline, write_chrome_trace, write_metrics
    from repro.obs.report import attribute_result
    from repro.runtime.base import ExecContext, ThreadExplosionError
    from repro.runtime.run import run_program

    spec = get_workload(args.workload)
    version = spec.resolve_version(args.model)
    params = dict(spec.paper_params if args.full else spec.default_params)
    ctx = ExecContext()
    try:
        program = spec.build(version, ctx.machine, **params)
        res = run_program(program, args.threads, ctx, version, trace=True)
    except ThreadExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tracer = res.trace
    print(res.describe())
    print(tracer.describe())
    print()
    print(attribute_result(res, ctx=ctx, program=args.workload, version=version).describe())
    if args.gantt:
        print()
        print(render_timeline(tracer, nworkers=max(res.nthreads, tracer.nworkers)))
    meta = {"program": args.workload, "version": version, "nthreads": args.threads}
    if args.out:
        out = write_chrome_trace(args.out, tracer, metadata=meta)
        print(f"wrote Chrome trace to {out} (open in https://ui.perfetto.dev)")
    if args.metrics_out:
        out = write_metrics(args.metrics_out, res, tracer=tracer)
        print(f"wrote metrics to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.experiment import PAPER_THREADS
    from repro.core.registry import get_workload
    from repro.core.report import render_sweep
    from repro.obs.export import write_sweep_metrics
    from repro.perf.spans import Stopwatch
    from repro.sweep import DEFAULT_CACHE_DIR, ResultCache, run_sweep

    spec = get_workload(args.workload)
    params = dict(spec.paper_params if args.full else spec.default_params)
    import os as _os

    server = args.server or _os.environ.get("REPRO_SWEEP_SERVER") or None
    cache = None
    if not args.no_cache and not server:
        # in server mode the service owns the store; no local cache
        cache = ResultCache(
            args.cache_dir or DEFAULT_CACHE_DIR, max_entries=args.cache_max_entries
        )

    def progress(done: int, total: int, cell, status: str) -> None:
        if args.quiet:
            return
        print(
            f"\r[{done}/{total}] {cell.describe():<32} {status:<6}",
            end="" if done < total else "\n",
            file=sys.stderr,
            flush=True,
        )

    fidelity = args.fidelity if args.fidelity == "auto" else int(args.fidelity)
    # the executor records its own host telemetry (SweepResult.perf);
    # the Stopwatch is the REPRO_PERF_OFF fallback for the wall display
    with Stopwatch() as sw:
        sweep = run_sweep(
            args.workload,
            threads=tuple(args.threads) if args.threads else PAPER_THREADS,
            params=params,
            jobs=args.jobs,
            cache=cache,
            refresh=args.refresh,
            fidelity=fidelity,
            server=server,
            progress=progress,
        )
    wall = sweep.host_wall_seconds if sweep.perf else sw.wall
    print(render_sweep(sweep, chart=args.chart))
    hits, misses = sweep.counter("cache_hits"), sweep.counter("cache_misses")
    print(
        f"\nsweep: {len(sweep.versions) * len(sweep.threads)} cells in {wall:.3f}s "
        f"(jobs={args.jobs}, fidelity={fidelity}, "
        f"simulated={sweep.counter('simulations')}, "
        f"estimated={sweep.counter('estimates')}, "
        f"cache hits={hits} misses={misses} "
        f"evictions={sweep.counter('cache_evictions')})"
    )
    if server:
        print(f"server: {server} (dedup joins={sweep.counter('dedup_hits')})")
    elif cache is not None:
        print(f"cache: {cache.root}")
    if args.metrics_out:
        out = write_sweep_metrics(
            args.metrics_out, sweep, wall_seconds=wall, jobs=args.jobs
        )
        print(f"wrote sweep metrics to {out}")
    _ledger_append(
        "sweep",
        f"sweep:{args.workload}",
        sweep.perf,
        extra={
            "workload": args.workload,
            "jobs": int(args.jobs),
            "fidelity": str(fidelity),
            "cells": len(sweep.versions) * len(sweep.threads),
            "cache": ("server" if server else
                      "off" if cache is None else
                      ("refresh" if args.refresh else "on")),
            "server": server or "",
            "cache_hits": hits,
            "cache_misses": misses,
            "simulations": sweep.counter("simulations"),
            "estimates": sweep.counter("estimates"),
        },
    )
    return 0


def _ledger_append(kind: str, name: str, snapshot, *, extra=None) -> None:
    """Append one run record to the ledger (no-op when telemetry is off).

    Ledger IO must never fail the measured command — an unwritable
    ledger directory degrades to a warning on stderr.
    """
    if snapshot is None:
        return
    from repro.perf import Ledger, make_record, update_trajectory

    try:
        ledger = Ledger()
        record = ledger.append(make_record(kind, name, snapshot, extra=extra))
        update_trajectory(record, ledger.root)
    except OSError as exc:  # pragma: no cover - depends on host FS state
        print(f"warning: could not append to run ledger: {exc}", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import main as serve_main

    return serve_main(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        max_entries=args.cache_max_entries,
        ttl_seconds=args.ttl,
        quiet=args.quiet,
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from repro.core.experiment import PAPER_THREADS
    from repro.perf.spans import recording
    from repro.runtime.base import ExecContext
    from repro.sweep.cache import cache_key
    from repro.sweep.cells import SweepCell
    import contextlib

    from repro.workloads.synth import generate, registered

    threads = tuple(args.threads) if args.threads else PAPER_THREADS
    fidelity = int(args.fidelity)
    ctx = ExecContext()
    failed = False
    # scoped registration: in-process callers (tests, libraries driving
    # main()) must not find synthesized names in the registry afterwards
    with contextlib.ExitStack() as stack, recording("synth") as host:
        specs = stack.enter_context(registered(generate(args.seed, args.count)))
        docs = []
        print(f"synth: seed={args.seed} count={args.count} "
              f"threads={list(threads)} fidelity={fidelity}")
        for spec in specs:
            keys = {
                f"{version}/p{p}": cache_key(
                    SweepCell(spec.name, version, p, {}, fidelity=fidelity), ctx
                )
                for version in spec.versions
                for p in threads
            }
            cells_digest = hashlib.sha256(
                "".join(keys[k] for k in sorted(keys)).encode()
            ).hexdigest()
            kernels = "/".join(sorted({ph["kernel"] for ph in spec.recipe}))
            print(f"{spec.name}  seed={spec.seed}  phases={len(spec.recipe)}  "
                  f"kernels={kernels}  f={spec.fraction:.3f}")
            print(f"  spec-digest  {spec.digest()}")
            print(f"  cache-keys   {cells_digest}  ({len(keys)} cells)")
            docs.append({"spec": spec.document(), "spec_digest": spec.digest(),
                         "cache_keys": keys, "cache_keys_digest": cells_digest})
        batch = hashlib.sha256(
            "".join(d["spec_digest"] + d["cache_keys_digest"] for d in docs).encode()
        ).hexdigest()
        print(f"batch-digest   {batch}")
        if args.run:
            from repro.sweep import run_sweep

            for spec in specs:
                sweep = run_sweep(
                    spec.name, threads=threads, cache=None, fidelity=fidelity
                )
                wall = sweep.host_wall_seconds if sweep.perf else 0.0
                # simulated results are deterministic -> stdout; the
                # host wall time is not -> stderr
                for version in sweep.versions:
                    times = " ".join(
                        f"p{p}={sweep.results[(version, p)].time:.6g}"
                        for p in sweep.threads
                    )
                    print(f"  {spec.name} {version:11s} {times}")
                print(
                    f"  {spec.name}: {len(sweep.versions) * len(sweep.threads)} "
                    f"cells in {wall:.3f}s "
                    f"(simulated={sweep.counter('simulations')}, "
                    f"estimated={sweep.counter('estimates')})",
                    file=sys.stderr,
                )
        if args.validate:
            from repro.validate import run_synth_audit

            report = run_synth_audit(seed=args.seed, count=args.count, ctx=ctx)
            print(report.describe())
            failed = not report.ok
    if args.json_out:
        import pathlib

        out = pathlib.Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "seed": args.seed,
            "count": args.count,
            "threads": list(threads),
            "fidelity": fidelity,
            "batch_digest": batch,
            "workloads": docs,
        }
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote synth manifest to {out}", file=sys.stderr)
    _ledger_append(
        "synth",
        f"synth:{args.seed}x{args.count}",
        host.snapshot() if host is not None else None,
        extra={
            "seed": int(args.seed),
            "count": int(args.count),
            "fidelity": str(fidelity),
            "ran": bool(args.run),
            "validated": bool(args.validate),
        },
    )
    return 1 if failed else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan, Policy, fault_summary
    from repro.faults.semantics import error_mode
    from repro.core.registry import get_workload
    from repro.obs.export import render_timeline
    from repro.obs.metrics import result_metrics
    from repro.runtime.base import ExecContext, ThreadExplosionError
    from repro.runtime.run import run_program

    if args.list_demos:
        from repro.faults.demos import FAULT_DEMOS

        for name, demo in sorted(FAULT_DEMOS.items()):
            print(f"{name:<10} mode={demo.mode:<12} runtime={demo.runtime:<12} "
                  f"inject={demo.spec:<14} — {demo.construct}")
        return 0
    if args.workload is None or args.model is None:
        print("error: faults requires a workload and --model "
              "(or --list-demos)", file=sys.stderr)
        return 2

    plan = FaultPlan.parse(args.inject)  # ValueError -> exit 2 in main()
    policy = Policy(
        max_retries=args.retries,
        backoff=args.backoff,
        timeout=args.timeout,
        on_failure="raise" if args.strict else "continue",
    )
    spec = get_workload(args.workload)
    version = spec.resolve_version(args.model)
    params = dict(spec.paper_params if args.full else spec.default_params)
    ctx = ExecContext()
    from repro.perf.spans import recording

    try:
        with recording("faults") as host:
            program = spec.build(version, ctx.machine, **params)
            res = run_program(
                program, args.threads, ctx, version,
                trace=True, faults=plan, policy=policy,
            )
    except (ThreadExplosionError, RegionFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _ledger_append(
        "faults",
        f"faults:{args.workload}:{version}",
        host.snapshot() if host is not None else None,
        extra={
            "workload": args.workload,
            "version": version,
            "nthreads": int(args.threads),
            "inject": args.inject,
        },
    )

    print(res.describe())
    print(f"error mode: {error_mode(version)} (Table III: {version})")
    summary = fault_summary(res)
    print("fault summary:")
    for key, value in summary.items():
        val = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<20} {val}")
    for i, region in enumerate(res.regions):
        fault = (region.meta or {}).get("fault")
        if not fault:
            continue
        flags = ", ".join(
            s for s in (
                "failed" if fault.get("failed") else "",
                "cancelled" if fault.get("cancelled") else "",
                f"attempt {fault.get('attempt', 0)}",
            ) if s
        )
        print(f"  region[{i}]: "
              f"kind={fault.get('kind') or '-'} {flags} "
              f"useful={fault.get('useful', 0.0):.3g}s "
              f"wasted={fault.get('wasted', 0.0):.3g}s "
              f"skipped={fault.get('skipped', 0)}")
    if args.gantt and res.trace is not None:
        print()
        print(render_timeline(res.trace, nworkers=max(res.nthreads, res.trace.nworkers)))
    if args.metrics_out:
        import json
        import pathlib

        out = pathlib.Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "program": args.workload,
            "version": version,
            "nthreads": args.threads,
            "inject": args.inject,
            "policy": policy.to_dict(),
            "summary": summary,
            "metrics": result_metrics(res).to_dict(),
        }
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote fault metrics to {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.features import compare

    print(compare(args.models))
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    from repro.microbench import render_report, run_suite

    print(render_report(run_suite(tuple(args.threads))))
    return 0


def _cmd_offload(args: argparse.Namespace) -> int:
    from repro.extensions.offload_study import axpy_offload_study, crossover_iterations
    from repro.runtime.base import ExecContext

    ctx = ExecContext()
    cmp = axpy_offload_study(ctx, n=args.n, iterations=args.iterations)
    print(cmp.describe())
    cross = crossover_iterations(ctx, n=args.n)
    if cross is None:
        print("resident device version never beats the host in range")
    else:
        print(f"resident device version wins from {cross} iterations on")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.perf.spans import recording
    from repro.validate import run_validation

    with recording("validate") as host:
        report = run_validation(
            deep=args.deep, seed=args.seed, programs=args.programs,
            inject=args.inject, models=args.models,
        )
    print(report.describe())
    _ledger_append(
        "validate",
        "validate:deep" if args.deep else "validate",
        host.snapshot() if host is not None else None,
        extra={
            "deep": bool(args.deep),
            "checks": report.checks,
            "violations": len(report.violations),
        },
    )
    return 0 if report.ok else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    if args.perf_command == "report":
        return _cmd_perf_report(args)
    if args.perf_command == "ledger":
        return _cmd_perf_ledger(args)
    if args.perf_command == "compare":
        return _cmd_perf_compare(args)
    if args.perf_command == "record":
        return _cmd_perf_record(args)
    raise AssertionError(f"unhandled perf command {args.perf_command!r}")


def _load_perf_record(args: argparse.Namespace):
    """Resolve the subject record: ``--input`` file, else the ledger tail.

    Returns ``None`` when no matching record exists (the caller prints
    the usage error and exits 2).
    """
    import json

    from repro.perf import Ledger

    if getattr(args, "input", None):
        with open(args.input) as fh:
            doc = json.load(fh)
        # accept both a ledger record and a sweep --metrics-out document
        if "host" in doc and "wall_seconds" not in doc.get("spans", {}):
            host = doc["host"]
            return {
                "kind": "sweep",
                "name": f"sweep:{doc.get('workload', args.input)}",
                **host,
            }
        return doc
    ledger = Ledger(args.ledger_dir)
    return ledger.last(kind=args.kind, name=args.name)


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.perf import attribute_host

    record = _load_perf_record(args)
    if record is None:
        print(
            "error: no matching ledger record (run a sweep or "
            "`repro perf record` first, or pass --input)",
            file=sys.stderr,
        )
        return 2
    print(attribute_host(record).describe())
    return 0


def _cmd_perf_ledger(args: argparse.Namespace) -> int:
    import json

    from repro.perf import Ledger

    ledger = Ledger(args.ledger_dir)
    records = ledger.tail(args.tail, kind=args.kind, name=args.name)
    if not records:
        print(f"ledger is empty: {ledger.path}", file=sys.stderr)
        return 2
    if args.json:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return 0
    print(f"ledger: {ledger.path} ({len(records)} shown)")
    for rec in records:
        ts = rec.get("ts")
        when = _format_ts(ts) if ts else "-"
        extra = rec.get("extra") or {}
        detail = " ".join(
            f"{k}={extra[k]}" for k in sorted(extra) if isinstance(extra[k], (int, str))
        )
        print(
            f"  {when}  {rec.get('kind', '?'):<9} {rec.get('name', '?'):<28} "
            f"wall={rec.get('wall_seconds', 0.0):8.3f}s "
            f"cpu={rec.get('cpu_seconds', 0.0):8.3f}s  {detail}"
        )
    return 0


def _format_ts(ts: float) -> str:
    import datetime

    return datetime.datetime.fromtimestamp(ts).strftime("%Y-%m-%d %H:%M:%S")


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro.perf import MissingBaselineError, compare, load_baseline

    try:
        baseline = load_baseline(args.baseline)
    except MissingBaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.name is None and not getattr(args, "input", None):
        meta = baseline.get("meta") or {}
        args.name = meta.get("subject") or baseline.get("name") or None
    record = _load_perf_record(args)
    if record is None:
        print(
            f"error: no ledger record matching name={args.name!r} "
            f"kind={args.kind!r} to compare against {args.baseline!r}",
            file=sys.stderr,
        )
        return 2
    report = compare(baseline, record, tolerance=args.tolerance)
    print(report.describe())
    if report.ok:
        return 0
    return 0 if args.warn_only else 1


def _cmd_perf_record(args: argparse.Namespace) -> int:
    from repro.core.experiment import PAPER_THREADS
    from repro.core.registry import get_workload
    from repro.perf import (
        Ledger,
        baseline_path,
        make_record,
        perf_enabled,
        update_trajectory,
        write_baseline,
    )
    from repro.sweep import run_sweep

    if not perf_enabled():
        print(
            "error: REPRO_PERF_OFF=1 — cannot measure with telemetry disabled",
            file=sys.stderr,
        )
        return 2
    spec = get_workload(args.workload)
    params = dict(spec.paper_params if args.full else spec.default_params)
    threads = tuple(args.threads) if args.threads else PAPER_THREADS
    fidelity = args.fidelity if args.fidelity == "auto" else int(args.fidelity)
    name = f"sweep:{args.workload}"
    ledger = Ledger(args.ledger_dir)
    best: Optional[dict] = None
    for i in range(max(1, args.repeat)):
        # uncached on purpose: a measurement run must pay the full cost
        sweep = run_sweep(
            args.workload,
            threads=threads,
            params=params,
            jobs=args.jobs,
            cache=None,
            fidelity=fidelity,
        )
        record = make_record(
            "record",
            name,
            sweep.perf,
            extra={
                "workload": args.workload,
                "jobs": int(args.jobs),
                "fidelity": str(fidelity),
                "cells": len(sweep.versions) * len(sweep.threads),
                "repeat": i,
            },
        )
        record = ledger.append(record)
        update_trajectory(record, ledger.root)
        print(
            f"repeat {i}: wall={record['wall_seconds']:.3f}s "
            f"cpu={record['cpu_seconds']:.3f}s"
        )
        if best is None or record["wall_seconds"] < best["wall_seconds"]:
            best = record
    assert best is not None
    print(f"ledger: {ledger.path}")
    if args.update_baseline:
        kwargs = {"root": args.baseline_dir} if args.baseline_dir else {}
        out = write_baseline(
            name,
            {
                "wall_seconds": best["wall_seconds"],
                "cpu_seconds": best["cpu_seconds"],
            },
            meta={
                "subject": name,
                "jobs": int(args.jobs),
                "fidelity": str(fidelity),
                "threads": list(threads),
                "repeats": max(1, args.repeat),
            },
            **kwargs,
        )
        print(f"baseline: {out}")
    elif args.baseline_dir is None:
        target = baseline_path(name)
        if not target.exists():
            print(f"hint: --update-baseline would write {target}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:  # e.g. `python -m repro tables | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except (KeyError, ValueError) as exc:
        # unknown workload / model / version names arrive here
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "machine":
        return _cmd_machine()
    if args.command == "claims":
        return _cmd_claims()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "microbench":
        return _cmd_microbench(args)
    if args.command == "offload":
        return _cmd_offload(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.experiment import PAPER_THREADS
    from repro.core.paperdoc import generate_report

    out = generate_report(
        args.out,
        threads=tuple(args.threads) if args.threads else PAPER_THREADS,
        paper_scale=args.full,
        workloads=args.workloads,
        include_claims=not args.no_claims,
    )
    print(f"wrote artifacts to {out}/ (see INDEX.md)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
