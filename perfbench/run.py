"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload graph-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --regenerate        # rewrite reference.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
store, ledger and scratch file lives in a per-run directory under
``.perfbench/`` at the repository root, removed on exit; traced runs keep
their span dump there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("graph-sweep", "loop-sweep", "estimate-sweep", "served-replay")
#: set-ups timed per run for ``setup_s``
SETUPS = 5
#: what a fresh interpreter imports before the first timed operation
IMPORTS = ("repro.sweep", "repro.sim.tiers", "repro.serve.client",
           "repro.runtime.amt", "repro.workloads.taskgraph")


def _env(tmp: pathlib.Path) -> dict:
    """Environment of every child: this checkout's sources, telemetry on,
    the ledger in the run directory, no server redirection."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_LEDGER_DIR"] = str(tmp / "ledger")
    env.pop("REPRO_PERF_OFF", None)
    env.pop("REPRO_SWEEP_SERVER", None)
    return env


def _probe() -> int:
    """Fresh-interpreter set-up probe: import what the timed loop needs."""
    t0 = perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    print(perf_counter() - t0)
    return 0


def _time_setups(n: int, env: dict) -> tuple[list, list]:
    """Wall time (spawn to exit) and import time of ``n`` probe interpreters."""
    walls, imports = [], []
    for _ in range(n):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--probe"],
                             env=env, capture_output=True, text=True, check=True)
        walls.append(perf_counter() - t0)
        imports.append(float(out.stdout.split()[-1]))
    return walls, imports


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _latency_metrics(samples: list, prefix: str) -> dict:
    from perfbench.stats import percentile

    return {
        f"{prefix}_p50_ms": _metric(percentile(samples, 0.5) * 1e3, "ms"),
        f"{prefix}_p90_ms": _metric(percentile(samples, 0.9) * 1e3, "ms"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
def run_sweep_workload(name: str, seconds: float, trace: bool, tmp, env):
    from perfbench import layers, reference, sweeps, tracing
    from perfbench.stats import cell_median

    matrix, fidelity = sweeps.SWEEPS[name]
    checker = reference.Checker(reference.load())
    walls, imports = _time_setups(SETUPS, env)
    if not trace:
        log = sweeps.run_for(seconds, matrix, fidelity, tmp)
        sweeps.check(log, checker)
        metrics = {
            "setup_s": _metric(median(walls), "s"),
            "cells_per_s": _metric(log.cells / log.seconds, "1/s"),
            "cell_p50_ms": _metric(cell_median(log.by_cell) * 1e3, "ms"),
            "cell_p90_ms": _latency_metrics(log.gaps, "cell")["cell_p90_ms"],
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
        extra = {"cells": log.cells, "passes": log.passes}
        if fidelity == 0:
            extra["tier0_err_max"] = checker.tier0_err_max
        return checker, metrics, extra

    # per-layer figures need no per-cell medians: two passes a half
    plain = sweeps.run_for(seconds / 2, matrix, fidelity, tmp, min_passes=2)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = sweeps.run_for(seconds / 2, matrix, fidelity, tmp, tracer=tracer,
                                min_passes=2)
    t2_over_t0 = None
    if fidelity == 0:
        # each workload's untraced tier-2 host cost per pass over its tier-0 one
        t2 = sweeps.SweepLog()
        sweeps.run_pass(matrix, 2, tmp / "store-t2", t2)
        sweeps.check(t2, checker)
        t2_over_t0 = {w: t2.by_workload[w] / (plain.by_workload[w] / plain.passes)
                      for w in t2.by_workload}
    sweeps.check(plain, checker)
    sweeps.check(traced, checker)
    metrics = layers.layer_metrics(
        tracing.layer_totals(tracer), tracer.counts(),
        import_s=median(imports),
        coverage=tracing.coverage(tracer, traced.windows),
        overhead_ratio=(traced.cells / traced.seconds) / (plain.cells / plain.seconds),
        t2_over_t0=t2_over_t0,
    )
    _dump_spans(tracer, name)
    return checker, metrics, {"tier0_err_max": checker.tier0_err_max} if fidelity == 0 else {}


# ---------------------------------------------------------------------------
# served replay
# ---------------------------------------------------------------------------
def _set_up_server(tmp, env, index: int):
    """Fresh interpreter warms a new store, then the server starts on it."""
    from perfbench import served

    store = tmp / f"serve-store-{index}"
    t0 = perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--warm", str(store)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    server = served.Server(store, tmp / f"serve-{index}.log", env)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


def _serve_counters(before: dict, after: dict) -> dict:
    """``/stats`` counter deltas, plus the summed request seconds."""
    from perfbench.layers import SERVE_COUNTERS

    out = {}
    for name, counter in SERVE_COUNTERS:
        out[name] = after["counters"].get(counter, 0) - before["counters"].get(counter, 0)
    req = "serve.request_seconds"
    out["request_s"] = (after["observations"].get(req, {}).get("total", 0.0)
                        - before["observations"].get(req, {}).get("total", 0.0))
    return out


def run_served(seed: int, seconds: float, trace: bool, tmp, env):
    from perfbench import layers, reference, served, tracing

    checker = reference.Checker(reference.load())
    imports = _time_setups(SETUPS, env)[1] if trace else []
    logs = [served.ClientLog() for _ in range(served.CLIENTS)]
    setups = []
    server = None
    try:
        for i in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
            server, took = _set_up_server(tmp, env, i)
            setups.append(took)
        before = server.stats()
        window = served.replay(seed, server.url, seconds / 2 if trace else seconds, logs)
        plain_cells = sum(log.cells for log in logs)
        if trace:
            mid = server.stats()
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                traced_window = served.replay(seed, server.url, seconds / 2, logs, tracer)
        after = server.stats()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # every fresh cell is a miss of the warmed store, simulated exactly once
    counters = _serve_counters(before, after)
    fresh = served.check(logs, checker)
    total_cells = sum(log.cells for log in logs)
    checker.expect("serve", counters["simulations"] == len(fresh),
                   f"{counters['simulations']} simulations for "
                   f"{len(fresh)} distinct fresh cells")
    resolved = counters["cache_hits"] + counters["dedup_hits"] + counters["simulations"]
    checker.expect("serve", resolved == total_cells,
                   f"server resolved {resolved} cells, clients got {total_cells}")

    requests = [r for log in logs for r in log.requests]
    wall = window[1] - window[0]
    if not trace:
        metrics = {
            "setup_s": _metric(median(setups), "s"),
            "cells_per_s": _metric(total_cells / wall, "1/s"),
            **_latency_metrics([g for log in logs for g in log.gaps], "cell"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
        extra = {
            "requests_per_s": len(requests) / wall,
            **{k: v["value"] for k, v in _latency_metrics(requests, "request").items()},
            "requests": len(requests),
            "cells": total_cells,
            "server": counters,
        }
        return checker, metrics, extra

    traced_wall = traced_window[1] - traced_window[0]
    metrics = layers.layer_metrics(
        tracing.layer_totals(tracer), tracer.counts(),
        import_s=median(imports),
        coverage=tracing.coverage(tracer, [traced_window]),
        overhead_ratio=((total_cells - plain_cells) / traced_wall) / (plain_cells / wall),
        serve=_serve_counters(mid, after),
    )
    _dump_spans(tracer, "served-replay")
    return checker, metrics, {"requests": len(requests)}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def _dump_spans(tracer, name: str) -> None:
    path = WORKDIR / f"spans-{name}.ndjson"
    n = tracer.dump(path)
    print(f"wrote {n} spans to {path.relative_to(ROOT)}", file=sys.stderr)


def _print_table(name: str, checker, metrics: dict, extra: dict) -> None:
    print(f"== {name}")
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
    ratio = checker.failed / checker.attempted
    print(f"  {'failed_op_ratio':<34} {ratio:>14.6g} ratio "
          f"({checker.failed}/{checker.attempted})")
    for key, value in extra.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else value
        print(f"  {key:<34} {shown}")
    for line in checker.mismatches:
        print(f"  MISMATCH {line}")


def _run_all(args) -> int:
    """Each workload in its own interpreter; one table per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, m in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite perfbench/reference.json from this code")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--warm", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.probe:
        return _probe()
    if args.warm:
        from perfbench import served

        served.warm_store(args.warm)
        return 0
    if args.workload is None and not args.regenerate:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)

    WORKDIR.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    env = _env(tmp)
    os.environ.clear()
    os.environ.update(env)
    try:
        for name in IMPORTS:
            importlib.import_module(name)
        if args.regenerate:
            from perfbench import reference, sweeps

            reference.write(sweeps.regenerate())
            print(f"wrote {reference.PATH.relative_to(ROOT)}")
            return 0
        if args.workload == "served-replay":
            checker, metrics, extra = run_served(args.seed, args.seconds,
                                                 bool(args.trace), tmp, env)
        else:
            checker, metrics, extra = run_sweep_workload(
                args.workload, args.seconds, bool(args.trace), tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _print_table(args.workload, checker, metrics, extra)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
