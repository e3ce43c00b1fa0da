"""Engine tiers: wall-clock cost of producing one result per fidelity.

The tiered-fidelity contract is an accuracy/cost trade, and the accuracy
half is pinned by ``tests/test_tiers_accuracy.py`` /
``test_tiers_properties.py``.  This benchmark pins the cost half: on a
representative sweep cell the tier-0 analytic estimate must be at least
an order of magnitude cheaper than the tier-2 simulation.  It also pins
why the work-stealing executor keeps two ``cilk_for`` graph builders:
the batched builder it runs must beat the scalar reference builder
(kept as its oracle and its fallback past exact float arithmetic) on
the graphs this cell builds.

Times here are *host* wall-clock seconds (``perf_counter``, best of
several repeats), not simulated seconds.
"""

import time

from conftest import run_once

from repro.core.registry import WORKLOADS
from repro.runtime import workstealing
from repro.runtime.run import run_program
from repro.sim.tiers import estimate_program

WORKLOAD = "axpy"
VERSION = "cilk_for"
P = 16
REPEATS = 3


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall-clock seconds for one call (minimum filters out
    scheduler noise; the work itself is deterministic)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _builder_calls(program, ctx):
    """Arguments of every ``cilk_for`` graph one run of ``program`` builds."""
    calls = []
    batched = workstealing.cilk_for_graph_batched

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return batched(*args, **kwargs)

    workstealing.cilk_for_graph_batched = spy
    try:
        run_program(program, P, ctx, VERSION)
    finally:
        workstealing.cilk_for_graph_batched = batched
    return calls


def bench_engine_tiers(benchmark, ctx, save):
    spec = WORKLOADS[WORKLOAD]
    params = dict(spec.default_params)
    program = spec.build(VERSION, ctx.machine, **params)
    calls = _builder_calls(program, ctx)
    assert calls, f"{WORKLOAD}/{VERSION} built no cilk_for graph"

    def build_all(builder):
        return lambda: [builder(*args, **kwargs) for args, kwargs in calls]

    def measure():
        out = {}
        out["tier 2 (DES)"] = _best_of(
            lambda: run_program(spec.build(VERSION, ctx.machine, **params), P, ctx, VERSION)
        )
        out["tier 0 (analytic)"] = _best_of(
            lambda: estimate_program(spec.build(VERSION, ctx.machine, **params), P, ctx, VERSION)
        )
        out["cilk_for_graph_batched"] = _best_of(build_all(workstealing.cilk_for_graph_batched))
        out["cilk_for_graph"] = _best_of(build_all(workstealing.cilk_for_graph))
        return out

    out = run_once(benchmark, measure)
    t2 = out["tier 2 (DES)"]
    t0 = out["tier 0 (analytic)"]
    batched, scalar = out["cilk_for_graph_batched"], out["cilk_for_graph"]
    est = estimate_program(program, P, ctx, VERSION)
    save(
        "engine_tiers",
        f"{WORKLOAD}/{VERSION} (n={params['n']:,}) at p={P}: "
        f"host cost per result, best of {REPEATS}\n"
        + "\n".join(f"  {k:26s} {v * 1e3:9.2f} ms" for k, v in out.items())
        + f"\ntier-0 cost ratio {t2 / t0:7.1f}x  (declared error bound "
        f"{est.error_bound:.3f})"
        + f"\nbatched builder ratio {scalar / batched:7.2f}x  "
        f"({len(calls)} graph(s))",
    )

    # the headline acceptance: an analytic estimate is >= 10x cheaper
    # than simulating the cell (in practice well past 100x at paper sizes)
    assert t2 / t0 >= 10.0
    # the batched builder must pay for keeping a second builder
    assert scalar / batched > 1.05
    # and the estimate still carries a usable (sub-100%) error bound
    assert 0.0 < est.error_bound < 1.0
