"""Tiered-fidelity simulation: closed-form tier-0 estimates.

The reproduction has two fidelity tiers:

- **tier 2** (simulation): the discrete-event simulation — every
  steal, lock grant and chunk dispatch is an event.  This is what the
  validators, tracers and golden tests pin.  Its work-stealing body
  uses a batched ``cilk_for`` graph builder and a memoized duration
  model, each pinned bit-identical to its scalar reference
  (``cilk_for_graph``, ``MemoryModel.duration``) by the property suite.
- **tier 0** (analytic, this module): no events at all.  Makespan is
  predicted from closed-form terms — the iteration space's block
  profile against the roofline memory model, Amdahl/greedy-scheduling
  bounds (``max(T1/p, T_inf)``), and the per-model overhead constants
  of :mod:`repro.sim.costs` (fork, barrier, dispatch, spawn, steal).
  The result carries an **error bound** calibrated once against traced
  tier-2 runs (:func:`calibrate`).

The numbers keep their old values: tier 1, once a second bit-identical
body of the simulation, is folded into tier 2, and ``fidelity=1`` is
rejected wherever a fidelity is accepted.

Tier 0 trades exactness for cost: a cell that takes seconds of
event-driven simulation is estimated in well under a millisecond
(``benchmarks/bench_engine_tiers.py`` measures the ratio).  Executors
that are already analytic in the reference runtime (serial regions,
static worksharing, thread pools) are *delegated*, not re-modelled:
their tier-0 estimate equals the tier-2 result exactly and their error
bound is zero.

Calibration groups observations at three nesting levels — one global
group (level 0), per estimator kind (level 1), per kind/version
(level 2).  Each group's scale is the log-midrange of observed
``t2 / t0_raw`` ratios and its bound the half-range plus margin; by
construction the worst-case bound tightens (never widens) as the
partition refines, which ``tests/test_tiers_accuracy.py`` asserts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.perf.spans import span as _perf_span
from repro.sim.task import IterSpace, LoopRegion, Program, SerialRegion, TaskRegion
from repro.sim.trace import RegionResult, SimResult, WorkerStats

__all__ = [
    "TIER_ANALYTIC",
    "TIER_REFERENCE",
    "Tier0Result",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "estimate_program",
    "estimate_region",
    "calibrate",
]

TIER_ANALYTIC = 0
TIER_REFERENCE = 2


@dataclass
class Tier0Result(SimResult):
    """A :class:`SimResult`-compatible analytic estimate.

    ``error_bound`` is the calibrated relative error bound: the tier-2
    time is expected within ``time * (1 ± error_bound)`` (a time-weighted
    combination of the per-region bounds, which are exact for delegated
    regions and calibrated for modelled ones).
    """

    error_bound: float = 0.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Calibration:
    """Per-estimator scale factors and error bounds from tier-2 runs.

    ``level`` selects the partition the tables were built at: ``0`` one
    global group (key ``"*"``), ``1`` per estimator kind (``"steal_cilkfor"``),
    ``2`` per kind/version (``"steal_cilkfor/cilk_for"``).  Lookups fall
    back from the finest key the level allows down to ``"*"`` and then
    to the defaults (scale 1.0, ``fallback_bound``).
    """

    level: int = 1
    scales: Mapping[str, float] = field(default_factory=dict)
    bounds: Mapping[str, float] = field(default_factory=dict)
    fallback_bound: float = 0.5

    def _lookup(self, table: Mapping[str, float], kind: str, version: str, default: float) -> float:
        if self.level >= 2:
            v = table.get(f"{kind}/{version}")
            if v is not None:
                return v
        if self.level >= 1:
            v = table.get(kind)
            if v is not None:
                return v
        v = table.get("*")
        return default if v is None else v

    def scale(self, kind: str, version: str = "") -> float:
        return self._lookup(self.scales, kind, version, 1.0)

    def bound(self, kind: str, version: str = "") -> float:
        return self._lookup(self.bounds, kind, version, self.fallback_bound)

    @property
    def max_bound(self) -> float:
        """Worst-case bound over every calibrated group."""
        return max(self.bounds.values(), default=self.fallback_bound)


# ---------------------------------------------------------------------------
# Region estimators
# ---------------------------------------------------------------------------
def _block_durations(
    space: IterSpace, active: int, ctx, work_scale: float = 1.0, bytes_scale: float = 1.0
) -> np.ndarray:
    """Roofline duration of every profile block with ``active`` threads."""
    machine = ctx.machine
    speed = machine.compute_speed(active)
    bw = machine.bandwidth_per_thread(active, space.locality)
    bwork = np.diff(space._cum_work) * work_scale
    bbytes = np.diff(space._cum_bytes) * bytes_scale
    return np.maximum(bwork / speed, bbytes / bw)


def _aggregate_result(
    time: float, p: int, busy: float, overhead: float, tasks: int
) -> RegionResult:
    w = WorkerStats(busy=busy, overhead=overhead, tasks=tasks)
    return RegionResult(time=time, nthreads=p, workers=[w], meta={"aggregate_workers": True})


def _ws_dispatch_estimate(space: IterSpace, p: int, ctx, params: dict) -> RegionResult:
    """Closed form for dynamic/guided worksharing dispatch.

    The reference executor walks chunks through a lock-serialized
    dispatch heap.  Closed form: the loop is either throughput-bound
    (total duration plus dispatch shared by ``p`` threads) or
    lock-bound (every dispatch serializes through the loop counter),
    plus a tail term of the largest chunk.
    """
    from repro.runtime.worksharing import _chunk_durations, _dispatch_edges

    costs = ctx.costs
    schedule = params.get("schedule", "static")
    edges = _dispatch_edges(space, schedule, params.get("chunk"), p)
    durations = _chunk_durations(space, edges, p, ctx, params.get("work_scale", 1.0))
    n = int(durations.size)
    total_dur = float(durations.sum())
    dmax = float(durations.max()) if n else 0.0
    c = costs.dynamic_dispatch
    if p <= 1:
        loop = total_dur + n * c
    else:
        loop = max(total_dur / p + n * c / p, n * c) + dmax * (p - 1) / p
    time = loop
    if params.get("fork", True):
        time += costs.fork_cost(p)
    if params.get("barrier", True):
        time += costs.barrier_cost(p)
    if params.get("reduction", False):
        time += p * costs.reduction_per_thread
    return _aggregate_result(time, p, busy=total_dur, overhead=n * c, tasks=n)


def _cilk_leaf_count(niter: int, grainsize: int) -> int:
    """Exact leaf count of the halving splitter recursion (memoized on
    range size — each recursion level has at most two distinct sizes)."""
    counts: dict[int, int] = {}

    def rec(n: int) -> int:
        if n <= grainsize:
            return 1
        cached = counts.get(n)
        if cached is not None:
            return cached
        m = n // 2
        r = rec(m) + rec(n - m)
        counts[n] = r
        return r

    return rec(niter)


def _cilk_leaf_edges(niter: int, grainsize: int) -> np.ndarray:
    """Sorted leaf boundaries of the halving recursion.

    The recursion partitions ``[0, niter)`` contiguously, so the sorted
    leaf ``lo`` values plus ``niter`` form a consecutive edge array
    usable with :meth:`IterSpace.chunk_costs`.  Built one recursion
    level at a time: every range wider than ``grainsize`` gains its
    midpoint ``(lo + hi) // 2`` in place (exact int64 arithmetic).
    """
    edges = np.array([0, niter], dtype=np.int64)
    while True:
        wide = np.flatnonzero(np.diff(edges) > grainsize)
        if wide.size == 0:
            return edges.astype(np.float64)
        edges = np.insert(edges, wide + 1, (edges[wide] + edges[wide + 1]) // 2)


def _edge_durations(
    space: IterSpace, edges: np.ndarray, active: int, ctx, work_scale: float, bytes_scale: float
) -> np.ndarray:
    """Roofline duration of each chunk between consecutive ``edges``."""
    machine = ctx.machine
    work, membytes = space.chunk_costs(edges)
    speed = machine.compute_speed(active)
    bw = machine.bandwidth_per_thread(active, space.locality)
    return np.maximum(work * work_scale / speed, membytes * bytes_scale / bw)


def _steal_cilkfor_estimate(
    space: IterSpace, p: int, ctx, params: dict, entry: float, exit_c: float
) -> RegionResult:
    """Closed form for the ``cilk_for`` splitter tree under work stealing."""
    from repro.runtime.workstealing import default_grainsize, scatter_penalty

    costs = ctx.costs
    machine = ctx.machine
    work_scale = params.get("work_scale", 1.0)
    if params.get("reducer", False):
        space = space.with_extra_work_per_iter(costs.reducer_access)
    grainsize = params.get("grainsize")
    gsize = grainsize if grainsize is not None else default_grainsize(space.niter, p)
    nleaves_cap = -(-space.niter // gsize)
    penalty = (
        scatter_penalty(space, nleaves_cap, p, ctx)
        if params.get("apply_scatter_penalty", True)
        else 1.0
    )
    leaves = _cilk_leaf_count(space.niter, gsize)
    # no more workers can be concurrently busy than there are leaves
    active = min(p, leaves) if p > 1 else 1
    speed = machine.compute_speed(active)
    if leaves <= 1 << 17:
        leaf_dur = _edge_durations(
            space, _cilk_leaf_edges(space.niter, gsize), active, ctx, work_scale, penalty
        )
        busy = float(leaf_dur.sum())
        leaf_max = float(leaf_dur.max())
    else:  # pathological grainsize: block-profile approximation
        block_dur = _block_durations(space, active, ctx, work_scale, penalty)
        busy = float(block_dur.sum())
        iters_per_block = space.niter / space.nblocks
        leaf_max = float(block_dur.max()) / iters_per_block * min(gsize, space.niter)
    splits = leaves - 1
    ntasks = leaves + splits
    split_dur = costs.cilk_split / speed
    spawn = costs.cilk_spawn if params.get("deque", "the") == "the" else costs.omp_task_spawn
    if params.get("deque", "the") == "the":
        push, pop, steal = costs.the_push, costs.the_pop, costs.the_steal
    else:
        push, pop, steal = costs.locked_push, costs.locked_pop, costs.locked_steal
    per_task = spawn + push + pop
    t1 = busy + splits * split_dur
    overhead = ntasks * per_task
    if p <= 1:
        time = t1 + overhead
    else:
        # critical path: subtree distribution is a chain of splits each
        # handed to a thief (split + spawn + steal round-trip per level),
        # ending in the worst leaf chunk
        depth = max(1, math.ceil(math.log2(leaves))) if leaves > 1 else 0
        steals = min(p * max(1, depth), leaves)
        tinf = costs.wake_latency + depth * (
            split_dur + per_task + steal + costs.steal_latency
        )
        tinf += leaf_max
        time = max((t1 + overhead + steals * (steal + costs.steal_latency)) / p, tinf)
        if params.get("reducer", False):
            # one view per steal on the thief, all views merged serially
            # at the sync
            time += steals * costs.reducer_merge + steals * costs.reducer_view / p
    return _aggregate_result(entry + time + exit_c, p, busy=t1, overhead=overhead, tasks=ntasks)


def _steal_flat_estimate(
    space: IterSpace, p: int, ctx, params: dict, entry: float, exit_c: float
) -> RegionResult:
    """Closed form for master-spawned flat chunk tasks (``omp task`` loops)."""
    costs = ctx.costs
    work_scale = params.get("work_scale", 1.0)
    if params.get("reducer", False):
        space = space.with_extra_work_per_iter(costs.reducer_access)
    nchunks = params.get("nchunks")
    nck = nchunks if nchunks is not None else p * max(1, params.get("chunks_per_thread", 1))
    nck = min(nck, space.niter)
    pto = params.get("per_task_overhead", 0.0)
    deque = params.get("deque", "the")
    spawn = costs.cilk_spawn if deque == "the" else costs.omp_task_spawn
    if deque == "the":
        push, pop, steal = costs.the_push, costs.the_pop, costs.the_steal
    else:
        push, pop, steal = costs.locked_push, costs.locked_pop, costs.locked_steal
    # no more workers can be concurrently busy than there are chunks
    active = min(p, nck) if p > 1 else 1
    edges = (np.arange(nck + 1, dtype=np.int64) * space.niter) // nck
    chunk_dur = _edge_durations(space, edges.astype(np.float64), active, ctx, work_scale, 1.0)
    busy = float(chunk_dur.sum())
    if p <= 1:
        if params.get("undeferred_single", False):
            time = busy + nck * (spawn + pto)
            overhead = nck * (spawn + pto)
        else:
            time = busy + nck * (spawn + push + pop + pto)
            overhead = nck * (spawn + push + pop + pto)
    else:
        # worker 0 enqueues every chunk serially before anyone runs
        seed = nck * (spawn + push)
        dmax = float(chunk_dur.max())
        # every chunk a thief executes costs one steal, and the steals
        # serialize through worker 0's deque; the owner/thief split is
        # the balance point of owner consumption rate vs serialized
        # steal rate (a locked deque makes the owner's pops contend
        # with in-flight steals, costing the owner about a steal slot)
        dur_avg = busy / nck
        owner_cost = pop + dur_avg
        if deque != "the":
            owner_cost += steal
        ns_bal = nck * owner_cost / (steal + owner_cost)
        nsteals = min(nck * (p - 1) / p, ns_bal)
        chain = nsteals * steal + dmax
        time = seed + costs.wake_latency + max(
            busy / p + nck * (pop + pto) / p, chain
        )
        if params.get("reducer", False):
            time += nsteals * costs.reducer_merge
        overhead = seed + nck * (pop + pto) + nsteals * steal
    return _aggregate_result(entry + time + exit_c, p, busy=busy, overhead=overhead, tasks=nck)


def _steal_graph_estimate(
    region: TaskRegion, p: int, ctx, params: dict, entry: float, exit_c: float
) -> RegionResult:
    """Closed form for an explicit task DAG under work stealing:
    greedy-scheduling bound ``max(T1/p, T_inf)`` on roofline-inflated
    durations plus per-task queue overheads."""
    costs = ctx.costs
    g = region.graph_for(p)
    n = len(g)
    if n == 0:
        return _aggregate_result(entry + exit_c, p, busy=0.0, overhead=0.0, tasks=0)
    deque = params.get("deque", "the")
    default_spawn = params.get("spawn_cost")
    if default_spawn is None:
        default_spawn = costs.cilk_spawn if deque == "the" else costs.omp_task_spawn
    if deque == "the":
        push, pop, steal = costs.the_push, costs.the_pop, costs.the_steal
    else:
        push, pop, steal = costs.locked_push, costs.locked_pop, costs.locked_steal
    pto = params.get("per_task_overhead", 0.0)
    busy = float(_graph_durations(g, p if p > 1 else 1, ctx).sum())
    total_spawn = float(
        sum(t.spawn_cost if t.spawn_cost > 0 else default_spawn for t in g.tasks)
    )
    if p <= 1:
        if params.get("undeferred_single", False):
            overhead = total_spawn + n * pto
        else:
            overhead = total_spawn + n * (push + pop + pto)
        time = busy + overhead
    else:
        t1 = g.total_work()
        tinf = g.critical_path()
        inflation = busy / t1 if t1 > 0 else 1.0 / ctx.machine.compute_speed(p)
        steals = min(n, p * max(1.0, math.log2(n)))
        overhead = total_spawn + n * (push + pop + pto)
        chain = math.log2(p) * (steal + costs.steal_latency + costs.wake_latency)
        time = max((busy + overhead + steals * steal) / p, tinf * inflation + chain)
    return _aggregate_result(entry + time + exit_c, p, busy=busy, overhead=overhead, tasks=n)


def _graph_durations(g, active: int, ctx) -> np.ndarray:
    """Roofline-inflated duration of every task with ``active`` threads
    running at once."""
    machine = ctx.machine
    n = len(g)
    speed = machine.compute_speed(active)
    works = np.fromiter((t.work for t in g.tasks), np.float64, count=n)
    mbytes = np.fromiter((t.membytes for t in g.tasks), np.float64, count=n)
    durs = works / speed
    if mbytes.any():
        locs = np.fromiter((t.locality for t in g.tasks), np.float64, count=n)
        for loc in np.unique(locs):
            bw = machine.bandwidth_per_thread(active, float(loc))
            mask = locs == loc
            durs[mask] = np.maximum(durs[mask], mbytes[mask] / bw)
    return durs


def _amt_graph_estimate(region: TaskRegion, p: int, ctx, kind: str) -> RegionResult:
    """Analytic estimate for the AMT graph executors (charm/hpx/mpi).

    The static-placement models are exactly analyzable: charm (round-
    robin chares) and mpi (block-partitioned ranks) reduce to one
    occupancy-coupled forward pass over the topologically-stored tasks
    — ``start = max(pe_free, deps ready)`` — with no events, faults or
    tracing, so their calibration bound collapses to the floor.  HPX's
    greedy earliest-free placement is approximated by the greedy-
    scheduling bound ``max((T1 + overhead)/p, T_inf)``; the gap left by
    dependency-induced idling is what its calibrated bound absorbs.
    """
    costs = ctx.costs
    g = region.graph_for(p)
    n = len(g)
    if n == 0:
        return _aggregate_result(0.0, p, busy=0.0, overhead=0.0, tasks=0)
    durs = _graph_durations(g, min(n, p) if p > 1 else 1, ctx)
    busy = float(durs.sum())

    if kind == "amt_hpx":
        ndeps = np.fromiter((len(t.deps) for t in g.tasks), np.float64, count=n)
        t1 = g.total_work()
        inflation = busy / t1 if t1 > 0 else 1.0
        tinf = g.critical_path() * inflation
        overhead = float(
            n * (costs.hpx_future_create + costs.hpx_continuation)
            + ndeps.sum() * costs.hpx_future_get
        )
        time = max((busy + overhead) / p, tinf) + costs.hpx_future_get
        return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=n)

    # charm / mpi: static placement, occupancy-coupled forward pass
    pe_free = [0.0] * p
    finish = [0.0] * n
    overhead = 0.0
    if kind == "amt_charm":
        root_ready = costs.charm_chare_create + costs.charm_msg_send
        pre = costs.charm_msg_recv + costs.charm_entry_dispatch
        for t in g.tasks:
            tid = t.tid
            pe = tid % p
            ready = max((finish[d] for d in t.deps), default=root_ready)
            post = len(g.successors[tid]) * costs.charm_msg_send
            end = max(pe_free[pe], ready) + pre + float(durs[tid]) + post
            pe_free[pe] = end
            finish[tid] = end
            overhead += pre + post
        time = max(pe_free) + costs.charm_msg_send + costs.charm_msg_recv
    else:  # amt_mpi
        for t in g.tasks:
            tid = t.tid
            pe = tid * p // n
            ready = 0.0
            pre = 0.0
            for d in t.deps:
                arr = finish[d]
                if d * p // n != pe:
                    arr += costs.mpi_latency
                    pre += costs.mpi_msg_overhead
                ready = max(ready, arr)
            post = sum(
                costs.mpi_msg_overhead for s in g.successors[tid] if s * p // n != pe
            )
            end = max(pe_free[pe], ready) + pre + float(durs[tid]) + post
            pe_free[pe] = end
            finish[tid] = end
            overhead += pre + post
        coll = 0.0
        if p > 1:
            coll = costs.mpi_allreduce_base + costs.mpi_allreduce_per_step * math.ceil(
                math.log2(p)
            )
        time = max(pe_free) + coll
    return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=n)


def estimate_region(region, nthreads: int, ctx) -> tuple[str, RegionResult]:
    """Estimate one region; returns ``(estimator_kind, raw_result)``.

    ``kind == "exact"`` means the region was delegated to its reference
    executor (already analytic — serial, static worksharing, thread
    pools, offload): the result *is* the tier-2 result and needs no
    calibration.  Every other kind is a closed-form estimate whose raw
    time a :class:`Calibration` scales and bounds.
    """
    from repro.runtime.run import _entry_cost, _exit_cost, execute_region

    p = nthreads
    if isinstance(region, LoopRegion) and region.executor == "stealing_loop":
        params = dict(region.params)
        entry = _entry_cost(params.pop("entry", "none"), p, ctx)
        exit_marker = params.pop("exit", None)
        exit_c = (
            _exit_cost(exit_marker, p, ctx) if exit_marker is not None else ctx.costs.taskwait
        )
        style = params.get("style", "cilk_for")
        if style == "cilk_for":
            return "steal_cilkfor", _steal_cilkfor_estimate(
                region.space, p, ctx, params, entry, exit_c
            )
        if style == "flat":
            return "steal_flat", _steal_flat_estimate(
                region.space, p, ctx, params, entry, exit_c
            )
        raise ValueError(f"unknown stealing loop style {style!r}")
    if isinstance(region, LoopRegion) and region.executor == "worksharing":
        schedule = region.params.get("schedule", "static")
        if schedule in ("dynamic", "guided"):
            return f"ws_{schedule}", _ws_dispatch_estimate(region.space, p, ctx, region.params)
        # static worksharing is already closed-form in the reference runtime
        return "exact", execute_region(region, p, ctx)
    if isinstance(region, TaskRegion) and region.executor == "stealing":
        params = dict(region.params)
        entry = _entry_cost(params.pop("entry", "none"), p, ctx)
        exit_c = _exit_cost(params.pop("exit", "none"), p, ctx)
        return "steal_graph", _steal_graph_estimate(region, p, ctx, params, entry, exit_c)
    if isinstance(region, TaskRegion) and region.executor in (
        "charm_graph", "hpx_graph", "mpi_graph"
    ):
        kind = {"charm_graph": "amt_charm", "hpx_graph": "amt_hpx", "mpi_graph": "amt_mpi"}[
            region.executor
        ]
        return kind, _amt_graph_estimate(region, p, ctx, kind)
    # SerialRegion, threadpool loop/graph, offload, AMT loops: the
    # reference executors are analytic already — delegate (exact, bound 0).
    return "exact", execute_region(region, p, ctx)


def estimate_program(
    program: Program,
    nthreads: int,
    ctx,
    version: str = "",
    calibration: Optional[Calibration] = None,
) -> Tier0Result:
    """Tier-0 analytic estimate of :func:`~repro.runtime.run.run_program`.

    Returns a :class:`Tier0Result` whose ``regions`` carry per-region
    ``meta["tier"] == 0``, the estimator kind, the applied calibration
    scale and the relative error bound; the program-level
    ``error_bound`` is the time-weighted combination of the region
    bounds.  Raises the same :class:`ThreadExplosionError` a tier-2 run
    would for thread-per-task versions past the cap (the check is
    delegated with the region).
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    cal = calibration if calibration is not None else DEFAULT_CALIBRATION
    ver = version or program.meta.get("version", "")
    regions: list[RegionResult] = []
    total = 0.0
    if program.meta.get("pool_setup"):
        total += nthreads * (ctx.costs.thread_create + ctx.costs.thread_join)
    # detail span under the executor's cell.estimate: how much of the
    # tier-0 path is estimation proper vs. program building around it
    with _perf_span("tier0.estimate"):
        for region in program:
            kind, res = estimate_region(region, nthreads, ctx)
            if kind == "exact":
                bound = 0.0
                scale = 1.0
            else:
                scale = cal.scale(kind, ver)
                bound = cal.bound(kind, ver)
                res = RegionResult(
                    time=res.time * scale, nthreads=res.nthreads, workers=res.workers, meta=res.meta
                )
            res.meta["tier"] = TIER_ANALYTIC
            res.meta["estimator"] = kind
            res.meta["scale"] = scale
            res.meta["error_bound"] = bound
            regions.append(res)
            total += res.time
    weight = sum(r.time for r in regions)
    if weight > 0:
        error_bound = sum(r.meta["error_bound"] * r.time for r in regions) / weight
    else:
        error_bound = 0.0
    return Tier0Result(
        program=program.name,
        version=ver,
        nthreads=nthreads,
        time=total,
        regions=regions,
        trace=None,
        error_bound=error_bound,
    )


# ---------------------------------------------------------------------------
# Calibration fitting
# ---------------------------------------------------------------------------
def _synthetic_calibration_programs() -> list[tuple[str, Program]]:
    """Dynamic/guided worksharing loops for :func:`calibrate`.

    Covers the schedule × profile-shape space the registry does not:
    uniform and linearly-skewed iteration costs, compute- and
    memory-bound, default and explicit chunk sizes.
    """
    from repro.models.openmp import parallel_for

    uniform = IterSpace.uniform(4096, 30e-9, 64.0, name="cal-uniform")
    skew_work = np.linspace(5e-9, 120e-9, 2048)
    skewed = IterSpace.from_profile(skew_work, np.full(2048, 24.0), name="cal-skewed")
    membound = IterSpace.uniform(8192, 2e-9, 512.0, locality=0.4, name="cal-membound")
    programs: list[tuple[str, Program]] = []
    for schedule in ("dynamic", "guided"):
        for chunk in (None, 16):
            prog = Program(name=f"cal-ws-{schedule}-{chunk or 'auto'}")
            for space in (uniform, skewed, membound):
                prog.add(parallel_for(space, schedule=schedule, chunk=chunk))
            programs.append((f"omp_for_{schedule}", prog))
    return programs


def calibrate(
    ctx=None,
    *,
    level: int = 1,
    threads: Iterable[int] = (1, 2, 4, 8, 16),
    workloads: Optional[Iterable[str]] = None,
    margin: float = 1.25,
    floor: float = 0.02,
) -> Calibration:
    """Fit per-estimator scales and bounds against tier-2 runs.

    Runs every registered workload × version × thread count (at
    validation parameters) at tier 2, pairs each region's reference
    time with its raw tier-0 estimate, and groups the log-ratios at the
    requested ``level``.  Scale is the log-midrange (the multiplicative
    centre of the observed ratios); the bound is the relative error the
    scaled estimate can reach at the range's edges
    (``exp(half_range) - 1``) widened by ``margin`` and ``floor``.

    The bound is monotone in the half-range, and refining the partition
    can only shrink each group's half-range, so
    ``calibrate(level=2).max_bound <= calibrate(level=1).max_bound <=
    calibrate(level=0).max_bound`` holds by construction.
    """
    from repro.core.registry import WORKLOADS
    from repro.runtime.base import ExecContext, ThreadExplosionError
    from repro.runtime.run import run_program

    if ctx is None:
        ctx = ExecContext()
    observations: list[tuple[str, str, float]] = []
    names = sorted(WORKLOADS)
    if workloads is not None:
        wanted = set(workloads)
        names = [n for n in names if n in wanted]
    for name in names:
        spec = WORKLOADS[name]
        params = dict(spec.validation_params or spec.default_params)
        for version in spec.versions:
            for p in threads:
                program = spec.build(version, ctx.machine, **params)
                try:
                    ref = run_program(program, p, ctx, version)
                except ThreadExplosionError:
                    continue  # tier 0 raises identically; nothing to fit
                for region, reg_res in zip(program, ref.regions):
                    kind, est = estimate_region(region, p, ctx)
                    if kind == "exact":
                        continue
                    if reg_res.time <= 0.0 or est.time <= 0.0:
                        continue
                    observations.append(
                        (kind, version, math.log(reg_res.time / est.time))
                    )
    # No registry workload exercises dynamic/guided worksharing at
    # validation parameters, so those estimator kinds are fitted against
    # synthetic loops (uniform and skewed profiles, with and without a
    # chunk clause) — otherwise they would fall back to the wide default.
    for version, program in _synthetic_calibration_programs():
        for p in threads:
            ref = run_program(program, p, ctx, version)
            for region, reg_res in zip(program, ref.regions):
                kind, est = estimate_region(region, p, ctx)
                if kind == "exact" or reg_res.time <= 0.0 or est.time <= 0.0:
                    continue
                observations.append((kind, version, math.log(reg_res.time / est.time)))
    if level <= 0:
        key_for = lambda kind, version: "*"
    elif level == 1:
        key_for = lambda kind, version: kind
    else:
        key_for = lambda kind, version: f"{kind}/{version}"
    groups: dict[str, list[float]] = defaultdict(list)
    for kind, version, logr in observations:
        groups[key_for(kind, version)].append(logr)
    scales: dict[str, float] = {}
    bounds: dict[str, float] = {}
    for key, logs in sorted(groups.items()):
        lo, hi = min(logs), max(logs)
        scales[key] = math.exp((lo + hi) / 2.0)
        half = (hi - lo) / 2.0
        bounds[key] = (math.exp(half) - 1.0) * margin + floor
    fallback = max(bounds.values(), default=0.5)
    return Calibration(level=level, scales=scales, bounds=bounds, fallback_bound=fallback)


#: Shipped calibration: ``calibrate(level=1)`` over the full registry at
#: validation parameters, threads (1, 2, 4, 8, 16), committed as
#: literals so tier-0 estimates are reproducible without a fitting run.
#: Regenerate with ``python -c "from repro.sim.tiers import calibrate;
#: print(calibrate())"`` after any cost-model or estimator change.
DEFAULT_CALIBRATION = Calibration(
    level=1,
    scales={
        "amt_charm": 1.000000,
        "amt_hpx": 1.289837,
        "amt_mpi": 1.000000,
        "steal_cilkfor": 1.070199,
        "steal_flat": 1.064074,
        "steal_graph": 1.337380,
        "ws_dynamic": 1.046891,
        "ws_guided": 0.843019,
    },
    bounds={
        "amt_charm": 0.020000,
        "amt_hpx": 0.382296,
        "amt_mpi": 0.020000,
        "steal_cilkfor": 0.434975,
        "steal_flat": 0.528671,
        "steal_graph": 0.441725,
        "ws_dynamic": 0.104426,
        "ws_guided": 0.252766,
    },
    fallback_bound=0.528671,
)
