"""Random work-stealing scheduler (Cilk Plus / OpenMP task model).

Event-driven simulation of the scheduler described in section III.B of
the paper: every worker owns a double-ended queue; the owner pushes and
pops tasks at one end, a thief steals the oldest task from the other
end.  The deque protocol is pluggable (:mod:`repro.sim.deque`): Cilk's
THE protocol keeps owner operations lock-free, the Intel-OpenMP-style
locked deque serializes everything through the deque lock — the
contention mechanism the paper blames for ``omp task`` losing to
``cilk_spawn`` on Fibonacci.

Two loop front-ends are provided:

- :func:`cilk_for_graph` — the recursive binary splitter tree that
  ``cilk_for`` compiles to; chunk distribution happens through steals of
  subtree tasks, which serializes ramp-up and scatters data placement
  (the paper's explanation for ``cilk_for``'s poor data-parallel
  showing).  :func:`run_stealing_loop` builds it with
  :func:`cilk_for_graph_batched`, which yields the same tree with its
  leaf costs computed in one numpy pass;
- :func:`flat_chunk_graph` — the "master creates one task per chunk"
  decomposition used by the ``omp task`` versions of data-parallel
  kernels.

Bandwidth-placement penalty: subtree stealing randomizes which worker
touches which subrange, defeating first-touch NUMA placement and
prefetch streaming.  :func:`run_stealing_loop` charges stolen-range
executions a memory-traffic penalty that is strongest for small chunks
and fades once the memory bus is saturated anyway (when everyone is
bandwidth-bound, placement matters less).
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Optional

import numpy as np

from repro.runtime.base import ExecContext
from repro.sim.deque import make_deque
from repro.sim.engine import Engine
from repro.sim.task import IterSpace, TaskGraph
from repro.sim.trace import RegionResult, WorkerStats

__all__ = [
    "StealingScheduler",
    "run_stealing_graph",
    "run_stealing_loop",
    "cilk_for_graph",
    "cilk_for_graph_batched",
    "flat_chunk_graph",
    "default_grainsize",
    "scatter_penalty",
]

_BUSY, _IDLE, _WAKING = 0, 1, 2


class StealingScheduler:
    """One work-stealing execution of a :class:`TaskGraph`.

    Parameters
    ----------
    deque:
        ``"the"`` (Cilk THE protocol) or ``"locked"`` (Intel OpenMP).
    spawn_cost:
        Default task-creation cost charged to the spawner when a task
        becomes ready; a task's own ``spawn_cost`` field overrides it.
    init:
        ``"master"`` — worker 0 enqueues all roots sequentially (an
        OpenMP ``single`` region creating tasks, or a Cilk root spawn).
    undeferred_single:
        With one thread, execute tasks immediately at creation without
        touching the deque (Intel OpenMP's if-clause style serialization;
        this is why ``omp task`` does not lose to ``cilk_spawn`` at one
        core in the paper's Fig. 5).
    central_queue:
        All workers share one queue (worker 0's deque) for every push
        and pop — the GCC libgomp task-scheduling model the paper's
        cited Podobas et al. study found uncompetitive.  Contention on
        the single lock is emergent.
    work_first:
        The paper (III.B): "In work-first, tasks are executed once they
        are created, while in breadth-first, all tasks are first
        created."  With ``work_first=True`` a worker dives into the
        first task it makes ready without a deque round-trip (Cilk's
        discipline, also saving the push/pop cost); the default queues
        every created task (breadth-first, the OpenMP default).
    per_task_overhead:
        Extra post-task cost, e.g. an atomic accumulate per task.
    reducer:
        Charge Cilk reducer semantics: a view creation per steal and a
        view merge per steal at the final sync.
    tracer:
        A :class:`~repro.obs.tracer.Tracer` receiving the structured
        event stream: task-execution spans, steal-attempt spans
        (successful and failed probes), engine event times and per-deque
        lock grants.  This is the one observability hook; disabled
        (``None``) it costs a single branch at each emission site.
    audit:
        Deprecated (pre-tracer) validation logs: per-deque ``SimLock``
        grant triples and the engine's processed-event times, exposed
        through the result meta (``lock_audit``, ``event_times``) for
        the old :mod:`repro.validate` entry points.  Still honoured.
    """

    def __init__(
        self,
        graph: TaskGraph,
        nthreads: int,
        ctx: ExecContext,
        *,
        deque: str = "the",
        spawn_cost: Optional[float] = None,
        init: str = "master",
        undeferred_single: bool = False,
        per_task_overhead: float = 0.0,
        reducer: bool = False,
        record: bool = False,
        central_queue: bool = False,
        work_first: bool = False,
        audit: bool = False,
        tracer=None,
        faults=None,
        error_mode: str = "poison",
    ) -> None:
        if nthreads <= 0:
            raise ValueError("nthreads must be positive")
        self.graph = graph
        self.p = nthreads
        self.ctx = ctx
        self.deque_kind = deque
        if spawn_cost is None:
            spawn_cost = ctx.costs.cilk_spawn if deque == "the" else ctx.costs.omp_task_spawn
        self.spawn_cost = spawn_cost
        self.init = init
        self.undeferred_single = undeferred_single
        self.per_task_overhead = per_task_overhead
        self.reducer = reducer
        self.tracer = tracer

        self.engine = Engine(tracer=tracer)
        self.audit = audit
        if audit:
            self.engine.enable_audit()
        self.rng = random.Random(ctx.seed ^ (len(graph) * 2654435761 % (1 << 30)))
        self.deques = [
            make_deque(deque, w, ctx.costs, audit=audit, tracer=tracer)
            for w in range(nthreads)
        ]
        self.stats = [WorkerStats() for _ in range(nthreads)]
        self.steal_time = 0.0
        self.state = [_IDLE] * nthreads
        self.remaining = graph.indegrees()
        self.done = 0
        self.finish_time = 0.0
        self.active = 0
        self.steal_views = 0
        self._idle: list[int] = []
        self.record = record
        self.central_queue = central_queue
        self.work_first = work_first
        self.intervals: list[tuple[int, float, float, str]] = []
        # fault-injection state (all inert when faults is None)
        self.faults = faults
        self.error_mode = error_mode
        self.started = 0          # start-order ordinal for fault targeting
        self.poisoned = False     # spawn tree poisoned: nothing new issues
        self.poison_time = 0.0
        self.issued_after_poison = 0
        self._fail_tid: Optional[int] = None
        self._fail_err: Optional[str] = None
        self._fail_time = 0.0
        # memoized duration inputs (bit-identical to MemoryModel.duration
        # — Machine methods are pure, so caching their outputs per
        # (active, locality) changes nothing but speed)
        machine = ctx.machine
        self._speed = [1.0] + [machine.compute_speed(a) for a in range(1, nthreads + 1)]
        self._bw: dict[tuple[int, float], float] = {}

    def _duration(
        self, work: float, membytes: float, locality: float, active: int
    ) -> float:
        """Replicates :meth:`MemoryModel.duration` (``ctx.duration``)
        operation-for-operation (same IEEE ops in the same order), with
        the per-call model construction and Machine method dispatch
        memoized."""
        if active < 1:
            active = 1
        compute = work / self._speed[active]
        if membytes == 0.0:
            return compute
        key = (active, locality)
        bw = self._bw.get(key)
        if bw is None:
            bw = self._bw[key] = self.ctx.machine.bandwidth_per_thread(active, locality)
        mem = membytes / bw
        return max(compute, mem)

    # ------------------------------------------------------------------
    def run(self) -> RegionResult:
        graph = self.graph
        if len(graph) == 0:
            return RegionResult(time=0.0, nthreads=self.p, workers=self.stats)
        if self.p == 1 and self.undeferred_single:
            return self._run_serial_undeferred()

        # Workers 1..p-1 begin idle; worker 0 seeds the deque.
        for w in range(1, self.p):
            self._idle.append(w)
        t = 0.0
        dq = self.deques[0]
        pushed = 0
        for tid in graph.roots:
            task = graph.tasks[tid]
            spawn = task.spawn_cost if task.spawn_cost > 0 else self.spawn_cost
            t += spawn
            t = dq.push(t, tid)
            pushed += 1
        self.stats[0].overhead += t
        self._wake_idlers(pushed, t)
        self._acquire(0, t)
        self.engine.run(max_events=self.ctx.max_events)
        if self.done != len(graph) and not self.poisoned:
            raise RuntimeError(
                f"deadlock: {self.done}/{len(graph)} tasks completed in {graph.name}"
            )
        finish = self.finish_time
        if self.reducer and self.steal_views:
            finish += self.steal_views * self.ctx.costs.reducer_merge
        meta = {
            "steals": sum(d.steals for d in self.deques),
            "failed_steals": sum(d.failed_steals for d in self.deques),
            "lock_wait": sum(d.lock.wait_time for d in self.deques),
            "steal_time": self.steal_time,
            "max_deque_depth": max(d.max_depth for d in self.deques),
            "events": self.engine.events_processed,
            "reducer_views": self.steal_views,
        }
        meta.update(self._expected_meta())
        if self.faults is not None:
            meta["fault"] = self._fault_meta()
        if self.record:
            meta["intervals"] = self.intervals
        if self.audit:
            meta["lock_audit"] = [
                (d.lock.name, list(d.lock.log)) for d in self.deques if d.lock.log
            ]
            meta["event_times"] = list(self.engine.audit or ())
        return RegionResult(time=finish, nthreads=self.p, workers=self.stats, meta=meta)

    def _expected_meta(self) -> dict:
        """Useful-work accounting for the invariant checker.

        ``expected_work``/``expected_bytes`` are what the workers' busy
        time must conserve (every task executed exactly once);
        ``critical_path`` is a makespan lower bound because per-task
        durations can only inflate ``work`` (compute speed <= 1).
        """
        g = self.graph
        byte_locs = [t.locality for t in g.tasks if t.membytes > 0]
        return {
            "expected_work": g.total_work(),
            "expected_bytes": float(sum(t.membytes for t in g.tasks)),
            # best locality bounds bandwidth from above (envelope lower
            # edge); worst bounds it from below (upper edge)
            "expected_locality": max(byte_locs) if byte_locs else 1.0,
            "expected_locality_min": min(byte_locs) if byte_locs else 1.0,
            "critical_path": g.critical_path(),
        }

    def _fault_meta(self) -> dict:
        """Plain-JSON fault/degradation accounting for this execution."""
        faults = self.faults
        err = self._fail_err
        busy_total = sum(s.busy for s in self.stats)
        kind = "task_fail" if err is not None else (
            faults.triggered[0][0] if faults.triggered else ""
        )
        return {
            "kind": kind,
            "error": err or "",
            "mode": self.error_mode,
            "time": self._fail_time if err is not None else 0.0,
            "failed": err is not None and self.error_mode != "none",
            "cancelled": self.poisoned,
            "cancel_time": self.poison_time if self.poisoned else 0.0,
            "issued_after_cancel": self.issued_after_poison,
            "skipped": len(self.graph) - self.done,
            "useful": 0.0 if err is not None else busy_total,
            "wasted": busy_total if err is not None else 0.0,
            "triggered": [[k, t] for k, t in faults.triggered],
        }

    def _run_serial_undeferred(self) -> RegionResult:
        """One thread, tasks executed immediately at creation."""
        t = 0.0
        st = self.stats[0]
        tracer = self.tracer
        faults = self.faults
        for ordinal, task in enumerate(self.graph.tasks):  # creation order is topological
            spawn = task.spawn_cost if task.spawn_cost > 0 else self.spawn_cost
            dur = self._duration(task.work, task.membytes, task.locality, 1)
            if faults is not None:
                stall = faults.stall(0, t + spawn)
                if stall > 0.0:
                    if tracer is not None:
                        tracer.span(0, t + spawn, t + spawn + stall, "stall", "worker_stall")
                    st.overhead += stall
                    t += stall
                dur *= faults.slow_factor(t + spawn)
            if tracer is not None:
                tracer.span(0, t + spawn, t + spawn + dur, "task", task.tag or "task")
            t += spawn + dur + self.per_task_overhead
            st.busy += dur
            st.overhead += spawn + self.per_task_overhead
            st.tasks += 1
            self.done += 1
            if faults is not None and self._fail_err is None:
                failure = faults.fail_task(ordinal, t - dur - self.per_task_overhead)
                if failure is not None:
                    self._fail_err = failure
                    self._fail_time = t - self.per_task_overhead
                    if self.error_mode in ("poison", "cancel", "async_cancel"):
                        # serial abort: stop issuing past the failure point
                        self.poisoned = True
                        self.poison_time = self._fail_time
                        if tracer is not None:
                            tracer.instant(0, self._fail_time, "cancel")
                        break
        self.finish_time = t
        meta = {"steals": 0, "undeferred": True}
        meta.update(self._expected_meta())
        if faults is not None:
            meta["fault"] = self._fault_meta()
        return RegionResult(time=t, nthreads=1, workers=self.stats, meta=meta)

    # ------------------------------------------------------------------
    def _start(self, w: int, tid: int, t: float) -> None:
        self.state[w] = _BUSY
        self.active += 1
        task = self.graph.tasks[tid]
        dur = self._duration(task.work, task.membytes, task.locality, min(self.active, self.p))
        st = self.stats[w]
        t0 = max(t, self.engine.now)
        if self.faults is not None:
            if self.poisoned:
                self.issued_after_poison += 1
            ordinal = self.started
            self.started += 1
            stall = self.faults.stall(w, t0)
            if stall > 0.0:
                if self.tracer is not None:
                    self.tracer.span(w, t0, t0 + stall, "stall", "worker_stall")
                st.overhead += stall
                t0 += stall
            dur *= self.faults.slow_factor(t0)
            if self._fail_err is None:
                failure = self.faults.fail_task(ordinal, t0)
                if failure is not None:
                    self._fail_err = failure
                    self._fail_time = t0 + dur
                    self._fail_tid = tid
        st.busy += dur
        st.tasks += 1
        if self.record:
            self.intervals.append((w, t0, t0 + dur, task.tag or "task"))
        if self.tracer is not None:
            self.tracer.span(w, t0, t0 + dur, "task", task.tag or "task")
        self.engine.at(t0 + dur, partial(self._finish, w, tid))

    def _own_deque(self, w: int):
        return self.deques[0] if self.central_queue else self.deques[w]

    def _finish(self, w: int, tid: int) -> None:
        self.active -= 1
        t = self.engine.now
        t0 = t
        if tid == self._fail_tid and not self.poisoned and self.error_mode in ("poison", "cancel"):
            # the exception (or `omp cancel taskgroup`) surfaces when the
            # failing strand completes: poison the spawn tree — in-flight
            # tasks drain, continuations and queued tasks are abandoned
            # at the implicit sync
            self.poisoned = True
            self.poison_time = t
            if self.tracer is not None:
                self.tracer.instant(w, t, "cancel")
        if self.poisoned:
            self.done += 1
            if t > self.finish_time:
                self.finish_time = t
            self._acquire(w, t)
            return
        dq = self._own_deque(w)
        pushed = 0
        dive: Optional[int] = None
        for succ in self.graph.successors[tid]:
            self.remaining[succ] -= 1
            if self.remaining[succ] == 0:
                task = self.graph.tasks[succ]
                spawn = task.spawn_cost if task.spawn_cost > 0 else self.spawn_cost
                t += spawn
                if self.work_first and dive is None:
                    dive = succ  # execute-on-creation: no deque round-trip
                else:
                    t = dq.push(t, succ)
                    pushed += 1
        if self.per_task_overhead:
            t += self.per_task_overhead
        self.stats[w].overhead += t - t0
        self.done += 1
        if t > self.finish_time:
            self.finish_time = t
        if pushed:
            self._wake_idlers(pushed, t)
        if dive is not None:
            self._start(w, dive, t)
        else:
            self._acquire(w, t)

    def _acquire(self, w: int, t: float) -> None:
        """Pop own deque (or the central queue) or steal; go idle when
        the system looks empty."""
        if self.poisoned:
            # poisoned tree: nothing new is popped or stolen; once the
            # last in-flight task drains the whole execution aborts
            self.state[w] = _IDLE
            self._idle.append(w)
            if self.active == 0:
                self.engine.interrupt("poisoned")
            return
        tid, t2 = self._own_deque(w).pop(t)
        if tid is not None:
            self.stats[w].overhead += t2 - t
            self._start(w, tid, t2)
            return
        victim = None if self.central_queue else self._pick_victim(w)
        if victim is not None:
            t_probe = t + self.ctx.costs.steal_latency
            tid, t2 = self.deques[victim].steal(t_probe)
            if tid is not None:
                st = self.stats[w]
                st.steals += 1
                st.overhead += t2 - t
                self.steal_time += t2 - t
                if self.reducer:
                    t2 += self.ctx.costs.reducer_view
                    self.steal_views += 1
                if self.tracer is not None:
                    self.tracer.span(w, t, t2, "steal", f"steal<-w{victim}")
                self._start(w, tid, t2)
                return
            self.stats[w].failed_steals += 1
            self.stats[w].overhead += t2 - t
            self.steal_time += t2 - t
            if self.tracer is not None:
                self.tracer.span(w, t, t2, "steal_fail", f"probe->w{victim}")
            t = t2
        self.state[w] = _IDLE
        self._idle.append(w)

    def _pick_victim(self, w: int) -> Optional[int]:
        """Random victim among non-empty deques (deterministic RNG)."""
        candidates = [v for v in range(self.p) if v != w and self.deques[v].items]
        if not candidates:
            return None
        return candidates[self.rng.randrange(len(candidates))]

    def _wake_idlers(self, count: int, t: float) -> None:
        wake_at = max(t, self.engine.now) + self.ctx.costs.wake_latency
        while count > 0 and self._idle:
            w = self._idle.pop()
            self.state[w] = _WAKING
            self.engine.at(wake_at, partial(self._woken, w))
            count -= 1

    def _woken(self, w: int) -> None:
        if self.state[w] != _WAKING:
            return
        if self.tracer is not None:
            self.tracer.instant(w, self.engine.now, "wake")
        self._acquire(w, self.engine.now)


# ---------------------------------------------------------------------------
# Graph front-ends
# ---------------------------------------------------------------------------
def default_grainsize(niter: int, nthreads: int, cap: int = 2048) -> int:
    """Cilk Plus's automatic cilk_for grainsize: min(cap, N / 8p)."""
    return max(1, min(cap, -(-niter // (8 * nthreads))))


def cilk_for_graph(
    space: IterSpace,
    grainsize: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """The recursive binary splitter tree ``cilk_for`` compiles to.

    Interior tasks are range splits (cost ``cilk_split``); leaves execute
    ``grainsize``-iteration chunks.  Built iteratively to tolerate deep
    ranges.
    """
    g = TaskGraph(f"cilk_for[{space.name}]")
    split_cost = ctx.costs.cilk_split
    stack = [(0, space.niter, ())]
    while stack:
        lo, hi, deps = stack.pop()
        if hi - lo <= grainsize:
            work, membytes = space.chunk_cost(lo, hi)
            g.add(
                work * work_scale,
                membytes * bytes_penalty,
                space.locality,
                deps=deps,
                tag="chunk",
            )
        else:
            tid = g.add(split_cost, deps=deps, tag="split")
            mid = (lo + hi) // 2
            stack.append((lo, mid, (tid,)))
            stack.append((mid, hi, (tid,)))
    return g


def _cum_at_vec(cum: np.ndarray, pos: np.ndarray, nblocks: int, niter: int) -> np.ndarray:
    """Vectorized :meth:`IterSpace._cum_at` with the scalar's exact
    operation order: ``x = (pos * nblocks) / niter``, truncate, clamp,
    linear interpolation.  Callers must guarantee ``niter * nblocks <
    2**53`` so the float64 product is exact (then multiply-and-divide is
    bit-identical to Python's int-product true division)."""
    x = pos * float(nblocks) / float(niter)
    k = x.astype(np.int64)
    kc = np.minimum(k, nblocks - 1)
    frac = x - kc
    val = cum[kc] + frac * (cum[kc + 1] - cum[kc])
    return np.where(k >= nblocks, cum[-1], val)


def cilk_for_graph_batched(
    space: IterSpace,
    grainsize: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """The builder :func:`run_stealing_loop` uses: the same tree as
    :func:`cilk_for_graph` (same task ids, deps, tags, creation order),
    with the per-leaf ``chunk_cost`` interpolation batched through numpy.

    The first pass replays the splitter recursion with integers only,
    recording node order and leaf bounds; leaf costs are then computed
    in one vectorized sweep whose float ops mirror the scalar
    ``_cum_at`` exactly.  When ``niter * nblocks`` approaches 2**53 the
    float64 product is no longer exact and we fall back to the scalar
    builder rather than risk a one-ulp divergence.
    """
    niter = space.niter
    nblocks = space.nblocks
    if niter * nblocks >= 2 ** 53:
        return cilk_for_graph(
            space, grainsize, ctx, bytes_penalty=bytes_penalty, work_scale=work_scale
        )
    split_cost = ctx.costs.cilk_split
    # pass 1: integer-only replay of the recursion
    nodes: list[tuple[bool, int, int, int]] = []  # (is_leaf, lo, hi, dep)
    stack = [(0, niter, -1)]
    tid = 0
    while stack:
        lo, hi, dep = stack.pop()
        if hi - lo <= grainsize:
            nodes.append((True, lo, hi, dep))
            tid += 1
        else:
            nodes.append((False, lo, hi, dep))
            mid = (lo + hi) // 2
            stack.append((lo, mid, tid))
            stack.append((mid, hi, tid))
            tid += 1
    # pass 2: batched leaf costs (scalar chunk_cost op order)
    leaf_lo = np.array([lo for leaf, lo, _, _ in nodes if leaf], dtype=np.float64)
    leaf_hi = np.array([hi for leaf, _, hi, _ in nodes if leaf], dtype=np.float64)
    cw, cb = space._cum_work, space._cum_bytes
    works = np.maximum(
        _cum_at_vec(cw, leaf_hi, nblocks, niter) - _cum_at_vec(cw, leaf_lo, nblocks, niter),
        0.0,
    )
    membytes = np.maximum(
        _cum_at_vec(cb, leaf_hi, nblocks, niter) - _cum_at_vec(cb, leaf_lo, nblocks, niter),
        0.0,
    )
    works = works.tolist()
    membytes = membytes.tolist()
    # pass 3: identical graph construction
    g = TaskGraph(f"cilk_for[{space.name}]")
    locality = space.locality
    li = 0
    for is_leaf, lo, hi, dep in nodes:
        deps = () if dep < 0 else (dep,)
        if is_leaf:
            g.add(
                works[li] * work_scale,
                membytes[li] * bytes_penalty,
                locality,
                deps=deps,
                tag="chunk",
            )
            li += 1
        else:
            g.add(split_cost, deps=deps, tag="split")
    return g


def flat_chunk_graph(
    space: IterSpace,
    nchunks: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """One independent task per contiguous chunk (``omp task`` loops)."""
    if nchunks <= 0:
        raise ValueError("nchunks must be positive")
    nchunks = min(nchunks, space.niter)
    g = TaskGraph(f"flat[{space.name}]")
    for i in range(nchunks):
        lo = i * space.niter // nchunks
        hi = (i + 1) * space.niter // nchunks
        work, membytes = space.chunk_cost(lo, hi)
        g.add(work * work_scale, membytes * bytes_penalty, space.locality, tag="chunk")
    return g


def scatter_penalty(
    space: IterSpace,
    nchunks: int,
    nthreads: int,
    ctx: ExecContext,
    *,
    small_chunk_penalty: float = 0.9,
    numa_scatter_penalty: float = 0.25,
    scatter_bytes: float = 2e6,
) -> float:
    """Memory-traffic multiplier for randomly-placed stolen subranges.

    Three ingredients, all fading to 1.0 when they don't apply:

    - fine chunks lose prefetch/TLB efficiency (decays exponentially
      with chunk footprint against ``scatter_bytes``); this term is
      scaled by how *unsaturated* the memory system is — once every
      thread is bandwidth-starved, prefetch efficiency no longer
      differentiates (this is why the paper sees the cilk_for Axpy gap
      close at 32 cores);
    - once the computation spans sockets, random placement defeats
      first-touch NUMA locality and pushes traffic across the
      interconnect (flat ``numa_scatter_penalty`` — remote hops cost
      bandwidth whether or not the local controllers are saturated).
    """
    if nthreads <= 1:
        return 1.0
    if space.total_bytes <= 0:
        return 1.0
    machine = ctx.machine
    chunk_bytes = space.total_bytes / max(1, nchunks)
    scatter = math.exp(-chunk_bytes / scatter_bytes)
    agg_share = machine.bandwidth_per_thread(nthreads, space.locality)
    cap = machine.bandwidth_per_thread(1, space.locality)
    unsat = min(1.0, agg_share / cap) if cap > 0 else 1.0
    penalty = small_chunk_penalty * scatter * unsat
    if machine.sockets_spanned(nthreads) > 1:
        penalty += numa_scatter_penalty
    return 1.0 + penalty


def run_stealing_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    style: str = "cilk_for",
    deque: str = "the",
    grainsize: Optional[int] = None,
    nchunks: Optional[int] = None,
    chunks_per_thread: int = 1,
    reducer: bool = False,
    per_task_overhead: float = 0.0,
    work_scale: float = 1.0,
    entry_cost: float = 0.0,
    exit_cost: Optional[float] = None,
    apply_scatter_penalty: bool = True,
    undeferred_single: bool = False,
    record: bool = False,
    audit: bool = False,
    tracer=None,
    faults=None,
    error_mode: str = "none",
) -> RegionResult:
    """Execute a parallel loop on the work-stealing runtime.

    ``style="cilk_for"`` builds the splitter tree (with placement
    penalty); ``style="flat"`` builds master-spawned chunk tasks (the
    FIFO steal order hands thieves long contiguous runs, so no penalty).

    ``error_mode`` defaults to ``"none"``: Table III gives Cilk-style
    data parallelism no cancellation story, so an injected failure lets
    the loop run to completion and is only surfaced in the accounting.
    """
    costs = ctx.costs
    if reducer:
        # Reducer hyperobject updates cost a hypermap lookup per access.
        space = space.with_extra_work_per_iter(costs.reducer_access)
    if style == "cilk_for":
        gsize = grainsize if grainsize is not None else default_grainsize(space.niter, nthreads)
        nleaves = -(-space.niter // gsize)
        penalty = (
            scatter_penalty(space, nleaves, nthreads, ctx) if apply_scatter_penalty else 1.0
        )
        graph = cilk_for_graph_batched(
            space, gsize, ctx, bytes_penalty=penalty, work_scale=work_scale
        )
        exit_c = costs.taskwait if exit_cost is None else exit_cost
    elif style == "flat":
        nck = nchunks if nchunks is not None else nthreads * max(1, chunks_per_thread)
        graph = flat_chunk_graph(space, nck, ctx, work_scale=work_scale)
        penalty = 1.0
        exit_c = costs.taskwait if exit_cost is None else exit_cost
    else:
        raise ValueError(f"unknown stealing loop style {style!r}")
    if tracer is not None:
        # spans inside the scheduler are region-local starting after the
        # (already charged) entry cost
        tracer.offset += entry_cost
    sched = StealingScheduler(
        graph,
        nthreads,
        ctx,
        deque=deque,
        per_task_overhead=per_task_overhead,
        reducer=reducer,
        undeferred_single=undeferred_single,
        record=record,
        audit=audit,
        tracer=tracer,
        faults=faults,
        error_mode=error_mode,
    )
    res = sched.run()
    res.meta["bytes_penalty"] = penalty
    res.meta["style"] = style
    return RegionResult(
        time=entry_cost + res.time + exit_c,
        nthreads=nthreads,
        workers=res.workers,
        meta=res.meta,
    )


def run_stealing_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    deque: str = "the",
    spawn_cost: Optional[float] = None,
    per_task_overhead: float = 0.0,
    reducer: bool = False,
    entry_cost: float = 0.0,
    exit_cost: float = 0.0,
    undeferred_single: bool = False,
    central_queue: bool = False,
    work_first: bool = False,
    record: bool = False,
    audit: bool = False,
    tracer=None,
    faults=None,
    error_mode: str = "poison",
) -> RegionResult:
    """Execute an explicit task DAG on the work-stealing runtime."""
    if tracer is not None:
        tracer.offset += entry_cost
    sched = StealingScheduler(
        graph,
        nthreads,
        ctx,
        deque=deque,
        spawn_cost=spawn_cost,
        per_task_overhead=per_task_overhead,
        reducer=reducer,
        undeferred_single=undeferred_single,
        central_queue=central_queue,
        work_first=work_first,
        record=record,
        audit=audit,
        tracer=tracer,
        faults=faults,
        error_mode=error_mode,
    )
    res = sched.run()
    return RegionResult(
        time=entry_cost + res.time + exit_cost,
        nthreads=nthreads,
        workers=res.workers,
        meta=res.meta,
    )
