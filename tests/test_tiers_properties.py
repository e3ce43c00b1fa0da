"""Fast-body equivalence properties: the simulator's fast bodies must be
bit-identical to their scalar references.

The simulation runs on fast equivalents of scalar hot loops — the
engine's branch-hoisted drain, the memoized duration model
(``StealingScheduler._duration``), the batched ``cilk_for`` graph
builder.  The scalar references (``MemoryModel.duration``,
``cilk_for_graph``) stay in the code as the oracle.  "Equivalent" here
means **bit identical**: same final time, same per-worker statistics,
same executor meta, same complete trace event stream, down to the last
ULP of every timestamp.  These properties pin that on seeded random
programs (every executor, nested regions, skewed spaces) run with and
without the reference bodies patched in, under fault injection, and on
the batched builders directly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.runtime import workstealing
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.runtime.workstealing import StealingScheduler, cilk_for_graph, cilk_for_graph_batched
from repro.sim.task import IterSpace, TaskGraph
from repro.sweep.codec import result_to_dict
from repro.validate.properties import SMALL_MACHINE, random_program

CTX = ExecContext(machine=SMALL_MACHINE)

THREADS = (1, 2, 5, 9)
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


def _identical(program, p, reference_bodies, **kwargs) -> None:
    fast = run_program(program, p, CTX, trace=True, **kwargs)
    with reference_bodies():
        ref = run_program(program, p, CTX, trace=True, **kwargs)
    assert type(fast.time) is float and fast.time == ref.time
    # full-fidelity comparison: regions, worker stats, meta, every
    # span/instant/engine/lock event — the codec dict covers it all
    assert result_to_dict(fast) == result_to_dict(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_bit_identical_across_tiers(seed, reference_bodies):
    rng = random.Random(seed)
    program = random_program(rng, seed)
    for p in THREADS:
        _identical(program, p, reference_bodies)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_random_programs_identical_under_fault_injection(seed, reference_bodies):
    rng = random.Random(seed)
    program = random_program(rng, seed)
    policy = {"max_retries": 1, "backoff": 1e-6, "on_failure": "continue"}
    for p in (1, 5):
        _identical(program, p, reference_bodies, faults="fail:task=3", policy=policy)


def test_reference_bodies_fixture_swaps_both_bodies(reference_bodies, monkeypatch):
    """The equivalence runs above compare against the scalar bodies, not
    against the fast ones twice."""
    calls = []
    scalar = ExecContext.duration
    monkeypatch.setattr(
        ExecContext, "duration", lambda self, *a: calls.append(a) or scalar(self, *a)
    )
    g = TaskGraph()
    g.add(1e-8)
    StealingScheduler(g, 2, CTX)._duration(1e-8, 64.0, 0.5, 2)
    assert calls == []
    with reference_bodies():
        assert workstealing.cilk_for_graph_batched is cilk_for_graph
        StealingScheduler(g, 2, CTX)._duration(1e-8, 64.0, 0.5, 2)
    assert calls == [(1e-8, 64.0, 0.5, 2)]
    assert workstealing.cilk_for_graph_batched is cilk_for_graph_batched


# ---------------------------------------------------------------------------
# the batched cilk_for graph builder, compared structurally
# ---------------------------------------------------------------------------
def _skewed(niter: int) -> IterSpace:
    rng = np.random.default_rng(7)
    work = rng.uniform(1e-9, 2e-7, niter)
    mbytes = rng.choice([0.0, 24.0, 64.0], niter)
    return IterSpace.from_profile(work, mbytes, locality=0.7, name="skew")


@pytest.mark.parametrize("niter,grainsize", [
    (1, 1), (2, 1), (7, 1), (64, 8), (1000, 13), (4096, 64), (5000, 1024),
])
def test_batched_cilk_graph_equals_scalar(niter, grainsize):
    space = _skewed(niter)
    for kwargs in ({}, {"bytes_penalty": 1.5, "work_scale": 0.9}):
        g_ref = cilk_for_graph(space, grainsize, CTX, **kwargs)
        g_fast = cilk_for_graph_batched(space, grainsize, CTX, **kwargs)
        assert len(g_fast) == len(g_ref)
        for a, b in zip(g_fast.tasks, g_ref.tasks):
            # dataclass equality: work/membytes bit-equal floats, same
            # deps tuple (task ids), same split/chunk tag
            assert a == b
        assert g_fast.successors == g_ref.successors


def test_batched_cilk_graph_uniform_space():
    space = IterSpace.uniform(2048, 3e-8, 48.0, locality=0.5)
    g_ref = cilk_for_graph(space, 100, CTX)
    g_fast = cilk_for_graph_batched(space, 100, CTX)
    assert [(t.work, t.membytes, t.deps, t.tag) for t in g_fast.tasks] == [
        (t.work, t.membytes, t.deps, t.tag) for t in g_ref.tasks
    ]


def test_batched_builder_falls_back_past_exactness_guard():
    """niter * nblocks >= 2**53 cannot replicate the scalar op order
    bit-exactly, so the batched builder must delegate to the scalar
    one rather than drift."""
    space = IterSpace(2**51, np.full(16, 1e-3), np.zeros(16))
    assert space.niter * space.nblocks >= 2**53
    g_fast = cilk_for_graph_batched(space, 2**49, CTX)
    g_ref = cilk_for_graph(space, 2**49, CTX)
    assert [t for t in g_fast.tasks] == [t for t in g_ref.tasks]


# ---------------------------------------------------------------------------
# the memoized duration fast path
# ---------------------------------------------------------------------------
def test_fast_duration_bit_equal_to_memory_model():
    g = TaskGraph()
    g.add(1e-8)
    sched = StealingScheduler(g, 9, CTX)
    rng = np.random.default_rng(13)
    for _ in range(500):
        work = float(rng.uniform(0, 1e-6))
        membytes = float(rng.choice([0.0, 8.0, 64.0, 4096.0]))
        locality = float(rng.choice([0.1, 0.5, 1.0]))
        active = int(rng.integers(0, 10))
        assert sched._duration(work, membytes, locality, active) == CTX.duration(
            work, membytes, locality, active
        )


# ---------------------------------------------------------------------------
# the engine fast drain
# ---------------------------------------------------------------------------
def test_engine_fast_drain_matches_general_loop():
    from repro.sim.engine import Engine

    def build(engine):
        order = []
        for i, t in enumerate([5e-6, 1e-6, 1e-6, 3e-6]):
            engine.at(t, lambda i=i: order.append((engine.now, i)))
        return order

    fast = Engine()
    fast_order = build(fast)
    fast_end = fast.run()

    slow = Engine()
    slow.enable_audit()  # tracer attached -> general loop
    slow_order = build(slow)
    slow_end = slow.run()

    assert fast_order == slow_order
    assert fast_end == slow_end
    assert fast.events_processed == slow.events_processed == 4


def test_engine_fast_drain_honours_max_events():
    from repro.sim.engine import Engine

    eng = Engine()

    def reschedule():
        eng.after(1e-6, reschedule)

    eng.after(1e-6, reschedule)
    with pytest.raises(RuntimeError, match="exceeded"):
        eng.run(max_events=100)


def test_engine_fast_drain_honours_interrupt():
    from repro.sim.engine import Engine

    eng = Engine()
    seen = []
    eng.at(1e-6, lambda: (seen.append("a"), eng.interrupt("stop")))
    eng.at(2e-6, lambda: seen.append("b"))
    eng.run()
    assert seen == ["a"]
    assert eng.interrupted == "stop"
    assert eng.pending == 1
