"""The benchmark's own arithmetic: percentiles, self times, the reference check.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import pathlib

import pytest

from perfbench import layers, reference, stats, tracing

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    xs = list(range(1, 101))  # p90 of 100 leaves exactly 10 above
    assert stats.percentile(xs, 0.9) == pytest.approx(90.9, abs=0.5)
    with pytest.raises(ValueError, match="need at least 10"):
        stats.percentile(xs[:99], 0.9)


def test_median_needs_twenty_samples():
    assert stats.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 0.5)


def test_percentile_is_order_free_and_exact_on_constants():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert stats.percentile(xs, 0.5) == pytest.approx(3.0)
    assert stats.percentile([7.0] * 50, 0.5) == pytest.approx(7.0)
    assert stats.harrell_davis_weights(200, 0.9).sum() == pytest.approx(1.0)


def test_percentile_is_steady_across_a_gap_between_modes():
    # 45 cheap and 46 expensive cells: the nearest-rank median jumps
    # between the modes when one cell moves; the weighted one moves little
    cheap, dear = [1.0] * 45, [100.0] * 46
    before = stats.percentile(cheap + dear, 0.5)
    after = stats.percentile(cheap + [1.0] + dear[1:], 0.5)
    assert abs(after - before) / before < 0.2


def test_cell_median_ignores_pass_count_and_one_slow_pass():
    # graph-sweep's shape: 49 cheap cells (1..49 ms), 42 dear ones
    cells = {f"c{i}": float(i) for i in range(1, 50)}
    cells.update({f"d{i}": 100.0 + i for i in range(42)})
    three = stats.cell_median({c: [t] * 3 for c, t in cells.items()})
    assert stats.cell_median({c: [t] * 5 for c, t in cells.items()}) == three
    assert three == pytest.approx(stats.percentile(list(cells.values()), 0.5))
    # a burst slows one pass of every cell tenfold: the median holds
    slow = {c: [t, 10 * t, t] for c, t in cells.items()}
    assert stats.cell_median(slow) == three
    with pytest.raises(ValueError, match="need at least 10"):
        stats.cell_median({f"c{i}": [1.0] for i in range(19)})


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # graph_for inside execute_region inside run_sweep, plus a sibling
    spans = [
        ["executor", 0.0, 10.0, -1, None],
        ["runtime.stealing", 1.0, 9.0, 0, None],
        ["task.graph_for", 2.0, 5.0, 1, None],
        ["cache.put", 9.5, 10.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([1.5, 5.0, 3.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", 0.0, 10.0, -1, None],
        ["a", 1.0, 6.0, 0, None],
        ["b", 4.0, 8.0, 0, None],  # overlaps a: covered is [1, 8]
        ["c", 9.0, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_wrapped_calls_nest_and_self_times_sum_to_the_root():
    tracer = tracing.Tracer()

    def graph_for():
        return list(range(7))

    def execute_region():
        return len(wrapped_graph_for())

    wrapped_graph_for = tracer.wrap(graph_for, "task.graph_for",
                                    lambda a, k, g: {"tasks": len(g)})
    wrapped_region = tracer.wrap(execute_region, "runtime.stealing")
    with tracer.span("executor"):
        assert wrapped_region() == 7
    (log,) = tracer.logs
    assert [(s[0], s[3]) for s in log.spans] == [
        ("executor", -1), ("runtime.stealing", 0), ("task.graph_for", 1)]
    root = log.spans[0]
    assert sum(tracing.self_times(log.spans)) == pytest.approx(root[2] - root[1])
    totals = tracing.layer_totals(tracer)
    assert totals["task.graph_for"]["tasks"] == 7
    assert totals["runtime.stealing"]["calls"] == 1


def test_reentrant_layer_is_one_span():
    tracer = tracing.Tracer()

    def scalar(depth):
        return depth if depth == 0 else wrapped(depth - 1)

    wrapped = tracer.wrap(scalar, "workstealing.build")
    wrapped(3)
    assert len(tracer.logs[0].spans) == 1


def test_coverage_is_root_union_over_windows():
    tracer = tracing.Tracer()
    log = tracer._log()
    log.spans = [
        ["executor", 1.0, 4.0, -1, None],
        ["cache.put", 2.0, 3.0, 0, None],
        ["executor", 5.0, 9.0, -1, None],
    ]
    assert tracing.coverage(tracer, [(0.0, 10.0)]) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# the pinned reference
# ---------------------------------------------------------------------------
def _one_cell():
    from repro.sweep import run_sweep

    sweep = run_sweep("taskbench", versions=("omp_task",), threads=(4,),
                      params={"width": 64})
    (_v, _p, res, err), = reference.outcomes(sweep)
    cid = reference.cell_id("taskbench", {"width": 64}, "omp_task", 4, 2)
    return cid, res, err


def test_cell_matches_its_pinned_digest():
    cid, res, err = _one_cell()
    checker = reference.Checker(reference.load())
    assert checker.check(cid, reference.cell_digest(res, err), res.time)
    assert (checker.attempted, checker.failed) == (1, 0)


def test_one_ulp_change_in_a_cell_time_is_a_failed_op():
    cid, res, err = _one_cell()
    checker = reference.Checker(reference.load())
    res.time = math.nextafter(res.time, math.inf)
    assert not checker.check(cid, reference.cell_digest(res, err), res.time)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_one_ulp_change_in_a_worker_stat_is_a_failed_op():
    cid, res, err = _one_cell()
    checker = reference.Checker(reference.load())
    w = res.regions[0].workers[0]
    w.busy = math.nextafter(w.busy, 0.0)
    assert not checker.check(cid, reference.cell_digest(res, err), res.time)


def test_tier0_error_is_measured_against_the_pinned_tier2_twin():
    cells = {
        "w[]/v/p2/t2": {"digest": "a", "time": 2.0, "error": None},
        "w[]/v/p2/t0": {"digest": "b", "time": 2.5, "error": None},
    }
    checker = reference.Checker(cells)
    assert checker.check("w[]/v/p2/t0", "b", 2.5)
    assert checker.tier0_err_max == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# the metric vocabulary
# ---------------------------------------------------------------------------
def test_per_layer_metrics_are_the_declared_ones():
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    emitted = layers.layer_metrics({}, {}, import_s=0.4, coverage=1.0,
                                   overhead_ratio=1.0)
    assert [m["name"] for m in declared] == list(emitted)
    assert [m["unit"] for m in declared] == [m["unit"] for m in emitted.values()]
