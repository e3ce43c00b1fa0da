"""Tier-0 accuracy battery: analytic estimates vs the tier-2 reference.

The tier-0 estimator's contract is not "close" but *bounded*: every
estimate carries a calibrated relative error bound, and the tier-2
reference time must land inside it — across the entire workload
registry (every kernel × runtime × schedule the paper compares), at
serial and parallel thread counts.  A second battery covers the three
OpenMP worksharing schedules directly (the registry's validation
parameters exercise only ``static``), and a third pins the calibration
machinery itself: refining the calibration partition must tighten the
worst-case bound monotonically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import WORKLOADS
from repro.models.openmp import parallel_for
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import run_program
from repro.sim.task import IterSpace, Program
from repro.sim.tiers import (
    DEFAULT_CALIBRATION,
    TIER_ANALYTIC,
    Calibration,
    Tier0Result,
    calibrate,
    estimate_program,
    estimate_region,
)

CTX = ExecContext()

REGISTRY_CELLS = [
    (name, version, p)
    for name in sorted(WORKLOADS)
    for version in WORKLOADS[name].versions
    for p in (1, 4)
]


def _build(name: str, version: str) -> Program:
    spec = WORKLOADS[name]
    params = dict(spec.validation_params or spec.default_params)
    return spec.build(version, CTX.machine, **params)


# ---------------------------------------------------------------------------
# the registry-wide bound battery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,version,p", REGISTRY_CELLS, ids=[f"{n}-{v}-p{p}" for n, v, p in REGISTRY_CELLS]
)
def test_registry_estimate_within_declared_bound(name, version, p):
    """Every kernel × runtime × schedule: |t2 - t0| <= t0 * bound."""
    try:
        ref = run_program(_build(name, version), p, CTX, version)
    except ThreadExplosionError:
        with pytest.raises(ThreadExplosionError):
            estimate_program(_build(name, version), p, CTX, version)
        return
    est = estimate_program(_build(name, version), p, CTX, version)
    assert isinstance(est, Tier0Result)
    assert est.time > 0.0
    if est.error_bound == 0.0:
        # fully delegated program: the estimate IS the reference result
        assert est.time == pytest.approx(ref.time, rel=1e-9)
    else:
        rel = abs(ref.time - est.time) / est.time
        assert rel <= est.error_bound, (
            f"{name}/{version} p={p}: relative error {rel:.4f} "
            f"outside declared bound {est.error_bound:.4f}"
        )


def test_registry_estimates_at_high_thread_count():
    """p=16 (the contended regime the steal estimators model) stays
    within bounds for every workload's first and last version."""
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        for version in {spec.versions[0], spec.versions[-1]}:
            try:
                ref = run_program(_build(name, version), 16, CTX, version)
            except ThreadExplosionError:
                continue
            est = estimate_program(_build(name, version), 16, CTX, version)
            if est.error_bound > 0.0:
                rel = abs(ref.time - est.time) / est.time
                assert rel <= est.error_bound, f"{name}/{version} p=16: {rel:.4f}"


# ---------------------------------------------------------------------------
# direct schedule coverage (static / dynamic / guided)
# ---------------------------------------------------------------------------
def _skewed_space() -> IterSpace:
    work = np.linspace(4e-9, 150e-9, 3000)
    return IterSpace.from_profile(work, np.full(3000, 16.0), name="skewed")


@pytest.mark.parametrize("schedule", ["dynamic", "guided"])
@pytest.mark.parametrize("p", [1, 4, 16])
def test_worksharing_schedule_estimates(schedule, p):
    prog = Program(f"ws-{schedule}")
    prog.add(parallel_for(_skewed_space(), schedule=schedule))
    prog.add(parallel_for(IterSpace.uniform(4096, 25e-9, 64.0), schedule=schedule, chunk=8))
    ref = run_program(prog, p, CTX)
    est = estimate_program(prog, p, CTX)
    assert est.error_bound > 0.0  # modelled, not delegated
    rel = abs(ref.time - est.time) / est.time
    assert rel <= est.error_bound
    for region in est.regions:
        assert region.meta["tier"] == TIER_ANALYTIC
        assert region.meta["estimator"] == f"ws_{schedule}"


def test_static_schedule_is_delegated_exact():
    prog = Program("ws-static")
    prog.add(parallel_for(_skewed_space(), schedule="static"))
    ref = run_program(prog, 4, CTX)
    est = estimate_program(prog, 4, CTX)
    assert est.error_bound == 0.0
    assert est.time == pytest.approx(ref.time, rel=1e-12)
    assert est.regions[0].meta["estimator"] == "exact"


# ---------------------------------------------------------------------------
# calibration machinery
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def calibrations():
    kwargs = dict(threads=(1, 4), workloads=("axpy", "sum", "fib", "bfs"))
    return {lvl: calibrate(level=lvl, **kwargs) for lvl in (0, 1, 2)}


def test_bound_tightens_monotonically_with_level(calibrations):
    """Refining the calibration partition never widens the worst bound."""
    b0 = calibrations[0].max_bound
    b1 = calibrations[1].max_bound
    b2 = calibrations[2].max_bound
    assert b2 <= b1 <= b0
    assert b0 > 0.0


def test_calibration_levels_key_granularity(calibrations):
    assert set(calibrations[0].scales) == {"*"}
    assert all("/" not in k for k in calibrations[1].scales)
    assert any("/" in k for k in calibrations[2].scales)


def test_calibration_lookup_fallback():
    cal = Calibration(
        level=2,
        scales={"steal_flat/omp_task": 2.0, "steal_flat": 1.5, "*": 1.1},
        bounds={"steal_flat/omp_task": 0.1, "steal_flat": 0.2, "*": 0.3},
        fallback_bound=0.4,
    )
    assert cal.scale("steal_flat", "omp_task") == 2.0
    assert cal.scale("steal_flat", "other") == 1.5
    assert cal.scale("unknown", "x") == 1.1
    assert cal.bound("unknown", "x") == 0.3
    assert Calibration(level=1, scales={}, bounds={}).bound("anything") == 0.5


def test_shipped_calibration_covers_every_modelled_kind():
    """Every estimator kind the registry + schedules can produce must
    have a fitted (non-fallback) entry in the shipped calibration."""
    kinds = set()
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        for version in spec.versions:
            try:
                prog = _build(name, version)
            except Exception:  # pragma: no cover - registry always builds
                continue
            try:
                for region in prog:
                    kind, _ = estimate_region(region, 2, CTX)
                    kinds.add(kind)
            except ThreadExplosionError:
                continue
    kinds.discard("exact")
    kinds.update({"ws_dynamic", "ws_guided"})
    assert kinds  # the registry exercises the modelled estimators
    for kind in kinds:
        assert kind in DEFAULT_CALIBRATION.scales, kind
        assert kind in DEFAULT_CALIBRATION.bounds, kind
        assert 0.0 < DEFAULT_CALIBRATION.bounds[kind] < 1.0


def test_program_bound_is_time_weighted(monkeypatch):
    prog = Program("mix")
    prog.add(parallel_for(_skewed_space(), schedule="dynamic"))
    prog.add(parallel_for(IterSpace.uniform(2048, 20e-9), schedule="static"))
    est = estimate_program(prog, 4, CTX)
    bounds = [r.meta["error_bound"] for r in est.regions]
    times = [r.time for r in est.regions]
    expected = sum(b * t for b, t in zip(bounds, times)) / sum(times)
    assert est.error_bound == pytest.approx(expected)
    assert bounds[1] == 0.0  # static region delegated exact


def test_estimate_rejects_bad_nthreads():
    prog = Program("x")
    prog.add(parallel_for(IterSpace.uniform(64, 1e-8)))
    with pytest.raises(ValueError):
        estimate_program(prog, 0, CTX)


@pytest.mark.parametrize("niter,grainsize", [
    (0, 1), (1, 1), (7, 1), (1000, 13), (4096, 64), (8_000_000, 2048), (123_457, 5000),
])
def test_cilk_leaf_edges_match_the_splitter_recursion(niter, grainsize):
    """The level-at-a-time leaf edges equal the halving recursion's
    sorted leaf bounds (``cilk_for_graph``'s splitter, replayed here)."""
    from repro.sim.tiers import _cilk_leaf_edges

    los, stack = [], [(0, niter)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= grainsize:
            los.append(lo)
        else:
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
    edges = _cilk_leaf_edges(niter, grainsize)
    assert edges.dtype == np.float64
    assert edges.tolist() == sorted(los) + [niter]
