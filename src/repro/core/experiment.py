"""Experiment driver: thread-count sweeps across versions.

One :func:`run_experiment` call regenerates the data behind one paper
figure: for every version of a workload and every thread count, build
the program, run it through its runtime, and collect the simulated
times into a :class:`SweepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.runtime.base import ExecContext
from repro.sim.trace import SimResult

__all__ = ["PAPER_THREADS", "ExperimentConfig", "SweepResult", "run_experiment"]

#: Thread counts shown in the paper's figures.
PAPER_THREADS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 36)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one sweep."""

    workload: str
    versions: tuple[str, ...]
    threads: tuple[int, ...] = PAPER_THREADS
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """Times for every (version, thread count) of one workload.

    ``metrics`` holds the :class:`~repro.obs.metrics.MetricsRegistry`
    the sweep executor accounted into (cache hits/misses, simulation
    counts, and the merged per-run metrics); it is ``None`` only for
    results rebuilt from the lossy serialized form.

    ``perf`` is the host-telemetry snapshot of the executing sweep
    (:meth:`repro.perf.PerfRecorder.snapshot`): host wall/CPU seconds
    plus the executor's span/counter detail.  It is ``None`` when
    telemetry is disabled (``REPRO_PERF_OFF=1``) or for rebuilt
    results — host cost is a property of one execution, so it is never
    serialized into the result cache.
    """

    config: ExperimentConfig
    figure: str
    series: dict[str, list[Optional[float]]] = field(default_factory=dict)
    results: dict[tuple[str, int], SimResult] = field(default_factory=dict)
    errors: dict[tuple[str, int], str] = field(default_factory=dict)
    metrics: Optional[Any] = None
    perf: Optional[dict[str, Any]] = None

    @property
    def workload(self) -> str:
        return self.config.workload

    @property
    def threads(self) -> tuple[int, ...]:
        return self.config.threads

    @property
    def versions(self) -> tuple[str, ...]:
        return self.config.versions

    def time(self, version: str, nthreads: int) -> float:
        """Simulated seconds for one cell; raises if that run errored."""
        key = (version, nthreads)
        if key in self.errors:
            raise RuntimeError(f"{key} failed: {self.errors[key]}")
        return self.results[key].time

    def times(self, version: str) -> list[Optional[float]]:
        """Time series across threads (None where the run errored)."""
        return self.series[version]

    def counter(self, name: str) -> int:
        """Value of one executor accounting counter (0 when unmetered)."""
        if self.metrics is None:
            return 0
        c = self.metrics.counters.get(name)
        return c.value if c is not None else 0

    @property
    def host_wall_seconds(self) -> float:
        """Host wall-clock cost of executing this sweep (0.0 unmetered)."""
        if not self.perf:
            return 0.0
        return float(self.perf.get("wall_seconds", 0.0))

    @property
    def host_cpu_seconds(self) -> float:
        """Host CPU cost of executing this sweep (0.0 unmetered)."""
        if not self.perf:
            return 0.0
        return float(self.perf.get("cpu_seconds", 0.0))


def run_experiment(
    workload: str,
    versions: Optional[Sequence[str]] = None,
    threads: Sequence[int] = PAPER_THREADS,
    ctx: Optional[ExecContext] = None,
    jobs: int = 1,
    cache: Any = None,
    refresh: bool = False,
    trace: bool = False,
    validate: bool = False,
    fidelity: Any = 2,
    **params: Any,
) -> SweepResult:
    """Run one figure's sweep and return all series.

    Every sweep routes through the :mod:`repro.sweep` executor:

    - ``jobs``   — worker processes (1 = in-process serial execution);
    - ``cache``  — ``True`` / a directory / a
      :class:`~repro.sweep.cache.ResultCache` memoizes completed cells
      on disk, so re-running a figure only simulates changed cells;
    - ``refresh`` — ignore (and overwrite) existing cache entries;
    - ``trace``  — attach the observability tracer to every run;
    - ``validate`` — run the invariant audit on every simulated run;
    - ``fidelity`` — simulation tier (:mod:`repro.sim.tiers`):
      ``2`` discrete-event simulation, ``0`` closed-form estimates,
      ``"auto"`` the cheapest tier the sweep's options allow.

    Serial, parallel and cached executions are bit-identical.  A
    :class:`~repro.runtime.base.ThreadExplosionError` (the C++11 fib
    hang) is recorded in ``errors`` instead of propagating, so the
    sweep can report it the way the paper does.
    """
    # imported lazily: repro.sweep builds on this module's dataclasses
    from repro.sweep.executor import run_sweep

    return run_sweep(
        workload,
        versions,
        threads,
        ctx,
        params=params,
        jobs=jobs,
        cache=cache,
        refresh=refresh,
        trace=trace,
        validate=validate,
        fidelity=fidelity,
    )
