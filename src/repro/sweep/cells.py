"""Sweep cells: the unit of work of a parallel experiment sweep.

An experiment matrix (workload x version x thread count x params)
expands into independent :class:`SweepCell` instances.  Cells are
self-contained and order-free: each one names everything needed to
simulate it, so the executor can fan them out across OS processes,
replay them from the content-addressed cache, or run them serially —
in any order — and still assemble the exact :class:`SweepResult` the
old serial loop produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sweep lazily)
    from repro.core.experiment import ExperimentConfig

__all__ = ["SweepCell", "expand_cells"]


@dataclass(frozen=True)
class SweepCell:
    """One (workload, version, thread count, params) point of a sweep.

    ``faults`` / ``policy`` carry a fault-injection plan and recovery
    policy in canonical dict form (:meth:`repro.faults.FaultPlan.to_dict`
    / :meth:`repro.faults.Policy.to_dict`) so cells stay picklable and
    content-addressable; ``None`` (the default) is a fault-free cell and
    hashes exactly as it did before fault injection existed.
    """

    workload: str
    version: str
    nthreads: int
    params: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[Mapping[str, Any]] = None
    policy: Optional[Mapping[str, Any]] = None
    fidelity: int = 2
    """Simulation fidelity tier (:mod:`repro.sim.tiers`): ``2``
    discrete-event simulation, ``0`` closed-form analytic estimate.  The
    default keeps tier-2 cells hashing exactly as before tiers existed."""

    @property
    def key(self) -> tuple[str, int]:
        """The cell's slot in ``SweepResult.results`` / ``.errors``."""
        return (self.version, self.nthreads)

    def describe(self) -> str:
        return f"{self.workload}/{self.version} p={self.nthreads}"


def expand_cells(
    config: "ExperimentConfig",
    faults: Optional[Mapping[str, Any]] = None,
    policy: Optional[Mapping[str, Any]] = None,
    fidelity: int = 2,
) -> list[SweepCell]:
    """Expand a sweep config into its independent cells.

    The order (versions outer, thread counts inner) matches the legacy
    serial loop of ``run_experiment``; the executor may *complete* cells
    in any order but reports progress in this canonical one.  A fault
    plan / recovery policy (already in canonical dict form) and the
    fidelity tier apply to every cell of the sweep.
    """
    params = dict(config.params)
    return [
        SweepCell(config.workload, version, p, dict(params), faults, policy, fidelity)
        for version in config.versions
        for p in config.threads
    ]
