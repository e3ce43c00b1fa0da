"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.runtime import workstealing
from repro.runtime.base import ExecContext
from repro.sim.costs import CostModel
from repro.sim.machine import PAPER_MACHINE, Machine


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the committed golden traces under tests/goldens/ "
        "from the current simulator output instead of comparing",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    """True when the run should regenerate golden files, not assert them."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def machine() -> Machine:
    """The paper's two-socket Xeon."""
    return PAPER_MACHINE


@pytest.fixture
def small_machine() -> Machine:
    """A small machine for fast event-driven tests."""
    return Machine(sockets=2, cores_per_socket=4, smt=2, name="small")


@pytest.fixture
def ctx() -> ExecContext:
    return ExecContext()


@pytest.fixture
def small_ctx(small_machine: Machine) -> ExecContext:
    return ExecContext(machine=small_machine)


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


@pytest.fixture
def reference_bodies(monkeypatch: pytest.MonkeyPatch):
    """Context manager that runs the work-stealing executor on its scalar
    reference bodies: :func:`~repro.runtime.workstealing.cilk_for_graph`
    in place of the batched builder and ``ctx.duration``
    (:meth:`~repro.sim.memory.MemoryModel.duration`) in place of the
    memoized ``StealingScheduler._duration``.  Results under it must be
    bit-identical to a default run."""

    def ref_duration(self, work, membytes, locality, active):
        return self.ctx.duration(work, membytes, locality, active)

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            m.setattr(workstealing, "cilk_for_graph_batched", workstealing.cilk_for_graph)
            m.setattr(workstealing.StealingScheduler, "_duration", ref_duration)
            yield

    return patched
