"""The simulator's event-process interface.

A process is one scenario subsystem (spot, failure, market) with its
config, RNG streams, counters and handlers in one module; the simulator
constructs it only when its config enables it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.sim.engine import EventKind

if TYPE_CHECKING:
    from repro.cloud.provider import LaunchReceipt
    from repro.sim.environment import _InstanceRT
    from repro.sim.simulator import ClusterSimulator

#: Handles one event's payload at the simulator's current time.
Handler = Callable[[Any], None]


class EventProcess:
    """One scenario subsystem of the simulator; every hook is a no-op."""

    def __init__(self, sim: ClusterSimulator, config: Any) -> None:
        self.sim = sim
        self.config = config

    def handlers(self) -> Mapping[EventKind, Handler]:
        """The event kinds this process owns (one owner per kind)."""
        return {}

    def arm(self) -> None:
        """Push the process's self-scheduling events at run start."""

    def on_launch(self, rt: _InstanceRT, receipt: LaunchReceipt) -> None:
        """Draw and push the per-instance events of a fresh launch."""

    def result_fields(self) -> dict[str, Any]:
        """This process's :class:`~repro.sim.metrics.SimulationResult` fields."""
        return {}

    def verify(self) -> None:
        """Cross-check incremental totals against a naive re-scan
        (every accounting step of a ``validate=True`` run)."""
