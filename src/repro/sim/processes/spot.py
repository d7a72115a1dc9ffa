"""Spot eviction: discounted, preemptible launches with optional notices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.market import _require_finite
from repro.core.protocol import SpotEvictionNotice
from repro.sim.engine import Event, EventKind
from repro.sim.processes.base import EventProcess


@dataclass(frozen=True)
class SpotConfig:
    """Spot-market configuration (the §7 "cheaper, preemptible spot
    instances" extension).

    When enabled, every launch is a spot request: billed at
    ``SimulatedCloud.spot_discount`` of the on-demand price, and
    preempted after an exponentially distributed lifetime with the given
    rate.  Preempted instances vanish; their tasks are checkpointed (the
    two-minute interruption notice suffices for the Table-7 checkpoint
    times) and return to the queue for the next scheduling round.

    ``notice_s`` grants schedulers an *advance eviction warning*: that
    many seconds before an instance is reclaimed, the simulator emits a
    :class:`~repro.core.protocol.SpotEvictionNotice` observation and
    arms a scheduling round, so eviction-aware policies can drain the
    doomed instance while it is still running.  Notices are delivered
    at scheduling rounds, so a notice window shorter than the period
    may be observed too late to react; ``notice_s >= period_s`` makes
    at least one reacting round certain.  ``0`` (the default) disables
    notices and reproduces the classic no-warning spot market
    byte-identically.
    """

    enabled: bool = False
    preemption_rate_per_hour: float = 0.05
    seed: int = 0
    notice_s: float = 0.0

    def __post_init__(self) -> None:
        if self.enabled:
            _require_finite("preemption_rate_per_hour", self.preemption_rate_per_hour)
            if self.preemption_rate_per_hour <= 0:
                raise ValueError("preemption rate must be positive when enabled")
        _require_finite("notice_s", self.notice_s)
        if self.notice_s < 0:
            raise ValueError("notice_s must be >= 0")


class SpotProcess(EventProcess):
    """Preemption lifetimes and eviction notices of spot launches."""

    def __init__(self, sim, config: SpotConfig):
        super().__init__(sim, config)
        self._rng = np.random.default_rng(config.seed)
        self._preemptions = 0

    def handlers(self):
        return {
            EventKind.INSTANCE_PREEMPTION: self._on_preemption,
            EventKind.EVICTION_NOTICE: self._on_eviction_notice,
        }

    def on_launch(self, rt, receipt) -> None:
        if not rt.spot:
            return  # the scheduler opted this launch out of the market
        sim = self.sim
        rate_per_hour = self.config.preemption_rate_per_hour
        market = sim.cloud.market
        if market is not None and market.config.eviction_coupling != 0.0:
            # Price pressure at launch scales the eviction hazard: hot
            # markets reclaim discounted capacity faster.  The guard
            # keeps the legacy draw arithmetic untouched otherwise.
            mult = market.multiplier_at(rt.instance.instance_type, sim.now_s)
            if mult != 1.0:
                rate_per_hour = rate_per_hour * (
                    mult**market.config.eviction_coupling
                )
        lifetime_s = float(self._rng.exponential(3600.0 / rate_per_hour))
        preempt_at = sim.now_s + lifetime_s
        sim.queue.push(
            Event(preempt_at, EventKind.INSTANCE_PREEMPTION, rt.instance_id)
        )
        if self.config.notice_s > 0:
            sim.queue.push(
                Event(
                    max(sim.now_s, preempt_at - self.config.notice_s),
                    EventKind.EVICTION_NOTICE,
                    (rt.instance_id, preempt_at),
                )
            )

    def result_fields(self):
        return {"preemptions": self._preemptions}

    def _on_eviction_notice(self, payload: tuple[str, float]) -> None:
        """The spot market warns that an instance will be reclaimed.

        The notice becomes a typed observation for the next scheduling
        round (which this arms); if the instance is already gone the
        notice is stale and dropped.
        """
        instance_id, eviction_time_s = payload
        sim = self.sim
        rt = sim._instances.get(instance_id)
        if rt is None or not rt.alive:
            return
        sim._observe(
            SpotEvictionNotice(
                instance_id=instance_id, eviction_time_s=eviction_time_s
            )
        )

    def _on_preemption(self, instance_id: str) -> None:
        """The spot market reclaims an instance: tasks return to the queue.

        Progress is preserved — the interruption notice covers the
        checkpoint — but the tasks wait for the next scheduling round and
        pay fresh launch delays wherever they land.
        """
        sim = self.sim
        rt = sim._instances.get(instance_id)
        if rt is None or not rt.alive:
            return  # already terminated; stale preemption draw
        affected, _ = sim._lose_instance(instance_id)
        self._preemptions += 1
        sim._refresh_rates(affected)
        sim._ensure_round_scheduled()
