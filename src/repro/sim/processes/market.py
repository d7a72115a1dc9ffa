"""Market events: pool price changes, pool exhaustion, credit exhaustion."""

from __future__ import annotations

from repro.cloud.market import MarketConfig, MarketRuntime
from repro.core.protocol import PoolExhausted, PriceChanged
from repro.sim.engine import Event, EventKind
from repro.sim.processes.base import EventProcess


class MarketProcess(EventProcess):
    """Price changes, pool exhaustion and CPU-credit exhaustion."""

    def __init__(self, sim, config: MarketConfig):
        super().__init__(sim, config)
        self.runtime = MarketRuntime(config)
        # Launches price through the pool multiplier, charge pool
        # capacity and pay backlog delays once the runtime is attached.
        sim.cloud.market = self.runtime
        self._price_changes = 0
        self._pool_exhaustions = 0
        self._credit_exhaustions = 0

    def handlers(self):
        return {
            EventKind.PRICE_CHANGE: self._on_price_change,
            EventKind.CREDIT_EXHAUSTED: self._on_credit_exhausted,
        }

    def arm(self) -> None:
        # One self-scheduling PRICE_CHANGE stream per non-static pool; a
        # static pool (or an all-static market) arms nothing and the
        # event loop is untouched.
        for index, boundary in self.runtime.initial_boundaries():
            self.sim.queue.push(Event(boundary, EventKind.PRICE_CHANGE, index))

    def on_launch(self, rt, receipt) -> None:
        sim = self.sim
        family = rt.instance.instance_type.family
        if receipt.pool_exhausted:
            self._pool_exhaustions += 1
            index = self.runtime.pool_index_for_family(family)
            sim._pending_obs.append(
                PoolExhausted(
                    pool=receipt.pool,
                    time_s=sim.now_s,
                    families=self.runtime.pool(index).families,
                )
            )
        credits = self.config.credits
        if credits is not None and family in credits.families:
            # Exhaustion is deterministic from the launch timestamp
            # (fixed net burn while billed; see CreditModel).
            sim.queue.push(
                Event(
                    sim.now_s + credits.exhaustion_horizon_s,
                    EventKind.CREDIT_EXHAUSTED,
                    rt.instance_id,
                )
            )

    def result_fields(self):
        return {
            "price_changes": self._price_changes,
            "pool_exhaustions": self._pool_exhaustions,
            "credit_exhaustions": self._credit_exhaustions,
        }

    def _on_price_change(self, pool_index: int) -> None:
        """A pool's price segment boundary: refresh, re-rate, re-arm.

        Consumes no RNG (the walk's draws are a pure function of the
        segment index), so price events never perturb the spot/failure
        streams.  Live instances in the pool are re-rated in sorted-id
        order through the O(1) billing-record split; a boundary whose
        quantized price matches the current level is silent (no
        observation, no re-rate, no round).
        """
        sim = self.sim
        rt = self.runtime
        old, new = rt.refresh(pool_index, sim.now_s)
        boundary = rt.next_boundary_after(pool_index, sim.now_s)
        if boundary is not None:
            sim.queue.push(Event(boundary, EventKind.PRICE_CHANGE, pool_index))
        if new == old:
            return
        self._price_changes += 1
        pool = rt.pool(pool_index)
        for iid in rt.members_of(pool_index):
            inst = sim._instances[iid]
            itype = inst.instance.instance_type
            rate = sim.cloud.price_at(itype, sim.now_s, spot=inst.spot)
            sim.cloud.ledger.change_rate(iid, sim.now_s, rate)
        sim._observe(
            PriceChanged(
                pool=pool.name,
                time_s=sim.now_s,
                multiplier=new,
                previous=old,
                families=pool.families,
            )
        )

    def _on_credit_exhausted(self, instance_id: str) -> None:
        """A burstable instance runs out of CPU credits.

        Effective throughput drops to the credit model's baseline for
        the rest of the instance's life; schedulers learn of the
        degraded capacity through the existing ``StragglerReport``
        channel (same semantics: slow, not down), so drain policies
        like eva-failure's apply unchanged.
        """
        rt = self.sim._instances.get(instance_id)
        if rt is None or not rt.alive or rt.credit_mult != 1.0:
            return  # stale draw: the instance died first, or already burnt
        self._credit_exhaustions += 1
        self.sim._set_throughput_factor(
            rt, "credit_mult", self.config.credits.baseline_fraction
        )
