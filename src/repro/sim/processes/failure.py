"""Fault injection: crashes, correlated domain shocks and stragglers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.market import _require_finite
from repro.core.protocol import InstanceFailed
from repro.sim.accounting import AccountingDriftError, naive_failure_totals
from repro.sim.engine import Event, EventKind
from repro.sim.metrics import FailureOutcome, RepairOutcome
from repro.sim.processes.base import EventProcess


@dataclass(frozen=True)
class RetryPolicy:
    """How failed tasks are retried and how often progress is saved.

    Attributes:
        backoff_base_s: First-retry delay of a failed task; doubles with
            every subsequent failure of the same task (capped).  ``0``
            disables backoff (failed tasks requeue immediately).
        backoff_cap_s: Upper bound on the per-task retry delay.
        checkpoint_interval_s: Wall-clock cadence of job checkpoints; a
            crash rolls a job back to its last completed checkpoint, so
            shorter intervals lose less work.
        checkpoint_overhead: Fraction of throughput spent writing
            checkpoints (``[0, 1)``) — the cost side of the cadence
            trade-off, charged against every running job's rate while
            failure injection is enabled.
    """

    backoff_base_s: float = 60.0
    backoff_cap_s: float = 3600.0
    checkpoint_interval_s: float = 1800.0
    checkpoint_overhead: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("backoff_base_s", self.backoff_base_s)
        _require_finite("backoff_cap_s", self.backoff_cap_s)
        _require_finite("checkpoint_interval_s", self.checkpoint_interval_s)
        _require_finite("checkpoint_overhead", self.checkpoint_overhead)
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if self.checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")
        if not 0.0 <= self.checkpoint_overhead < 1.0:
            raise ValueError("checkpoint_overhead must be in [0, 1)")


@dataclass(frozen=True)
class FailureConfig:
    """Stochastic fault-injection configuration (ROADMAP open item 5).

    Three fault processes, all disabled by default (and byte-identical
    to the fault-free simulator when disabled — the golden digest
    matrices pin this):

    * **Independent crashes**: every instance draws an exponential
      time-to-crash at launch (rate ``crash_rate_per_hour``).  Unlike
      spot preemption there is no graceful notice: affected jobs roll
      back to their last completed checkpoint
      (:class:`RetryPolicy.checkpoint_interval_s`), making
      ``_TaskRT.resume_version`` work-loss accounting real.
    * **Correlated domain shocks**: instances are assigned round-robin
      to ``num_domains`` failure domains (rack/AZ analogue); a Poisson
      process (rate ``domain_shock_rate_per_hour``) kills *every* alive
      instance in a uniformly drawn domain at once.
    * **Stragglers**: each instance draws an exponential onset (rate
      ``straggler_rate_per_hour``) after which its effective throughput
      is multiplied by a factor uniform in ``straggler_slowdown`` for
      ``straggler_duration_s`` seconds, then recovers.

    Faults surface on the typed observation channel
    (:class:`~repro.core.protocol.InstanceFailed`,
    :class:`~repro.core.protocol.StragglerReport`) so policies can react
    without snapshot sniffing.  Two independent seeded streams drive the
    draws: per-launch draws (crash, straggler) and the domain-shock
    process, so shock timing does not depend on how many instances a
    scheduler launched.
    """

    enabled: bool = False
    crash_rate_per_hour: float = 0.0
    num_domains: int = 4
    domain_shock_rate_per_hour: float = 0.0
    straggler_rate_per_hour: float = 0.0
    straggler_slowdown: tuple[float, float] = (0.3, 0.7)
    straggler_duration_s: float = 3600.0
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in (
            "crash_rate_per_hour",
            "domain_shock_rate_per_hour",
            "straggler_rate_per_hour",
            "straggler_duration_s",
        ):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.straggler_duration_s <= 0:
            raise ValueError("straggler_duration_s must be positive")
        if self.num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        lo, hi = self.straggler_slowdown
        _require_finite("straggler_slowdown[0]", lo)
        _require_finite("straggler_slowdown[1]", hi)
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(
                "straggler_slowdown must satisfy 0 < lo <= hi <= 1, "
                f"got {self.straggler_slowdown}"
            )


class FailureProcess(EventProcess):
    """Crashes, domain shocks and stragglers, with rollback and retries.

    Sets the simulator's checkpoint cadence and checkpoint-overhead rate
    multiplier at construction; both stay neutral without this process.
    """

    def __init__(self, sim, config: FailureConfig):
        super().__init__(sim, config)
        #: Two independent streams (see :class:`FailureConfig`): one for
        #: per-launch draws (crash lifetime, straggler onset + factor),
        #: one for the domain-shock Poisson process, so shock timing does
        #: not depend on how many instances the scheduler launched.
        self._fail_rng = np.random.default_rng([config.seed, 1])
        self._shock_rng = np.random.default_rng([config.seed, 2])
        self._next_domain = 0
        self.failure_outcomes: list[FailureOutcome] = []
        self.repair_outcomes: list[RepairOutcome] = []
        #: O(1)-per-event totals.  Work lost accumulates per affected job
        #: in the (event, sorted job id) order the failure records keep,
        #: so :func:`naive_failure_totals` reproduces it bit for bit.
        self.task_restarts = 0
        self.work_lost_h = 0.0
        sim._ckpt_interval_s = config.retry.checkpoint_interval_s
        sim._ckpt_rate_mult = 1.0 - config.retry.checkpoint_overhead

    def handlers(self):
        return {
            EventKind.INSTANCE_FAILURE: self._on_instance_failure,
            EventKind.SLOWDOWN_START: self._on_slowdown_start,
            EventKind.SLOWDOWN_END: self._on_slowdown_end,
        }

    def arm(self) -> None:
        if self.config.domain_shock_rate_per_hour > 0:
            self._schedule_next_shock()

    def on_launch(self, rt, receipt) -> None:
        sim = self.sim
        fail = self.config
        rt.failure_domain = self._next_domain
        self._next_domain = (self._next_domain + 1) % fail.num_domains
        # Fixed per-launch draw order (crash lifetime, then straggler
        # onset + factor) keeps the stream deterministic regardless
        # of which events later turn out stale.
        if fail.crash_rate_per_hour > 0:
            life_s = float(
                self._fail_rng.exponential(3600.0 / fail.crash_rate_per_hour)
            )
            sim.queue.push(
                Event(
                    sim.now_s + life_s,
                    EventKind.INSTANCE_FAILURE,
                    ("instance", rt.instance_id),
                )
            )
        if fail.straggler_rate_per_hour > 0:
            onset_s = float(
                self._fail_rng.exponential(3600.0 / fail.straggler_rate_per_hour)
            )
            lo, hi = fail.straggler_slowdown
            factor = float(self._fail_rng.uniform(lo, hi))
            sim.queue.push(
                Event(
                    sim.now_s + onset_s,
                    EventKind.SLOWDOWN_START,
                    (rt.instance_id, factor),
                )
            )

    def result_fields(self):
        return {
            "failure_outcomes": tuple(self.failure_outcomes),
            "repair_outcomes": tuple(self.repair_outcomes),
            "task_restarts": self.task_restarts,
            "work_lost_h": self.work_lost_h,
        }

    def verify(self) -> None:
        _, restarts, lost, _, _ = naive_failure_totals(
            self.failure_outcomes, self.repair_outcomes
        )
        # Same additions in the same (event, job) order: bit-for-bit.
        if restarts != self.task_restarts or lost != self.work_lost_h:
            raise AccountingDriftError(
                f"reliability drift: incremental ({self.task_restarts}, "
                f"{self.work_lost_h!r}) vs naive ({restarts}, {lost!r})"
            )

    def job_recovered(self, job_id: str, job_rt) -> None:
        """Close a job's outage at its first positive rate since a failure
        (per-job MTTR accumulates from these)."""
        self.repair_outcomes.append(
            RepairOutcome(
                job_id=job_id,
                failed_s=job_rt.outage_start_s,
                recovered_s=self.sim.now_s,
            )
        )
        job_rt.outage_start_s = None

    def _schedule_next_shock(self) -> None:
        """Arm the next correlated domain shock (Poisson process).

        Draws come from the dedicated shock stream in a fixed order
        (inter-arrival gap, then target domain), so the shock schedule
        is a pure function of the failure seed — independent of how many
        instances any scheduler launched.
        """
        fail = self.config
        gap_s = float(
            self._shock_rng.exponential(3600.0 / fail.domain_shock_rate_per_hour)
        )
        domain = int(self._shock_rng.integers(fail.num_domains))
        self.sim.queue.push(
            Event(
                self.sim.now_s + gap_s,
                EventKind.INSTANCE_FAILURE,
                ("domain", domain),
            )
        )

    def _on_instance_failure(self, payload: tuple[str, object]) -> None:
        """An injected failure fires: one instance or a whole domain.

        Unlike spot preemption there is no graceful checkpoint — every
        affected job rolls back to its last completed checkpoint and the
        failure surfaces as an :class:`~repro.core.protocol.InstanceFailed`
        observation at the next round (which this arms).
        """
        scope, target = payload
        sim = self.sim
        if scope == "domain":
            victims = sorted(
                iid
                for iid, rt in sim._instances.items()
                if rt.alive and rt.failure_domain == target
            )
            for iid in victims:
                self._fail_instance(iid, kind="domain-shock")
            # The process is self-scheduling: each shock arms the next,
            # keeping the queue bounded without knowing the makespan.
            self._schedule_next_shock()
            return
        rt = sim._instances.get(target)
        if rt is None or not rt.alive:
            return  # stale crash draw: instance already gone
        self._fail_instance(target, kind="crash")

    def _fail_instance(self, instance_id: str, kind: str) -> None:
        """Abruptly kill one instance: rollback, restarts, accounting."""
        sim = self.sim
        rt = sim._instances[instance_id]
        retry = self.config.retry
        affected, requeued = sim._lose_instance(instance_id)
        for task_rt in requeued:
            task_rt.failures += 1
            self.task_restarts += 1
            if retry.backoff_base_s > 0:
                delay = min(
                    retry.backoff_cap_s,
                    retry.backoff_base_s * (2.0 ** (task_rt.failures - 1)),
                )
                task_rt.retry_until_s = max(
                    task_rt.retry_until_s, sim.now_s + delay
                )
        job_losses: list[tuple[str, float]] = []
        for jid in sorted(affected):
            job_rt = sim._jobs.get(jid)
            if job_rt is None or job_rt.finished:
                continue
            lost = job_rt.work_done_h - job_rt.ckpt_work_h
            if lost > 0.0:
                # The un-checkpointed progress is gone; the task-level
                # resume_version bump makes the loss observable as real
                # re-execution, not just bookkeeping.
                job_rt.work_done_h = job_rt.ckpt_work_h
                self.work_lost_h += lost
                job_losses.append((jid, lost))
            if job_rt.outage_start_s is None:
                job_rt.outage_start_s = sim.now_s
        self.failure_outcomes.append(
            FailureOutcome(
                instance_index=rt.launch_index,
                time_s=sim.now_s,
                failure_domain=rt.failure_domain,
                kind=kind,
                tasks_lost=len(requeued),
                job_losses=tuple(job_losses),
            )
        )
        sim._observe(
            InstanceFailed(
                instance_id=instance_id,
                time_s=sim.now_s,
                failure_domain=rt.failure_domain,
            )
        )
        sim._refresh_rates(affected)

    def _on_slowdown_start(self, payload: tuple[str, float]) -> None:
        """A straggler fault begins: the instance runs at ``factor``."""
        instance_id, factor = payload
        sim = self.sim
        rt = sim._instances.get(instance_id)
        if rt is None or not rt.alive:
            return  # stale straggler draw
        sim.queue.push(
            Event(
                sim.now_s + self.config.straggler_duration_s,
                EventKind.SLOWDOWN_END,
                instance_id,
            )
        )
        sim._set_throughput_factor(rt, "slowdown", factor)

    def _on_slowdown_end(self, instance_id: str) -> None:
        """The straggler recovers; a ``slowdown=1.0`` report announces it."""
        rt = self.sim._instances.get(instance_id)
        if rt is None or not rt.alive or rt.slowdown == 1.0:
            return
        self.sim._set_throughput_factor(rt, "slowdown", 1.0)
