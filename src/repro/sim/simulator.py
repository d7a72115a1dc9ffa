"""High-fidelity cluster simulator (§5).

The simulator replays a trace against a scheduler exactly as a real
deployment would: jobs arrive, the scheduler runs at every scheduling
period, the Provisioner/Executor operations it implies (instance launches
and terminations, task placements and migrations) are applied with the
measured Table 1 delays, and job progress accrues at interference-degraded
rates drawn from the ground-truth model (Figure 1 data).  The scheduler
never sees the ground truth — interference reaches it only through
per-round throughput reports, as in the real system.

Cost accounting bills every instance per second from launch request to
termination, so acquisition/setup delays and migration stalls show up as
paid-but-idle time (§2.3).
"""

from __future__ import annotations

import math
from typing import Any, Literal, Sequence

from repro.cloud.delays import DelayModel
from repro.cloud.market import MarketConfig
from repro.cloud.provider import SimulatedCloud
from repro.cluster.state import ClusterSnapshot, InstanceState
from repro.cluster.task import Job, Task
from repro.core.interfaces import JobThroughputReport, Scheduler
from repro.core.protocol import (
    DeadlineApproaching,
    JobArrived,
    JobFinished,
    Observation,
    StragglerReport,
    ThroughputReport,
)
from repro.core.throughput_table import TaskPlacementObservation
from repro.interference.model import InterferenceModel
from repro.sim.accounting import ClusterAccounting
from repro.sim.engine import Event, EventKind, EventQueue, SimulationError
from repro.sim.environment import (
    TaskStatus,
    _InstanceRT,
    _JobRT,
    _SimEnvironment,
    _TaskRT,
)
from repro.sim.metrics import (
    AllocationIntegrator,
    DeadlineOutcome,
    JobOutcome,
    SimulationResult,
)
from repro.sim.processes.base import EventProcess, Handler
from repro.sim.processes.failure import FailureConfig, FailureProcess
from repro.sim.processes.market import MarketProcess
from repro.sim.processes.spot import SpotConfig, SpotProcess
from repro.workloads.trace import Trace

#: Default scheduling period (§3 suggests e.g. 5 minutes).
DEFAULT_PERIOD_S = 300.0


class ClusterSimulator:
    """Replays a trace against one scheduler and collects metrics.

    Args:
        trace: Arrival-ordered jobs.
        scheduler: Any :class:`~repro.core.interfaces.Scheduler`.
        interference: Ground-truth co-location model (Figure 1 data by
            default).
        delay_model: Reconfiguration delay model (Table 1 means by
            default).
        period_s: Scheduling period.
        validate: Validate every target configuration against its
            snapshot (slower; on by default in tests).
        max_sim_hours: Safety bound on simulated time.
        spot: Optional spot-market configuration (discounted, preemptible
            instances).
        deadline_warning_s: Horizon of the
            :class:`~repro.core.protocol.DeadlineApproaching` warning: a
            deadline-bearing job's warning is emitted at the first
            scheduling round within this many seconds of its deadline
            (once per job — warnings are deduplicated across rounds).
            ``None`` (the default) keeps the classic two-period horizon
            — the round that could still react plus one period of slack;
            large values tell deadline-aware policies about SLOs
            essentially at arrival.
        failures: Optional stochastic fault injection (crashes, domain
            shocks, stragglers; see :class:`FailureConfig`).  ``None``
            or a disabled config reproduces the fault-free simulator
            byte-identically.
        market: Optional spot-market economics (per-pool price traces,
            finite capacity, burstable credits; see
            :class:`~repro.cloud.market.MarketConfig`).  ``None``, a
            disabled config, or a single static-price pool at
            multiplier 1 reproduces the market-free simulator
            byte-identically.
    """

    def __init__(
        self,
        trace: Trace,
        scheduler: Scheduler,
        interference: InterferenceModel | None = None,
        delay_model: DelayModel | None = None,
        period_s: float = DEFAULT_PERIOD_S,
        validate: bool = False,
        max_sim_hours: float = 24.0 * 365 * 10,
        spot: SpotConfig | None = None,
        deadline_warning_s: float | None = None,
        failures: FailureConfig | None = None,
        market: MarketConfig | None = None,
    ):
        for name, value in (("period_s", period_s), ("max_sim_hours", max_sim_hours)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if deadline_warning_s is not None and not (
            math.isfinite(deadline_warning_s) and deadline_warning_s >= 0
        ):
            raise ValueError(
                f"deadline_warning_s must be finite and >= 0, got {deadline_warning_s}"
            )
        self.trace = trace
        self.scheduler = scheduler
        self.interference = interference or InterferenceModel()
        self.delay_model = delay_model or DelayModel()
        self.period_s = period_s
        self.validate = validate
        self.max_sim_hours = max_sim_hours
        self._launch_seq = 0
        #: Checkpoint cadence of arriving jobs and the checkpoint-overhead
        #: rate multiplier; neutral unless fault injection sets them, so
        #: the fault-free rate arithmetic stays byte-identical.
        self._ckpt_interval_s: float | None = None
        self._ckpt_rate_mult = 1.0
        #: Set once any instance's throughput factor left 1.0; until then
        #: ``_job_rate`` skips the per-task factor lookups.
        self._degraded = False

        self.cloud = SimulatedCloud(delay_model=self.delay_model)
        self.queue = EventQueue()
        self.now_s = 0.0

        self._jobs: dict[str, _JobRT] = {}
        self._tasks: dict[str, _TaskRT] = {}
        self._instances: dict[str, _InstanceRT] = {}
        #: Epoch counter over placement-visible state: live jobs/tasks,
        #: task statuses, and task-to-instance assignments.  Everything
        #: the per-round snapshot and throughput reports are computed
        #: from is a pure function of this state, so while the epoch
        #: stands still those computations are served from caches below
        #: (steady-state rounds between job events dominate long traces).
        self._placement_epoch = 0
        self._reports_cache: tuple[JobThroughputReport, ...] = ()
        self._reports_epoch = -1
        self._snapshot_cache: tuple[dict, dict, tuple] | None = None
        self._snapshot_epoch = -1
        #: Epoch at which round-end rate refreshes last ran: when nothing
        #: placement-visible changed since, every live job's ground-truth
        #: rate is unchanged and already versioned (> 0), so the refresh
        #: would `continue` on every job — skip the walk entirely.
        self._rates_epoch = -1
        #: Timestamp of the queued scheduling round, or None when no round
        #: is armed.  Tracking the timestamp (not a bool) dedupes redundant
        #: round events: an arm request whose boundary is already covered
        #: by the queued round is a no-op, and a round event superseded by
        #: an earlier re-arm is recognized as stale in ``_on_round``.
        self._armed_round_s: float | None = None
        self._finished_jobs = 0
        self._outcomes: list[JobOutcome] = []
        self._migrations = 0
        self._placements = 0
        self._rounds = 0
        self.events_dispatched = 0
        self._alloc = AllocationIntegrator()
        self._acct = ClusterAccounting()
        self._accounting_time_s = 0.0
        #: Action-protocol backend; the single apply path.
        self._env = _SimEnvironment(self)
        #: Typed observations accumulated since the last scheduler call.
        self._pending_obs: list[Observation] = []
        #: Deadline warnings fire within this many seconds of a job's
        #: deadline (default: two periods — the round that could still
        #: react plus one of slack).
        self.deadline_warning_s = (
            2.0 * period_s if deadline_warning_s is None else deadline_warning_s
        )
        #: Jobs whose DeadlineApproaching warning was already emitted
        #: (warnings are delivered once, not re-emitted every round).
        self._deadline_warned: set[str] = set()
        #: Deadline-free traces skip the per-round warning scan outright.
        self._has_deadline_jobs = any(
            job.deadline_hours is not None for job in trace
        )
        #: Steady-round observation tuple, keyed by the identity of the
        #: (epoch-cached) reports tuple it wraps.
        self._obs_cache: tuple[Observation, ...] = ()
        self._obs_cache_src: tuple[JobThroughputReport, ...] | None = None
        #: Finish-order SLO records of deadline-bearing jobs.
        self._deadline_outcomes: list[DeadlineOutcome] = []

        # Event processes, enabled ones only, in per-launch hook order:
        # market/credit, then crash and straggler, then spot preemption
        # and notice (the market attaches its runtime to the cloud before
        # spot reads it for the eviction coupling).
        market_process = (
            MarketProcess(self, market) if market and market.active else None
        )
        self._failure = (
            FailureProcess(self, failures) if failures and failures.enabled else None
        )
        self._spot = SpotProcess(self, spot) if spot and spot.enabled else None
        self._processes: list[EventProcess] = [
            p for p in (market_process, self._failure, self._spot) if p is not None
        ]
        #: Event dispatch table: the five core kinds, then each process's.
        self._handlers: dict[EventKind, Handler] = {
            EventKind.JOB_ARRIVAL: self._on_arrival,
            EventKind.TASK_READY: self._on_task_ready,
            EventKind.JOB_FINISH: self._on_job_finish,
            EventKind.INSTANCE_TERMINATE: self._on_instance_terminate,
            EventKind.SCHEDULING_ROUND: self._on_round,
        }
        for process in self._processes:
            for kind, handler in process.handlers().items():
                if kind in self._handlers:
                    raise SimulationError(f"event kind {kind.name} has two owners")
                self._handlers[kind] = handler

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        self.queue.push_all(
            Event(job.arrival_time_s, EventKind.JOB_ARRIVAL, job)
            for job in self.trace
        )
        for process in self._processes:
            process.arm()
        total_jobs = len(self.trace)

        while self.queue:
            event = self.queue.pop()
            if event.time_s > self.max_sim_hours * 3600.0:
                raise SimulationError(
                    f"simulation exceeded {self.max_sim_hours} hours"
                )
            self._account_until(event.time_s)
            self.now_s = event.time_s
            self._dispatch(event)
            if self._finished_jobs == total_jobs:
                break

        self._drain_terminations()
        end_s = self.now_s
        uptimes = self.cloud.ledger.uptimes_hours(end_s)
        full_fraction = None
        adoption = getattr(self.scheduler, "full_adoption_fraction", None)
        if callable(adoption):
            full_fraction = adoption()
        # Each process adds its own fields; a disabled subsystem leaves
        # them at their defaults (omitted from the pickle).
        process_fields: dict[str, object] = {}
        for process in self._processes:
            process_fields.update(process.result_fields())
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            trace_name=self.trace.name,
            total_cost=self.cloud.total_cost(end_s),
            jobs=sorted(self._outcomes, key=lambda o: o.job_id),
            instances_launched=self.cloud.ledger.instances_launched(),
            migrations=self._migrations,
            placements=self._placements,
            uptimes_hours=uptimes,
            allocation=self._alloc.allocation_ratios(),
            tasks_per_instance=self._alloc.tasks_per_instance(),
            makespan_hours=end_s / 3600.0,
            full_adoption_fraction=full_fraction,
            scheduling_rounds=self._rounds,
            # Finish order (deterministic), i.e. the order the O(delta)
            # totals accumulated in — so naive_deadline_totals over the
            # stored records reproduces the totals bit for bit.
            deadline_outcomes=tuple(self._deadline_outcomes),
            deadline_miss_count=self._acct.deadline_misses,
            deadline_total_lateness_s=self._acct.deadline_lateness_s,
            **process_fields,
        )

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        self.events_dispatched += 1
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise SimulationError(f"no handler owns event kind {event.kind.name}")
        handler(event.payload)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _on_arrival(self, job: Job) -> None:
        # Checkpoint cadence anchors at arrival; a crash rolls the job
        # back to the last completed boundary.
        rt = _JobRT(
            job=job,
            arrival_s=self.now_s,
            last_update_s=self.now_s,
            task_map={t.task_id: t for t in job.tasks},
            ckpt_interval_s=self._ckpt_interval_s,
            last_ckpt_s=self.now_s,
        )
        self._jobs[job.job_id] = rt
        for task in job.tasks:
            self._tasks[task.task_id] = _TaskRT(task=task)
        self._placement_epoch += 1
        self._observe(JobArrived(job_id=job.job_id, time_s=self.now_s))

    def _observe(self, observation: Observation) -> None:
        """Queue ``observation`` for the scheduler and arm a round for it."""
        self._pending_obs.append(observation)
        self._ensure_round_scheduled()

    def _ensure_round_scheduled(self) -> None:
        periods_done = int(self.now_s // self.period_s)
        next_round = periods_done * self.period_s
        if next_round < self.now_s:
            next_round = (periods_done + 1) * self.period_s
        # An arrival exactly on a period boundary is handled by the round
        # at that same timestamp (rounds sort after arrivals).
        armed = self._armed_round_s
        if armed is not None and armed <= next_round:
            return  # a round at or before that boundary is already queued
        self.queue.push(Event(next_round, EventKind.SCHEDULING_ROUND))
        self._armed_round_s = next_round

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def _live_job_ids(self) -> list[str]:
        return [jid for jid, rt in self._jobs.items() if not rt.finished]

    def _on_round(self, _: None) -> None:
        if self._armed_round_s is None or self.now_s != self._armed_round_s:
            return  # stale round event, superseded by an earlier re-arm
        self._armed_round_s = None
        live = self._live_job_ids()
        if not live:
            return  # next arrival re-arms the round cadence
        self._rounds += 1

        self._advance_all(live)
        snapshot = self._snapshot(live)
        decision = self.scheduler.decide(snapshot, self._round_observations(live))
        if self.validate:
            decision.validate(
                snapshot, allowed_actions=self.scheduler.action_types
            )
        self._env.execute(decision)
        if self._placement_epoch != self._rates_epoch:
            self._refresh_rates(live)
            self._rates_epoch = self._placement_epoch

        next_round = self.now_s + self.period_s
        self.queue.push(Event(next_round, EventKind.SCHEDULING_ROUND))
        self._armed_round_s = next_round

    def _snapshot(self, live: Sequence[str]) -> ClusterSnapshot:
        # The snapshot's collections are a pure function of the
        # placement epoch (`live` itself changes only with the epoch:
        # arrivals and finishes bump it), so steady-state rounds reuse
        # last round's dicts/tuple and only restamp the time.  Consumers
        # treat snapshots as immutable, which the frozen dataclass
        # already promises.
        if self._snapshot_epoch != self._placement_epoch:
            tasks: dict[str, Task] = {}
            jobs: dict[str, Job] = {}
            for jid in live:
                rt = self._jobs[jid]
                jobs[jid] = rt.job
                tasks.update(rt.task_map)
            instances = []
            for irt in self._instances.values():
                if not irt.alive:
                    continue
                frozen = irt.frozen_cache
                if frozen is None:
                    frozen = frozenset(irt.assigned)
                    irt.frozen_cache = frozen
                instances.append(
                    InstanceState(instance=irt.instance, task_ids=frozen)
                )
            instances.sort(key=lambda s: s.instance_id)
            self._snapshot_cache = (tasks, jobs, tuple(instances))
            self._snapshot_epoch = self._placement_epoch
        assert self._snapshot_cache is not None
        tasks, jobs, instance_states = self._snapshot_cache
        return ClusterSnapshot(
            time_s=self.now_s, tasks=tasks, jobs=jobs, instances=instance_states
        )

    def _round_observations(
        self, live: Sequence[str]
    ) -> tuple[Observation, ...]:
        """Drain and assemble this round's typed observation stream.

        Order is deterministic: events accumulated since the last
        scheduler call (arrivals, completions, eviction notices) in
        dispatch order, then deadline warnings for live deadline-bearing
        jobs (ascending job id), then per-job throughput reports.

        A job's :class:`~repro.core.protocol.DeadlineApproaching`
        warning is emitted exactly once — at the first round falling
        within ``deadline_warning_s`` of its deadline — mirroring how
        arrivals/completions fire once; consumers keep their own
        deadline map (pruned against the snapshot) like eviction-notice
        consumers do.
        """
        observations = self._pending_obs
        self._pending_obs = []
        if self._has_deadline_jobs:
            for jid in sorted(live):
                if jid in self._deadline_warned:
                    continue
                rt = self._jobs[jid]
                deadline_hours = rt.job.deadline_hours
                if deadline_hours is None:
                    continue
                deadline_s = rt.arrival_s + deadline_hours * 3600.0
                if self.now_s + self.deadline_warning_s >= deadline_s:
                    self._deadline_warned.add(jid)
                    observations.append(
                        DeadlineApproaching(job_id=jid, deadline_s=deadline_s)
                    )
        reports = self._throughput_reports(live)
        if observations:
            observations.extend(ThroughputReport(r) for r in reports)
            return tuple(observations)
        # Steady rounds: the epoch cache returns the same reports tuple,
        # so the wrapper tuple can be reused as-is.
        if reports is not self._obs_cache_src:
            self._obs_cache_src = reports
            self._obs_cache = tuple(ThroughputReport(r) for r in reports)
        return self._obs_cache

    def _throughput_reports(
        self, live: Sequence[str]
    ) -> tuple[JobThroughputReport, ...]:
        """Ground-truth job throughputs for fully running jobs (§5).

        Epoch-cached: reports depend only on placement-visible state
        (statuses, assignments, live set), so steady-state rounds return
        the *same tuple object* — which also lets the monitor's ingest
        fast path recognize an already-applied round of reports.
        """
        if self._reports_epoch == self._placement_epoch:
            return self._reports_cache
        reports = []
        for jid in sorted(live):
            rt = self._jobs[jid]
            task_rts = [self._tasks[t.task_id] for t in rt.job.tasks]
            if any(t.status is not TaskStatus.RUNNING for t in task_rts):
                continue
            placements = tuple(
                TaskPlacementObservation(
                    workload=t.task.workload,
                    neighbours=tuple(self._running_neighbours(t)),
                )
                for t in task_rts
            )
            reports.append(
                JobThroughputReport(
                    job_id=jid,
                    normalized_tput=self._job_rate(rt),
                    placements=placements,
                )
            )
        self._reports_cache = tuple(reports)
        self._reports_epoch = self._placement_epoch
        return self._reports_cache


    # ------------------------------------------------------------------
    # Task / job / instance events
    # ------------------------------------------------------------------
    def _on_task_ready(self, payload: tuple[str, int]) -> None:
        task_id, version = payload
        task_rt = self._tasks.get(task_id)
        if task_rt is None or task_rt.resume_version != version:
            return
        job_rt = self._jobs.get(task_rt.task.job_id)
        if job_rt is None or job_rt.finished:
            return
        affected = self._jobs_sharing_instance(task_rt.instance_id)
        affected.add(task_rt.task.job_id)
        self._advance_all(affected)
        task_rt.status = TaskStatus.RUNNING
        self._placement_epoch += 1
        inst = self._instances.get(task_rt.instance_id)
        if inst is not None:
            inst.running_cache = None
        self._refresh_rates(affected)

    def _on_job_finish(self, payload: tuple[str, int]) -> None:
        job_id, version = payload
        job_rt = self._jobs.get(job_id)
        if job_rt is None or job_rt.finished or job_rt.finish_version != version:
            return  # stale event from a superseded rate estimate
        job_rt.advance(self.now_s)
        if job_rt.remaining_h > 1e-6:
            raise SimulationError(
                f"job {job_id} finish event fired with {job_rt.remaining_h:.6f}h left"
            )
        affected: set[str] = set()
        for task in job_rt.job.tasks:
            task_rt = self._tasks[task.task_id]
            iid = task_rt.instance_id
            if iid is not None:
                affected |= self._jobs_sharing_instance(iid)
        affected.discard(job_id)
        self._advance_all(affected)

        job_rt.finished = True
        self._placement_epoch += 1
        self._finished_jobs += 1
        for task in job_rt.job.tasks:
            inst = self._instances.get(self._tasks.pop(task.task_id).instance_id)
            if inst is not None:
                self._unbind(task, inst)
                if inst.alive and not inst.assigned:
                    self._instance_down(inst.instance_id, inst)
        self._outcomes.append(
            JobOutcome(
                job_id=job_id,
                workload=job_rt.job.workload,
                num_tasks=job_rt.job.num_tasks,
                arrival_s=job_rt.arrival_s,
                finish_s=self.now_s,
                duration_hours=job_rt.job.duration_hours,
                idle_hours=job_rt.idle_h,
            )
        )
        deadline_hours = job_rt.job.deadline_hours
        if deadline_hours is not None:
            deadline_s = job_rt.arrival_s + deadline_hours * 3600.0
            lateness_s = max(0.0, self.now_s - deadline_s)
            self._deadline_outcomes.append(
                DeadlineOutcome(
                    job_id=job_id,
                    deadline_s=deadline_s,
                    finish_s=self.now_s,
                    lateness_s=lateness_s,
                )
            )
            self._acct.job_deadline_resolved(lateness_s)
        del self._jobs[job_id]
        self._pending_obs.append(JobFinished(job_id=job_id, time_s=self.now_s))
        self._refresh_rates(affected)

    # ------------------------------------------------------------------
    # Instance loss and degradation (shared with the event processes)
    # ------------------------------------------------------------------
    def _lose_instance(self, instance_id: str) -> tuple[set[str], list[_TaskRT]]:
        """A live instance vanishes with its tasks (preemption, crash).

        Advances the jobs sharing it, returns its tasks to the queue in
        sorted order and takes it down.  Returns the affected job ids and
        the requeued tasks; the caller refreshes the affected rates once
        its own bookkeeping (rollback, counters) is done.
        """
        rt = self._instances[instance_id]
        affected = self._jobs_sharing_instance(instance_id)
        self._advance_all(affected)
        requeued: list[_TaskRT] = []
        for task_id in sorted(rt.assigned):
            task_rt = self._tasks.get(task_id)
            if task_rt is None:
                continue
            self._acct.task_unassigned(task_rt.task, rt.instance.instance_type)
            task_rt.status = TaskStatus.QUEUED
            task_rt.instance_id = None
            task_rt.resume_version += 1
            requeued.append(task_rt)
        rt.assigned.clear()
        rt.invalidate()
        self._instance_down(instance_id, rt)
        return affected, requeued

    def _unbind(self, task: Task, inst: _InstanceRT) -> None:
        """Take ``task`` off ``inst``; its demand leaves the totals if
        ``inst`` is still up."""
        inst.assigned.discard(task.task_id)
        inst.invalidate()
        if inst.alive:
            self._acct.task_unassigned(task, inst.instance.instance_type)

    def _instance_down(
        self, instance_id: str, rt: _InstanceRT, release_s: float = 0.0
    ) -> None:
        """Take a live instance out of service.

        Billing stops now, or at ``release_s`` when a migration's
        checkpoint holds the instance up until then.
        """
        rt.alive = False
        self._placement_epoch += 1
        self._acct.instance_down(rt.instance.instance_type)
        if release_s <= self.now_s:
            self.cloud.terminate(instance_id, self.now_s)
            del self._instances[instance_id]
        else:
            self.queue.push(
                Event(release_s, EventKind.INSTANCE_TERMINATE, instance_id)
            )

    def _set_throughput_factor(
        self, rt: _InstanceRT, factor: Literal["slowdown", "credit_mult"], value: float
    ) -> None:
        """Set one of an instance's throughput multipliers and report it.

        Jobs on the instance advance under the old rate first; the epoch
        moves because reported rates are placement-visible.  Schedulers
        see the factor as a ``StragglerReport`` (slow, not down).
        """
        affected = self._jobs_sharing_instance(rt.instance_id)
        self._advance_all(affected)
        setattr(rt, factor, value)
        self._degraded = True
        self._placement_epoch += 1
        self._observe(
            StragglerReport(
                instance_id=rt.instance_id, time_s=self.now_s, slowdown=value
            )
        )
        self._refresh_rates(affected)

    def _on_instance_terminate(self, instance_id: str) -> None:
        """A checkpoint hold ends: the held instance stops billing."""
        self.cloud.terminate(instance_id, self.now_s)
        del self._instances[instance_id]

    def _drain_terminations(self) -> None:
        """Flush checkpoint-hold terminations left in the queue at the end."""
        while self.queue:
            event = self.queue.pop()
            if event.kind == EventKind.INSTANCE_TERMINATE:
                self._account_until(event.time_s)
                self.now_s = max(self.now_s, event.time_s)
                self._on_instance_terminate(event.payload)
        for iid, rt in sorted(self._instances.items()):
            if rt.alive:
                self._instance_down(iid, rt)

    # ------------------------------------------------------------------
    # Rates and progress
    # ------------------------------------------------------------------
    def _running_neighbours(self, task_rt: _TaskRT) -> list[str]:
        iid = task_rt.instance_id
        if iid is None or iid not in self._instances:
            return []
        inst = self._instances[iid]
        cache = inst.running_cache
        if cache is None:
            tasks = self._tasks
            cache = tuple(
                sorted(
                    tasks[tid].task.workload
                    for tid in inst.assigned
                    if tasks[tid].status is TaskStatus.RUNNING
                )
            )
            inst.running_cache = cache
        neighbours = list(cache)
        if task_rt.status is TaskStatus.RUNNING:
            # Removing the first occurrence of the task's own workload from
            # the sorted multiset equals sorting the neighbour multiset.
            neighbours.remove(task_rt.task.workload)
        return neighbours

    def _job_rate(self, job_rt: _JobRT) -> float:
        rate = 1.0
        degraded = self._degraded
        for task in job_rt.job.tasks:
            task_rt = self._tasks[task.task_id]
            if task_rt.status is not TaskStatus.RUNNING:
                return 0.0
            tput = self.interference.task_throughput_sorted(
                task.workload, tuple(self._running_neighbours(task_rt))
            )
            if degraded:
                inst = self._instances.get(task_rt.instance_id)
                # Two factors applied one after the other: their product
                # would round differently.
                if inst is not None and inst.slowdown != 1.0:
                    tput *= inst.slowdown
                if inst is not None and inst.credit_mult != 1.0:
                    tput *= inst.credit_mult
            rate = min(rate, tput)
        if self._ckpt_rate_mult != 1.0:
            rate *= self._ckpt_rate_mult
        return rate

    def _jobs_sharing_instance(self, instance_id: str | None) -> set[str]:
        if instance_id is None or instance_id not in self._instances:
            return set()
        return {
            self._tasks[tid].task.job_id
            for tid in self._instances[instance_id].assigned
            if tid in self._tasks
        }

    def _advance_all(self, job_ids: Sequence[str] | set[str]) -> None:
        for jid in job_ids:
            rt = self._jobs.get(jid)
            if rt is not None and not rt.finished:
                rt.advance(self.now_s)

    def _refresh_rates(self, job_ids: Sequence[str] | set[str]) -> None:
        for jid in sorted(job_ids):
            rt = self._jobs.get(jid)
            if rt is None or rt.finished:
                continue
            new_rate = self._job_rate(rt)
            if abs(new_rate - rt.rate) < 1e-12 and rt.finish_version > 0:
                continue
            rt.rate = new_rate
            rt.finish_version += 1
            if new_rate > 0 and rt.outage_start_s is not None:
                # Only fault injection opens outages.
                assert self._failure is not None
                self._failure.job_recovered(jid, rt)
            if new_rate > 0:
                eta_s = self.now_s + (rt.remaining_h / new_rate) * 3600.0
                self.queue.push(
                    Event(
                        max(eta_s, self.now_s),
                        EventKind.JOB_FINISH,
                        (jid, rt.finish_version),
                    )
                )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account_until(self, time_s: float) -> None:
        dt = time_s - self._accounting_time_s
        if dt <= 0:
            return
        if self.validate:
            # Cross-check the O(delta) totals against the naive re-scan on
            # every accounting step (tests run with validate=True).
            self._acct.verify(self._instances, self._tasks, self._deadline_outcomes)
            for process in self._processes:
                process.verify()
        acct = self._acct
        self._alloc.accumulate(
            dt, acct.allocated, acct.capacity, acct.num_tasks, acct.num_instances
        )
        self._accounting_time_s = time_s


def run_simulation(
    trace: Trace, scheduler: Scheduler, **options: Any
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace`` under ``scheduler``.

    ``options`` are :class:`ClusterSimulator`'s keyword arguments, so a
    new simulator knob needs no second registration here.
    """
    return ClusterSimulator(trace, scheduler, **options).run()
