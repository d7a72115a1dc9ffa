"""The simulator's runtime records and its action-protocol backend."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.cluster.instance import Instance
from repro.cluster.task import Job, Task
from repro.core.protocol import (
    AssignTask,
    ClusterEnvironment,
    LaunchInstance,
    MigrateTask,
    TerminateInstance,
    UnassignTask,
)
from repro.sim.engine import Event, EventKind, SimulationError

if TYPE_CHECKING:
    from repro.sim.simulator import ClusterSimulator


class TaskStatus(Enum):
    QUEUED = "queued"  # never placed
    PENDING = "pending"  # placed; waiting for instance/migration delays
    RUNNING = "running"


@dataclass
class _TaskRT:
    task: Task
    status: TaskStatus = TaskStatus.QUEUED
    instance_id: str | None = None
    resume_version: int = 0
    #: Instance crashes this task has survived (drives the capped
    #: exponential retry backoff; scheduler unassigns don't count).
    failures: int = 0
    #: Earliest time the task may resume after a failure (capped
    #: exponential backoff); 0.0 — never constraining — without faults.
    retry_until_s: float = 0.0


@dataclass
class _JobRT:
    job: Job
    arrival_s: float
    work_done_h: float = 0.0
    rate: float = 0.0
    last_update_s: float = 0.0
    idle_h: float = 0.0
    finish_version: int = 0
    finished: bool = False
    #: Immutable task_id → Task map, built once at arrival and reused by
    #: every snapshot instead of re-walking ``job.tasks``.
    task_map: dict[str, Task] = field(default_factory=dict)
    #: Checkpoint cadence in wall-clock seconds; None when failure
    #: injection is off (the rollback machinery then costs nothing).
    ckpt_interval_s: float | None = None
    #: Work recorded at the last completed checkpoint — what an abrupt
    #: crash rolls ``work_done_h`` back to.
    ckpt_work_h: float = 0.0
    #: Time of the last completed checkpoint (anchored at arrival).
    last_ckpt_s: float = 0.0
    #: Start of the current failure outage, or None when healthy; spans
    #: from an instance crash until the job's rate recovers above zero
    #: (per-job MTTR accumulates from these).
    outage_start_s: float | None = None

    def advance(self, now_s: float) -> None:
        """Integrate progress (and idle time) up to ``now_s``."""
        dt_h = (now_s - self.last_update_s) / 3600.0
        if dt_h <= 0:
            return
        interval = self.ckpt_interval_s
        if interval is not None:
            # Complete every checkpoint boundary crossed in this span.
            # ``last_ckpt_s + interval > last_update_s`` holds because
            # every advance consumes its boundaries, so the rate is
            # constant from ``last_update_s`` to the latest boundary and
            # the work there is exact.
            periods = (now_s - self.last_ckpt_s) // interval
            if periods >= 1.0:
                boundary_s = self.last_ckpt_s + periods * interval
                self.ckpt_work_h = self.work_done_h + self.rate * (
                    (boundary_s - self.last_update_s) / 3600.0
                )
                self.last_ckpt_s = boundary_s
        if self.rate > 0:
            self.work_done_h += self.rate * dt_h
        else:
            self.idle_h += dt_h
        self.last_update_s = now_s

    @property
    def remaining_h(self) -> float:
        return max(0.0, self.job.duration_hours - self.work_done_h)


@dataclass
class _InstanceRT:
    instance: Instance
    ready_time_s: float
    assigned: set[str] = field(default_factory=set)
    alive: bool = True
    #: Sorted workloads of the RUNNING tasks on this instance; None when a
    #: membership/status change invalidated it (recomputed lazily).
    running_cache: tuple[str, ...] | None = None
    #: Frozen copy of ``assigned`` for snapshots; None when stale.
    frozen_cache: frozenset[str] | None = None
    #: Round-robin failure-domain id (rack/AZ analogue); only assigned
    #: when fault injection is on.
    failure_domain: int = 0
    #: Straggler multiplier on effective throughput; 1.0 when healthy.
    slowdown: float = 1.0
    #: Burstable-credit multiplier; 1.0 until the instance exhausts its
    #: CPU credits (kept separate from ``slowdown`` so a straggler fault
    #: and credit exhaustion compose instead of clobbering each other).
    credit_mult: float = 1.0
    #: Whether the instance was launched on the spot market (price-change
    #: re-rating must keep the spot discount in the new rate).
    spot: bool = False
    #: Per-run launch ordinal (0 = the run's first launch).  Result
    #: records use this instead of ``instance_id``: ids come from a
    #: process-global counter, so embedding one would break run-to-run
    #: and serial-vs-parallel byte identity.
    launch_index: int = 0

    @property
    def instance_id(self) -> str:
        return self.instance.instance_id

    def invalidate(self) -> None:
        self.running_cache = None
        self.frozen_cache = None


class _SimEnvironment(ClusterEnvironment):
    """Simulator backend of the action protocol.

    Implements the five primitives against the discrete-event state —
    cloud ledger, runtime tables, delay-model draws, event queue — and
    inherits the shared action interpreter from
    :class:`~repro.core.protocol.ClusterEnvironment`.  Checkpoint holds
    (a migrating task's source instance must stay up until its
    checkpoint completes) are per-decision state, reset by
    ``begin_decision``; the canonical action order guarantees every
    migration off an instance precedes that instance's termination.
    """

    def __init__(self, sim: "ClusterSimulator"):
        self._sim = sim
        self._hold_until: dict[str, float] = {}

    def begin_decision(self) -> None:
        self._hold_until.clear()

    def launch_instance(self, action: LaunchInstance) -> None:
        sim = self._sim
        instance = action.instance
        # Schedulers may opt out of the spot market per round by setting
        # a ``use_spot = False`` attribute (the eva-market on-demand
        # fallback during eviction storms): the launch then bills at the
        # full on-demand rate and draws no preemption lifetime.  Absent
        # the attribute this is exactly "spot is enabled".
        spot_launch = sim._spot is not None and bool(
            getattr(sim.scheduler, "use_spot", True)
        )
        receipt = sim.cloud.launch(
            instance.instance_type,
            sim.now_s,
            instance=instance,
            spot=spot_launch,
        )
        rt = _InstanceRT(
            instance=instance,
            ready_time_s=receipt.ready_time_s,
            launch_index=sim._launch_seq,
            spot=spot_launch,
        )
        sim._launch_seq += 1
        sim._instances[instance.instance_id] = rt
        sim._placement_epoch += 1
        sim._acct.instance_up(instance.instance_type)
        for process in sim._processes:
            process.on_launch(rt, receipt)

    def assign_task(self, action: AssignTask) -> None:
        sim = self._sim
        sim._placements += 1
        self._start_task(
            sim._tasks[action.task_id],
            action.instance_id,
            checkpoint_done=sim.now_s,
        )

    def migrate_task(self, action: MigrateTask) -> None:
        sim = self._sim
        task_rt = sim._tasks[action.task_id]
        checkpoint_done = self._detach(task_rt, action.src_instance_id)
        sim._migrations += 1
        self._start_task(
            task_rt, action.dst_instance_id, checkpoint_done=checkpoint_done
        )

    def unassign_task(self, action: UnassignTask) -> None:
        sim = self._sim
        task_rt = sim._tasks[action.task_id]
        # The checkpoint keeps the task's progress; the source must stay
        # up (and billed) until it completes, like a migration's source.
        self._detach(task_rt, action.instance_id)
        task_rt.status = TaskStatus.QUEUED
        task_rt.instance_id = None
        task_rt.resume_version += 1
        sim._placement_epoch += 1

    def terminate_instance(self, action: TerminateInstance) -> None:
        sim = self._sim
        iid = action.instance_id
        rt = sim._instances.get(iid)
        if rt is None or not rt.alive:
            return
        if rt.assigned:
            raise SimulationError(
                f"terminating instance {iid} with assigned tasks {rt.assigned}"
            )
        sim._instance_down(iid, rt, release_s=self._hold_until.get(iid, 0.0))

    def _detach(self, task_rt: _TaskRT, src: str) -> float:
        """Take a task off ``src`` and checkpoint it there.

        The source stays up (and billed) until the checkpoint completes;
        returns that time.
        """
        sim = self._sim
        task = task_rt.task
        sim._unbind(task, sim._instances[src])
        done = sim.now_s + sim.delay_model.checkpoint_s(task.migration.checkpoint_s)
        self._hold_until[src] = max(self._hold_until.get(src, 0.0), done)
        return done

    def _start_task(
        self, task_rt: _TaskRT, dst: str, checkpoint_done: float
    ) -> None:
        """Shared placement tail: bind the task and queue its resume."""
        sim = self._sim
        task = task_rt.task
        dst_rt = sim._instances[dst]
        dst_rt.assigned.add(task.task_id)
        dst_rt.invalidate()
        sim._acct.task_assigned(task, dst_rt.instance.instance_type)
        task_rt.instance_id = dst
        task_rt.status = TaskStatus.PENDING
        task_rt.resume_version += 1
        sim._placement_epoch += 1
        # Delays are sequential (Table 1): the checkpoint must finish
        # AND the destination must be up before the task launch delay
        # starts.
        launch = sim.delay_model.launch_s(task.migration.launch_s)
        resume = max(dst_rt.ready_time_s, checkpoint_done) + launch
        if task_rt.retry_until_s > resume:
            # Capped exponential backoff of a repeatedly failing task:
            # the placement happens, but the restart waits out the
            # cooldown (0.0 without faults — never constraining).
            resume = task_rt.retry_until_s
        sim.queue.push(
            Event(
                resume,
                EventKind.TASK_READY,
                (task.task_id, task_rt.resume_version),
            )
        )
