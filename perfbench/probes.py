"""Wrappers around the public functions of each ``repro`` layer.

Two kinds of instrumentation, both installed from outside the program
and removed again afterwards:

* :class:`DecideTimer` times every ``EvaScheduler.decide`` round.  It is
  the only wrapper active in an untraced run, because per-round latency
  is an end-to-end metric.
* :func:`install` puts the full per-layer probe set on a
  :class:`~tracer.Tracer` for a separate traced run.

A function imported by name into other modules (``from m import f``) is
rebound in every loaded ``repro`` module that holds it, so call sites
see the wrapper.  A method is wrapped on every class in the hierarchy
that defines it.  Wrappers only observe: results pass through unchanged.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
import types
from typing import Any, Callable

from tracer import Tracer, counted, outermost, self_times, spanned

EVENT_KINDS = (
    "JOB_ARRIVAL", "TASK_READY", "JOB_FINISH", "INSTANCE_PREEMPTION",
    "INSTANCE_TERMINATE", "EVICTION_NOTICE", "INSTANCE_FAILURE",
    "SLOWDOWN_START", "SLOWDOWN_END", "PRICE_CHANGE", "CREDIT_EXHAUSTED",
    "SCHEDULING_ROUND",
)
ACTION_TYPES = (
    "LaunchInstance", "AssignTask", "MigrateTask", "UnassignTask",
    "TerminateInstance",
)
SCHEDULERS = (
    "eva", "eva-failure", "eva-market", "no-packing", "stratus", "synergy",
    "owl",
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner)[attr]
        self._undo.append(lambda: _assign(owner, attr, original))
        _assign(owner, attr, value)

    def gc_callback(self, callback: Callable[[str, dict], None]) -> None:
        gc.callbacks.append(callback)
        self._undo.append(lambda: gc.callbacks.remove(callback))

    def function(self, module: str, attr: str, wrap: Callable) -> None:
        """Wrap ``module.attr`` and every ``repro`` alias of it."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and mod.__dict__.get(attr) is original:
                self.set(mod, attr, wrapped)

    def method(self, root: type, attr: str, wrap: Callable[[type, Callable], Callable]) -> None:
        """Wrap ``attr`` on ``root`` and each subclass that overrides it."""
        seen: set[type] = set()
        stack = [root]
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.set(cls, attr, wrap(cls, cls.__dict__[attr]))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _assign(owner: Any, attr: str, value: Any) -> None:
    # Frozen dataclass instances (experiment specs) refuse setattr.
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class DecideTimer:
    """Thread CPU seconds of each Eva ``decide`` round, one list per pass.

    CPU time of the calling thread leaves out the time the host's other
    tenants hold the core.  Time in cyclic garbage collection is left
    out too: a full collection scans the whole process heap, takes tens
    of ms, and lands in whichever round happens to trigger it, about
    three rounds per replay, which is where a p99 over a few hundred
    rounds sits.  ``wall_s`` still pays for it.
    """

    def __init__(self) -> None:
        self.passes: list[list[float]] = []

    def new_pass(self) -> None:
        self.passes.append([])

    def install(self) -> Patches:
        from repro.core.scheduler import EvaScheduler

        clock = time.thread_time
        collecting = [0.0, 0.0]  # [start of the running collection, total so far]

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                collecting[0] = clock()
            else:
                collecting[1] += clock() - collecting[0]

        def wrap(cls, fn):
            def decide(scheduler, *args, **kwargs):
                start, collected = clock(), collecting[1]
                result = fn(scheduler, *args, **kwargs)
                self.passes[-1].append(clock() - start - (collecting[1] - collected))
                return result

            return decide

        patches = Patches()
        patches.method(EvaScheduler, "decide", wrap)
        patches.gc_callback(on_gc)
        return patches


class Probe:
    """Everything one traced pass records, and the metrics derived from it."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters = self.tracer.counters
        #: (simulation index, round index, live tasks, decide span index)
        self.rounds: list[tuple[int, int, int, int]] = []
        #: ScenarioOutcome.elapsed_s of freshly simulated cells, by scheduler.
        self.scenario_s: dict[str, float] = {}
        self._sim = -1
        self._round = 0

    # -- hooks ---------------------------------------------------------
    def _sim_started(self, *_: Any) -> None:
        self._sim += 1
        self._round = 0

    def _eva_round(self, result: Any, args: tuple, index: int) -> None:
        self.rounds.append((self._sim, self._round, len(args[1].tasks), index))
        self._round += 1

    def _event(self, event: Any, _: tuple) -> None:
        self.counters[f"sim.events.{event.kind.name}"] += 1

    def _actions(self, _: Any, args: tuple, __: int) -> None:
        for action in args[1].actions:
            self.counters[f"protocol.actions.{type(action).__name__}"] += 1

    def _memo(self, prefix: str) -> Callable:
        def after(result: Any, _: tuple) -> None:
            self.counters[f"{prefix}.calls"] += 1
            self.counters[f"{prefix}.hits"] += result is not None

        return after

    def _count(self, key: str) -> Callable:
        def after(*_: Any) -> None:
            self.counters[key] += 1

        return after

    def _ensemble(self, result: Any, *_: Any) -> None:
        self.counters["ensemble.full"] += bool(result[1].adopted_full)

    def _store_get(self, result: Any, *_: Any) -> None:
        self.counters["results.gets"] += 1
        self.counters["results.hits"] += result is not None

    def _store_put(self, _: Any, args: tuple, __: int) -> None:
        outcome = args[2]
        name = outcome.scenario.scheduler
        self.scenario_s[name] = self.scenario_s.get(name, 0.0) + outcome.elapsed_s

    # -- installation --------------------------------------------------
    def install(self) -> Patches:
        """Wrap every layer's public entry points; undo with the result."""
        import repro.baselines  # noqa: F401  (every Scheduler subclass)
        import repro.experiments  # noqa: F401  (every registered spec)
        from repro.cloud.provider import SimulatedCloud
        from repro.core.ensemble import EnsemblePolicy
        from repro.core.evaluation import AssignmentEvaluator
        from repro.core.full_reconfig import PackMemo
        from repro.core.interfaces import Scheduler
        from repro.core.protocol import ClusterEnvironment
        from repro.core.reservation_price import ReservationPriceCalculator
        from repro.core.scheduler import EvaScheduler
        from repro.experiments.registry import all_specs
        from repro.sim.batch import TraceSpec
        from repro.sim.engine import EventQueue
        from repro.sim.results import ResultStore
        from repro.sim.simulator import ClusterSimulator

        tracer = self.tracer
        patches = Patches()

        def span(name, after=None, before=None):
            def wrap(*args):
                fn = args[-1]
                inner = spanned(tracer, name, fn, after)
                if before is None:
                    return inner

                def with_before(*a, **k):
                    before()
                    return inner(*a, **k)

                return with_before

            return wrap

        def count(after):
            return lambda *args: counted(args[-1], after)

        patches.method(ClusterSimulator, "run", span("sim.run", before=self._sim_started))
        patches.method(EventQueue, "pop", count(self._event))
        patches.method(
            Scheduler,
            "decide",
            lambda cls, fn: spanned(
                tracer,
                "scheduler.decide" if issubclass(cls, EvaScheduler) else "scheduler.decide_other",
                fn,
                self._eva_round if issubclass(cls, EvaScheduler) else None,
            ),
        )
        patches.function("repro.core.full_reconfig", "full_reconfiguration", span("full_reconfig"))
        patches.function("repro.core.partial_reconfig", "partial_reconfiguration", span("partial_reconfig"))
        patches.method(PackMemo, "get_pack", count(self._memo("full_reconfig.pack")))
        patches.method(PackMemo, "get", count(self._memo("full_reconfig.packing")))
        patches.method(EnsemblePolicy, "decide", span("ensemble", self._ensemble))
        patches.method(AssignmentEvaluator, "set_value", span("evaluation.set_value"))
        patches.method(ReservationPriceCalculator, "rp", count(self._count("reservation_price.rp_calls")))
        patches.method(ClusterEnvironment, "execute", span("protocol.execute", self._actions))
        patches.function("repro.core.protocol", "diff_target", span("protocol.diff_target"))
        patches.method(SimulatedCloud, "launch", count(self._count("cloud.launches")))
        patches.method(SimulatedCloud, "terminate", count(self._count("cloud.terminations")))
        patches.method(ResultStore, "get", span("results.get", self._store_get))
        patches.method(ResultStore, "put", span("results.put", self._store_put))
        patches.function("repro.sim.fingerprint", "fingerprint", span("fingerprint"))
        patches.method(TraceSpec, "build", span("workloads.trace_build"))
        for spec in all_specs():
            if spec.kind == "grid":
                patches.set(spec, "build", spanned(tracer, "experiments.build", spec.build))
                patches.set(spec, "aggregate", spanned(tracer, "experiments.aggregate", spec.aggregate))
        return patches

    # -- derived metrics -----------------------------------------------
    def total(self, name: str) -> float:
        return sum(self.tracer.duration(i) for i in outermost(self.tracer, name))

    def calls(self, name: str) -> int:
        return len(outermost(self.tracer, name))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (names as in BENCHMARK.json)."""
        tracer, c = self.tracer, self.counters
        own = self_times(tracer)
        decide = outermost(tracer, "scheduler.decide")
        reconfigured = set()
        for name in ("full_reconfig", "partial_reconfig"):
            for index in tracer.spans(name):
                parent = tracer.parent[index]
                while parent >= 0 and tracer.name(parent) != "scheduler.decide":
                    parent = tracer.parent[parent]
                if parent >= 0:
                    reconfigured.add(parent)
        first_q, last_q = self.decide_ms_per_task_quartiles()
        m: dict[str, float] = {}
        for kind in EVENT_KINDS:
            m[f"sim.events.{kind}"] = c[f"sim.events.{kind}"]
        m["sim.self_s"] = sum(own[i] for i in tracer.spans("sim.run"))
        m["scheduler.decide_calls"] = len(decide)
        m["scheduler.decide_s"] = self.total("scheduler.decide")
        m["scheduler.round_memo_hit_ratio"] = _ratio(
            len(decide) - len(reconfigured), len(decide)
        )
        m["scheduler.decide_ms_per_task.first_q"] = first_q
        m["scheduler.decide_ms_per_task.last_q"] = last_q
        m["full_reconfig.calls"] = self.calls("full_reconfig")
        m["full_reconfig.s"] = self.total("full_reconfig")
        m["full_reconfig.pack_attempts"] = c["full_reconfig.pack.calls"]
        m["full_reconfig.pack_memo_hit_ratio"] = _ratio(
            c["full_reconfig.pack.hits"], c["full_reconfig.pack.calls"]
        )
        m["full_reconfig.packing_memo_hit_ratio"] = _ratio(
            c["full_reconfig.packing.hits"], c["full_reconfig.packing.calls"]
        )
        m["partial_reconfig.calls"] = self.calls("partial_reconfig")
        m["partial_reconfig.s"] = self.total("partial_reconfig")
        m["ensemble.calls"] = self.calls("ensemble")
        m["ensemble.s"] = self.total("ensemble")
        m["ensemble.full_adoption_ratio"] = _ratio(c["ensemble.full"], self.calls("ensemble"))
        m["evaluation.set_value_calls"] = self.calls("evaluation.set_value")
        m["evaluation.set_value_s"] = self.total("evaluation.set_value")
        m["reservation_price.rp_calls"] = c["reservation_price.rp_calls"]
        m["protocol.execute_s"] = self.total("protocol.execute")
        m["protocol.diff_target_s"] = self.total("protocol.diff_target")
        for action in ACTION_TYPES:
            m[f"protocol.actions.{action}"] = c[f"protocol.actions.{action}"]
        m["cloud.launches"] = c["cloud.launches"]
        m["cloud.terminations"] = c["cloud.terminations"]
        for name in SCHEDULERS:
            m[f"batch.scenario_s.{name}"] = self.scenario_s.get(name, 0.0)
        m["results.get_s"] = self.total("results.get")
        m["results.put_s"] = self.total("results.put")
        m["results.hit_ratio"] = _ratio(c["results.hits"], c["results.gets"])
        m["fingerprint.calls"] = self.calls("fingerprint")
        m["fingerprint.s"] = self.total("fingerprint")
        m["experiments.build_s"] = self.total("experiments.build")
        m["experiments.aggregate_s"] = self.total("experiments.aggregate")
        m["workloads.trace_build_s"] = self.total("workloads.trace_build")
        return m

    def decide_ms_per_task_quartiles(self) -> tuple[float, float]:
        """Median decide ms per live task in the first and last round quartile."""
        per_task: dict[int, list[float]] = {0: [], 3: []}
        for quartile, tasks, ms in self.round_profile():
            if quartile in per_task:
                per_task[quartile].append(ms / max(1, tasks))
        first, last = (statistics.median(v) if v else 0.0 for v in per_task.values())
        return first, last

    def round_profile(self) -> list[tuple[int, int, float]]:
        """(round-index quartile, live tasks, decide ms) per Eva round."""
        rounds_in: dict[int, int] = {}
        for sim, round_index, _, _ in self.rounds:
            rounds_in[sim] = max(rounds_in.get(sim, 0), round_index + 1)
        return [
            (min(3, 4 * round_index // rounds_in[sim]), tasks, self.tracer.duration(index) * 1e3)
            for sim, round_index, tasks, index in self.rounds
        ]

    def growth_table(self) -> str:
        """Per-round decide ms against round-index quartile and live task count."""
        bounds = (25, 50, 100, 200, 400)
        groups = [("quartile", f"Q{q}") for q in range(1, 5)]
        groups += [("tasks", f"<{b}") for b in bounds] + [("tasks", f">={bounds[-1]}")]
        rows: dict[tuple[str, str], list[tuple[int, float]]] = {g: [] for g in groups}
        for quartile, tasks, ms in self.round_profile():
            bucket = next((f"<{b}" for b in bounds if tasks < b), f">={bounds[-1]}")
            rows[("quartile", f"Q{quartile + 1}")].append((tasks, ms))
            rows[("tasks", bucket)].append((tasks, ms))
        lines = [
            f"{'by':<9} {'group':<7} {'rounds':>7} {'tasks_p50':>9} "
            f"{'ms_p50':>8} {'ms_mean':>8} {'ms/task_p50':>11}"
        ]
        for (by, group), samples in rows.items():
            if not samples:
                continue
            ms = [m for _, m in samples]
            lines.append(
                f"{by:<9} {group:<7} {len(samples):>7} "
                f"{statistics.median(t for t, _ in samples):>9.0f} "
                f"{statistics.median(ms):>8.3f} {statistics.fmean(ms):>8.3f} "
                f"{statistics.median(m / max(1, t) for t, m in samples):>11.4f}"
            )
        return "\n".join(lines)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
