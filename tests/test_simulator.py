"""Integration-grade unit tests for the cluster simulator (§5)."""

import math

import pytest

from repro.baselines import NoPackingScheduler
from repro.cloud.market import CreditModel, MarketConfig, MarketPool
from repro.cloud.delays import DelayModel
from repro.cluster.resources import ResourceVector
from repro.core.scheduler import EvaScheduler
from repro.interference.model import InterferenceModel, no_interference_model
from repro.sim.engine import Event, EventKind, SimulationError
from repro.sim.processes.base import EventProcess
from repro.sim.processes.failure import FailureConfig, FailureProcess
from repro.sim.processes.market import MarketProcess
from repro.sim.processes.spot import SpotConfig, SpotProcess
from repro.sim.simulator import ClusterSimulator, run_simulation
from repro.workloads.trace import Trace, sort_jobs_by_arrival
from repro.workloads.workloads import workload
from repro.workloads.synthetic import synthetic_trace


def _trace(specs, name="t"):
    """specs: list of (workload_name, duration_h, arrival_s[, num_tasks])."""
    jobs = []
    for i, spec in enumerate(specs):
        wname, dur, arrival = spec[:3]
        num_tasks = spec[3] if len(spec) > 3 else None
        jobs.append(
            workload(wname).make_job(
                duration_hours=dur,
                arrival_time_s=arrival,
                num_tasks=num_tasks,
                job_id=f"{name}-{i}",
            )
        )
    return Trace(name=name, jobs=sort_jobs_by_arrival(jobs))


class TestSingleJob:
    def test_jct_decomposition_no_interference(self, catalog):
        """JCT = wait-for-round + instance ready + launch + duration."""
        trace = _trace([("A3C", 1.0, 10.0)])
        result = run_simulation(
            trace, NoPackingScheduler(catalog), validate=True
        )
        job = result.jobs[0]
        # Round fires at 300s (period boundary); instance ready 209s
        # later; A3C launch delay 10s; then 1h of work.
        expected_start = 300.0 + 209.0 + 10.0
        expected_jct_h = (expected_start - 10.0) / 3600.0 + 1.0
        assert job.jct_hours == pytest.approx(expected_jct_h, abs=1e-6)
        assert job.idle_hours == pytest.approx(
            (expected_start - 10.0) / 3600.0, abs=1e-6
        )
        assert job.normalized_tput == pytest.approx(1.0)

    def test_billing_matches_uptime(self, catalog):
        trace = _trace([("A3C", 1.0, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        # One c7i.xlarge from t=0 (round at 0) to job end.
        expected_uptime_h = (209.0 + 10.0) / 3600.0 + 1.0
        assert result.total_cost == pytest.approx(
            0.1785 * expected_uptime_h, rel=1e-6
        )
        assert result.instances_launched == 1

    def test_multi_task_job_completes_together(self, catalog):
        trace = _trace([("ResNet18-2", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.num_jobs == 1
        assert result.jobs[0].num_tasks == 2
        assert result.instances_launched == 2  # no packing: one per task


class TestInterference:
    def test_colocation_stretches_duration(self, catalog):
        """Two co-located GCN+A3C tasks run at Figure-1 rates."""
        trace = _trace([("GCN", 1.0, 0.0), ("A3C", 1.0, 0.0)])
        uniform = InterferenceModel(uniform_value=0.5)
        eva = EvaScheduler(catalog)
        result = run_simulation(trace, eva, interference=uniform)
        for job in result.jobs:
            # If ever co-located, active time > duration.
            assert job.normalized_tput <= 1.0

    def test_no_interference_means_unit_tput(self, catalog):
        trace = synthetic_trace(10, seed=0)
        result = run_simulation(
            trace,
            EvaScheduler(catalog),
            interference=no_interference_model(),
        )
        for job in result.jobs:
            assert job.normalized_tput == pytest.approx(1.0, abs=1e-6)

    def test_work_conservation(self, catalog):
        """Every job finishes exactly its standalone work."""
        trace = synthetic_trace(15, seed=2)
        sim = ClusterSimulator(trace, EvaScheduler(catalog))
        result = sim.run()
        assert result.num_jobs == 15
        for job in result.jobs:
            # JCT >= duration always; active time >= duration.
            assert job.jct_hours >= job.duration_hours - 1e-9
            assert job.active_hours >= job.duration_hours - 1e-6


class TestDeterminism:
    def test_same_seed_same_result(self, catalog):
        trace = synthetic_trace(20, seed=3)
        a = run_simulation(trace, EvaScheduler(catalog))
        b = run_simulation(trace, EvaScheduler(catalog))
        assert a.total_cost == pytest.approx(b.total_cost)
        assert a.migrations == b.migrations
        assert [j.finish_s for j in a.jobs] == [j.finish_s for j in b.jobs]


class TestDelays:
    def test_longer_migration_delays_increase_idle(self, catalog):
        trace = synthetic_trace(20, seed=4)
        fast = run_simulation(
            trace, EvaScheduler(catalog), delay_model=DelayModel()
        )
        slow = run_simulation(
            trace,
            EvaScheduler(
                catalog, delay_model=DelayModel(migration_multiplier=10.0)
            ),
            delay_model=DelayModel(migration_multiplier=10.0),
        )
        assert slow.mean_idle_hours() >= fast.mean_idle_hours() - 1e-6

    def test_instance_ready_time_gates_start(self, catalog):
        trace = _trace([("GPT2", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        job = result.jobs[0]
        # GPT2 launch is 15s; instance ready 209s dominates.
        assert job.idle_hours * 3600.0 == pytest.approx(209.0 + 15.0, abs=1.0)


class TestLifecycle:
    def test_all_instances_terminated_at_end(self, catalog):
        trace = synthetic_trace(12, seed=5)
        sim = ClusterSimulator(trace, EvaScheduler(catalog))
        result = sim.run()
        assert sim.cloud.ledger.active_instance_ids() == []
        assert result.instances_launched >= 1

    def test_validate_mode_passes(self, catalog):
        trace = synthetic_trace(12, seed=6)
        run_simulation(trace, EvaScheduler(catalog), validate=True)

    def test_scheduling_rounds_counted(self, catalog):
        trace = _trace([("A3C", 0.5, 0.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.scheduling_rounds >= 1

    def test_empty_gaps_skip_rounds(self, catalog):
        """Rounds stop while the system is empty between jobs."""
        trace = _trace([("A3C", 0.1, 0.0), ("A3C", 0.1, 7 * 3600.0)])
        result = run_simulation(trace, NoPackingScheduler(catalog))
        # ~0.25h of activity per job; a naive fixed cadence would run
        # ~84 rounds over 7h.
        assert result.scheduling_rounds < 30

    def test_period_must_be_positive(self, catalog):
        trace = _trace([("A3C", 0.1, 0.0)])
        with pytest.raises(ValueError):
            ClusterSimulator(trace, NoPackingScheduler(catalog), period_s=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("period_s", math.nan),
            ("period_s", math.inf),
            ("period_s", -1.0),
            ("max_sim_hours", math.nan),
            ("max_sim_hours", math.inf),
            ("max_sim_hours", 0.0),
            ("deadline_warning_s", math.nan),
            ("deadline_warning_s", math.inf),
            ("deadline_warning_s", -1.0),
        ],
    )
    def test_bad_scalars_raise_naming_the_field(self, catalog, field, value):
        """NaN period died deep in round arming, an infinite one returned
        an empty result, and NaN warning/runaway horizons silently
        disabled their checks."""
        trace = _trace([("A3C", 0.1, 0.0)])
        with pytest.raises(ValueError, match=field):
            ClusterSimulator(trace, NoPackingScheduler(catalog), **{field: value})


_CORE_KINDS = {
    EventKind.JOB_ARRIVAL,
    EventKind.TASK_READY,
    EventKind.JOB_FINISH,
    EventKind.INSTANCE_TERMINATE,
    EventKind.SCHEDULING_ROUND,
}


def _all_processes_sim(catalog):
    market = MarketConfig(
        enabled=True,
        pools=(MarketPool(name="cpu", volatility=0.1, step_s=600.0),),
        credits=CreditModel(families=("c7i",)),
    )
    return ClusterSimulator(
        _trace([("A3C", 0.1, 0.0)]),
        NoPackingScheduler(catalog),
        spot=SpotConfig(enabled=True),
        failures=FailureConfig(enabled=True, crash_rate_per_hour=0.1),
        market=market,
    )


class TestDispatchTable:
    def test_every_kind_has_one_handler_with_all_processes(self, catalog):
        sim = _all_processes_sim(catalog)
        assert [type(p) for p in sim._processes] == [
            MarketProcess,
            FailureProcess,
            SpotProcess,
        ]
        assert set(sim._handlers) == set(EventKind)
        for kind, handler in sim._handlers.items():
            owner = handler.__self__
            assert (owner is sim) == (kind in _CORE_KINDS), kind
            assert owner is sim or owner in sim._processes, kind

    def test_disabled_subsystems_construct_no_process(self, catalog, monkeypatch):
        def refuse(self, sim, config):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(EventProcess, "__init__", refuse)
        sim = ClusterSimulator(
            _trace([("A3C", 0.1, 0.0)]),
            NoPackingScheduler(catalog),
            spot=SpotConfig(),
            failures=FailureConfig(crash_rate_per_hour=0.1),
            market=MarketConfig(pools=(MarketPool(name="cpu"),)),
        )
        assert sim._processes == []
        assert set(sim._handlers) == _CORE_KINDS
        with pytest.raises(SimulationError, match="INSTANCE_FAILURE"):
            sim._dispatch(Event(0.0, EventKind.INSTANCE_FAILURE, ("instance", "i")))

    def test_two_owners_of_one_kind_raise(self, catalog, monkeypatch):
        claims = SpotProcess.handlers

        def greedy(self):
            return {**claims(self), EventKind.INSTANCE_FAILURE: print}

        monkeypatch.setattr(SpotProcess, "handlers", greedy)
        with pytest.raises(SimulationError, match="INSTANCE_FAILURE"):
            _all_processes_sim(catalog)


class TestMetricsPlumbing:
    def test_allocation_between_zero_and_one(self, catalog):
        trace = synthetic_trace(15, seed=7)
        result = run_simulation(trace, EvaScheduler(catalog))
        for value in result.allocation.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_tasks_per_instance_at_least_one_when_packed(self, catalog):
        trace = synthetic_trace(15, seed=8)
        result = run_simulation(trace, EvaScheduler(catalog))
        assert result.tasks_per_instance > 0.5

    def test_uptime_count_matches_launches(self, catalog):
        trace = synthetic_trace(10, seed=9)
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert len(result.uptimes_hours) == result.instances_launched

    def test_eva_reports_adoption_fraction(self, catalog):
        trace = synthetic_trace(10, seed=10)
        result = run_simulation(trace, EvaScheduler(catalog))
        assert result.full_adoption_fraction is not None
        assert 0.0 <= result.full_adoption_fraction <= 1.0

    def test_baseline_has_no_adoption_fraction(self, catalog):
        trace = synthetic_trace(5, seed=11)
        result = run_simulation(trace, NoPackingScheduler(catalog))
        assert result.full_adoption_fraction is None
