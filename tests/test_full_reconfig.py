"""Unit and property tests for Full Reconfiguration (Algorithm 1, §4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import ec2_catalog
from repro.cluster.resources import ResourceVector
from repro.cluster.state import tasks_fit_on_type
from repro.cluster.task import make_job
from repro.core import full_reconfig
from repro.core.deadline import DeadlineTNRPEvaluator
from repro.core.evaluation import RPEvaluator, TNRPEvaluator
from repro.core.full_reconfig import (
    PackMemo,
    _ArgmaxScan,
    _pack_one_instance,
    _TaskPool,
    configuration_cost,
    full_reconfiguration,
    match_existing_instances,
    packing_summary,
)
from repro.core.reservation_price import ReservationPriceCalculator
from repro.core.throughput_table import (
    CoLocationThroughputTable,
    TaskPlacementObservation,
)
from repro.workloads.synthetic import microbench_task_pool


class TestPaperWalkthrough:
    """The §4.2 worked example, step by step."""

    def test_exact_configuration(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        by_type = {}
        for p in packed:
            by_type.setdefault(p.instance_type.name, []).append(
                sorted(t.job_id for t in p.tasks)
            )
        # tau1, tau2, tau4 share an it1 instance; tau3 lands alone on it3.
        assert by_type == {"it1": [["tau1", "tau2", "tau4"]], "it3": [["tau3"]]}
        assert configuration_cost(packed) == pytest.approx(12.8)

    def test_cheaper_than_no_packing(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        assert configuration_cost(packed) < calc.rp_of_set(example_tasks)

    def test_interference_changes_decision(self, example_catalog, example_tasks):
        """§4.3: tau1/tau2 at 0.7/0.8 make the shared it1 inefficient."""
        calc = ReservationPriceCalculator(example_catalog)
        table = CoLocationThroughputTable(default_tput=1.0)
        table.observe_single_task_job(
            TaskPlacementObservation("w1", ("w2",)), 0.7
        )
        table.observe_single_task_job(
            TaskPlacementObservation("w2", ("w1",)), 0.8
        )
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        packed = full_reconfiguration(
            example_tasks[:2], example_catalog, ev
        )
        placements = {
            frozenset(t.job_id for t in p.tasks) for p in packed
        }
        # tau1 and tau2 must not share an instance.
        assert frozenset({"tau1", "tau2"}) not in placements


def _invariants(tasks, catalog, packed, evaluator):
    # Every task assigned exactly once.
    assigned = [t.task_id for p in packed for t in p.tasks]
    assert sorted(assigned) == sorted(t.task_id for t in tasks)
    for p in packed:
        # Resource-feasible.
        assert tasks_fit_on_type(p.tasks, p.instance_type)
        # Cost-efficient (the line 14 criterion).
        assert evaluator.set_value(list(p.tasks)) >= p.hourly_cost - 1e-6


class TestInvariants:
    def test_random_pool_rp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(120, seed=3)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)
        assert configuration_cost(packed) <= calc.rp_of_set(tasks) + 1e-9

    def test_random_pool_tnrp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        table = CoLocationThroughputTable(default_tput=0.95)
        ev = TNRPEvaluator(calc, table, jobs={}, multi_task_aware=False)
        tasks = microbench_task_pool(120, seed=4)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)

    def test_tnrp_with_no_interference_matches_rp(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        tasks = microbench_task_pool(80, seed=5)
        rp_packed = full_reconfiguration(tasks, catalog, RPEvaluator(calc))
        tnrp_packed = full_reconfiguration(
            tasks,
            catalog,
            TNRPEvaluator(
                calc, CoLocationThroughputTable(default_tput=1.0), jobs={}
            ),
        )
        assert configuration_cost(rp_packed) == pytest.approx(
            configuration_cost(tnrp_packed)
        )

    def test_faithful_scan_invariants(self):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(60, seed=6)
        packed = full_reconfiguration(
            tasks, catalog, ev, group_identical=False
        )
        _invariants(tasks, catalog, packed, ev)

    def test_empty_task_set(self):
        catalog = ec2_catalog()
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        assert full_reconfiguration([], catalog, ev) == []

    def test_deterministic(self):
        catalog = ec2_catalog()
        ev = RPEvaluator(ReservationPriceCalculator(catalog))
        tasks = microbench_task_pool(60, seed=7)
        a = full_reconfiguration(tasks, catalog, ev)
        b = full_reconfiguration(tasks, catalog, ev)
        assert [
            (p.instance_type.name, sorted(t.task_id for t in p.tasks)) for p in a
        ] == [
            (p.instance_type.name, sorted(t.task_id for t in p.tasks)) for p in b
        ]

    def test_severe_interference_reduces_to_no_packing(self):
        """§6.4: when packing anything is sub-optimal, Eva stops packing."""
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        table = CoLocationThroughputTable(default_tput=0.01)
        ev = TNRPEvaluator(calc, table, jobs={})
        tasks = microbench_task_pool(30, seed=8)
        packed = full_reconfiguration(tasks, catalog, ev)
        assert all(len(p.tasks) == 1 for p in packed)
        assert configuration_cost(packed) == pytest.approx(calc.rp_of_set(tasks))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_property_invariants(self, n, seed):
        catalog = ec2_catalog()
        calc = ReservationPriceCalculator(catalog)
        ev = RPEvaluator(calc)
        tasks = microbench_task_pool(n, seed=seed)
        packed = full_reconfiguration(tasks, catalog, ev)
        _invariants(tasks, catalog, packed, ev)
        assert configuration_cost(packed) <= calc.rp_of_set(tasks) + 1e-9


class TestGuard:
    def test_line_9_11_guard_stops_value_decrease(self, example_catalog):
        """Adding a task that lowers TNRP must stop the inner loop."""
        calc = ReservationPriceCalculator(example_catalog)
        table = CoLocationThroughputTable(default_tput=0.4)
        ev = TNRPEvaluator(calc, table, jobs={})
        jobs = [
            make_job("a", {"*": ResourceVector(0, 2, 4)}, 1.0, job_id=f"g{i}")
            for i in range(6)
        ]
        tasks = [j.tasks[0] for j in jobs]
        packed = full_reconfiguration(tasks, example_catalog, ev)
        for p in packed:
            # With t=0.4 a second co-located task would reduce the value:
            # 2 * 0.4 * rp < 1 * rp.
            assert len(p.tasks) == 1


class TestMatchExisting:
    def test_reuses_matching_type_with_best_overlap(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        jobs = [
            make_job("w", {"*": ResourceVector(2, 8, 24)}, 1.0, job_id=f"m{i}")
            for i in range(2)
        ]
        tasks = [j.tasks[0] for j in jobs]
        packed = full_reconfiguration(tasks, example_catalog, ev)
        from repro.cluster.instance import fresh_instance

        live = fresh_instance(packed[0].instance_type)
        relabelled = match_existing_instances(
            packed, [(live, frozenset({tasks[0].task_id}))]
        )
        reused = [p for p in relabelled if p.instance.instance_id == live.instance_id]
        assert len(reused) == 1
        assert tasks[0].task_id in reused[0].task_ids()

    def test_no_reuse_across_types(self, example_catalog):
        calc = ReservationPriceCalculator(example_catalog)
        ev = RPEvaluator(calc)
        job = make_job("w", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id="x")
        packed = full_reconfiguration(list(job.tasks), example_catalog, ev)
        from repro.cluster.instance import fresh_instance

        gpu_live = fresh_instance(example_catalog[0])  # it1, different type
        relabelled = match_existing_instances(packed, [(gpu_live, frozenset())])
        assert all(
            p.instance.instance_id != gpu_live.instance_id for p in relabelled
        )

    def test_summary(self, example_catalog, example_tasks):
        calc = ReservationPriceCalculator(example_catalog)
        packed = full_reconfiguration(
            example_tasks, example_catalog, RPEvaluator(calc)
        )
        summary = packing_summary(packed)
        assert summary["instances"] == 2
        assert summary["tasks"] == 4
        assert summary["hourly_cost"] == pytest.approx(12.8)


class TestTaskPool:
    """Ordering contract of the packer's grouped task pool."""

    @staticmethod
    def _make_tasks(example_catalog):
        # Two interchangeable groups: three 'a' tasks and two 'b' tasks.
        tasks = []
        for i in range(3):
            job = make_job(
                "a", {"*": ResourceVector(0, 4, 12)}, 1.0, job_id=f"a{i}"
            )
            tasks.extend(job.tasks)
        for i in range(2):
            job = make_job(
                "b", {"*": ResourceVector(0, 6, 20)}, 1.0, job_id=f"b{i}"
            )
            tasks.extend(job.tasks)
        return tasks

    @staticmethod
    def _pool(tasks, example_catalog, group_identical=True):
        from repro.core.full_reconfig import _TaskPool

        calc = ReservationPriceCalculator(example_catalog)
        return _TaskPool(tasks, RPEvaluator(calc), group_identical)

    def test_representatives_are_sorted_by_group_and_lowest_id_first(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        reps = pool.representatives()
        assert len(reps) == 2
        # Group keys sort 'a' before 'b'; the representative is the
        # lowest task id of its group (stacks are pushed in descending
        # id order, so the top is the smallest).
        assert [r.workload for r in reps] == ["a", "b"]
        assert reps[0].task_id == min(
            t.task_id for t in tasks if t.workload == "a"
        )

    def test_pop_removes_only_the_representative(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        rep = pool.representatives()[0]
        popped = pool.pop(rep)
        assert popped is rep
        assert len(pool) == len(tasks) - 1
        # Popping a task that is not currently on top is rejected (the
        # stack top is the smallest remaining id, so the largest is not).
        bottom = max(
            (t for t in tasks if t.workload == "a"), key=lambda t: t.task_id
        )
        with pytest.raises(KeyError):
            pool.pop(bottom)

    def test_push_back_restores_group_order_and_stack_position(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        # Drain group 'a' entirely, then push its tasks back.
        popped = []
        while pool.representatives()[0].workload == "a":
            popped.append(pool.pop(pool.representatives()[0]))
        assert [r.workload for r in pool.representatives()] == ["b"]
        pool.push_back(popped)
        reps = pool.representatives()
        assert [r.workload for r in reps] == ["a", "b"]
        # Stacks are LIFO: the last pushed-back task is the new top.
        assert reps[0] is popped[-1]
        assert len(pool) == len(tasks)

    def test_drain_matches_repeated_first_representative_pops(
        self, example_catalog
    ):
        tasks = self._make_tasks(example_catalog)
        reference = self._pool(tasks, example_catalog)
        expected = []
        while not reference.is_empty():
            expected.append(reference.pop(reference.representatives()[0]))
        drained = self._pool(tasks, example_catalog).drain()
        assert [t.task_id for t in drained] == [t.task_id for t in expected]

    def test_ungrouped_pool_has_one_bucket_per_task(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog, group_identical=False)
        reps = pool.representatives()
        assert len(reps) == len(tasks)
        assert [r.task_id for r in reps] == sorted(t.task_id for t in tasks)

    def test_fingerprint_captures_stack_order(self, example_catalog):
        tasks = self._make_tasks(example_catalog)
        pool = self._pool(tasks, example_catalog)
        fp1 = pool.fingerprint()
        assert fp1 == self._pool(tasks, example_catalog).fingerprint()
        rep = pool.representatives()[0]
        pool.pop(rep)
        assert pool.fingerprint() != fp1
        pool.push_back([rep])
        assert pool.fingerprint() == fp1


CATALOG = ec2_catalog()


def _single(workload, demand, job_id):
    return make_job(workload, {"*": demand}, 1.0, job_id=job_id).tasks[0]


def _shape(packed):
    """A packing without its freshly minted instance ids."""
    return [
        (p.instance_type.name, tuple(t.task_id for t in p.tasks)) for p in packed
    ]


def _drive(scan, evaluator, pool, state=None):
    """Run Algorithm 1's greedy loop to exhaustion; return the pick log."""
    state = evaluator.make_state() if state is None else state
    picks = []
    while True:
        task, value = scan.best(state)
        if task is None or value < state.value - 1e-9:
            break
        picks.append((task.task_id, value))
        pool.pop(task)
        state.add(task)
        scan.charge(task)
    return picks


def _reference_drive(evaluator, pool):
    """The same loop with the argmax recomputed from ``set_value`` over
    every representative (no capacity limit: callers pick a type that
    holds the whole pool)."""
    members, picks = [], []
    value = 0.0
    while not pool.is_empty():
        task, best = max(
            (
                (t, evaluator.set_value(members + [t]))
                for t in pool.representatives()
            ),
            key=lambda tv: (tv[1], evaluator.task_rp(tv[0]), tv[0].task_id),
        )
        if best < value - 1e-9:
            break
        picks.append((task.task_id, best))
        pool.pop(task)
        members.append(task)
        value = best
    return picks


class TestTieBreaks:
    """Crafted exact ties: the scan ranks candidates by the
    ``(value, RP(τ), task_id)`` tuple maximum."""

    def test_equal_value_equal_rp_breaks_on_task_id(self):
        # Distinct workloads → distinct groups; identical demands → the
        # same RP and (for plain RP) the same value.  Every step must
        # pick the maximal remaining task id.
        demand = ResourceVector(0, 4, 8)
        tasks = [_single(f"w{i}", demand, f"job{i}") for i in range(8)]
        ev = RPEvaluator(ReservationPriceCalculator(CATALOG))
        itype = max(CATALOG, key=lambda it: it.capacity.cpus)
        pool = _TaskPool(tasks, ev, True)
        picks = _drive(
            _ArgmaxScan(pool, ev, itype.capacity, itype.family), ev, pool
        )
        ids = [task_id for task_id, _ in picks]
        assert ids[0] == max(t.task_id for t in tasks)
        assert ids == sorted(ids, reverse=True)

    def test_equal_value_breaks_on_higher_rp(self):
        # Seed the set with a member M, then craft two candidates whose
        # TNRP against {M} ties exactly while their RPs differ: A has
        # rp=2·rp_B but tput 0.5 next to M (single-task TNRP = tput·RP).
        calc = ReservationPriceCalculator(CATALOG)
        demand_a = ResourceVector(1, 4, 16)  # hosted by a GPU type
        demand_b = ResourceVector(0, 2, 4)
        rp_a = calc.rp(_single("probe", demand_a, "probe-a"))
        rp_b = calc.rp(_single("probe", demand_b, "probe-b"))
        table = CoLocationThroughputTable(default_tput=1.0)
        # tput(A | M) chosen so value_A == value_B == rp_b exactly; the
        # ratio is a dyadic rational whenever rp_b/rp_a is, keeping the
        # product exact in float64.
        ratio = rp_b / rp_a
        assert 0.0 < ratio < 1.0
        table.observe_single_task_job(
            TaskPlacementObservation("wa", ("wm",)), ratio
        )
        # M is unaffected by either candidate → the member term cancels.
        table.observe_single_task_job(
            TaskPlacementObservation("wm", ("wa",)), 1.0
        )
        table.observe_single_task_job(
            TaskPlacementObservation("wm", ("wb",)), 1.0
        )
        member = _single("wm", ResourceVector(0, 1, 2), "jm")
        cand_a = _single("wa", demand_a, "ja")
        cand_b = _single("wb", demand_b, "jb")
        itype = max(
            CATALOG, key=lambda it: (it.capacity.gpus, it.capacity.ram_gb)
        )
        ev = TNRPEvaluator(calc, table, jobs={})
        pool = _TaskPool([cand_a, cand_b], ev, True)
        scan = _ArgmaxScan(pool, ev, itype.capacity, itype.family)
        state = ev.make_state([member])
        scan.charge(member)  # foreign task: capacity only
        task, value = scan.best(state)
        # Exact tie on value (tput_a·rp_a == rp_b), broken on RP → A.
        assert ratio * rp_a == rp_b
        assert value == state.value + rp_b
        assert task is cand_a

    def test_exact_path_tie_breaks_like_set_value(self):
        # A >2-set exact entry disables the pairwise fast path; the
        # incremental exact path must pick exactly what a from-scratch
        # ``set_value`` argmax picks, ties included.
        table = CoLocationThroughputTable(default_tput=1.0)
        table.sync({("w0", ("w1", "w2")): 0.6})
        demand = ResourceVector(0, 2, 4)
        tasks = [_single(f"w{i}", demand, f"job{i}") for i in range(6)]
        ev = TNRPEvaluator(ReservationPriceCalculator(CATALOG), table, jobs={})
        itype = max(CATALOG, key=lambda it: it.capacity.cpus)
        pool = _TaskPool(tasks, ev, True)
        picks = _drive(
            _ArgmaxScan(pool, ev, itype.capacity, itype.family), ev, pool
        )
        assert picks == _reference_drive(ev, _TaskPool(tasks, ev, True))
        assert len(picks) == len(tasks)


_WORKLOADS = ["wa", "wb", "wc", "wd"]
_DEMANDS = [
    ResourceVector(0, 2, 4),
    ResourceVector(0, 4, 8),
    ResourceVector(0, 8, 32),
    ResourceVector(1, 4, 16),
    ResourceVector(1, 8, 61),
    ResourceVector(4, 16, 122),
]


@st.composite
def _pools(draw):
    """A random task pool plus an evaluator over it: plain RP, TNRP with
    pair and >2-task exact entries and multi-task jobs, or TNRP with
    deadline urgency."""
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_WORKLOADS),
                st.sampled_from(_DEMANDS),
                st.integers(min_value=1, max_value=3),  # arity (§4.4)
                st.sampled_from([1.0, 1.0, 2.5, 20.0]),  # urgency
            ),
            min_size=1,
            max_size=8,
        )
    )
    tasks, jobs, urgency = [], {}, {}
    for i, (workload, demand, arity, u) in enumerate(specs):
        job = make_job(
            workload, {"*": demand}, 1.0, num_tasks=arity, job_id=f"j{i}"
        )
        jobs[job.job_id] = job
        tasks.extend(job.tasks)
        if u != 1.0:
            urgency[job.job_id] = u
    table = CoLocationThroughputTable()
    for a, b, tput in draw(
        st.lists(
            st.tuples(
                st.sampled_from(_WORKLOADS),
                st.sampled_from(_WORKLOADS),
                st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0]),
            ),
            max_size=6,
        )
    ):
        if a != b:
            table.observe_single_task_job(TaskPlacementObservation(a, (b,)), tput)
    if draw(st.booleans()):
        table.sync({("wa", ("wb", "wc")): 0.5})  # forces the exact path
    calc = ReservationPriceCalculator(CATALOG)
    kind = draw(st.sampled_from(["rp", "tnrp", "deadline"]))
    if kind == "rp":
        make = lambda: RPEvaluator(calc)  # noqa: E731
    elif kind == "tnrp":
        make = lambda: TNRPEvaluator(calc, table, jobs=jobs)  # noqa: E731
    else:
        make = lambda: DeadlineTNRPEvaluator(  # noqa: E731
            calc, table, jobs=jobs, urgency=urgency
        )
    return tasks, make


class TestProvablyRejected:
    """Skipping a pack attempt is sound only if the attempt would have
    been rejected *and* left the pool exactly as it found it."""

    @settings(max_examples=60, deadline=None)
    @given(_pools(), st.booleans())
    def test_pruned_attempts_are_rejected_no_ops(self, pool_spec, grouped):
        tasks, make = pool_spec
        ev = make()
        for itype in CATALOG:
            pool = _TaskPool(tasks, ev, grouped)
            if not pool.provably_rejected(itype, ev.task_rp):
                continue
            before = pool.fingerprint()
            chosen, value = _pack_one_instance(itype, pool, ev)
            # Neither the cost test nor the margin's anchor branch passes.
            assert not chosen or value < itype.hourly_cost - 1e-9
            pool.push_back(chosen)
            assert pool.fingerprint() == before

    @settings(max_examples=40, deadline=None)
    @given(_pools(), st.booleans(), st.sampled_from([0.0, 0.3]))
    def test_pruning_never_changes_the_packing(self, pool_spec, grouped, margin):
        tasks, make = pool_spec
        pruned = make()
        unpruned = make()
        unpruned.values_bounded_by_rp = False
        assert pruned.values_bounded_by_rp
        packings = [
            _shape(
                full_reconfiguration(
                    tasks, CATALOG, ev, group_identical=grouped, cost_margin=margin
                )
            )
            for ev in (pruned, unpruned)
        ]
        assert packings[0] == packings[1]

    def test_prune_skips_attempts_on_a_realistic_pool(self, monkeypatch):
        calls = []
        real = full_reconfig._pack_one_instance

        def counting(*args):
            calls.append(args[0].name)
            return real(*args)

        monkeypatch.setattr(full_reconfig, "_pack_one_instance", counting)
        tasks = microbench_task_pool(40, seed=7)
        calc = ReservationPriceCalculator(CATALOG)
        pruned = _shape(full_reconfiguration(tasks, CATALOG, RPEvaluator(calc)))
        n_pruned = len(calls)
        calls.clear()
        ev = RPEvaluator(calc)
        ev.values_bounded_by_rp = False
        assert _shape(full_reconfiguration(tasks, CATALOG, ev)) == pruned
        assert n_pruned < len(calls)

    def test_multi_copy_bucket_that_fits_twice_is_not_pruned(self):
        # Two tasks of one group that fit together: a rejected attempt
        # would pop both and push them back in rotated order.
        itype = min(CATALOG, key=lambda it: it.hourly_cost)
        half = ResourceVector(0, itype.capacity.cpus / 4, itype.capacity.ram_gb / 4)
        job = make_job("w", {"*": half}, 1.0, num_tasks=2, job_id="j")
        ev = RPEvaluator(ReservationPriceCalculator(CATALOG))
        pool = _TaskPool(job.tasks, ev, True)
        assert not pool.provably_rejected(itype, lambda t: 0.0)
        # Alone, either task is pruned under a zero RP.
        assert _TaskPool(job.tasks[:1], ev, True).provably_rejected(
            itype, lambda t: 0.0
        )


class TestPackMemo:
    def test_hit_returns_the_memo_less_packing(self, monkeypatch):
        tasks = microbench_task_pool(30, seed=3)
        calc = ReservationPriceCalculator(CATALOG)
        table = CoLocationThroughputTable()
        table.observe_single_task_job(
            TaskPlacementObservation("ResNet-50", ("A3C",)), 0.8
        )
        ev = TNRPEvaluator(calc, table, jobs={})
        plain = full_reconfiguration(tasks, CATALOG, ev)
        memo = PackMemo()
        first = full_reconfiguration(tasks, CATALOG, ev, memo=memo)

        def no_packing(*args):
            raise AssertionError("a memo hit must not pack")

        monkeypatch.setattr(full_reconfig, "_pack_one_instance", no_packing)
        second = full_reconfiguration(list(reversed(tasks)), CATALOG, ev, memo=memo)
        assert _shape(plain) == _shape(first) == _shape(second)
        # A hit still mints fresh instance ids, one per packed instance.
        first_ids = {p.instance.instance_id for p in first}
        second_ids = {p.instance.instance_id for p in second}
        assert len(second_ids) == len(second) and not first_ids & second_ids

    def test_table_change_misses(self, monkeypatch):
        tasks = microbench_task_pool(12, seed=1)
        calc = ReservationPriceCalculator(CATALOG)
        table = CoLocationThroughputTable()
        memo = PackMemo()
        full_reconfiguration(tasks, CATALOG, TNRPEvaluator(calc, table), memo=memo)
        table.observe_single_task_job(
            TaskPlacementObservation("ResNet-50", ("A3C",)), 0.5
        )
        calls = []
        real = full_reconfig._pack_one_instance
        monkeypatch.setattr(
            full_reconfig,
            "_pack_one_instance",
            lambda *args: calls.append(args) or real(*args),
        )
        full_reconfiguration(tasks, CATALOG, TNRPEvaluator(calc, table), memo=memo)
        assert calls
