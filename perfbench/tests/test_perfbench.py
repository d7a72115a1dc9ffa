"""Tests of the benchmark's own helpers: percentiles, span self time,
the digest gate and the layer probes."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (HERE.parent, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from gate import Ledger, digest, load_pins, problems  # noqa: E402
from probes import DecideTimer, Probe  # noqa: E402
from stats import percentile, quartiles, spread  # noqa: E402
from tracer import Tracer, layer_table, outermost, self_times  # noqa: E402


def _simulate(num_jobs: int = 12, seed: int = 3):
    from repro.cloud.catalog import ec2_catalog
    from repro.core import make_scheduler
    from repro.sim.simulator import run_simulation
    from repro.workloads.synthetic import synthetic_trace

    trace = synthetic_trace(num_jobs, seed=seed, name="perfbench-test")
    return run_simulation(trace, make_scheduler("eva", ec2_catalog())), len(trace)


# -- percentile ---------------------------------------------------------


def test_p99_of_a_thousand_samples_leaves_ten_beyond():
    values = [float(v) for v in range(1000, 0, -1)]  # order must not matter
    assert percentile(values, 99) == (990.0, 10)
    assert percentile(values, 50) == (500.0, 500)
    assert percentile(values, 100) == (1000.0, 0)


def test_p99_of_few_samples_reports_the_short_tail():
    value, tail = percentile([3.0, 1.0, 2.0], 99)
    assert (value, tail) == (3.0, 0)
    assert percentile([5.0], 50) == (5.0, 0)


@pytest.mark.parametrize("q", [0.0, -1.0, 100.5])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, median, q3 = quartiles(values)
    assert median == pytest.approx(10.75)
    assert spread(values) == pytest.approx((q3 - q1) / median)


# -- span self time -----------------------------------------------------


def _nested() -> Tracer:
    tracer = Tracer()
    root = tracer.add("run", 0.0, 10.0)
    first = tracer.add("decide", 1.0, 4.0, root)
    tracer.add("pack", 2.0, 3.0, first)
    tracer.add("execute", 5.0, 9.0, root)
    return tracer


def test_self_time_subtracts_only_direct_children():
    assert self_times(_nested()) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_table_counts_outermost_calls_of_recursive_spans():
    tracer = _nested()
    outer = tracer.add("pack", 6.0, 8.0, 3)
    tracer.add("pack", 6.5, 7.0, outer)
    assert outermost(tracer, "pack") == [2, 4]
    rows = {name: (calls, total, own) for name, calls, total, own in layer_table(tracer)}
    assert rows["pack"] == (2, pytest.approx(3.0), pytest.approx(3.0))
    assert rows["execute"] == (1, pytest.approx(4.0), pytest.approx(2.0))


def test_live_spans_record_their_parent():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    assert list(tracer.parent) == [-1, outer]
    assert tracer.end[outer] >= tracer.end[inner] >= tracer.start[inner] >= tracer.start[outer]


# -- digest gate --------------------------------------------------------


def test_gate_passes_a_pinned_result_and_flags_a_perturbed_one():
    result, jobs = _simulate()
    ledger = Ledger({"cell": digest(result)})
    assert ledger.check("cell", result, jobs)

    perturbed = copy.deepcopy(result)
    perturbed.total_cost += 1e-9
    assert not problems(perturbed, jobs)  # still complete: only the digest catches it
    fresh = Ledger({"cell": digest(result)})
    assert not fresh.check("cell", perturbed, jobs)
    assert fresh.failed == 1 and "pinned" in fresh.failures[0]


def test_gate_flags_unfinished_jobs_and_drift_between_passes():
    result, jobs = _simulate()
    truncated = copy.deepcopy(result)
    truncated.jobs = truncated.jobs[:-1]
    ledger = Ledger({})
    assert not ledger.check("cell", truncated, jobs)
    assert "jobs finished" in ledger.failures[0]

    ledger = Ledger({})
    assert ledger.check("cell", result, jobs)
    changed = copy.deepcopy(result)
    changed.migrations += 1
    assert not ledger.check("cell", changed, jobs)
    assert ledger.attempted == 2 and ledger.failed == 1


def test_pinned_digests_cover_both_pinned_seeds_of_every_workload():
    pins = json.loads((HERE.parent / "digests.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert len(pins[workload["name"]]) == 2, workload["name"]


def test_every_run_starts_with_the_pinned_inputs():
    from workloads import PINNED_SEED, input_seeds, run_inputs

    assert run_inputs(PINNED_SEED, 5, 3) == input_seeds(PINNED_SEED, 5)
    other = run_inputs(7, 5, 3)
    assert other[:3] == input_seeds(PINNED_SEED, 3)
    assert other[3:] == input_seeds(7, 2) and len(set(other)) == 5


def test_every_workload_pins_the_inputs_each_run_checks():
    from workloads import PINNED_SEED, WORKLOADS, input_seeds

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        labels = load_pins(workload["name"])
        for seed in input_seeds(PINNED_SEED, WORKLOADS[workload["name"]].pinned_inputs):
            assert any(label.endswith(f"-{seed}") for label in labels), (workload["name"], seed)


# -- probes -------------------------------------------------------------


def test_probes_leave_results_byte_identical_and_uninstall_cleanly():
    from repro.core.scheduler import EvaScheduler
    from repro.sim.engine import EventQueue

    decide, pop = EvaScheduler.decide, EventQueue.pop
    plain, jobs = _simulate()
    probe = Probe()
    patches = probe.install()
    try:
        traced, _ = _simulate()
    finally:
        patches.undo()
    assert digest(traced) == digest(plain)
    assert (EvaScheduler.decide, EventQueue.pop) == (decide, pop)

    metrics = probe.metrics()
    assert metrics["sim.events.JOB_ARRIVAL"] == jobs
    assert metrics["scheduler.decide_calls"] == plain.scheduling_rounds
    assert metrics["full_reconfig.calls"] > 0
    assert 0.0 <= metrics["scheduler.round_memo_hit_ratio"] <= 1.0
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    added_by_run = {
        "results.bytes_written", "trace.overhead_s", "trace.spans",
        "setup.import_s", "failed_frac",
    }
    assert set(metrics) == declared - added_by_run


def test_decide_timer_samples_every_eva_round_per_pass():
    timer = DecideTimer()
    patches = timer.install()
    try:
        timer.new_pass()
        first, _ = _simulate()
        timer.new_pass()
        second, _ = _simulate(seed=4)
    finally:
        patches.undo()
    assert [len(p) for p in timer.passes] == [first.scheduling_rounds, second.scheduling_rounds]
    assert all(s > 0 for p in timer.passes for s in p)


def test_decide_timer_leaves_out_garbage_collection():
    import gc
    import time

    from repro.core.scheduler import EvaScheduler

    class Collecting(EvaScheduler):
        def decide(self, *args, **kwargs):
            gc.collect()

    heap = [[i] for i in range(300_000)]  # noqa: F841 -- gives a full collection work to do
    start = time.thread_time()
    gc.collect()
    collection_s = time.thread_time() - start
    timer = DecideTimer()
    patches = timer.install()
    try:
        timer.new_pass()
        Collecting.decide(object.__new__(Collecting))
    finally:
        patches.undo()
    assert all(cb.__qualname__.split(".")[0] != "DecideTimer" for cb in gc.callbacks)
    [sample] = timer.passes[0]
    assert sample < collection_s / 5
