"""Extension bench: spot instances (§7 names preemptible spot markets as
an orthogonal extension direction).

Sweeps the spot preemption rate and reports cost and JCT for Eva on spot
vs on-demand capacity.  Expected shape: spot cuts cost roughly by the
discount factor; higher preemption rates claw some of it back through
re-placement delays and longer JCTs.
"""

from _util import run_once, save_and_print

from repro.analysis.reporting import ExperimentTable
from repro.cloud.catalog import ec2_catalog
from repro.core.scheduler import EvaScheduler
from repro.experiments.common import scaled
from repro.sim.processes.spot import SpotConfig
from repro.sim.simulator import run_simulation
from repro.workloads.alibaba import synthesize_alibaba_trace

PREEMPTION_RATES = (0.02, 0.1, 0.3)


def _run():
    num_jobs = scaled(100, minimum=40, maximum=1500)
    catalog = ec2_catalog()
    trace = synthesize_alibaba_trace(num_jobs, seed=9)
    on_demand = run_simulation(trace, EvaScheduler(catalog))
    rows = [
        (
            "on-demand",
            round(on_demand.total_cost, 2),
            "100.0%",
            round(on_demand.mean_jct_hours(), 2),
            0,
        )
    ]
    for rate in PREEMPTION_RATES:
        result = run_simulation(
            trace,
            EvaScheduler(catalog),
            spot=SpotConfig(enabled=True, preemption_rate_per_hour=rate, seed=9),
        )
        rows.append(
            (
                f"spot ({rate:.2f}/hr preemption)",
                round(result.total_cost, 2),
                f"{result.total_cost / on_demand.total_cost * 100:.1f}%",
                round(result.mean_jct_hours(), 2),
                result.preemptions,
            )
        )
    return ExperimentTable(
        title=f"Extension: spot instances under Eva ({num_jobs} jobs, 30% of "
        "on-demand price)",
        headers=("Capacity", "Total Cost ($)", "Norm. Cost", "JCT (hours)", "Preemptions"),
        rows=tuple(rows),
    )


def bench_spot(benchmark):
    table = run_once(benchmark, _run)
    save_and_print("extension_spot", table.render())
    # Spot must be cheaper than on-demand at every swept rate.
    for row in table.rows[1:]:
        assert float(row[2].rstrip("%")) < 100.0
