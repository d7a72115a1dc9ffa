"""scipy stays off the import path of every simulation.

Each simulation starts in a fresh process (CLI runs, batch and fabric
workers), and importing ``scipy.optimize`` used to cost about half of
that start-up.  Only the Table 4 ILP reference needs scipy, and it
imports it inside :func:`repro.core.ilp.ilp_schedule`.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_SIMULATION_PATH = """
import repro, repro.experiments, repro.sim.batch, repro.sim.results, repro.core
from repro.sim.batch import Scenario, TraceSpec, run_batch
from repro.workloads.alibaba import solve_tail_alpha

trace = TraceSpec.make("alibaba-replay", num_jobs=200).build(default_seed=0)
assert len(trace.jobs) == 200
small = TraceSpec.make("alibaba", num_jobs=12)
(outcome,) = run_batch([Scenario("eva", small, seed=3)], workers=1)
assert len(outcome.result.jobs) == 12, len(outcome.result.jobs)
print(repr(solve_tail_alpha()))
"""


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_simulation_path_loads_no_scipy():
    out = _run(
        _SIMULATION_PATH
        + """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded)
"""
    )
    assert out.splitlines()[-1] == "[]"


def test_simulation_path_runs_without_scipy():
    # ``None`` in sys.modules makes any ``import scipy...`` raise ImportError.
    out = _run('import sys\nsys.modules["scipy"] = None\n' + _SIMULATION_PATH)
    assert out.splitlines()[-1] == "0.06013255641061881"


def test_ilp_without_scipy_names_the_extra(monkeypatch, example_tasks, example_catalog):
    from repro.core.ilp import ilp_schedule

    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError, match=r"\.\[ilp\]"):
        ilp_schedule(example_tasks, example_catalog)
