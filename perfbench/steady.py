"""Steadiness self-check: do two sets of runs of the same code agree?

Usage, from the root of a checkout::

    python3 perfbench/steady.py

Each of two sets runs every workload of BENCHMARK.json ten times, with
seeds 1 to 10, untraced, at the ``run_seconds`` of BENCHMARK.json.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (Q3 - Q1 as a share of the median), and whether
the metric is steady: every set's spread within the metric's bound and
the second set's median within the bound of the first's, in either
direction.  Raw results go to ``.perfbench/steady.json``.  Exits 1 if
any metric is unsteady or any run failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdicts(spec: dict, results: dict) -> list[tuple]:
    """(workload, metric, bound, per-set (Q1, median, Q3, spread), change, steady) rows.

    The change is how far each later set's median moved from the first
    set's, as a share of it, the largest move in either direction.
    """
    rows = []
    for workload, sets in results.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [
                [run["metrics"][name]["value"] for run in runs] for runs in sets
            ]
            stats = [(*quartiles(v), spread(v)) for v in per_set]
            change = max(
                ((s[1] - stats[0][1]) / stats[0][1] for s in stats[1:]), key=abs, default=0.0
            )
            steady = all(s[3] <= bound for s in stats) and abs(change) <= bound
            rows.append((workload, name, bound, stats, change, steady))
    return rows


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(prog="perfbench/steady.py", description=__doc__).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    failed = 0
    for set_index in range(SETS):
        for name in names:
            results[name].append([])
        for run in range(RUNS):
            for name in names:
                result = run_once(name, 1 + run, spec["run_seconds"])
                failed += result["failed"] or not result["correct"]
                results[name][set_index].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"set {set_index + 1} run {run + 1} {name}: wall_s {wall:.3f}", flush=True)
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    ok = failed == 0
    print(f"{'workload':<8} {'metric':<14} {'bound':>5}  per set: median [Q1, Q3] spread  change  verdict")
    for workload, name, bound, stats, change, steady in verdicts(spec, results):
        sets = "  ".join(
            f"{m:.4g} [{q1:.4g}, {q3:.4g}] {s:.3f}" for q1, m, q3, s in stats
        )
        print(f"{workload:<8} {name:<14} {bound:>5}  {sets}  {change:+.3f}  {'ok' if steady else 'UNSTEADY'}")
        ok = ok and steady
    if failed:
        print(f"{failed} run(s) failed the correctness gate")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
