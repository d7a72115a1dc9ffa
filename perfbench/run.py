"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {replay,sweep} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with only Eva's ``decide``
rounds timed.  ``--trace 1`` is the separate traced run: it repeats
part of the work untraced and then with every layer probe installed,
prints a per-layer self-time table (and, for ``replay``, the decide
growth profile), writes Chrome trace-event JSON to
``.perfbench/trace-<workload>.json`` and reports the per-layer metrics
plus the tracing overhead (traced minus untraced ``wall_s``).

Every ``EVA_*`` knob is removed from the environment first, so the
default code paths are measured.  Each run also writes a record with
the host fingerprint to ``.perfbench/records/``.  The last line of
standard output is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--pin`` stores the run's result digests as the pinned ones for its
workload and seed (see ``gate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=("replay", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="pin this run's result digests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_fingerprint() -> dict[str, object]:
    import numpy

    from repro.sim.results import code_token

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git_sha = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "code_token": code_token()[:16],
    }


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Wall seconds of fresh processes doing only this run's set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb(workload: str) -> float:
    # Linux reports ru_maxrss in KiB; the sweep's simulations run in children.
    who = resource.RUSAGE_CHILDREN if workload == "sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for knob in [k for k in os.environ if k.startswith("EVA_")]:
        del os.environ[knob]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    for module in workload_cls.modules:
        __import__(module)
    import_s = time.perf_counter() - start
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workload_cls(args.seed, args.seconds, workdir)
        if args.setup_only:
            return 0
        return measure(args, workload, import_s)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, workload, import_s: float) -> int:
    from gate import Ledger, load_pins, save_pins
    from stats import percentile
    from tracer import format_layer_table

    setup = [] if args.trace else setup_seconds(args)
    ledger = Ledger(load_pins(args.workload))
    if args.trace:
        measured = workload.measure_traced(ledger, WORKDIR / f"trace-{args.workload}.json")
    else:
        measured = workload.measure(ledger)
    if args.pin and not ledger.failed:
        save_pins(args.workload, args.seed, ledger.digests)
    failed_frac = ledger.failed / max(1, ledger.attempted)

    samples = [s for each_pass in measured.decide_s for s in each_pass]
    p50, _ = percentile(samples, 50) if samples else (0.0, 0)
    p99, tail = percentile(samples, 99) if samples else (0.0, 0)
    if args.trace:
        metrics = dict(measured.layers)
        metrics["setup.import_s"] = import_s
        metrics["failed_frac"] = failed_frac
    else:
        metrics = {
            "wall_s": measured.wall_s,
            "setup_s": statistics.median(setup),
            "decide_p50_ms": p50 * 1e3,
            "decide_p99_ms": p99 * 1e3,
            "warm_s": measured.warm_s,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace and not measured.layers:  # the traced pass failed; the gate says why
        metrics = {name: metrics.get(name, 0.0) for name in units}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "metrics": metrics,
        "setup_samples_s": setup,
        "passes": [measured.passes, measured.planned],
        "decide_samples": len(samples),
        "decide_p99_tail": tail,
        "failed_frac": failed_frac,
        "failures": ledger.failures,
    }
    records = WORKDIR / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"[perfbench] host {json.dumps(record['host'])}")
    print(
        f"[perfbench] {args.workload} seed {args.seed}: {ledger.attempted} simulations "
        f"checked, {ledger.pinned} against a pinned digest, {ledger.failed} failed "
        f"(failed_frac {failed_frac:.4f})"
    )
    for failure in ledger.failures:
        print(f"[perfbench]   FAILED {failure}")
    if not args.trace:
        if measured.passes < measured.planned:
            print(
                f"[perfbench] WARNING: {measured.passes} of {measured.planned} passes ran "
                f"before the deadline; figures are not comparable with a full run"
            )
        print(
            f"[perfbench] {measured.passes} passes; decide samples {len(samples)}, "
            f"{tail} beyond the p99" + ("" if tail >= 10 else " (too few for a stable p99)")
        )
    else:
        for name, rows in measured.layer_rows.items():
            print(f"[perfbench] traced {name} pass, self time by span:")
            print(format_layer_table(rows))
        if measured.growth:
            print("[perfbench] decide growth (per Eva round):")
            print(measured.growth)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``kind`` metrics declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
