"""Correctness gate: every simulation a run attempts must pass it.

A simulation fails when it raises, when its result is missing jobs of
its trace, or when the sha256 of its pickled ``SimulationResult``
differs from the digest pinned for that workload, seed and simulation
in ``digests.json``.  Pins exist for the inputs of the default seed and
of one held-out seed, and every run simulates some pinned inputs, so
each run compares digests; its other simulations are checked for
completeness and, where a run serves the same simulation twice (cold
and warm), for byte-identity.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from pathlib import Path
from typing import Any

PINS_PATH = Path(__file__).resolve().parent / "digests.json"
#: Pinned so digests do not move when a newer interpreter raises
#: ``pickle.HIGHEST_PROTOCOL``.
PICKLE_PROTOCOL = 5


def digest(result: Any) -> str:
    return hashlib.sha256(pickle.dumps(result, protocol=PICKLE_PROTOCOL)).hexdigest()


def load_pins(workload: str, path: Path = PINS_PATH) -> dict[str, str]:
    """The pinned ``{simulation label: digest}`` map of one workload, all seeds.

    Labels name their input seed, so the pins of different run seeds
    do not collide.
    """
    if not path.exists():
        return {}
    pins: dict[str, str] = {}
    for by_label in json.loads(path.read_text()).get(workload, {}).values():
        pins.update(by_label)
    return pins


def save_pins(workload: str, seed: int, digests: dict[str, str], path: Path = PINS_PATH) -> None:
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def problems(result: Any, expected_jobs: int | None) -> list[str]:
    """Why ``result`` is incomplete or inconsistent; empty when it is not."""
    found = []
    if expected_jobs is not None and len(result.jobs) != expected_jobs:
        found.append(f"{len(result.jobs)} of {expected_jobs} jobs finished")
    if any(not math.isfinite(job.finish_s) or job.finish_s < job.arrival_s for job in result.jobs):
        found.append("a job finished before it arrived")
    if not (math.isfinite(result.total_cost) and result.total_cost > 0):
        found.append(f"total cost {result.total_cost!r}")
    return found


class Ledger:
    """Attempted and failed simulations of one run, with the reasons."""

    def __init__(self, pins: dict[str, str]) -> None:
        self.pins = pins
        self.attempted = 0
        #: Simulations whose digest was compared with a pin.
        self.pinned = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, value: str, found: list[str]) -> bool:
        """Gate one simulation by its digest and completeness problems."""
        self.attempted += 1
        found = list(found)
        pinned = self.pins.get(label)
        if pinned is not None:
            self.pinned += 1
        if pinned is not None and value != pinned:
            found.append(f"digest {value[:16]} != pinned {pinned[:16]}")
        if self.digests.setdefault(label, value) != value:
            found.append("digest differs from an earlier pass")
        if found:
            self.failures.append(f"{label}: {'; '.join(found)}")
        return not found

    def check(self, label: str, result: Any, expected_jobs: int) -> bool:
        return self.record(label, digest(result), problems(result, expected_jobs))

    def fail(self, label: str, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failures.extend([f"{label}: {reason}"] * count)

    @property
    def failed(self) -> int:
        return len(self.failures)
