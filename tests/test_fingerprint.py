"""Fingerprint stability tests — the ResultStore's cache-key contract."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cloud.delays import DelayModel
from repro.interference.model import InterferenceModel
from repro.sim.batch import Scenario, TraceSpec, reseed
from repro.sim.fingerprint import FingerprintError, canonical_json, fingerprint
from repro.sim.processes.spot import SpotConfig


def _scenario(**overrides) -> Scenario:
    base = dict(
        scheduler="eva",
        trace=TraceSpec.make("alibaba", num_jobs=60, seed=3),
        name="Eva",
        interference=InterferenceModel(uniform_value=0.9),
        delay_model=DelayModel(migration_multiplier=2.0),
        spot=SpotConfig(enabled=True, preemption_rate_per_hour=0.1, seed=4),
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


class TestCanonicalJson:
    def test_mapping_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_set_order_is_canonical(self):
        assert canonical_json({3, 1, 2}) == canonical_json({2, 3, 1})

    def test_sequences_keep_order(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])

    def test_numpy_values_supported(self):
        text = canonical_json(
            {"scalar": np.float64(1.5), "arr": np.arange(3, dtype=np.int64)}
        )
        assert "__ndarray__" in text
        assert fingerprint(np.arange(3)) == fingerprint(np.arange(3))

    def test_non_finite_floats_rejected(self):
        with pytest.raises(FingerprintError):
            canonical_json(float("nan"))

    def test_unsupported_objects_rejected(self):
        with pytest.raises(FingerprintError):
            canonical_json(object())

    def test_rng_state_rejected(self):
        with pytest.raises(FingerprintError):
            canonical_json(np.random.default_rng(0))


class TestScenarioFingerprint:
    def test_equal_scenarios_equal_fingerprints(self):
        assert _scenario().fingerprint() == _scenario().fingerprint()

    def test_display_name_excluded(self):
        assert (
            _scenario(name="A").fingerprint() == _scenario(name="B").fingerprint()
        )

    def test_every_semantic_field_matters(self):
        base = _scenario().fingerprint()
        assert _scenario(scheduler="owl").fingerprint() != base
        assert (
            _scenario(trace=TraceSpec.make("alibaba", num_jobs=61, seed=3)).fingerprint()
            != base
        )
        assert _scenario(seed=4).fingerprint() != base
        assert _scenario(period_s=600.0).fingerprint() != base
        assert (
            _scenario(interference=InterferenceModel(uniform_value=0.8)).fingerprint()
            != base
        )
        assert (
            _scenario(delay_model=DelayModel(migration_multiplier=4.0)).fingerprint()
            != base
        )
        assert (
            _scenario(spot=SpotConfig(enabled=True, seed=9)).fingerprint() != base
        )
        # The eviction-notice window is result-affecting and must key
        # the cache like any other spot field: vary *only* notice_s.
        from dataclasses import replace

        spot = SpotConfig(enabled=True, preemption_rate_per_hour=0.1, seed=4)
        assert (
            _scenario(spot=spot).fingerprint()
            != _scenario(spot=replace(spot, notice_s=600.0)).fingerprint()
        )
        # The deadline warning horizon changes when deadline-aware
        # policies learn about SLOs, hence results, hence the key.
        assert _scenario(deadline_warning_s=3600.0).fingerprint() != base
        # Deadline sampling knobs flow through the trace spec.
        assert (
            _scenario(
                trace=TraceSpec.make(
                    "synthetic",
                    num_jobs=10,
                    seed=1,
                    deadline_fraction=0.5,
                    deadline_slack_range=(1.3, 1.3),
                )
            ).fingerprint()
            != _scenario(
                trace=TraceSpec.make(
                    "synthetic",
                    num_jobs=10,
                    seed=1,
                    deadline_fraction=0.5,
                    deadline_slack_range=(1.6, 1.6),
                )
            ).fingerprint()
        )

    def test_inline_trace_fingerprints_by_content(self):
        spec = TraceSpec.make("small-physical", seed=0)
        trace_a, trace_b = spec.build(), spec.build()
        assert (
            _scenario(trace=trace_a).fingerprint()
            == _scenario(trace=trace_b).fingerprint()
        )

    def test_stochastic_delay_model_is_uncacheable(self):
        scenario = _scenario(
            delay_model=DelayModel(stochastic=True, rng=np.random.default_rng(0))
        )
        with pytest.raises(FingerprintError):
            scenario.fingerprint()

    def test_tracespec_fingerprint_stable(self):
        assert (
            TraceSpec.make("alibaba", num_jobs=10, seed=1).fingerprint()
            == TraceSpec.make("alibaba", seed=1, num_jobs=10).fingerprint()
        )

    def test_stable_across_hash_seeds(self):
        """The cache-key contract: PYTHONHASHSEED must not matter."""
        program = (
            "from repro.cloud.delays import DelayModel\n"
            "from repro.interference.model import InterferenceModel\n"
            "from repro.sim.batch import Scenario, TraceSpec\n"
            "from repro.sim.processes.spot import SpotConfig\n"
            "s = Scenario(scheduler='eva',"
            " trace=TraceSpec.make('alibaba', num_jobs=60, seed=3),"
            " interference=InterferenceModel(uniform_value=0.9),"
            " delay_model=DelayModel(migration_multiplier=2.0),"
            " spot=SpotConfig(enabled=True, seed=4), seed=3)\n"
            "print(s.fingerprint())\n"
        )
        digests = set()
        for hash_seed in ("1", "2", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", program],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, f"fingerprint varied with PYTHONHASHSEED: {digests}"


class TestReseed:
    def test_overrides_scenario_and_spec_and_spot_seeds(self):
        scenario = _scenario()
        trial = reseed(scenario, 11)
        assert trial.seed == 11
        assert dict(trial.trace.kwargs)["seed"] == 11
        assert trial.spot.seed == 11

    def test_spec_without_seed_kwarg_untouched(self):
        scenario = Scenario(
            scheduler="eva", trace=TraceSpec.make("alibaba", num_jobs=10)
        )
        trial = reseed(scenario, 7)
        assert trial.seed == 7
        assert "seed" not in dict(trial.trace.kwargs)

    def test_distinct_seeds_distinct_fingerprints(self):
        scenario = _scenario()
        assert reseed(scenario, 1).fingerprint() != reseed(scenario, 2).fingerprint()
