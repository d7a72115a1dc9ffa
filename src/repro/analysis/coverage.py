"""Runtime contract rules: fingerprint coverage and pickle omission.

Unlike the AST rules, these two execute the real config/result classes,
because the contracts they enforce are *semantic*:

**fingerprint-coverage** — every result-affecting knob must flow into
the :class:`~repro.sim.results.ResultStore` cache key.  The canonical
encoder serializes dataclass fields generically, but ``__fingerprint__``
hooks, explicit exclusions (``Scenario.fingerprint`` strips ``name``),
and underscore fields all bypass it, so field-name introspection alone
proves nothing.  Instead the rule *perturbs*: for each public,
non-excluded field of each registered config class it builds a valid
variant via ``dataclasses.replace`` and asserts the fingerprint changes.
A new knob that skips the fingerprint — or one with no registered
perturbation candidate — fails the gate, which is exactly the moment a
human must decide whether the knob is result-affecting.

**pickle-default-omission** — golden digests pin the pickled bytes of
legacy results, so result dataclasses must not grow fields that leak
into old pickles.  :class:`~repro.sim.metrics.SimulationResult` may grow
fields *only* through the ``_OMITTED_FIELD_DEFAULTS`` mechanism (dropped
from ``__getstate__`` at their legacy default); the frozen outcome
record classes pickle all fields unconditionally, so their field tuples
are pinned outright — extending one requires a deliberate pin update
plus an ``EVA_REGEN_GOLDEN=1`` decision.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.findings import Finding

__all__ = [
    "CoverageTarget",
    "check_fingerprint_coverage",
    "check_pickle_omission",
    "default_coverage_targets",
]


def _source_location(cls: type) -> tuple[str, int]:
    """Repo-relative path and definition line of ``cls`` (best effort)."""
    try:
        path = inspect.getsourcefile(cls) or ""
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return f"<{cls.__module__}>", 1
    marker = "src/repro/"
    index = path.replace("\\", "/").rfind(marker)
    if index >= 0:
        path = path.replace("\\", "/")[index:]
    return path, line


def _fingerprint_of(instance: Any) -> str:
    """The class's own fingerprint entry point, else the generic one."""
    method = getattr(instance, "fingerprint", None)
    if callable(method):
        result = method()
        if isinstance(result, str):
            return result
    from repro.sim.fingerprint import fingerprint

    return fingerprint(instance)


def _generic_candidates(value: Any) -> tuple[Any, ...]:
    """Type-driven perturbation candidates for unconstrained fields.

    Several are offered because frozen configs validate in
    ``__post_init__``; the checker keeps trying until one constructs.
    """
    if isinstance(value, bool):
        return (not value,)
    if isinstance(value, int):
        return (value + 1, max(0, value - 1) if value else 2)
    if isinstance(value, float):
        # +1.0 for unbounded knobs; halving / midpoint variants squeeze
        # inside [0, 1)-style validation windows.
        return (value + 1.0, value * 0.5, (value + 1.0) / 2.0)
    if isinstance(value, str):
        return (value + "x",)
    return ()


@dataclass(frozen=True)
class CoverageTarget:
    """One config class under the fingerprint-coverage contract.

    Attributes:
        cls: The dataclass to check.
        sample: Factory for a valid baseline instance.
        excluded: Public fields deliberately outside the fingerprint
            (cosmetic labels).  Underscore fields are excluded by the
            encoder's own convention and need no declaration.
        overrides: Per-field perturbation candidates, for fields whose
            valid values the generic rules cannot guess (nested configs,
            tuples, ``None``-defaulted optionals, tightly validated
            floats).
    """

    cls: type
    sample: Callable[[], Any]
    excluded: frozenset[str] = frozenset()
    overrides: Mapping[str, tuple[Any, ...]] = field(default_factory=dict)


def check_fingerprint_coverage(
    targets: Sequence[CoverageTarget],
) -> list[Finding]:
    """Perturb every field of every target; fingerprints must move."""
    findings: list[Finding] = []
    for target in targets:
        findings.extend(_check_one_target(target))
    return findings


def _check_one_target(target: CoverageTarget) -> list[Finding]:
    path, line = _source_location(target.cls)
    if not is_dataclass(target.cls):
        return [
            Finding(
                rule="fingerprint-coverage",
                path=path,
                line=line,
                message=f"{target.cls.__name__} is not a dataclass; the "
                "coverage contract only knows dataclass fields",
            )
        ]
    findings: list[Finding] = []
    declared = {f.name for f in fields(target.cls)}
    for name in sorted(target.excluded):
        if name not in declared:
            findings.append(
                Finding(
                    rule="fingerprint-coverage",
                    path=path,
                    line=line,
                    message=(
                        f"{target.cls.__name__} declares excluded field "
                        f"{name!r} which no longer exists; drop the stale "
                        "exclusion"
                    ),
                )
            )
    try:
        base = target.sample()
        base_fp = _fingerprint_of(base)
    except Exception as exc:
        return findings + [
            Finding(
                rule="fingerprint-coverage",
                path=path,
                line=line,
                message=(
                    f"cannot fingerprint a sample {target.cls.__name__}: "
                    f"{type(exc).__name__}: {exc}"
                ),
            )
        ]
    for f in fields(target.cls):
        if f.name.startswith("_") or f.name in target.excluded:
            continue
        current = getattr(base, f.name)
        candidates = tuple(target.overrides.get(f.name, ()))
        candidates += _generic_candidates(current)
        findings.extend(
            _check_one_field(target, base, base_fp, f.name, current, candidates, path, line)
        )
    return findings


def _check_one_field(
    target: CoverageTarget,
    base: Any,
    base_fp: str,
    name: str,
    current: Any,
    candidates: tuple[Any, ...],
    path: str,
    line: int,
) -> list[Finding]:
    constructed = False
    for candidate in candidates:
        if candidate == current:
            continue
        try:
            variant = replace(base, **{name: candidate})
            variant_fp = _fingerprint_of(variant)
        except Exception:
            continue  # validation rejected it; try the next candidate
        constructed = True
        if variant_fp != base_fp:
            return []
    if constructed:
        return [
            Finding(
                rule="fingerprint-coverage",
                path=path,
                line=line,
                message=(
                    f"{target.cls.__name__}.{name} does not affect the "
                    "fingerprint; the ResultStore would serve stale cached "
                    "results across values of this knob — route it into "
                    "the canonical encoding or declare it excluded"
                ),
            )
        ]
    return [
        Finding(
            rule="fingerprint-coverage",
            path=path,
            line=line,
            message=(
                f"no valid perturbation candidate for "
                f"{target.cls.__name__}.{name}; register one in the "
                "coverage target so the knob stays provably fingerprinted"
            ),
        )
    ]


def default_coverage_targets() -> list[CoverageTarget]:
    """The config classes under the cache-key contract (ROADMAP rule 2)."""
    from repro.cloud.catalog import paper_example_catalog
    from repro.cloud.delays import DelayModel
    from repro.cloud.market import CreditModel, MarketConfig, MarketPool
    from repro.interference.model import InterferenceModel
    from repro.sim.batch import Scenario, TraceSpec
    from repro.sim.processes.failure import FailureConfig, RetryPolicy
    from repro.sim.processes.spot import SpotConfig

    return [
        CoverageTarget(
            cls=Scenario,
            sample=lambda: Scenario(
                scheduler="eva", trace=TraceSpec.make("synthetic", num_jobs=3)
            ),
            excluded=frozenset({"name"}),
            overrides={
                "trace": (TraceSpec.make("synthetic", num_jobs=4),),
                "catalog": (tuple(paper_example_catalog()),),
                "interference": (InterferenceModel(uniform_value=0.9),),
                "delay_model": (DelayModel(migration_multiplier=2.0),),
                "spot": (SpotConfig(enabled=True),),
                "deadline_warning_s": (1234.5,),
                "failures": (
                    FailureConfig(enabled=True, crash_rate_per_hour=0.01),
                ),
                "market": (MarketConfig(enabled=True),),
            },
        ),
        CoverageTarget(
            cls=TraceSpec,
            sample=lambda: TraceSpec.make("synthetic", num_jobs=3),
            overrides={"kwargs": ((("num_jobs", 4),),)},
        ),
        CoverageTarget(cls=SpotConfig, sample=SpotConfig),
        CoverageTarget(cls=RetryPolicy, sample=RetryPolicy),
        CoverageTarget(
            cls=FailureConfig,
            sample=FailureConfig,
            overrides={
                "straggler_slowdown": ((0.2, 0.6),),
                "retry": (RetryPolicy(backoff_base_s=120.0),),
            },
        ),
        CoverageTarget(
            cls=MarketConfig,
            sample=MarketConfig,
            overrides={
                "pools": ((MarketPool(name="coverage-pool"),),),
                "credits": (CreditModel(),),
            },
        ),
        CoverageTarget(
            cls=MarketPool,
            sample=lambda: MarketPool(name="pool"),
            overrides={
                "families": (("m5",),),
                "trace": (((100.0, 1.5),),),
                "trace_csv": ("prices.csv",),
            },
        ),
        CoverageTarget(
            cls=CreditModel,
            sample=CreditModel,
            overrides={"families": (("t3",),)},
        ),
    ]


# ---------------------------------------------------------------------------
# Rule: pickle-default-omission
# ---------------------------------------------------------------------------

#: ``SimulationResult`` fields that existed when the first golden matrix
#: was pinned; everything added since must default-omit from pickles.
LEGACY_RESULT_FIELDS = frozenset(
    {
        "scheduler_name",
        "trace_name",
        "total_cost",
        "jobs",
        "instances_launched",
        "migrations",
        "placements",
        "uptimes_hours",
        "allocation",
        "tasks_per_instance",
        "makespan_hours",
        "full_adoption_fraction",
        "scheduling_rounds",
        "preemptions",
    }
)

#: Frozen outcome records pickle every field unconditionally, so their
#: shapes are pinned: growing one silently breaks golden byte-identity.
PINNED_RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    "JobOutcome": (
        "job_id",
        "workload",
        "num_tasks",
        "arrival_s",
        "finish_s",
        "duration_hours",
        "idle_hours",
    ),
    "DeadlineOutcome": ("job_id", "deadline_s", "finish_s", "lateness_s"),
    "FailureOutcome": (
        "instance_index",
        "time_s",
        "failure_domain",
        "kind",
        "tasks_lost",
        "job_losses",
    ),
    "RepairOutcome": ("job_id", "failed_s", "recovered_s"),
}


def _sample_result() -> Any:
    from repro.sim.metrics import SimulationResult

    return SimulationResult(
        scheduler_name="probe",
        trace_name="probe",
        total_cost=1.0,
        jobs=[],
        instances_launched=0,
        migrations=0,
        placements=0,
        uptimes_hours=[],
        allocation={},
        tasks_per_instance=0.0,
        makespan_hours=0.0,
    )


def check_pickle_omission() -> list[Finding]:
    """Verify result classes honour the default-omission contract."""
    import repro.sim.metrics as metrics

    result_cls = metrics.SimulationResult
    path, line = _source_location(result_cls)
    findings: list[Finding] = []

    omitted: Mapping[str, Any] = result_cls._OMITTED_FIELD_DEFAULTS
    declared = {f.name: f for f in fields(result_cls)}
    for name in sorted(set(declared) - LEGACY_RESULT_FIELDS):
        if name in omitted:
            continue
        findings.append(
            Finding(
                rule="pickle-default-omission",
                path=path,
                line=line,
                message=(
                    f"SimulationResult.{name} is new since the golden "
                    "matrices were pinned but is missing from "
                    "_OMITTED_FIELD_DEFAULTS; legacy pickles would grow "
                    "the field and every golden digest would shift"
                ),
            )
        )
    for name in sorted(set(omitted) - set(declared)):
        findings.append(
            Finding(
                rule="pickle-default-omission",
                path=path,
                line=line,
                message=(
                    f"_OMITTED_FIELD_DEFAULTS lists {name!r} which is not "
                    "a SimulationResult field; drop the stale entry"
                ),
            )
        )

    # Functional check: a default-valued instance must actually omit the
    # omitted fields, and any non-default value must survive.
    probe = _sample_result()
    state = probe.__getstate__()
    for name, default in omitted.items():
        if name not in declared:
            continue
        if name in state:
            findings.append(
                Finding(
                    rule="pickle-default-omission",
                    path=path,
                    line=line,
                    message=(
                        f"SimulationResult.{name} at its legacy default "
                        f"({default!r}) still appears in __getstate__; "
                        "the omission contract is not applied"
                    ),
                )
            )
            continue
        marked = _sample_result()
        setattr(marked, name, _non_default(default))
        if name not in marked.__getstate__():
            findings.append(
                Finding(
                    rule="pickle-default-omission",
                    path=path,
                    line=line,
                    message=(
                        f"SimulationResult.{name} with a non-default value "
                        "is dropped by __getstate__; real data would be "
                        "lost on pickling"
                    ),
                )
            )

    for cls_name, pinned in PINNED_RECORD_FIELDS.items():
        record_cls = getattr(metrics, cls_name)
        record_path, record_line = _source_location(record_cls)
        actual = tuple(f.name for f in fields(record_cls))
        if actual != pinned:
            findings.append(
                Finding(
                    rule="pickle-default-omission",
                    path=record_path,
                    line=record_line,
                    message=(
                        f"{cls_name} fields changed from the pinned shape "
                        f"{pinned} to {actual}; pickled records leak into "
                        "golden digests — add a parallel record type, or "
                        "update the pin alongside a deliberate "
                        "EVA_REGEN_GOLDEN decision"
                    ),
                )
            )
    return findings


def _non_default(default: Any) -> Any:
    if isinstance(default, tuple):
        return ("probe",)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default + 1.0
    return object()
