"""The scipy-free Pareto tail fit of the Alibaba duration model.

``repro.workloads.alibaba._brentq`` ports ``scipy.optimize.brentq`` step
for step so that simulations never import scipy.  These tests hold it to
scipy bit for bit where scipy is installed, pin the default fit without
it, and check that ill-posed duration models fail up front.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.alibaba import (
    ALIBABA_MAX_DURATION_H,
    ALIBABA_QUANTILE_ANCHORS,
    AlibabaDurationModel,
    _brentq,
    _truncated_pareto_mean,
    solve_tail_alpha,
)


def _outcome(solver, f, a, b):
    """The root's exact bits, or the exception the solver raised."""
    try:
        return float(solver(f, a, b)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _tail_gap(target_tail_mean):
    x_min = ALIBABA_QUANTILE_ANCHORS[-1][1]

    def gap(alpha):
        return _truncated_pareto_mean(alpha, x_min, ALIBABA_MAX_DURATION_H) - (
            target_tail_mean
        )

    return gap


#: Test functions with roots, plateaus, steps, underflow and NaN regions.
_FUNCTIONS = {
    "cubic": lambda c: lambda x: x**3 - c,
    "tanh": lambda c: lambda x: math.tanh(x - c),
    "tiny": lambda c: lambda x: (x - c) * 1e-300,
    "step": lambda c: lambda x: 1.0 if x > c else -1.0,
    "flat-root": lambda c: lambda x: 0.0 if abs(x - c) < 0.5 else x - c,
    "quintic": lambda c: lambda x: (x - c) ** 5,
    "nan-above": lambda c: lambda x: math.nan if x > c + 3 else x - c,
    "sine": lambda c: lambda x: math.sin(7 * x) - c / 40,
}


class TestBrentqMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(
        target_tail_mean=st.floats(0.0, 200.0),
        a=st.floats(1e-9, 40.0),
        b=st.floats(1e-9, 40.0),
    )
    def test_tail_gap(self, target_tail_mean, a, b):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        gap = _tail_gap(target_tail_mean)
        assert _outcome(_brentq, gap, a, b) == _outcome(
            scipy_optimize.brentq, gap, a, b
        )

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(_FUNCTIONS)),
        c=st.floats(-5.0, 30.0),
        a=st.floats(-10.0, 20.0),
        b=st.floats(-10.0, 40.0),
    )
    def test_assorted_functions(self, name, c, a, b):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        f = _FUNCTIONS[name](c)
        assert _outcome(_brentq, f, a, b) == _outcome(scipy_optimize.brentq, f, a, b)


class TestBrentqEdgeCases:
    def test_same_sign_bracket(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan, 0.0, 1.0)

    def test_no_convergence(self):
        # The quintic's flat neighbourhood of the root keeps every step
        # tiny, so 100 steps do not close the bracket (scipy fails too).
        with pytest.raises(RuntimeError, match="Failed to converge"):
            _brentq(lambda x: (x - 1.3) ** 5, 0.0, 10.0)

    def test_zero_denominator_step(self):
        # Subnormal values make a secant denominator exactly 0.0, which C
        # turns into inf or NaN (then bisects) where Python would raise.
        # The root is the one scipy 1.17.1 returns for this bracket.
        f = _FUNCTIONS["tiny"](8.992506297274895)
        assert _brentq(f, 1e-6, 20.0).hex() == "0x1.1fc29c90fbd4cp+3"

    def test_root_at_an_end(self):
        assert _brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert _brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


class TestDefaultFit:
    def test_pinned_alpha(self):
        assert repr(solve_tail_alpha()) == "0.06013255641061881"
        assert AlibabaDurationModel().alpha == 0.06013255641061881


class TestDurationModelValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"anchors": ((0, 0.008), (0.8, 1.0), (0.5, 0.2), (0.95, 5.2))}, "anchors"),
            ({"anchors": ((0, 0.008), (0.5, 0.2), (0.8, 0.1), (0.95, 5.2))}, "anchors"),
            ({"anchors": ((0, 0.008), (0.5, 0.2), (0.5, 1.0), (0.95, 5.2))}, "anchors"),
            ({"anchors": ((0.1, 0.008), (0.95, 5.2))}, "anchors"),
            ({"anchors": ((0, 0.008), (1.0, 5.2))}, "anchors"),
            ({"anchors": ((0, 0.0), (0.95, 5.2))}, "anchors"),
            ({"anchors": ((0, 0.008), (0.95, math.inf))}, "anchors"),
            ({"anchors": ((0, 0.008), (math.nan, 5.2))}, "anchors"),
            ({"anchors": ()}, "anchors"),
            ({"x_max": 5.2}, "x_max"),
            ({"x_max": math.nan}, "x_max"),
            ({"target_mean_h": math.nan}, "target_mean_h"),
            ({"target_mean_h": math.inf}, "target_mean_h"),
            ({"target_mean_h": -3.0}, "target_mean_h"),
            ({"target_mean_h": 0.0}, "target_mean_h"),
            ({"target_mean_h": 0.5}, "target_mean_h"),
            ({"target_mean_h": 1e6}, "target_mean_h"),
        ],
    )
    def test_bad_input_names_its_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            AlibabaDurationModel(**kwargs)

    def test_smallest_reachable_mean_is_accepted(self):
        # Just above the alpha = 20 floor still fits, and lands near 20.
        model = AlibabaDurationModel(target_mean_h=0.835)
        assert 10.0 < model.alpha < 20.0

    def test_single_anchor_is_a_pure_pareto(self):
        model = AlibabaDurationModel(anchors=((0.0, 1.0),), target_mean_h=5.0)
        assert model.inverse_cdf(0.0) == 1.0
        assert model.alpha > 0
