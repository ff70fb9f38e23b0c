"""Estimator unit tests.

Regression constants in this file were produced by an independent
numeric oracle before the package was written and are frozen here.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    AffState,
    EstimatorConfig,
    EwmaState,
    InvalidParameterError,
    InvalidSampleError,
    SlidingMeanState,
    aff_update,
    estimator_kinds,
    estimator_update,
    ewma_update,
    sliding_mean_update,
)

# 2000 kbps for 20 samples, then a drop to 600: updates until the estimate
# first lands within 10% of 600, counted from the first post-drop sample.
STEP_HIGH = [2000.0] * 20
STEP_LOW = [600.0] * 40
AFF_SETTLE_UPDATES = 12
EWMA_SETTLE_UPDATES = 15
SLIDING_SETTLE_UPDATES = 3
AFF_CLAMP_AT_UPDATE = 1
AFF_POST_DROP_TRAIL = [
    1933.3333, 1835.2941, 1700.4367, 1531.0345, 1340.9343, 1152.8112,
    988.4375, 859.7255, 767.3205, 705.0371, 664.8217, 639.5709,
]


def fresh(kind="aff", **knobs):
    return EstimatorConfig(kind=kind, **knobs).initial_state


def run_updates(state, values):
    estimates = []
    for v in values:
        state, est = estimator_update(state, v)
        estimates.append(est)
    return state, estimates


def settle_count(estimates, n_high, target, tol_frac=0.10):
    for k, est in enumerate(estimates[n_high:], 1):
        if abs(est - target) <= tol_frac * target:
            return k
    return None


class TestStepResponse:
    def test_aff_settles_in_frozen_update_count(self):
        _, ests = run_updates(fresh(), STEP_HIGH + STEP_LOW)
        assert settle_count(ests, 20, 600.0) == AFF_SETTLE_UPDATES

    def test_ewma_settles_in_frozen_update_count(self):
        _, ests = run_updates(fresh("ewma"), STEP_HIGH + STEP_LOW)
        assert settle_count(ests, 20, 600.0) == EWMA_SETTLE_UPDATES

    def test_sliding_mean_settles_in_window_length(self):
        _, ests = run_updates(fresh("sliding_mean"), STEP_HIGH + STEP_LOW)
        assert settle_count(ests, 20, 600.0) == SLIDING_SETTLE_UPDATES

    def test_aff_adapts_no_slower_than_ewma(self):
        assert AFF_SETTLE_UPDATES <= EWMA_SETTLE_UPDATES

    def test_aff_factor_hits_lower_clamp_on_first_post_drop_update(self):
        state = fresh()
        for v in STEP_HIGH:
            state, _ = aff_update(state, v)
        assert state.forgetting == 1.0
        state, _ = aff_update(state, 600.0)
        assert state.forgetting == state.forgetting_min == 0.6
        assert AFF_CLAMP_AT_UPDATE == 1

    def test_aff_first_post_drop_estimate_is_exact(self):
        # twenty samples of 2000 at factor 1.0 accumulate to 40000/20;
        # the drop sample makes the estimate 40600/21 before any decay
        _, ests = run_updates(fresh(), STEP_HIGH + [600.0])
        assert ests[-1] == pytest.approx(40600.0 / 21.0, rel=1e-12)

    def test_aff_post_drop_trail_matches_oracle(self):
        _, ests = run_updates(fresh(), STEP_HIGH + STEP_LOW)
        for got, want in zip(ests[20:32], AFF_POST_DROP_TRAIL):
            assert got == pytest.approx(want, abs=1e-3)


class TestAffFixedPoint:
    def test_factor_stays_at_upper_clamp_on_constant_input(self):
        for c in (1.0, 7.0, 950.0, 2500.0, 1e6):
            state = fresh()
            for i in range(1, 51):
                state, est = aff_update(state, c)
                assert state.forgetting == 1.0
            assert est == pytest.approx(c, rel=1e-12)

    def test_integer_constants_give_bit_exact_estimates(self):
        # integer sums divided by integer counts are exact in binary floats
        for c in (250.0, 600.0, 2000.0, 40000.0):
            state = fresh()
            for i in range(1, 101):
                state, est = aff_update(state, c)
                assert est == c

    def test_random_constants_pin_factor_and_estimate(self):
        rng = random.Random(1234)
        for _ in range(200):
            c = rng.uniform(1.0, 1e5)
            state = fresh()
            for i in range(1, 21):
                state, est = aff_update(state, c)
            assert state.forgetting == 1.0
            assert est == pytest.approx(c, rel=1e-12)


class TestAffGradient:
    """Finite-difference check of the online derivative accumulators."""

    @staticmethod
    def estimate_with_pinned_factor(values, factor):
        # same recursion, but the factor is frozen between updates so the
        # estimate becomes a differentiable function of a single scalar
        state = fresh(forgetting_min=1e-9, forgetting_max=1.0)
        state = state._replace(forgetting=factor)
        est = None
        for v in values:
            state, est = aff_update(state, v)
            state = state._replace(forgetting=factor)
        return est

    def test_accumulators_match_central_differences(self):
        eps = 1e-6
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 50)
            values = [rng.uniform(100.0, 5000.0) for _ in range(n)]
            factor = rng.uniform(0.6, 0.999)
            state = fresh(forgetting_min=1e-9, forgetting_max=1.0)
            state = state._replace(forgetting=factor)
            for v in values:
                state, _ = aff_update(state, v)
                last = state
                state = state._replace(forgetting=factor)
            analytic = (last.sum_grad * last.weight
                        - last.weight_grad * last.weighted_sum) \
                / (last.weight * last.weight)
            hi = self.estimate_with_pinned_factor(values, factor + eps)
            lo = self.estimate_with_pinned_factor(values, factor - eps)
            numeric = (hi - lo) / (2.0 * eps)
            scale = max(abs(analytic), abs(numeric), 1e-9)
            assert abs(analytic - numeric) / scale < 1e-4


class TestEwma:
    def test_seeds_with_first_sample(self):
        _, est = ewma_update(fresh("ewma"), 1234.5)
        assert est == 1234.5

    def test_matches_closed_form(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 60)
            alpha = rng.uniform(0.05, 0.95)
            values = [rng.uniform(10.0, 9000.0) for _ in range(n)]
            _, ests = run_updates(fresh("ewma", ewma_weight=alpha), values)
            closed = (1.0 - alpha) ** (n - 1) * values[0] + alpha * sum(
                (1.0 - alpha) ** (n - i) * values[i - 1]
                for i in range(2, n + 1))
            assert ests[-1] == pytest.approx(closed, rel=1e-12)

    def test_default_weight(self):
        _, ests = run_updates(fresh("ewma"), [1000.0, 2000.0])
        assert ests[-1] == pytest.approx(0.2 * 2000.0 + 0.8 * 1000.0)


class TestSlidingMean:
    def test_warm_up_uses_partial_window(self):
        _, ests = run_updates(fresh("sliding_mean", window=3),
                              [300.0, 600.0, 1200.0])
        assert ests == [300.0, 450.0, 700.0]

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(1, 8)
            values = [rng.uniform(1.0, 1e4) for _ in range(rng.randint(1, 40))]
            _, ests = run_updates(fresh("sliding_mean", window=k), values)
            for i, est in enumerate(ests, 1):
                tail = values[max(0, i - k):i]
                assert est == sum(tail) / len(tail)

    def test_drops_samples_beyond_window(self):
        _, ests = run_updates(fresh("sliding_mean", window=3),
                              [9999.0, 600.0, 600.0, 600.0])
        assert ests[-1] == 600.0


class TestDispatch:
    def test_config_builds_matching_state(self):
        assert isinstance(EstimatorConfig(kind="aff").initial_state, AffState)
        assert isinstance(EstimatorConfig(kind="ewma").initial_state,
                          EwmaState)
        assert isinstance(
            EstimatorConfig(kind="sliding_mean").initial_state,
            SlidingMeanState)

    def test_update_routes_on_state_type(self):
        for kind in ("aff", "ewma", "sliding_mean"):
            state = EstimatorConfig(kind=kind).initial_state
            state, est = estimator_update(state, 800.0)
            assert type(est) is float
            assert est == 800.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(kind="harmonic")
        with pytest.raises(InvalidParameterError):
            estimator_update(object(), 1.0)

    def test_table_lists_kinds_with_their_labels(self):
        kinds = estimator_kinds()
        assert list(kinds) == ["aff", "ewma", "sliding_mean"]
        for kind, entry in kinds.items():
            cfg = EstimatorConfig(kind=kind)
            assert type(cfg.initial_state) is entry.state
            assert entry.update(cfg.initial_state, 800.0) == \
                estimator_update(cfg.initial_state, 800.0)
        assert [EstimatorConfig(kind).label for kind in kinds] == [
            "aff", "ewma", "avg3"]
        assert EstimatorConfig("sliding_mean", window=5).label == "avg5"

    def test_bare_floats_accepted_as_samples(self):
        state = fresh()
        state, est = aff_update(state, 1000.0)
        assert est == 1000.0


class TestValidation:
    def test_sample_must_be_positive(self):
        for bad in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(InvalidSampleError):
                aff_update(fresh(), bad)

    def test_aff_parameter_ranges(self):
        with pytest.raises(InvalidParameterError):
            fresh(step_size=0.0)
        with pytest.raises(InvalidParameterError):
            fresh(step_size=0.2)
        with pytest.raises(InvalidParameterError):
            fresh(forgetting_min=0.0)
        with pytest.raises(InvalidParameterError):
            fresh(forgetting_min=0.9, forgetting_max=0.8)
        with pytest.raises(InvalidParameterError):
            fresh(forgetting_max=1.1)

    def test_ewma_weight_range(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(InvalidParameterError):
                fresh("ewma", ewma_weight=bad)

    def test_window_must_be_positive_integer(self):
        for bad in (0, -2, 2.5):
            with pytest.raises(InvalidParameterError):
                fresh("sliding_mean", window=bad)


positive_rates = st.floats(min_value=1e-3, max_value=1e7,
                           allow_nan=False, allow_infinity=False)


class TestBareNumberPath:
    """Every kind checks the float it is given, with one message."""

    @pytest.mark.parametrize("kind", ["aff", "ewma", "sliding_mean"])
    @pytest.mark.parametrize("bad", [
        0.0, -0.0, -5.0, float("nan"), float("inf"), float("-inf")])
    def test_invalid_bare_number_rejected_as_sample(self, kind, bad):
        state = EstimatorConfig(kind=kind).initial_state
        with pytest.raises(InvalidSampleError) as bare:
            estimator_update(state, bad)
        assert str(bare.value) == (
            "throughput must be positive and finite, got %r" % (bad,))


class TestOverflow:
    """A finite sample that would push AFF's estimate or factor past the
    largest float is refused instead of leaving inf or NaN behind. The
    EWMA and the sliding mean stay within their samples, so never
    overflow."""

    MESSAGE = "throughput %r overflows the estimator state"

    @pytest.mark.parametrize("kind", ["aff"])  # the kinds that can overflow
    def test_sum_past_largest_float_rejected(self, kind):
        # for AFF the factor's step is +inf here and would clamp to 1.0,
        # so only the estimate shows the overflow
        state, est = estimator_update(
            EstimatorConfig(kind=kind).initial_state, 8e307)
        assert est == 8e307
        with pytest.raises(InvalidSampleError) as err:
            estimator_update(state, 1.1e308)
        assert str(err.value) == self.MESSAGE % (1.1e308,)

    def test_aff_factor_nan_rejected(self):
        # the estimate stays 1e300, but sum_grad * weight overflows in the
        # gradient and inf - inf would make the factor NaN
        state = fresh()
        for i in range(1, 7874):
            state, est = aff_update(state, 1e300)
            assert est == pytest.approx(1e300, rel=1e-12)
            assert 0.6 <= state.forgetting <= 1.0
        with pytest.raises(InvalidSampleError) as err:
            aff_update(state, 1e300)
        assert str(err.value) == self.MESSAGE % (1e300,)

    def test_ewma_cannot_overflow(self):
        # a convex combination of finite samples stays finite
        big = sys.float_info.max
        state = fresh("ewma")
        for v in (big, big / 2.0, big, big):
            state, est = ewma_update(state, v)
            assert est <= big

    @pytest.mark.parametrize("samples, mean", [
        ((8e307, 1.1e308), 9.5e307),
        ((sys.float_info.max,) * 3, sys.float_info.max),
    ], ids=["two", "max"])
    def test_sliding_mean_past_largest_sum_fits(self, samples, mean):
        # the sum of the window overflows, but its mean does not
        state = fresh("sliding_mean")
        for v in samples:
            state, est = sliding_mean_update(state, v)
        assert est == mean


class TestProperties:
    @given(st.lists(positive_rates, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_aff_factor_stays_clamped(self, values):
        state = fresh()
        for v in values:
            state, _ = aff_update(state, v)
            assert state.forgetting_min <= state.forgetting \
                <= state.forgetting_max

    @given(st.lists(positive_rates, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_estimates_stay_inside_sample_range(self, values):
        # every estimator is a convex combination of the samples seen
        for kind in ("aff", "ewma", "sliding_mean"):
            state = EstimatorConfig(kind=kind).initial_state
            seen = []
            for v in values:
                seen.append(v)
                state, est = estimator_update(state, v)
                slack = 1e-9 * max(seen)
                assert min(seen) - slack <= est \
                    <= max(seen) + slack

    @given(st.lists(positive_rates, min_size=1, max_size=30),
           st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_ewma_and_sliding_scale_equivariant(self, values, log2_scale):
        # powers of two keep float multiplication exact
        s = 2.0 ** log2_scale
        for kind in ("ewma", "sliding_mean"):
            a = EstimatorConfig(kind=kind).initial_state
            b = EstimatorConfig(kind=kind).initial_state
            for v in values:
                a, ea = estimator_update(a, v)
                b, eb = estimator_update(b, v * s)
                assert eb == ea * s

    @given(st.lists(positive_rates, min_size=1, max_size=30),
           st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_aff_scales_while_factor_paths_agree(self, values, log2_scale):
        # the factor's gradient step is not scale-free, so equivariance
        # is only guaranteed while both runs hold the same factor path;
        # the first two estimates always scale because the factor only
        # moves after the second sample
        s = 2.0 ** log2_scale
        a = fresh()
        b = fresh()
        for i, v in enumerate(values, 1):
            a, ea = aff_update(a, v)
            b, eb = aff_update(b, v * s)
            if i <= 2:
                assert eb == ea * s
            if a.forgetting != b.forgetting:
                break
            assert eb == ea * s
