"""Quality-selection tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    AbrConfig,
    BitrateLadder,
    Estimate,
    InvalidParameterError,
    REASON_BUFFER_PANIC,
    REASON_STARTUP,
    REASON_THROUGHPUT,
    decide,
    select_bitrate,
)

LADDER = BitrateLadder((250.0, 500.0, 1000.0, 2000.0), 2.0)
CFG = AbrConfig()


class TestSelectBitrate:
    @pytest.mark.parametrize("estimate,index", [
        (100.0, 0),      # below the whole ladder still plays something
        (250.0, 0),
        (499.0, 0),
        (500.0, 1),
        (999.9, 1),
        (1000.0, 2),
        (1500.0, 2),
        (2000.0, 3),
        (2500.0, 3),
        (1e9, 3),
    ])
    def test_threshold_table(self, estimate, index):
        d = select_bitrate(LADDER, Estimate(estimate))
        assert d.quality_index == index
        assert d.reason == REASON_THROUGHPUT

    def test_single_rung_ladder(self):
        one = BitrateLadder((800.0,), 2.0)
        assert select_bitrate(one, Estimate(100.0)).quality_index == 0
        assert select_bitrate(one, Estimate(9999.0)).quality_index == 0


class TestDecide:
    def test_first_segment_uses_configured_rung(self):
        d = decide(LADDER, CFG, None, 0.0, True)
        assert (d.quality_index, d.reason) == (0, REASON_STARTUP)

    def test_first_segment_honours_other_initial_rung(self):
        cfg = AbrConfig(initial_quality_index=2)
        d = decide(LADDER, cfg, None, 0.0, True)
        assert (d.quality_index, d.reason) == (2, REASON_STARTUP)

    def test_initial_rung_outside_ladder_rejected(self):
        cfg = AbrConfig(initial_quality_index=4)
        with pytest.raises(InvalidParameterError):
            decide(LADDER, cfg, None, 0.0, True)

    def test_low_buffer_forces_lowest_rung(self):
        d = decide(LADDER, CFG, Estimate(2500.0), 7.9, False)
        assert (d.quality_index, d.reason) == (0, REASON_BUFFER_PANIC)

    def test_panic_threshold_is_strict(self):
        d = decide(LADDER, CFG, Estimate(2500.0), 8.0, False)
        assert (d.quality_index, d.reason) == (3, REASON_THROUGHPUT)

    def test_comfortable_buffer_follows_estimate(self):
        d = decide(LADDER, CFG, Estimate(2500.0), 12.0, False)
        assert (d.quality_index, d.reason) == (3, REASON_THROUGHPUT)

    def test_missing_estimate_after_startup_rejected(self):
        with pytest.raises(InvalidParameterError):
            decide(LADDER, CFG, None, 20.0, False)


class TestLadderValidation:
    def test_rejects_empty_ladder(self):
        with pytest.raises(InvalidParameterError):
            BitrateLadder((), 2.0)

    def test_rejects_non_increasing_rungs(self):
        with pytest.raises(InvalidParameterError):
            BitrateLadder((500.0, 500.0), 2.0)
        with pytest.raises(InvalidParameterError):
            BitrateLadder((500.0, 250.0), 2.0)

    def test_rejects_non_positive_bitrate_or_duration(self):
        with pytest.raises(InvalidParameterError):
            BitrateLadder((0.0, 500.0), 2.0)
        with pytest.raises(InvalidParameterError):
            BitrateLadder((250.0,), 0.0)

    @pytest.mark.parametrize("rungs, seg_dur", [
        ((float("nan"), 500.0), 2.0),
        ((250.0, float("nan"), 1000.0), 2.0),
        ((250.0, float("nan")), 2.0),
        ((250.0, float("inf")), 2.0),
        ((250.0, 500.0), float("inf")),
        ((250.0, 500.0), float("nan")),
    ], ids=["nan-first", "nan-middle", "nan-last", "inf-last",
            "inf-duration", "nan-duration"])
    def test_rejects_non_finite_rungs_and_duration(self, rungs, seg_dur):
        with pytest.raises(InvalidParameterError):
            BitrateLadder(rungs, seg_dur)

    def test_config_validation(self):
        for panic in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                AbrConfig(panic_buffer_s=panic)
        with pytest.raises(InvalidParameterError):
            AbrConfig(initial_quality_index=-1)


ladders = st.lists(
    st.floats(min_value=1.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8, unique=True,
).map(lambda bs: BitrateLadder(tuple(sorted(bs)), 2.0))
estimates = st.floats(min_value=0.5, max_value=2e6,
                      allow_nan=False, allow_infinity=False)


class TestProperties:
    @given(ladders, estimates, estimates)
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_estimate(self, ladder, a, b):
        lo, hi = sorted((a, b))
        assert select_bitrate(ladder, Estimate(lo)).quality_index \
            <= select_bitrate(ladder, Estimate(hi)).quality_index

    @given(ladders, estimates, st.integers(min_value=-6, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_scaling_ladder_and_estimate_together_is_neutral(
            self, ladder, estimate, log2_scale):
        # powers of two scale floats exactly, so the comparisons are
        # unchanged and the chosen rung must be too
        s = 2.0 ** log2_scale
        scaled = BitrateLadder(
            tuple(b * s for b in ladder.bitrates_kbps),
            ladder.segment_duration_s)
        assert select_bitrate(ladder, Estimate(estimate)).quality_index \
            == select_bitrate(scaled, Estimate(estimate * s)).quality_index

    @given(ladders, estimates)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_scan(self, ladder, estimate):
        best = 0
        for i, b in enumerate(ladder.bitrates_kbps):
            if b <= estimate:
                best = i
        assert select_bitrate(ladder, Estimate(estimate)).quality_index == best

    @given(ladders, estimates,
           st.floats(min_value=0.0, max_value=7.999))
    @settings(max_examples=200, deadline=None)
    def test_panic_dominates_any_estimate(self, ladder, estimate, buffer_s):
        d = decide(ladder, CFG, Estimate(estimate), buffer_s, False)
        assert (d.quality_index, d.reason) == (0, REASON_BUFFER_PANIC)
