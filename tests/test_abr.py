"""Quality-selection tests."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import abr, sim
from affsim import (
    BitrateLadder,
    Decision,
    FairnessConfig,
    InvalidParameterError,
    REASON_BUFFER_PANIC,
    REASON_STARTUP,
    REASON_THROUGHPUT,
    SimConfig,
    decide,
    run_fairness,
    run_session,
    select_bitrate,
    synthesize_profile,
)

LADDER = BitrateLadder((250.0, 500.0, 1000.0, 2000.0), 2.0)
CFG = SimConfig(ladder=LADDER)


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
        d = select_bitrate(LADDER, estimate)
        assert d.quality_index == index
        assert d.reason == REASON_THROUGHPUT

    def test_single_rung_ladder(self):
        one = BitrateLadder((800.0,), 2.0)
        assert select_bitrate(one, 100.0).quality_index == 0
        assert select_bitrate(one, 9999.0).quality_index == 0


class TestDecide:
    def test_first_segment_uses_configured_rung(self):
        d = decide(CFG, None, 0.0)
        assert (d.quality_index, d.reason) == (0, REASON_STARTUP)

    def test_first_segment_honours_other_initial_rung(self):
        cfg = SimConfig(ladder=LADDER, initial_quality_index=2)
        d = decide(cfg, None, 0.0)
        assert (d.quality_index, d.reason) == (2, REASON_STARTUP)

    def test_initial_rung_outside_ladder_rejected(self):
        # the config refuses it when built, so decide never sees it
        with pytest.raises(InvalidParameterError):
            SimConfig(ladder=LADDER, initial_quality_index=4)

    def test_low_buffer_forces_lowest_rung(self):
        d = decide(CFG, 2500.0, 7.9)
        assert (d.quality_index, d.reason) == (0, REASON_BUFFER_PANIC)

    def test_panic_threshold_is_strict(self):
        d = decide(CFG, 2500.0, 8.0)
        assert (d.quality_index, d.reason) == (3, REASON_THROUGHPUT)

    def test_comfortable_buffer_follows_estimate(self):
        d = decide(CFG, 2500.0, 12.0)
        assert (d.quality_index, d.reason) == (3, REASON_THROUGHPUT)

    def test_no_estimate_gets_start_rung_below_panic_threshold(self):
        # no estimate exists before the first segment lands, whatever the
        # buffer level
        d = decide(CFG, None, 0.5)
        assert (d.quality_index, d.reason) == (0, REASON_STARTUP)
        d = decide(SimConfig(ladder=LADDER, initial_quality_index=2), None,
                   0.5)
        assert (d.quality_index, d.reason) == (2, REASON_STARTUP)


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
                SimConfig(panic_buffer_s=panic)
        with pytest.raises(InvalidParameterError):
            SimConfig(initial_quality_index=-1)


class TestStartRungCheck:
    """A config checks its start rung without taking a decision, so a
    tracer counting `decide` sees only the requests of sessions."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return decide(*args)
        monkeypatch.setattr(abr, "decide", counted)
        monkeypatch.setattr(sim, "decide", counted)
        return calls

    def test_building_a_config_makes_no_decision(self, decisions):
        SimConfig()
        SimConfig(initial_quality_index=3)
        SimConfig(panic_buffer_s=0.0)  # valid: no level is below 0
        FairnessConfig(sim=SimConfig(total_segments=20))
        assert decisions == []

    def test_out_of_range_start_rung_refused_with_one_message(
            self, decisions):
        text = "initial_quality_index 4 outside ladder of 4 rungs"
        with pytest.raises(InvalidParameterError) as built:
            SimConfig(ladder=LADDER, initial_quality_index=4)
        assert decisions == []
        assert str(built.value) == text


class TestDecisionsBuiltOnce:
    """Operation counts, exact for any host: a request builds no Decision.

    A ladder builds its throughput decisions when it is built, and the
    panic floor is one module constant, so only a session's first request,
    its start rung, builds one.
    """

    def test_one_decision_per_session_or_client(self, monkeypatch):
        sim_cfg = SimConfig()
        fair_cfg = FairnessConfig()
        profile = synthesize_profile("test1", 0, 800.0)
        built = []

        class Counted(Decision):
            __slots__ = ()

            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(abr, "Decision", Counted)
        trace = run_session(profile, sim_cfg)
        reasons = Counter(r.decision_reason for r in trace.records)
        # every kind of decision was taken, not only the start rung
        assert reasons[REASON_THROUGHPUT] and reasons[REASON_BUFFER_PANIC]
        assert built == [(0, REASON_STARTUP)]
        del built[:]
        run_fairness(fair_cfg)
        assert built == [(0, REASON_STARTUP)] * fair_cfg.n_clients

    def test_repeated_requests_share_one_decision(self):
        assert decide(CFG, 1500.0, 20.0) is decide(CFG, 1500.0, 20.0)
        assert decide(CFG, 1500.0, 1.0) is decide(CFG, 3000.0, 1.0)

    def test_decisions_are_derived_not_fields(self):
        assert LADDER.decisions == tuple(
            Decision(i, REASON_THROUGHPUT) for i in range(4))
        assert repr(LADDER) == ("BitrateLadder(bitrates_kbps=(250.0, 500.0, "
                                "1000.0, 2000.0), segment_duration_s=2.0)")
        other = BitrateLadder((250.0, 500.0, 1000.0, 2000.0), 2.0)
        object.__setattr__(other, "decisions", ())
        assert other == LADDER and hash(other) == hash(LADDER)
        short = dataclasses.replace(LADDER, bitrates_kbps=(300.0, 900.0))
        assert short.decisions == ((0, REASON_THROUGHPUT),
                                   (1, REASON_THROUGHPUT))
        assert select_bitrate(short, 1e9) is short.decisions[1]


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
        assert select_bitrate(ladder, lo).quality_index \
            <= select_bitrate(ladder, hi).quality_index

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
        assert select_bitrate(ladder, estimate).quality_index \
            == select_bitrate(scaled, estimate * s).quality_index

    @given(ladders, estimates)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_scan(self, ladder, estimate):
        best = 0
        for i, b in enumerate(ladder.bitrates_kbps):
            if b <= estimate:
                best = i
        assert select_bitrate(ladder, estimate).quality_index == best

    @given(ladders, estimates,
           st.floats(min_value=0.0, max_value=7.999))
    @settings(max_examples=200, deadline=None)
    def test_panic_dominates_any_estimate(self, ladder, estimate, buffer_s):
        d = decide(dataclasses.replace(CFG, ladder=ladder), estimate,
                   buffer_s)
        assert (d.quality_index, d.reason) == (0, REASON_BUFFER_PANIC)
