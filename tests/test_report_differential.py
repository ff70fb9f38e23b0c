"""Differential test: the one-pass summarize against the former quadratic one.

The summarize that rescanned every sample for every CDF threshold is frozen
below as the reference. The one-pass version must give an equal QoeReport
and byte-identical JSON and CSV exports on every input. It reads a buffer
series as corners and counts the ticks between them as it goes, so the
reference is handed the series that `buffer_samples` expands. Corners off
the tick grid leave ticks strictly between two corners, which only that
count sees.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    BandwidthProfile,
    BitrateLadder,
    EstimatorConfig,
    QoeReport,
    SegmentRecord,
    SessionTrace,
    SimConfig,
    buffer_samples,
    export,
    run_session,
    summarize,
    synthesize_profile,
)
from affsim.errors import InvalidParameterError
from affsim.report import BUFFER_CDF_STEP_S
from affsim.sim import BUFFER_TICK_S, MAX_BUFFER_SAMPLES


def reference_summarize(trace, ladder):
    """Collapse a SessionTrace into its headline QoE numbers."""
    qualities = [r.quality_index for r in trace.records]
    changes = sum(1 for a, b in zip(qualities, qualities[1:]) if a != b)
    bitrates = [ladder.bitrates_kbps[q] for q in qualities]
    mean_bitrate = sum(bitrates) / len(bitrates)
    n = len(bitrates)
    bitrate_cdf = tuple(
        (rung, sum(1 for b in bitrates if b <= rung) / n)
        for rung in ladder.bitrates_kbps)
    levels = [level for _, level in trace.buffer_series]
    buffer_cdf = ()
    if levels:
        top = max(levels)
        thresholds = [0.0]
        while thresholds[-1] < top:
            thresholds.append(thresholds[-1] + BUFFER_CDF_STEP_S)
        m = len(levels)
        buffer_cdf = tuple(
            (th, sum(1 for lv in levels if lv <= th) / m)
            for th in thresholds)
    return QoeReport(
        bitrate_changes=changes,
        stall_events=len(trace.stalls),
        stall_durations_s=tuple(d for _, d in trace.stalls),
        mean_bitrate_kbps=mean_bitrate,
        bitrate_cdf=bitrate_cdf,
        buffer_cdf=buffer_cdf)


def assert_same_summary(trace, ladder):
    expanded = dataclasses.replace(
        trace, buffer_series=tuple(buffer_samples(trace.buffer_series)))
    new, old = summarize(trace, ladder), reference_summarize(expanded, ladder)
    assert new == old
    assert export(new, "json") == export(old, "json")
    assert export(new, "csv") == export(old, "csv")


def session_trace(qualities, stalls, levels):
    records = tuple(
        SegmentRecord(
            index=i + 1, quality_index=q, size_kbit=1.0,
            t_request_s=float(i), t_complete_s=i + 0.5,
            instant_throughput_kbps=2.0, estimate_kbps=1.0,
            buffer_after_s=0.0, decision_reason="throughput")
        for i, q in enumerate(qualities))
    return SessionTrace(
        records=records, stalls=tuple(stalls), startup_delay_s=0.0,
        wall_time_s=float(len(qualities)), idle_full_s=0.0,
        buffer_series=tuple((0.5 * i, lv) for i, lv in enumerate(levels)))


# levels on a CDF threshold, one ulp either side of one, and anywhere
ON_GRID = st.integers(0, 120).map(lambda k: k * BUFFER_CDF_STEP_S)
LEVELS = st.one_of(
    ON_GRID,
    ON_GRID.map(lambda x: math.nextafter(x, math.inf)),
    ON_GRID.map(lambda x: math.nextafter(x, -math.inf)),
    st.floats(0.0, 60.0),
    st.sampled_from([0.0, -0.0, 30.0, 60.0]),
)


@st.composite
def ladders(draw):
    rungs = draw(st.sets(st.floats(1.0, 1e5), min_size=1, max_size=8))
    return BitrateLadder(tuple(sorted(rungs)))


@st.composite
def cases(draw):
    ladder = draw(ladders())
    k = len(ladder.bitrates_kbps)
    qualities = draw(st.lists(st.integers(0, k - 1), min_size=1,
                              max_size=60))
    if draw(st.booleans()):
        qualities += draw(st.permutations(range(k)))  # every quality index
    stalls = draw(st.lists(st.tuples(st.floats(0.0, 1e3),
                                     st.floats(0.0, 50.0)), max_size=4))
    levels = draw(st.lists(LEVELS, max_size=80))
    return session_trace(qualities, stalls, levels), ladder


def with_corners(trace, corners):
    return dataclasses.replace(trace, buffer_series=tuple(corners))


# corner times on a tick, one ulp either side of one, and anywhere; sorted,
# about 40 of them over 120 s leave gaps of several ticks
ON_TICK = st.integers(0, 240).map(lambda k: k * BUFFER_TICK_S)
TIMES = st.one_of(
    ON_TICK,
    ON_TICK.map(lambda x: math.nextafter(x, math.inf)),
    ON_TICK.map(lambda x: math.nextafter(x, -math.inf)),
    st.floats(0.0, 120.0),
)


@st.composite
def off_grid_cases(draw):
    ladder = draw(ladders())
    qualities = draw(st.lists(
        st.integers(0, len(ladder.bitrates_kbps) - 1), min_size=1,
        max_size=10))
    times = sorted(draw(st.lists(TIMES, max_size=40)))
    levels = draw(st.lists(LEVELS, min_size=len(times),
                           max_size=len(times)))
    trace = session_trace(qualities, (), ())
    return with_corners(trace, zip(times, levels)), ladder


class TestSummarizeMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_built_traces(self, case):
        trace, ladder = case
        assert_same_summary(trace, ladder)

    @pytest.mark.parametrize("levels", [
        [],
        [0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 1.0, 1.5, 30.0],
        [0.25, 0.5, 0.75, 60.0, 60.0],
        [math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)],
    ], ids=["empty", "zero", "all-zero", "on-grid", "top-repeated",
            "ulp-around-threshold"])
    @pytest.mark.parametrize("rungs", [(800.0,), (250.0, 500.0, 1000.0,
                                                   2000.0)],
                             ids=["one-rung", "four-rungs"])
    def test_edge_cases(self, levels, rungs):
        ladder = BitrateLadder(rungs)
        qualities = list(range(len(rungs))) + [0]
        assert_same_summary(session_trace(qualities, (), levels), ladder)

    @settings(max_examples=400, deadline=None)
    @given(off_grid_cases())
    def test_off_grid_corners(self, case):
        trace, ladder = case
        assert_same_summary(trace, ladder)

    @pytest.mark.parametrize("corners", [
        [(0.25, 3.0), (1.75, 2.5), (4.1, 0.2)],
        [(0.0, 0.0), (0.1, 5.0), (5.3, 0.0)],
        [(0.3, 2.0), (1.0, 1.7), (2.5, 3.0), (2.5, 0.0)],
        [(0.25, math.nextafter(2.75, math.inf)), (3.1, 1.0)],
        [(0.25, math.nextafter(2.75, -math.inf)), (3.1, 1.0)],
    ], ids=["off-grid", "gap-of-ticks", "corner-on-tick", "ulp-above-drain",
            "ulp-below-drain"])
    def test_ticks_between_corners(self, corners):
        # each series has ticks strictly between two corners; the last two
        # drain to one ulp either side of the 2.5 s threshold at t=0.5
        trace = with_corners(session_trace([0, 1], (), ()), corners)
        assert len(tuple(buffer_samples(trace.buffer_series))) > \
            len(corners)
        assert_same_summary(trace, BitrateLadder((250.0, 500.0)))

    @pytest.mark.parametrize("kind", ["test1", "test2", "test3", "test4"])
    def test_synthetic_sessions(self, kind):
        # the sessions of test_sim_differential.py
        for seed in range(10):
            profile = synthesize_profile(kind, seed, 720.0)
            for estimator in ("aff", "ewma", "sliding_mean"):
                cfg = SimConfig(estimator=EstimatorConfig(kind=estimator))
                assert_same_summary(run_session(profile, cfg), cfg.ladder)

    def test_round_rate_sessions(self):
        # the links of test_sim_differential.py's grid-corner replay test:
        # round rates land corners and ticks on the tick grid, and levels
        # exactly on CDF thresholds
        on_threshold = 0
        for kbps in (250.0, 500.0, 1000.0, 4000.0):
            profile = BandwidthProfile(((0.0, kbps), (40.0, kbps / 4),
                                        (90.0, kbps)), 1e6)
            cfg = SimConfig(total_segments=60)
            trace = run_session(profile, cfg)
            assert_same_summary(trace, cfg.ladder)
            on_threshold += sum(
                1 for _, level in buffer_samples(trace.buffer_series)
                if level > 0.0 and level % BUFFER_CDF_STEP_S == 0.0)
        assert on_threshold > 1000, on_threshold

    def test_long_session(self):
        # 1,000 segments on a 24,000 s trace: about 6,000 buffer samples
        profile = synthesize_profile("test1", 31, 24000.0)
        cfg = SimConfig(total_segments=1000)
        assert_same_summary(run_session(profile, cfg), cfg.ladder)


LAST_S = MAX_BUFFER_SAMPLES * BUFFER_TICK_S


class TestSummarizeRefusals:
    """The counted expansion refuses what `buffer_samples` refuses, in the
    order the corners come, with the messages they had."""

    @pytest.mark.parametrize("corners,message", [
        ([(0.0, 0.0), (math.nan, 1.0)],
         "buffer series times must be finite and at most 524288 s, got nan"),
        ([(0.0, 0.0), (LAST_S + 0.5, 1.0)],
         "buffer series times must be finite and at most 524288 s, "
         "got 524288.5"),
        ([(0.0, 0.0), (math.inf, 1.0)],
         "buffer series times must be finite and at most 524288 s, "
         "got inf"),
        ([(0.0, 0.0), (0.7, 1.0), (1.3, math.nan)],
         "buffer levels must be finite, got nan"),
        ([(0.0, 0.0), (0.7, -math.inf), (1.3, 1.0)],
         "buffer levels must be finite, got -inf"),
        ([(0.0, math.nan), (0.7, 1.0)],
         "buffer levels must be finite and at most 524288 s, got nan"),
        ([(0.0, 0.0), (0.7, math.nan), (math.nan, 1.0)],
         "buffer levels must be finite, got nan"),
        ([(0.0, 0.0), (math.nan, 1.0), (1.3, math.nan)],
         "buffer series times must be finite and at most 524288 s, got nan"),
    ], ids=["nan-time", "time-past-cap", "inf-time", "nan-level",
            "-inf-level", "nan-top", "level-before-time",
            "time-before-level"])
    def test_message(self, corners, message):
        assert LAST_S == 524288.0
        trace = with_corners(session_trace([0], (), ()), corners)
        with pytest.raises(InvalidParameterError) as exc:
            summarize(trace, BitrateLadder())
        assert str(exc.value) == message

    def test_last_tick_accepted(self):
        trace = with_corners(session_trace([0], (), ()),
                             [(0.0, 0.0), (LAST_S, 1.0)])
        report = summarize(trace, BitrateLadder())
        assert report.buffer_cdf[-1] == (1.0, 1.0)
