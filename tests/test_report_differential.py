"""Differential test: the one-pass summarize against references.

The summarize that rescanned every segment for every bitrate threshold is
frozen below as the reference for the bitrate half of a QoeReport, which
must come out equal. Its buffer half counted samples of a stored series;
the buffer CDF now weighs the level by wall time, so an exact rational
integral of the trajectory the records fix replaces it. `summarize` must
give its thresholds exactly and its fractions to within 1e-12, never
falling, with the last row exactly 1.0.
"""

import dataclasses
import math
from fractions import Fraction

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
    run_session,
    run_shared,
    summarize,
    synthesize_profile,
)
from affsim.errors import InvalidParameterError
from affsim.report import BUFFER_CDF_STEP_S
from affsim.sim import MAX_ROWS

TOL = 1e-12


def exact_buffer_cdf(trace):
    """The time-weighted buffer CDF by exact rational arithmetic.

    The level is 0 from the first request until the first completion,
    then drains at slope 1 from each completion's buffer_after_s, floored
    at 0, until the next completion or wall_time_s. A stretch of g seconds
    from level a spends g - min(g, max(0, a - th)) at or below th. Every
    float is a binary fraction, so all of them are whole multiples of the
    finest one among them, and the integral is exact in that unit.
    """
    records = trace.records
    levels = [0.0] + [r.buffer_after_s for r in records]
    times = [records[0].t_request_s] + [r.t_complete_s for r in records]
    times.append(trace.wall_time_s)
    exact = [Fraction(x) for x in levels + times + [BUFFER_CDF_STEP_S]]
    unit = Fraction(1, max(x.denominator for x in exact))
    ints = [int(x / unit) for x in exact]
    levels, times, step = ints[:len(levels)], ints[len(levels):-1], ints[-1]
    stretches = [(a, t1 - t0) for a, t0, t1 in zip(levels, times, times[1:])]
    wall = times[-1] - times[0]
    rows = math.ceil(Fraction(max(levels), step)) + 1
    cdf = []
    for k in range(rows):
        th = k * step
        hidden = sum(min(g, max(0, a - th)) for a, g in stretches)
        cdf.append((float(Fraction(th) * unit),
                    float(Fraction(wall - hidden, wall))))
    return tuple(cdf)


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
    return QoeReport(
        segments=len(trace.records),
        bitrate_changes=changes,
        stall_events=len(trace.stalls),
        stall_time_s=sum(d for _, d in trace.stalls),
        startup_delay_s=trace.startup_delay_s,
        wall_time_s=trace.wall_time_s,
        idle_full_s=trace.idle_full_s,
        stall_durations_s=tuple(d for _, d in trace.stalls),
        mean_bitrate_kbps=mean_bitrate,
        bitrate_cdf=bitrate_cdf,
        buffer_cdf=exact_buffer_cdf(trace))


def assert_buffer_cdf(cdf, expected):
    assert [th for th, _ in cdf] == [th for th, _ in expected]
    fractions = [fr for _, fr in cdf]
    for got, want in zip(fractions, [fr for _, fr in expected]):
        assert abs(got - want) <= TOL, (got, want)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def assert_same_summary(trace, ladder):
    new, old = summarize(trace, ladder), reference_summarize(trace, ladder)
    assert dataclasses.replace(new, buffer_cdf=()) == \
        dataclasses.replace(old, buffer_cdf=())
    assert_buffer_cdf(new.buffer_cdf, old.buffer_cdf)


def played_trace(start, ladder, max_buffer_s, downloads, qualities=None):
    """A SessionTrace by the engine's playback rule, with no link.

    Each download takes the given time. A request waits while the buffer
    lacks one segment of room, and a download longer than the buffer
    stalls playback until it lands. Levels may come out exactly on CDF
    thresholds, since the times may be whole steps.
    """
    seg_dur = ladder.segment_duration_s
    cfg = SimConfig(ladder=ladder, panic_buffer_s=0.0,
                    max_buffer_s=max_buffer_s)
    room = max_buffer_s - seg_dur
    t, level = start, 0.0
    records = []
    if qualities is None:
        qualities = [0] * len(downloads)
    for i, (tau, q) in enumerate(zip(downloads, qualities)):
        if level > room:
            t += level - room
            level = room
        t_request, t = t, t + tau
        if t_request + level < t:
            level = 0.0
        else:
            level = max(0.0, level - tau)
        level += seg_dur
        records.append(SegmentRecord(
            index=i + 1, quality_index=q, size_kbit=1.0,
            t_request_s=t_request, t_complete_s=t, estimate_kbps=1.0,
            buffer_after_s=level, decision_reason="throughput"))
    return SessionTrace(tuple(records), cfg)


def records_trace(levels=(0.0, 1.0, 2.0), times=None, qualities=None):
    # a request a second from t=0; by default each lands 0.5 s later, and
    # the last level plays out after the last completion
    n = len(levels)
    times = times or [i + 0.5 for i in range(n)]
    return SessionTrace(tuple(
        SegmentRecord(i + 1, q, 1.0, float(i), t, 1.0, lv, "x")
        for i, (q, lv, t) in enumerate(zip(qualities or [0] * n, levels,
                                           times))), SimConfig())


# times on the CDF grid, one ulp either side of it, and anywhere
ON_GRID = st.integers(1, 120).map(lambda k: k * BUFFER_CDF_STEP_S)
DOWNLOADS = st.one_of(
    ON_GRID,
    ON_GRID.map(lambda x: math.nextafter(x, math.inf)),
    ON_GRID.map(lambda x: math.nextafter(x, 0.0)),
    st.floats(1e-3, 60.0),
)


@st.composite
def ladders(draw):
    rungs = draw(st.sets(st.floats(1.0, 1e5), min_size=1, max_size=8))
    return BitrateLadder(tuple(sorted(rungs)))


@st.composite
def cases(draw, downloads=ON_GRID, starts=st.just(0.0)):
    ladder = draw(ladders())
    k = len(ladder.bitrates_kbps)
    qualities = draw(st.lists(st.integers(0, k - 1), min_size=1,
                              max_size=60))
    if draw(st.booleans()):
        qualities += draw(st.permutations(range(k)))  # every quality index
    ladder = BitrateLadder(ladder.bitrates_kbps,
                           draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])))
    max_buffer_s = ladder.segment_duration_s * draw(st.integers(1, 30))
    taus = draw(st.lists(downloads, min_size=len(qualities),
                         max_size=len(qualities)))
    trace = played_trace(draw(starts), ladder, max_buffer_s, taus,
                         qualities)
    return trace, ladder


class TestSummarizeMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_built_traces(self, case):
        # whole-step times put levels and drain ends on CDF thresholds
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
        # the levels at the completions, the rest at 0
        ladder = BitrateLadder(rungs)
        qualities = list(range(len(rungs))) + [0]
        levels = (levels + [0.0] * len(qualities))[:len(qualities)]
        assert_same_summary(records_trace(levels, qualities=qualities),
                            ladder)

    @settings(max_examples=400, deadline=None)
    @given(cases(downloads=DOWNLOADS,
                 starts=st.one_of(st.just(0.0), st.floats(0.0, 1e3))))
    def test_off_grid_corners(self, case):
        # a property on random sessions with stalls, room waits and start
        # times above 0: times anywhere, and one ulp around the grid
        trace, ladder = case
        assert_same_summary(trace, ladder)

    @pytest.mark.parametrize("downloads", [
        [0.3, 0.7, 1.9],
        [0.1, 0.1, 0.1, 0.1, 5.3],
        [0.5, 0.5, 1.0, 2.5],
        [0.25, math.nextafter(1.75, 0.0)],
        [0.25, math.nextafter(1.75, math.inf)],
    ], ids=["off-grid", "gap-of-ticks", "corner-on-tick", "ulp-above-drain",
            "ulp-below-drain"])
    def test_ticks_between_corners(self, downloads):
        # the drain between two completions, which the levels at the
        # completions do not show: off the grid, across whole bins, from
        # a level on a threshold (4.0 s), and ending one ulp either side
        # of the 0.5 s threshold (the first 2.25 s level drained for 1.75 s)
        ladder = BitrateLadder((250.0, 500.0), 2.25)
        trace = played_trace(0.0, ladder, 30.0, downloads)
        assert any(b.t_complete_s - a.t_complete_s > BUFFER_CDF_STEP_S
                   for a, b in zip(trace.records, trace.records[1:]))
        assert_same_summary(trace, ladder)

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
        # round rates put levels exactly on CDF thresholds
        on_threshold = 0
        for kbps in (250.0, 500.0, 1000.0, 4000.0):
            profile = BandwidthProfile(((0.0, kbps), (40.0, kbps / 4),
                                        (90.0, kbps)), 1e6)
            cfg = SimConfig(total_segments=60)
            trace = run_session(profile, cfg)
            assert_same_summary(trace, cfg.ladder)
            on_threshold += sum(
                1 for r in trace.records
                if r.buffer_after_s % BUFFER_CDF_STEP_S == 0.0)
        assert on_threshold > 100, on_threshold

    def test_long_session(self):
        # 1,000 segments on a 24,000 s trace
        profile = synthesize_profile("test1", 31, 24000.0)
        cfg = SimConfig(total_segments=1000)
        assert_same_summary(run_session(profile, cfg), cfg.ladder)

    def test_shared_link_clients(self):
        # every client of a 10-client shared link, each starting after 0
        profile = synthesize_profile("test1", 3, 720.0)
        cfg = SimConfig(total_segments=120)
        starts = [1.5 * i + 0.25 for i in range(10)]
        for trace in run_shared(profile, [(cfg, s) for s in starts]):
            assert trace.buffer_series == ()
            assert_same_summary(trace, cfg.ladder)


LAST_S = MAX_ROWS * BUFFER_CDF_STEP_S
TIMES = "completion times and wall_time_s must be finite and in order, "
WALL = "wall_time_s must be finite and after the first request at 0.0, "


class TestSummarizeRefusals:
    """Records whose trajectory is not finite are refused, at the first
    bad value in the order of the stretches, with one message each. The
    wall time is the last completion plus the last level, so a bad value
    in the last record shows first as a bad wall time."""

    @pytest.mark.parametrize("case,message", [
        (dict(times=(0.5, math.nan, 2.5)), TIMES + "got nan after 0.5"),
        (dict(levels=(0.0, 1.0, LAST_S + 0.5)),
         "buffer levels must be finite and at most 524288 s, "
         "got 524288.5"),
        (dict(times=(0.5, math.inf, 2.5)), TIMES + "got 2.5 after inf"),
        (dict(levels=(0.0, math.nan, 2.0)),
         "buffer levels must be finite, got nan"),
        (dict(levels=(0.0, -math.inf, 2.0)),
         "buffer levels must be finite, got -inf"),
        (dict(levels=(math.nan, 1.0, 2.0)),
         "buffer levels must be finite, got nan"),
        (dict(levels=(math.nan, 1.0, 2.0, 3.0),
              times=(0.5, 1.5, math.nan, 3.5)),
         "buffer levels must be finite, got nan"),
        (dict(levels=(0.0, 1.0, math.nan, 3.0),
              times=(0.5, math.nan, 2.5, 3.5)),
         TIMES + "got nan after 0.5"),
        (dict(levels=(0.0, 1.0, math.nan)), WALL + "got nan"),
        (dict(levels=(0.0, 1.0, math.inf)), WALL + "got inf"),
        (dict(levels=(0.0,), times=(0.0,)), WALL + "got 0.0"),
        (dict(levels=(0.0, 1.0, -0.5), times=(0.5, 1.5, 5.0)),
         TIMES + "got 4.5 after 5.0"),
    ], ids=["nan-time", "time-past-cap", "inf-time", "nan-level",
            "-inf-level", "nan-top", "level-before-time",
            "time-before-level", "nan-wall", "inf-wall", "no-wall-time",
            "times-out-of-order"])
    def test_message(self, case, message):
        with pytest.raises(InvalidParameterError) as exc:
            summarize(records_trace(**case), BitrateLadder())
        assert str(exc.value) == message

    def test_last_tick_accepted(self):
        # a level at the cap itself gives MAX_ROWS + 1 rows
        assert LAST_S == 524288.0
        trace = records_trace(levels=(LAST_S,), times=(0.5,))
        cdf = summarize(trace, BitrateLadder()).buffer_cdf
        assert len(cdf) == MAX_ROWS + 1
        assert cdf[-1] == (LAST_S, 1.0)
