"""Single-client playback simulation tests."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import estimators, sim
from affsim import (
    AffState,
    BandwidthProfile,
    BitrateLadder,
    ClockHorizonError,
    Decision,
    EstimatorConfig,
    EwmaState,
    FairnessConfig,
    InvalidParameterError,
    ProfileExhaustedError,
    REASON_BUFFER_PANIC,
    REASON_STARTUP,
    SegmentRecord,
    SimConfig,
    SlidingMeanState,
    estimator_update,
    integrate_download,
    run_fairness,
    run_session,
    run_shared,
    summarize,
    synthesize_profile,
)
from affsim.profiles import SYNTH_KINDS


def constant(kbps, duration_s=1e6):
    return BandwidthProfile(((0.0, kbps),), duration_s)


def stall_total(trace):
    return sum(d for _, d in trace.stalls)


class TestIntegrateDownload:
    def test_constant_rate_is_division(self):
        p = constant(1000.0)
        assert integrate_download(p, 0.0, 2000.0) == pytest.approx(2.0)

    def test_crossing_a_breakpoint(self):
        p = BandwidthProfile(((0.0, 1000.0), (1.0, 500.0)), 100.0)
        # 1000 kbit in the first second, the rest at 500 kbit/s
        assert integrate_download(p, 0.0, 1500.0) == pytest.approx(2.0)

    def test_tiny_download_takes_positive_time(self):
        assert integrate_download(constant(5000.0), 3.0, 1.0) > 0.0

    def test_zero_bandwidth_piece_is_waited_out(self):
        p = BandwidthProfile(((0.0, 1000.0), (1.0, 0.0), (3.0, 1000.0)),
                             100.0)
        assert integrate_download(p, 0.0, 2000.0) == pytest.approx(4.0)

    def test_trace_running_out_raises(self):
        with pytest.raises(ProfileExhaustedError):
            integrate_download(constant(100.0, duration_s=10.0), 0.0, 5000.0)
        with pytest.raises(ProfileExhaustedError):
            integrate_download(constant(100.0, duration_s=10.0), 10.0, 1.0)

    def test_size_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            integrate_download(constant(100.0), 0.0, 0.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_size_must_be_finite_and_positive(self, size):
        with pytest.raises(InvalidParameterError, match="size_kbit"):
            integrate_download(constant(100.0), 0.0, size)

    @pytest.mark.parametrize("start", [math.nan, -1.0, -math.inf])
    def test_start_outside_trace(self, start):
        with pytest.raises(ProfileExhaustedError, match="outside the trace"):
            integrate_download(constant(100.0), start, 1.0)

    def test_sub_ulp_download_names_the_call(self):
        # 1e-5 s is below one ulp of a clock at 1e12 s
        profile = BandwidthProfile(((0.0, 1e6),), math.inf)
        with pytest.raises(InvalidParameterError,
                           match=r"size_kbit 10\.0 from start_s 1e\+?12 "
                                 r"downloads in less than one ulp"):
            integrate_download(profile, 1e12, 10.0)


class TestBreakpointReads:
    """A late first request reads O(log n) breakpoint starts, not O(n).

    An idle link must not step through every breakpoint from t=0 to the
    first request.
    """

    @pytest.fixture
    def counted(self):
        profile = synthesize_profile("test1", 1, 30000.0)
        reads = [0]

        class CountingStarts(tuple):
            def __getitem__(self, i):
                reads[0] += 1
                return tuple.__getitem__(self, i)

        object.__setattr__(profile, "starts", CountingStarts(profile.starts))
        return profile, reads

    def bound(self, profile):
        # one bisect, then a few reads per event of a short download
        return math.ceil(math.log2(len(profile.starts) + 1)) + 12

    def test_late_session_start(self, counted):
        profile, reads = counted
        assert len(profile.starts) == 10091
        trace = run_shared(profile, [(SimConfig(total_segments=1),
                                      profile.duration_s - 100.0)])[0]
        assert len(trace.records) == 1
        assert 0 < reads[0] <= self.bound(profile), reads[0]

    def test_late_integrate_download(self, counted):
        profile, reads = counted
        assert integrate_download(
            profile, profile.duration_s - 100.0, 4000.0) > 0.0
        assert 0 < reads[0] <= self.bound(profile), reads[0]


@pytest.fixture(scope="module")
def fast_trace():
    return run_session(constant(2500.0), SimConfig(total_segments=150))


@pytest.fixture(scope="module")
def slow_trace():
    return run_session(constant(200.0), SimConfig(total_segments=20))


@pytest.fixture(scope="module")
def varied_trace():
    profile = BandwidthProfile(
        ((0.0, 2200.0), (60.0, 900.0), (120.0, 3000.0), (200.0, 1500.0)),
        1e6)
    return run_session(profile, SimConfig(total_segments=120))


@pytest.fixture(scope="module")
def stalling_traces():
    # test3 swings widely; with no room (max_buffer_s of one segment)
    # nearly every download stalls, from its own request
    traces = []
    for seed in (15, 17, 22, 34):
        profile = synthesize_profile("test3", seed, 2000.0)
        traces.append(run_session(profile, SimConfig(max_buffer_s=11.0)))
        traces.append(run_session(profile, SimConfig(
            ladder=BitrateLadder(segment_duration_s=10.0),
            max_buffer_s=10.0, total_segments=60)))
    return traces


class TestFastConstantLink:
    """2500 kbps against the default (250, 500, 1000, 2000) ladder."""

    @pytest.fixture
    def trace(self, fast_trace):
        return fast_trace

    def test_startup_rung_then_top_rung(self, trace):
        qualities = [r.quality_index for r in trace.records]
        # the low-buffer rule keeps the first few segments on the bottom
        # rung until the buffer clears the panic threshold, then the
        # estimate (2500) holds the top rung for the rest of the session
        assert qualities[0] == 0
        first_top = qualities.index(3)
        assert all(q == 0 for q in qualities[:first_top])
        assert all(q == 3 for q in qualities[first_top:])

    def test_exactly_one_upward_switch(self, trace):
        qualities = [r.quality_index for r in trace.records]
        switches = sum(1 for a, b in zip(qualities, qualities[1:]) if a != b)
        assert switches == 1

    def test_no_stalls(self, trace):
        assert trace.stalls == ()

    def test_startup_delay_is_first_download(self, trace):
        # 250 kbps * 2 s = 500 kbit at 2500 kbps
        assert trace.startup_delay_s == pytest.approx(0.2)
        assert trace.records[0].t_complete_s == trace.startup_delay_s

    def test_wall_time_identity(self, trace):
        media = 150 * 2.0
        assert trace.wall_time_s == pytest.approx(
            trace.startup_delay_s + media + stall_total(trace), abs=1e-9)
        assert trace.wall_time_s == pytest.approx(300.2)

    def test_link_faster_than_ladder_accumulates_idle(self, trace):
        assert trace.idle_full_s > 0.0


class TestSlowConstantLink:
    """200 kbps sits below the lowest rung: bottom quality plus stalls."""

    @pytest.fixture
    def trace(self, slow_trace):
        return slow_trace

    def test_everything_at_lowest_rung(self, trace):
        assert {r.quality_index for r in trace.records} == {0}

    def test_periodic_stalls_from_per_segment_deficit(self, trace):
        # each 500 kbit segment takes 2.5 s to fetch but plays for 2 s
        assert len(trace.stalls) > 0
        for _, duration in trace.stalls:
            assert duration == pytest.approx(0.5)

    def test_wall_time_identity(self, trace):
        media = 20 * 2.0
        assert trace.wall_time_s == pytest.approx(
            trace.startup_delay_s + media + stall_total(trace), abs=1e-9)

    def test_mean_nominal_bitrate_is_bottom_rung(self, trace):
        sizes = [r.size_kbit for r in trace.records]
        assert all(s == 500.0 for s in sizes)


class TestStallOnsetTie:
    """On a 1000 kbps link each 2000 kbit segment of a one-rung ladder
    lands exactly as the 2 s of media before it runs out: the onset ties
    with the arrival, and the arrival wins, so no segment stalls."""

    LADDER = BitrateLadder((1000.0,))

    def test_a_tie_is_no_stall(self):
        trace = run_session(constant(1000.0), SimConfig(ladder=self.LADDER))
        assert len(trace.records) == 150
        assert trace.stalls == ()
        assert trace.startup_delay_s == 2.0
        assert trace.wall_time_s == 302.0

    def test_zero_panic_threshold_never_panics(self):
        # every request sees a 2 s buffer, under the default 8 s threshold
        # but not under 0 s
        for panic, panicked in ((8.0, 149), (0.0, 0)):
            cfg = SimConfig(ladder=self.LADDER, panic_buffer_s=panic)
            trace = run_session(constant(1000.0), cfg)
            assert sum(r.decision_reason == REASON_BUFFER_PANIC
                       for r in trace.records) == panicked
            assert trace.stalls == () and trace.wall_time_s == 302.0

    def test_engine_keeps_the_level_on_a_rounded_tie(self):
        # at 2^20 s one ulp of the clock is 2^-32 s: each download takes
        # exactly 2.0 s, and t_request + level rounds onto the completion,
        # so the onset ties with it and the engine keeps the 2^-40 s left
        # over; emptying the buffer on the tie would lose it
        seg = 2.0 + 2.0 ** -40
        cfg = SimConfig(ladder=BitrateLadder((1000.0,), seg),
                        panic_buffer_s=0.0, total_segments=3)
        link = constant(1000.0 * seg / 2.0, duration_s=math.inf)
        trace = run_shared(link, ((cfg, 2.0 ** 20),))[0]
        assert [r.t_complete_s - r.t_request_s for r in trace.records] \
            == [2.0] * 3
        assert [r.buffer_after_s for r in trace.records] \
            == [2.0 + k * 2.0 ** -40 for k in (1, 2, 3)]
        assert trace.stalls == ()


class TestDegenerateSession:
    def test_single_segment(self):
        trace = run_session(constant(1000.0), SimConfig(total_segments=1))
        assert len(trace.records) == 1
        assert trace.stalls == ()
        assert trace.wall_time_s == pytest.approx(
            trace.startup_delay_s + 2.0)
        assert trace.records[0].decision_reason == REASON_STARTUP

    def test_zero_time_download_raises(self):
        # once a deferral moves the clock to t=2, a segment on a 1e300 kbps
        # link takes less than one ulp of t, so its duration rounds to zero
        profile = BandwidthProfile(((0.0, 1e300),), math.inf)
        with pytest.raises(InvalidParameterError, match="zero time"):
            run_session(profile, SimConfig(total_segments=40))

    def test_long_wall_time_rejected(self, capped_python):
        # five 4e5 s segments play for about 2e6 s, just under the clock
        # horizon; the buffer replay once ran out of memory on sessions
        # like it, so this runs in a child. The session runs, and summarize
        # refuses its levels: above 2^19 s they need more than MAX_ROWS CDF
        # rows.
        code = (
            "import sys\n"
            "from affsim import BandwidthProfile, BitrateLadder, SimConfig\n"
            "from affsim import InvalidParameterError, run_session\n"
            "from affsim import summarize\n"
            "profile = BandwidthProfile(((0.0, 1e9),), float('inf'))\n"
            "ladder = BitrateLadder(segment_duration_s=4e5)\n"
            "cfg = SimConfig(ladder=ladder, max_buffer_s=1e7,\n"
            "                total_segments=5)\n"
            "trace = run_session(profile, cfg)\n"
            "try:\n"
            "    summarize(trace, ladder)\n"
            "except InvalidParameterError as exc:\n"
            "    sys.exit(0 if 'at most 524288 s' in str(exc) else 3)\n"
            "sys.exit(4)\n")
        proc = capped_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_buffer_sample_cap_boundary(self, monkeypatch):
        # the records cap: a session of MAX_ROWS segments builds and runs,
        # one more is refused when built
        monkeypatch.setattr(sim, "MAX_ROWS", 10)
        cfg = SimConfig(total_segments=10)
        assert len(run_session(constant(1000.0), cfg).records) == 10
        monkeypatch.setattr(sim, "MAX_ROWS", 9)
        with pytest.raises(InvalidParameterError,
                           match="total_segments 10 is over 9 records"):
            SimConfig(total_segments=10)

    def test_long_media_refused_before_the_engine(self, monkeypatch):
        # ten 2 s segments outlast a 5 s trace, so the error tells whether
        # the engine ran; the config is refused when built, so each is
        # built under its cap
        short = constant(1000.0, duration_s=5.0)
        monkeypatch.setattr(sim, "MAX_ROWS", 10)
        with pytest.raises(ProfileExhaustedError):
            run_session(short, SimConfig(total_segments=10))
        monkeypatch.setattr(sim, "MAX_ROWS", 9)
        with pytest.raises(InvalidParameterError,
                           match="total_segments 10 is over 9 records"):
            run_session(short, SimConfig(total_segments=10))


RECORD_FIELDS = dict(
    index=1, quality_index=2, size_kbit=1000.0, t_request_s=0.5,
    t_complete_s=1.25, estimate_kbps=750.0, buffer_after_s=4.0,
    decision_reason="throughput")
AFF_FIELDS = dict(
    weighted_sum=1800.0, weight=1.9, forgetting=0.9, sum_grad=1000.0,
    weight_grad=1.0, step_size=0.1, forgetting_min=0.6, forgetting_max=1.0)


class TestClockHorizon:
    """A client whose wall time reaches 2^21 s is refused when its last
    segment lands: there the clock cannot resolve the closing identity."""

    # a one-rung ladder of about 6e15 kbps on a 1,000 kbps link: five
    # segments take the clock to 6e13 s, where one ulp is 2^-7 s, and the
    # closing identity was once off by that much
    HUGE_RUNG = SimConfig(ladder=BitrateLadder((5962973038436053.0,)),
                          total_segments=5)

    def test_coarse_clock_refused(self):
        with pytest.raises(ClockHorizonError,
                           match=r"reaches 59629730384362\.52 s, where one "
                                 r"ulp is 0\.0078125 s.*2097152 s"):
            run_session(constant(1000.0, math.inf), self.HUGE_RUNG)

    def test_both_loops_refuse_alike(self):
        link = constant(1000.0, math.inf)
        errors = []
        for run in (lambda: sim._run_alone(link, self.HUGE_RUNG, 0.0),
                    lambda: sim._run_link(link, [(self.HUGE_RUNG, 0.0)])):
            with pytest.raises(ClockHorizonError) as err:
                run()
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_boundary_is_inclusive(self):
        # one 1 s download at 1,000 kbps, then 1 s of media: the wall time
        # is the start plus 2 s, exactly
        cfg = SimConfig(ladder=BitrateLadder((1000.0,), 1.0),
                        total_segments=1)
        link = constant(1000.0, math.inf)
        horizon = sim.CLOCK_HORIZON_S
        assert horizon == 2.0 ** 21
        (trace,) = run_shared(link, [(cfg, horizon - 3.0)])
        assert trace.wall_time_s == horizon - 1.0
        with pytest.raises(ClockHorizonError):
            run_shared(link, [(cfg, horizon - 2.0)])

    def test_one_late_client_fails_the_link(self):
        cfg = SimConfig(ladder=BitrateLadder((1000.0,), 1.0),
                        total_segments=2)
        link = constant(4000.0, math.inf)
        with pytest.raises(ClockHorizonError):
            run_shared(link, [(cfg, 0.0), (cfg, sim.CLOCK_HORIZON_S)])

    def test_integrate_download_keeps_the_message(self):
        # its re-wrap names a transfer below one ulp; the horizon is not one
        with pytest.raises(ClockHorizonError, match="clock horizon"):
            integrate_download(constant(1000.0, math.inf), 3e6, 1000.0)


class TestValueSemantics:
    """The per-segment values are immutable, hashable and print as before."""

    CASES = [
        (SegmentRecord, RECORD_FIELDS, "buffer_after_s"),
        (Decision, dict(quality_index=0, reason=REASON_STARTUP),
         "quality_index"),
        (AffState, AFF_FIELDS, "forgetting"),
        (EwmaState, dict(weight=0.2, estimate=750.0, n=2), "estimate"),
        (SlidingMeanState, dict(window=(600.0, 900.0), capacity=3),
         "window"),
    ]
    CASE_IDS = ["SegmentRecord", "Decision", "AffState", "EwmaState",
                "SlidingMeanState"]

    @pytest.mark.parametrize("cls,fields,name", CASES, ids=CASE_IDS)
    def test_fields_are_read_only(self, cls, fields, name):
        value = cls(**fields)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        assert getattr(value, name) == fields[name]

    @pytest.mark.parametrize("cls,fields,name", CASES, ids=CASE_IDS)
    def test_equal_values_hash_alike(self, cls, fields, name):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_record_repr(self):
        assert repr(SegmentRecord(**RECORD_FIELDS)) == (
            "SegmentRecord(index=1, quality_index=2, size_kbit=1000.0, "
            "t_request_s=0.5, t_complete_s=1.25, estimate_kbps=750.0, "
            "buffer_after_s=4.0, decision_reason='throughput')")

    def test_record_throughput_is_a_view(self):
        # the throughput follows from the size and the times; it is no
        # field, so it cannot be given, and it is outside _asdict
        record = SegmentRecord(**RECORD_FIELDS)
        assert record.instant_throughput_kbps == 1000.0 / (1.25 - 0.5)
        assert len(record) == 8
        assert "instant_throughput_kbps" not in record._fields
        assert record._asdict() == RECORD_FIELDS
        with pytest.raises(AttributeError):
            record.instant_throughput_kbps = 1.0
        with pytest.raises(TypeError):
            SegmentRecord(**RECORD_FIELDS, instant_throughput_kbps=800.0)
        with pytest.raises(TypeError):
            SegmentRecord(1, 2, 1000.0, 0.5, 1.25, 800.0, 750.0, 4.0,
                          "throughput")
        # a hand-built download of zero time has no throughput; the engine
        # refuses one before it builds the record
        tied = record._replace(t_complete_s=0.5)
        with pytest.raises(ZeroDivisionError):
            tied.instant_throughput_kbps

    @pytest.mark.parametrize("kind,text", [
        ("aff", "AffState(weighted_sum=0.0, weight=0.0, forgetting=1.0, "
                "sum_grad=0.0, weight_grad=0.0, step_size=0.1, "
                "forgetting_min=0.6, forgetting_max=1.0)"),
        ("ewma", "EwmaState(weight=0.2, estimate=0.0, n=0)"),
        ("sliding_mean", "SlidingMeanState(window=(), capacity=3)"),
    ])
    def test_initial_state_repr(self, kind, text):
        # the text the states printed as frozen dataclasses
        assert repr(EstimatorConfig(kind=kind).initial_state) == text

    @staticmethod
    def built(source):
        """Values that updates and the engine build with tuple.__new__."""
        kinds = estimators.estimator_kinds()
        if source in kinds:
            state = EstimatorConfig(kind=source).initial_state
            states = []
            for kbps in (800.0, 1200.0, 600.0, 900.0, 700.0):
                state, _ = kinds[source].update(state, kbps)
                states.append(state)
            return states
        if source == "run_session":
            profile = synthesize_profile("test1", 3, 200.0)
            return list(run_session(
                profile, SimConfig(total_segments=40)).records)
        traces = run_fairness(FairnessConfig(n_clients=3)).traces
        return [r for tr in traces for r in tr.records]

    @pytest.mark.parametrize("source,cls", [
        ("aff", AffState), ("ewma", EwmaState),
        ("sliding_mean", SlidingMeanState), ("run_session", SegmentRecord),
        ("run_fairness", SegmentRecord)])
    def test_built_values_match_constructed(self, source, cls):
        values = self.built(source)
        assert len(values) >= 5
        for v in values:
            assert type(v) is cls
            twin = cls(**v._asdict())
            assert v == twin
            assert hash(v) == hash(twin)
            assert repr(v) == repr(twin)

    def test_plain_tuple_is_not_a_state(self):
        state = AffState(**AFF_FIELDS)
        plain = tuple(state)
        assert plain == state
        with pytest.raises(InvalidParameterError):
            estimator_update(plain, 800.0)
        assert estimator_update(state, 800.0)[1] > 0.0


class TestRecordInvariants:
    @pytest.fixture
    def trace(self, varied_trace):
        return varied_trace

    def test_indices_are_sequential(self, trace):
        assert [r.index for r in trace.records] == list(range(1, 121))

    def test_throughput_consistency(self):
        # a lone client owns the link: on a constant one, every sample is
        # the capacity
        trace = run_session(constant(3000.0), SimConfig(total_segments=120))
        for r in trace.records:
            assert r.instant_throughput_kbps == pytest.approx(3000.0,
                                                              rel=1e-12)
        # a download that crosses one breakpoint gets the capacity on each
        # side of it, weighted by the time spent there
        bps = tuple((7.3 * i, (1200.0, 3100.0)[i % 2]) for i in range(60))
        trace = run_session(BandwidthProfile(bps, 1e6),
                            SimConfig(total_segments=120))
        crossed = 0
        for r in trace.records:
            for (_, before), (cut, after) in zip(bps, bps[1:]):
                if r.t_request_s < cut < r.t_complete_s:
                    kbit = before * (cut - r.t_request_s) \
                        + after * (r.t_complete_s - cut)
                    assert r.instant_throughput_kbps == pytest.approx(
                        kbit / (r.t_complete_s - r.t_request_s), rel=1e-9)
                    crossed += 1
        assert crossed == 25

    def test_sizes_match_ladder(self, trace):
        ladder = SimConfig().ladder
        for r in trace.records:
            assert r.size_kbit == ladder.bitrates_kbps[r.quality_index] * 2.0

    def test_one_size_object_per_rung(self):
        # a client computes each rung's size once, so records share it
        cfg = SimConfig(total_segments=1000)
        trace = run_session(synthesize_profile("test3", 2, 4120.0), cfg)
        assert len({r.quality_index for r in trace.records}) > 1
        assert len({id(r.size_kbit) for r in trace.records}) \
            <= len(cfg.ladder.bitrates_kbps)

    def test_requests_are_sequential(self, trace):
        for a, b in zip(trace.records, trace.records[1:]):
            assert b.t_request_s >= a.t_complete_s

    def test_buffer_bounds(self, trace):
        cfg = SimConfig()
        for r in trace.records:
            assert 0.0 <= r.buffer_after_s <= cfg.max_buffer_s + 1e-9

    def test_buffer_series_is_time_ordered(self, trace, stalling_traces):
        # no series is stored: the records fix the trajectory, whose
        # stretches end at each completion and at the wall time, in order
        for tr in [trace] + stalling_traces:
            assert tr.buffer_series == ()
            times = [r.t_complete_s for r in tr.records] + [tr.wall_time_s]
            assert times == sorted(times)

    def test_stalls_inside_wall_time_and_disjoint(self, trace,
                                                  stalling_traces):
        at_request = 0
        for tr in [trace] + stalling_traces:
            previous_end = -1.0
            for start, duration in tr.stalls:
                assert duration > 0.0
                assert start >= previous_end
                previous_end = start + duration
                assert previous_end <= tr.wall_time_s + 1e-9
                # each stall ends as the one download it lies in lands
                inside = [r for r in tr.records
                          if r.t_request_s <= start < r.t_complete_s]
                assert len(inside) == 1
                assert duration == inside[0].t_complete_s - start
                at_request += start == inside[0].t_request_s
        assert at_request > 0


def replayed(cfg, records):
    """The estimates cfg's estimator gives when fed the records'
    instant_throughput_kbps in order, from its initial state."""
    update = estimators.estimator_kinds()[cfg.estimator.kind].update
    state, estimates = cfg.estimator.initial_state, []
    for r in records:
        state, estimate = update(state, r.instant_throughput_kbps)
        estimates.append(estimate)
    return estimates


class TestEstimatorReplay:
    """A record's throughput, derived from its size and times, is the very
    sample the estimator took: a replay over the records gives every
    estimate bit for bit, for every kind, alone or on a shared link."""

    @pytest.mark.parametrize("kind", estimators.estimator_kinds())
    @pytest.mark.parametrize("link", SYNTH_KINDS)
    def test_session(self, link, kind):
        cfg = SimConfig(estimator=EstimatorConfig(kind=kind))
        trace = run_session(synthesize_profile(link, 5, 800.0), cfg)
        assert replayed(cfg, trace.records) == \
            [r.estimate_kbps for r in trace.records]

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_link(self, seed):
        rng = random.Random(seed)
        kinds = list(estimators.estimator_kinds())
        clients = [(SimConfig(estimator=EstimatorConfig(kind=kind),
                              total_segments=rng.randint(60, 150)),
                    rng.uniform(0.0, 20.0))
                   for kind in kinds + [rng.choice(kinds) for _ in range(3)]]
        link = synthesize_profile(SYNTH_KINDS[seed], seed, 3000.0)
        for (cfg, _), trace in zip(clients, run_shared(link, clients)):
            assert replayed(cfg, trace.records) == \
                [r.estimate_kbps for r in trace.records]


class TestPanicRule:
    def test_deep_fade_triggers_panic_segments(self):
        # comfortable link, then a hard fade long enough to drain the buffer
        profile = BandwidthProfile(((0.0, 2500.0), (30.0, 120.0)), 1e6)
        trace = run_session(profile, SimConfig(total_segments=40))
        reasons = {r.decision_reason for r in trace.records}
        assert REASON_BUFFER_PANIC in reasons
        panicked = [r for r in trace.records
                    if r.decision_reason == REASON_BUFFER_PANIC]
        assert all(r.quality_index == 0 for r in panicked)


class TestEstimatorPlugIn:
    def test_constant_link_converges_identically(self):
        # on a constant link every estimator reports the same number after
        # its warm-up, so the chosen qualities agree
        traces = {}
        for kind in ("aff", "ewma", "sliding_mean"):
            cfg = SimConfig(total_segments=60,
                            estimator=EstimatorConfig(kind=kind))
            traces[kind] = run_session(constant(1500.0), cfg)
        seqs = {k: tuple(r.quality_index for r in t.records[5:])
                for k, t in traces.items()}
        assert seqs["aff"] == seqs["ewma"] == seqs["sliding_mean"]

    def test_estimates_equal_link_rate_on_constant_link(self):
        trace = run_session(constant(1500.0), SimConfig(total_segments=30))
        for r in trace.records:
            assert r.estimate_kbps == pytest.approx(1500.0, rel=1e-9)


UPDATES = {"aff": "aff_update", "ewma": "ewma_update",
           "sliding_mean": "sliding_mean_update"}


class TestUpdateReadWhenClientsAreBuilt:
    """Each client binds its kind's update as the module names it when the
    client is built, not at import or when the config is built, so a
    counting wrapper swapped in later sees every segment. A tracer that
    patches module attributes relies on this."""

    @staticmethod
    def count_updates(monkeypatch):
        calls = dict.fromkeys(UPDATES.values(), 0)
        for name in UPDATES.values():
            def counting(state, value, name=name,
                         real=getattr(estimators, name)):
                calls[name] += 1
                return real(state, value)
            monkeypatch.setattr(estimators, name, counting)
        return calls

    @pytest.mark.parametrize("kind", sorted(UPDATES))
    def test_session_counts_one_call_per_segment(self, monkeypatch, kind):
        cfg = SimConfig(estimator=EstimatorConfig(kind=kind),
                        total_segments=120)
        profile = synthesize_profile("test2", 3, 600.0)
        calls = self.count_updates(monkeypatch)
        assert len(run_session(profile, cfg).records) == 120
        assert calls == dict.fromkeys(UPDATES.values(), 0) | {
            UPDATES[kind]: 120}

    @pytest.mark.parametrize("kind", sorted(UPDATES))
    def test_fairness_counts_one_call_per_client_segment(self, monkeypatch,
                                                         kind):
        cfg = FairnessConfig(
            n_clients=4, window=(0.0, 30.0),
            sim=SimConfig(estimator=EstimatorConfig(kind=kind),
                          total_segments=30))
        calls = self.count_updates(monkeypatch)
        run_fairness(cfg)
        assert calls == dict.fromkeys(UPDATES.values(), 0) | {
            UPDATES[kind]: 4 * 30}


def scaled(profile, cfg, factor):
    """The profile's bandwidths and the ladder's rungs times factor."""
    bps = tuple((t, kbps * factor) for t, kbps in profile.breakpoints)
    ladder = BitrateLadder(
        tuple(b * factor for b in cfg.ladder.bitrates_kbps),
        cfg.ladder.segment_duration_s)
    return (BandwidthProfile(bps, profile.duration_s),
            dataclasses.replace(cfg, ladder=ladder))


class TestScaleEquivariance:
    @given(st.sampled_from(["test1", "test2", "test3", "test4"]),
           st.integers(min_value=0, max_value=9),
           st.sampled_from(["ewma", "sliding_mean"]),
           st.sampled_from([10.0, 30.0, 60.0]),
           st.integers(min_value=-8, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_keeps_the_session(
            self, kind, seed, estimator, max_buffer_s, log2_scale):
        # sizes and rates scale together, so every transfer time, and with
        # it every decision, stall and buffer level, stays bit-identical
        s = 2.0 ** log2_scale
        profile = synthesize_profile(kind, seed, 720.0)
        cfg = SimConfig(estimator=EstimatorConfig(kind=estimator),
                        max_buffer_s=max_buffer_s)
        a = run_session(profile, cfg)
        b = run_session(*scaled(profile, cfg, s))
        assert [(r.index, r.quality_index, r.decision_reason, r.t_request_s,
                 r.t_complete_s, r.buffer_after_s) for r in b.records] == \
            [(r.index, r.quality_index, r.decision_reason, r.t_request_s,
              r.t_complete_s, r.buffer_after_s) for r in a.records]
        assert [(r.size_kbit, r.instant_throughput_kbps, r.estimate_kbps)
                for r in b.records] == \
            [(r.size_kbit * s, r.instant_throughput_kbps * s,
              r.estimate_kbps * s) for r in a.records]
        assert repr(b.stalls) == repr(a.stalls)
        assert summarize(b, cfg.ladder).buffer_cdf == \
            summarize(a, cfg.ladder).buffer_cdf
        assert (b.startup_delay_s, b.wall_time_s, b.idle_full_s) == \
            (a.startup_delay_s, a.wall_time_s, a.idle_full_s)


class TestClientContract:
    """A client yields every request, the first included, as (request time,
    size), is sent each completion time, and returns its SessionTrace."""

    def test_requests_then_returned_trace(self):
        cfg = SimConfig(max_buffer_s=10.0, total_segments=20)
        client = sim._client(3.0, cfg)
        requests, completions = [next(client)], []
        while True:
            due, size = requests[-1]
            completions.append(due + size / 4000.0)  # a link of its own
            try:
                requests.append(client.send(completions[-1]))
            except StopIteration as done:
                trace = done.value
                break
        assert requests[0][0] == 3.0
        assert [(r.t_request_s, r.size_kbit) for r in trace.records] == \
            requests
        assert [r.t_complete_s for r in trace.records] == completions
        assert trace.idle_full_s > 0.0  # room waits moved request times
        assert trace.config is cfg
        assert trace == run_shared(constant(4000.0), [(cfg, 3.0)])[0]

    def test_trace_holds_only_what_the_run_produced(self):
        assert [f.name for f in dataclasses.fields(sim.SessionTrace)] == [
            "records", "config"]
        cfg = SimConfig(total_segments=3)
        trace = run_session(constant(4000.0), cfg)
        # read-only and always (): the records fix the buffer trajectory
        assert trace.buffer_series == ()
        for name in ("buffer_series", "stalls", "startup_delay_s",
                     "wall_time_s", "idle_full_s"):
            with pytest.raises(AttributeError):
                setattr(trace, name, ())
        with pytest.raises(TypeError):
            sim.SessionTrace((), cfg, ())

    def test_one_walk_per_trace(self, monkeypatch):
        # stalls and idle_full_s share one cached walk over the records
        walks = []

        def counted(records):
            walks.append(records)
            return itertools.pairwise(records)
        monkeypatch.setattr(sim, "pairwise", counted)
        trace = run_session(synthesize_profile("test3", 15, 2000.0),
                            SimConfig(max_buffer_s=11.0))
        assert walks == []  # the engine derives nothing
        for _ in range(3):
            assert trace.stalls and trace.idle_full_s >= 0.0
            summarize(trace, trace.config.ladder)
        assert walks == [trace.records]


class TestDeterminism:
    def test_identical_inputs_identical_traces(self):
        profile = BandwidthProfile(
            ((0.0, 1800.0), (40.0, 700.0), (90.0, 2600.0)), 1e6)
        cfg = SimConfig(total_segments=80)
        assert run_session(profile, cfg) == run_session(profile, cfg)


class TestExhaustion:
    def test_trace_too_short_raises(self):
        with pytest.raises(ProfileExhaustedError):
            run_session(constant(1000.0, duration_s=20.0),
                        SimConfig(total_segments=50))


class TestConfigValidation:
    def test_rejects_nonsense_configs(self):
        with pytest.raises(InvalidParameterError):
            run_session(constant(1000.0), SimConfig(total_segments=0))
        with pytest.raises(InvalidParameterError):
            run_session(constant(1000.0), SimConfig(max_buffer_s=5.0))
        with pytest.raises(InvalidParameterError):
            run_session(constant(1000.0),
                        SimConfig(max_buffer_s=1.0, panic_buffer_s=0.5))
        with pytest.raises(InvalidParameterError, match="max_buffer_s nan"):
            run_session(constant(1000.0),
                        SimConfig(max_buffer_s=float("nan")))


class TestAccounting:
    def test_identity_on_random_profiles(self):
        rng = random.Random(42)
        cases = []
        for _ in range(30):
            n_pieces = rng.randint(1, 8)
            starts = sorted(rng.uniform(1.0, 400.0)
                            for _ in range(n_pieces - 1))
            bps = [(0.0, rng.uniform(150.0, 4000.0))]
            bps += [(t, rng.uniform(150.0, 4000.0)) for t in starts]
            cases.append((BandwidthProfile(tuple(bps), 1e7),
                          SimConfig(total_segments=rng.randint(1, 90))))
        # stall-heavy sessions that once broke the identity by 1 s
        for seed in (15, 17, 22, 34):
            cases.append((synthesize_profile("test3", seed, 2000.0),
                          SimConfig(max_buffer_s=11.0)))
        for profile, cfg in cases:
            trace = run_session(profile, cfg)
            media = cfg.total_segments * 2.0
            assert trace.wall_time_s == pytest.approx(
                trace.startup_delay_s + media + stall_total(trace),
                abs=1e-9)
            # downloads cannot move more data than the link delivered
            delivered = 0.0
            for i, (start, kbps) in enumerate(profile.breakpoints):
                end = profile.breakpoints[i + 1][0] \
                    if i + 1 < len(profile.breakpoints) else 1e7
                end = min(end, trace.records[-1].t_complete_s)
                if end > start:
                    delivered += (end - start) * kbps
            assert sum(r.size_kbit for r in trace.records) \
                <= delivered + 1e-6
