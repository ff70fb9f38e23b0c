"""Differential test: run_session against the former hand-written loop.

`run_session` is the one-client case of the shared-link event engine. The
single-client loop it replaced is frozen below as the reference, with the
piece walk that timed its downloads (the library's `integrate_download`
now runs the engine, so it cannot be the reference). Both must agree on
every decision exactly and on every time to 1e-9 s. The frozen loop also
sampled the buffer level every 0.5 s and at each event; a trace now
stores no series, since its records fix the level at every time, and
each of those samples must lie on that trajectory to 1e-9 s. A trace
derives its stalls, startup delay, wall time and idle time from its
records and config; the frozen loop kept its own, and each of those must
agree with the derived one to 1e-9 s too.
"""

import dataclasses
import random
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import pytest

from affsim import (
    BandwidthProfile,
    EstimatorConfig,
    InvalidParameterError,
    ProfileExhaustedError,
    SegmentRecord,
    SimConfig,
    decide,
    estimator_update,
    run_session,
    summarize,
    synthesize_profile,
)
from test_acceptance import _random_config, _random_profile

TOL = 1e-9
BUFFER_TICK_S = 0.5  # the frozen loop's sampling step


class ReferenceTrace(NamedTuple):
    """A frozen reference's records beside its own stall, startup, wall
    and idle accounting, under the names of SessionTrace's views."""

    records: tuple
    stalls: tuple
    startup_delay_s: float
    wall_time_s: float
    idle_full_s: float


def _durations(cfg):
    # the references' segment duration and rebuffer target, one segment
    return cfg.ladder.segment_duration_s, cfg.ladder.segment_duration_s


def integrate_download(profile, start_s, size_kbit):
    """Seconds needed to move size_kbit starting at start_s.

    Walks the profile's constant pieces and accumulates capacity until the
    requested size is covered. Raises ProfileExhaustedError when the trace
    ends first.
    """
    if size_kbit <= 0:
        raise InvalidParameterError(
            "size_kbit must be positive, got %r" % (size_kbit,))
    if start_s < 0 or start_s >= profile.duration_s:
        raise ProfileExhaustedError(
            "download starts at %g, outside the trace" % (start_s,))
    bps = profile.breakpoints
    idx = bisect_right(profile.starts, start_s) - 1
    t = start_s
    remaining = size_kbit
    while True:
        piece_end = bps[idx + 1][0] if idx + 1 < len(bps) else \
            profile.duration_s
        bw = bps[idx][1]
        if bw > 0:
            need = remaining / bw
            if t + need <= piece_end:
                return t + need - start_s
            remaining -= bw * (piece_end - t)
        t = piece_end
        idx += 1
        if t >= profile.duration_s:
            raise ProfileExhaustedError(
                "trace ends at %g with %g kbit still to download"
                % (profile.duration_s, remaining))


def reference_run_session(profile, cfg):
    """The single-client loop as it stood before the engine merge; returns
    its trace and, beside it, the buffer series it sampled."""
    seg_dur, target = _durations(cfg)
    est_state = cfg.estimator.initial_state
    estimate = None

    t = 0.0
    buffer = 0.0
    playing = False
    stalled = False
    stall_start = 0.0
    startup_delay = 0.0
    idle_full = 0.0
    stalls = []
    records = []
    series = [(0.0, 0.0)]
    next_tick = BUFFER_TICK_S

    def advance(to_t, draining):
        # move the clock, emitting 0.5 s buffer samples along the way
        nonlocal t, buffer, next_tick
        if to_t <= t:
            return
        while next_tick <= to_t:
            level = buffer - (next_tick - t) if draining else buffer
            series.append((next_tick, max(0.0, level)))
            next_tick += BUFFER_TICK_S
        if draining:
            buffer = max(0.0, buffer - (to_t - t))
        t = to_t

    for index in range(1, cfg.total_segments + 1):
        if buffer > cfg.max_buffer_s - seg_dur:
            # no room for the next segment: let playback drain some out
            wait = buffer - (cfg.max_buffer_s - seg_dur)
            idle_full += wait
            advance(t + wait, draining=True)
            buffer = cfg.max_buffer_s - seg_dur
        decision = decide(cfg, estimate, buffer)
        size = cfg.ladder.bitrates_kbps[decision.quality_index] * seg_dur
        t_request = t
        series.append((t, buffer))
        tau = integrate_download(profile, t_request, size)
        t_complete = t_request + tau
        if playing and not stalled:
            if buffer < tau:
                advance(t_request + buffer, draining=True)
                buffer = 0.0
                stalled = True
                stall_start = t
                series.append((t, 0.0))
                advance(t_complete, draining=False)
            else:
                advance(t_complete, draining=True)
        else:
            advance(t_complete, draining=False)
        inst = size / tau
        est_state, est = estimator_update(est_state, inst)
        estimate = est
        buffer += seg_dur
        if index == 1:
            playing = True
            startup_delay = t_complete
        if stalled and (buffer >= target or index == cfg.total_segments):
            stalls.append((stall_start, t_complete - stall_start))
            stalled = False
        records.append(SegmentRecord(
            index=index, quality_index=decision.quality_index,
            size_kbit=size, t_request_s=t_request, t_complete_s=t_complete,
            estimate_kbps=est, buffer_after_s=buffer,
            decision_reason=decision.reason))
        series.append((t, buffer))

    advance(t + buffer, draining=True)
    buffer = 0.0
    series.append((t, 0.0))
    return ReferenceTrace(
        records=tuple(records), stalls=tuple(stalls),
        startup_delay_s=startup_delay, wall_time_s=t,
        idle_full_s=idle_full), tuple(series)


def record_levels(trace, completions, t):
    """The levels the records fix at t, on either side of any completion
    within TOL of t; `completions` holds the records' completion times.

    0 from the first request until the first completion, then a drain
    at slope 1 from each completion's buffer_after_s, floored at 0, until
    the next completion or wall_time_s.
    """
    out = []
    for i in range(bisect_left(completions, t - TOL),
                   bisect_right(completions, t + TOL) + 1):
        if i == 0:
            out.append(0.0)
        else:
            r = trace.records[i - 1]
            out.append(max(0.0, r.buffer_after_s - (t - r.t_complete_s)))
    return out


def assert_series_on_records(trace, series):
    # each sample of the frozen loop, on the new trace's trajectory
    assert series[-1][0] == pytest.approx(trace.wall_time_s, abs=TOL)
    completions = [r.t_complete_s for r in trace.records]
    for t, level in series:
        assert 0.0 <= t <= trace.wall_time_s + TOL
        levels = record_levels(trace, completions, t)
        assert min(abs(level - x) for x in levels) <= TOL, (t, level, levels)


def assert_same_session(new, old, old_series, ladder):
    assert [(r.index, r.quality_index, r.decision_reason, r.size_kbit)
            for r in new.records] == \
        [(r.index, r.quality_index, r.decision_reason, r.size_kbit)
         for r in old.records]
    for a, b in zip(new.records, old.records):
        for name in ("t_request_s", "t_complete_s", "buffer_after_s"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     abs=TOL), name
        for name in ("instant_throughput_kbps", "estimate_kbps"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=TOL), name
    assert len(new.stalls) == len(old.stalls)
    for a, b in zip(new.stalls, old.stalls):
        assert a == pytest.approx(b, abs=TOL)
    for name in ("startup_delay_s", "wall_time_s", "idle_full_s"):
        assert getattr(new, name) == pytest.approx(getattr(old, name),
                                                   abs=TOL), name
    assert new.buffer_series == ()
    assert_series_on_records(new, old_series)

    new_rep, old_rep = summarize(new, ladder), summarize(old, ladder)
    assert new_rep.stall_durations_s == pytest.approx(
        old_rep.stall_durations_s, abs=TOL)
    assert [th for th, _ in new_rep.buffer_cdf] == \
        [th for th, _ in old_rep.buffer_cdf]
    assert [fr for _, fr in new_rep.buffer_cdf] == pytest.approx(
        [fr for _, fr in old_rep.buffer_cdf], abs=TOL)
    # the float times agree within TOL, checked above on the trace
    blank = dict(stall_time_s=0.0, startup_delay_s=0.0, wall_time_s=0.0,
                 idle_full_s=0.0, stall_durations_s=(), buffer_cdf=())
    assert dataclasses.replace(new_rep, **blank) == \
        dataclasses.replace(old_rep, **blank)


def test_matches_reference_on_acceptance_generator():
    rng = random.Random(2024)
    for _ in range(250):
        profile = _random_profile(rng)
        cfg = _random_config(rng)
        assert_same_session(run_session(profile, cfg),
                            *reference_run_session(profile, cfg), cfg.ladder)


@pytest.mark.parametrize("kind", ["test1", "test2", "test3", "test4"])
def test_matches_reference_on_synthetic_traces(kind):
    for seed in range(10):
        # the span the CLI gives a 150-segment synthetic run
        profile = synthesize_profile(kind, seed, 720.0)
        for estimator in ("aff", "ewma", "sliding_mean"):
            cfg = SimConfig(estimator=EstimatorConfig(kind=estimator))
            assert_same_session(run_session(profile, cfg),
                                *reference_run_session(profile, cfg),
                                cfg.ladder)


def test_buffer_replay_matches_reference_exactly():
    # the level the records fix, replayed at every sample of the frozen
    # loop, on sessions that wait for room and stall often
    rng = random.Random(2024)
    cases = [(_random_profile(rng), _random_config(rng)) for _ in range(250)]
    for kind in ("test1", "test2", "test3", "test4"):
        for seed in range(10):
            profile = synthesize_profile(kind, seed, 720.0)
            for estimator in ("aff", "ewma", "sliding_mean"):
                # 10 s buffers wait for room often; 60 s ones rarely
                for max_buffer_s in (10.0, 30.0, 60.0):
                    cases.append((profile, SimConfig(
                        estimator=EstimatorConfig(kind=estimator),
                        max_buffer_s=max_buffer_s)))
    stalls = waits = 0
    for profile, cfg in cases:
        trace = run_session(profile, cfg)
        assert_series_on_records(
            trace, reference_run_session(profile, cfg)[1])
        stalls += len(trace.stalls)
        waits += trace.idle_full_s > 0.0
    # the cases exercise stalls and room waits
    assert stalls > 100 and waits > 100, (stalls, waits)


def test_buffer_replay_grid_corners_match_reference():
    # round rates land completions on the tick grid, where the frozen
    # loop sampled the level both before and after the segment landed
    on_grid = 0
    for kbps in (250.0, 500.0, 1000.0, 4000.0):
        profile = BandwidthProfile(((0.0, kbps), (40.0, kbps / 4),
                                    (90.0, kbps)), 1e6)
        cfg = SimConfig(total_segments=60)
        trace = run_session(profile, cfg)
        series = reference_run_session(profile, cfg)[1]
        assert_series_on_records(trace, series)
        completions = {r.t_complete_s for r in trace.records}
        on_grid += sum(1 for t, _ in series
                       if t in completions and t % BUFFER_TICK_S == 0.0)
    assert on_grid > 100, on_grid
