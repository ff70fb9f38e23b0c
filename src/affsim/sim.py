"""Playback simulation over a bandwidth trace, for one client or many.

Deterministic fluid model. Each client requests segments one at a time,
back to back, but waits while the buffer lacks one segment of room.
Playback holds until the first segment lands, then drains the buffer one
media second per wall second; draining to empty mid-download stalls
playback until that segment lands, so each stall lies inside one
download. Clients on one trace split its capacity equally among those
with a download in flight. The engine steps from event to event
(request, completion, and a capacity breakpoint while a download is in
flight) with every rate constant in between, so progress is exact; an
idle link jumps to the next request. A stall onset is not an event: the
rate split depends only on which downloads are in flight, so a client
settles its own buffer drain, and any stall, when its segment lands. A
single session is the one-client case, and `integrate_download` is one
download of it.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from math import inf
from typing import NamedTuple

from .abr import AbrConfig, BitrateLadder, decide
from .errors import InvalidParameterError, ProfileExhaustedError, check_int
from .estimators import EstimatorConfig, estimator_kinds

BUFFER_TICK_S = 0.5
# most expanded buffer ticks (and buffer CDF thresholds) one session may
# need; a longer session is refused instead of filling memory
MAX_BUFFER_SAMPLES = 1 << 20


def _check_samples(wall_s):
    if wall_s / BUFFER_TICK_S > MAX_BUFFER_SAMPLES:
        raise InvalidParameterError(
            "a %g s session needs more than %d buffer samples"
            % (wall_s, MAX_BUFFER_SAMPLES))


@dataclass(frozen=True)
class SimConfig:
    ladder: BitrateLadder = BitrateLadder()
    abr: AbrConfig = AbrConfig()
    estimator: EstimatorConfig = EstimatorConfig()
    max_buffer_s: float = 30.0
    total_segments: int = 150

    def __post_init__(self):
        check_int("total_segments", self.total_segments, 1)
        seg_dur = self.ladder.segment_duration_s
        if not (self.max_buffer_s > self.abr.panic_buffer_s):
            raise InvalidParameterError(
                "max_buffer_s %g must exceed panic_buffer_s %g"
                % (self.max_buffer_s, self.abr.panic_buffer_s))
        if self.max_buffer_s < seg_dur:
            raise InvalidParameterError(
                "max_buffer_s %g cannot hold one %g s segment"
                % (self.max_buffer_s, seg_dur))
        # the wall time is at least the media duration
        _check_samples(self.total_segments * seg_dur)
        decide(self.ladder, self.abr, None, 0.0)  # the start rung


# one per segment: a NamedTuple builds faster than a frozen dataclass
class SegmentRecord(NamedTuple):
    index: int
    quality_index: int
    size_kbit: float
    t_request_s: float
    t_complete_s: float
    instant_throughput_kbps: float
    estimate_kbps: float
    buffer_after_s: float
    decision_reason: str


@dataclass(frozen=True)
class SessionTrace:
    records: tuple
    stalls: tuple  # ((start_s, duration_s), ...), each inside one download
    startup_delay_s: float
    wall_time_s: float
    idle_full_s: float  # request time lost waiting for buffer room
    # ((t_s, level_s), ...): the corners of the buffer trajectory;
    # buffer_samples expands them into the BUFFER_TICK_S series
    buffer_series: tuple


def integrate_download(profile, start_s, size_kbit):
    """Seconds needed to move size_kbit starting at start_s.

    One download by the shared-link engine: a lone client fetches one 1 s
    segment from a one-rung ladder of size_kbit. Raises
    ProfileExhaustedError when the trace ends first.
    """
    if not 0 < size_kbit < inf:
        raise InvalidParameterError(
            "size_kbit must be positive and finite, got %r" % (size_kbit,))
    if not 0 <= start_s < profile.duration_s:
        raise ProfileExhaustedError(
            "download starts at %g, outside the trace" % (start_s,))
    cfg = SimConfig(ladder=BitrateLadder((size_kbit,), 1.0), total_segments=1)
    try:
        trace = _run_shared(profile, cfg, [start_s])[0]
    except InvalidParameterError:
        # the engine's only refusal here: a transfer below one ulp
        raise InvalidParameterError(
            "size_kbit %r from start_s %g downloads in less than one ulp "
            "of the clock" % (size_kbit, start_s)) from None
    return trace.records[0].t_complete_s - start_s


class _Client:
    """Mutable per-client engine state; results come out as SessionTrace.

    `buffer` is the level at the current request while a segment is in
    flight, and the level the next request will see otherwise. The drain
    in between, and any stall it ends in, concerns no other client, so it
    is settled when the segment lands.
    """

    def __init__(self, start_time, cfg):
        self.start_time = start_time
        self.cfg = cfg
        self.seg_dur = cfg.ladder.segment_duration_s
        self.room = cfg.max_buffer_s - self.seg_dur  # most buffer at a request
        self.update = estimator_kinds()[cfg.estimator.kind].update
        self.est_state = cfg.estimator.initial_state
        self.estimate = None
        self.buffer = 0.0
        self.next_index = 1
        self.decision = None
        self.size = 0.0
        self.t_request = 0.0
        self.startup_delay = 0.0
        self.idle_full = 0.0
        self.wall_time = 0.0
        self.records = []
        self.stalls = []

    def issue(self, t):
        self.decision = decide(self.cfg.ladder, self.cfg.abr, self.estimate,
                               self.buffer)
        rung = self.cfg.ladder.bitrates_kbps[self.decision.quality_index]
        self.size = rung * self.seg_dur
        self.t_request = t

    def complete(self, t):
        """Land the segment in flight at t.

        Returns the time of the next request, or None after the last
        segment.
        """
        tau = t - self.t_request
        if tau <= 0.0:
            # the transfer time fell below one ulp of the clock
            raise InvalidParameterError(
                "segment %d downloaded in zero time at t=%r; the link is "
                "too fast for the clock's resolution" % (self.next_index, t))
        inst = self.size / tau
        self.est_state, self.estimate = self.update(self.est_state, inst)
        if self.next_index > 1:
            # an onset that ties with the arrival goes to the arrival
            empty_at = self.t_request + self.buffer
            if empty_at < t:
                self.stalls.append((empty_at, t - empty_at))
                self.buffer = 0.0
            else:
                self.buffer = max(0.0, self.buffer - tau)
        self.buffer += self.seg_dur
        last = self.next_index == self.cfg.total_segments
        if self.next_index == 1:
            self.startup_delay = t - self.start_time
        # positional: keywords nearly double the cost of building a record
        self.records.append(SegmentRecord(
            self.next_index, self.decision.quality_index, self.size,
            self.t_request, t, inst, self.estimate, self.buffer,
            self.decision.reason))
        self.next_index += 1
        if last:
            self.wall_time = t + self.buffer  # remaining media plays out
            return None
        if self.buffer > self.room:
            wait = self.buffer - self.room
            self.idle_full += wait
            self.buffer = self.room  # the level once the wait is over
            return t + wait
        return t

    def trace(self):
        return SessionTrace(
            records=tuple(self.records), stalls=tuple(self.stalls),
            startup_delay_s=self.startup_delay, wall_time_s=self.wall_time,
            idle_full_s=self.idle_full, buffer_series=())


def _run_shared(profile, sim_cfg, start_times):
    """Run one shared-link session per start time; returns SessionTraces.

    Every download in flight gets the same share of the capacity, so one
    clock, `served`, counts the kbit each of them has received since t=0,
    and a download is done when `served` reaches its value at the request
    plus the segment size. Completions wait in a heap keyed on that target
    and each client's next request (its start, the end of a room wait, or
    right after a completion) in a heap keyed on wall time, so each event
    costs O(log N) for N clients. Only the clients popped at a step change.
    """
    clients = [_Client(st, sim_cfg) for st in start_times]
    bps, starts, end = profile.breakpoints, profile.starts, profile.duration_s
    requests = [(st, cid) for cid, st in enumerate(start_times)]
    heapify(requests)
    finishing = []  # (served target, client id) per download in flight
    served = 0.0
    t = 0.0
    # the first breakpoint after the earliest request, so a late start
    # skips the walk from t=0; the loop below fixes a start below 0
    bp_idx = bisect_right(starts, min(start_times, default=0.0))
    while requests or finishing:
        while bp_idx < len(starts) and starts[bp_idx] <= t:
            bp_idx += 1
        # an idle link moves nothing, so only a download in flight stops
        # at a breakpoint, or at the end so it cannot outrun the trace
        rate, t_done, t_bp = 0.0, inf, inf
        if finishing:
            if t >= end:
                raise ProfileExhaustedError(
                    "trace ends at %g with downloads in flight" % (end,))
            rate = bps[bp_idx - 1][1] / len(finishing)
            if rate > 0:
                t_done = t + (finishing[0][0] - served) / rate
            t_bp = starts[bp_idx] if bp_idx < len(starts) else end
        t_wake = max(requests[0][0], t) if requests else inf
        t_next = min(t_done, t_bp, t_wake)
        if t_next == inf:
            raise ProfileExhaustedError(
                "no capacity left for the remaining downloads")
        # on a tie the completion wins; landing exactly on its target
        # keeps rounding from delaying it
        if t_next == t_done:
            served = finishing[0][0]
        else:
            served += rate * (t_next - t)
        t = t_next
        while finishing and finishing[0][0] <= served:
            cid = heappop(finishing)[1]
            due = clients[cid].complete(t)
            if due is not None:
                heappush(requests, (due, cid))
        while requests and requests[0][0] <= t:
            cid = heappop(requests)[1]
            clients[cid].issue(t)
            heappush(finishing, (served + clients[cid].size, cid))
    return [c.trace() for c in clients]


def _buffer_series(trace, room):
    """Replay a one-client trace into the corners of its buffer series.

    Corners: the origin, each request, stall onset, completion and the
    final drain. The buffer drains between corners, from zero through a
    stall; a deferred request starts at `room`. `buffer_samples` adds
    the BUFFER_TICK_S ticks, drained from the corner before each, so the
    only tick kept here is one on the time of the corner it precedes.
    """
    series = [(0.0, 0.0)]
    emit = series.append
    t = level = 0.0

    def advance(to_t):
        # drain the buffer up to to_t
        nonlocal t, level
        if to_t <= t:
            return
        # `x if x > 0.0 else 0.0` is max(0.0, x), -0.0 and NaN included
        x = level - (to_t - t)
        level = x if x > 0.0 else 0.0
        if to_t % BUFFER_TICK_S == 0.0:
            emit((to_t, level))
        t = to_t

    stalls = iter(trace.stalls)
    stall = next(stalls, None)
    for r in trace.records:
        if level > room:
            advance(r.t_request_s)
            level = room
        emit((t, level))
        if stall is not None and stall[0] < r.t_complete_s:
            # the stall inside this download
            advance(stall[0])
            level = 0.0
            emit((t, 0.0))
            stall = next(stalls, None)
        advance(r.t_complete_s)
        level = r.buffer_after_s
        emit((t, level))
    advance(t + level)
    emit((t, 0.0))
    return tuple(series)


def buffer_samples(corners):
    """Expand ((t_s, level_s), ...) corners, lazily, into BUFFER_TICK_S ticks.

    Each corner comes out as it is, after the grid points strictly
    between it and the corner before, each drained from that corner:
    max(0, level - (tick - t)). The buffer is empty at t=0, and a series
    that already holds every tick comes out unchanged. A corner later
    than MAX_BUFFER_SAMPLES ticks, or at a NaN time, raises
    InvalidParameterError instead of expanding without end.
    """
    step = tick = BUFFER_TICK_S
    last = MAX_BUFFER_SAMPLES * step
    t0 = level0 = 0.0
    for point in corners:
        t, level = point
        if not t <= last:
            raise InvalidParameterError(
                "buffer series times must be finite and at most %g s, got %r"
                % (last, t))
        while tick < t:
            x = level0 - (tick - t0)
            yield tick, x if x > 0.0 else 0.0
            tick += step
        if tick == t:
            tick += step
        yield point
        t0, level0 = t, level


def run_session(profile, cfg):
    """Play cfg.total_segments segments against the profile.

    Runs the shared-link engine with one client that owns the whole link.
    Returns the full per-segment trace plus stall and buffer accounting;
    the buffer series holds the trajectory's corners (see buffer_samples).
    The closing identity, checked by the test suite to nanosecond scale:
    wall_time = startup_delay + total media duration + total stall time.
    Time lost to buffer-full waits overlaps playback, so it appears as
    idle_full_s instead of extending the wall clock. cfg was checked when
    built; only a wall time of more than MAX_BUFFER_SAMPLES ticks raises
    InvalidParameterError here (a longer media duration cannot be built),
    so the expanded series and its CDF stay bounded.
    """
    trace = _run_shared(profile, cfg, [0.0])[0]
    _check_samples(trace.wall_time_s)
    room = cfg.max_buffer_s - cfg.ladder.segment_duration_s
    return replace(trace, buffer_series=_buffer_series(trace, room))
