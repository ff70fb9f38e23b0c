"""Playback simulation over a bandwidth trace, for one client or many.

Deterministic fluid model. Each client requests segments one at a time,
back to back, but waits while the buffer lacks one segment of room.
Playback holds until the first segment lands, then drains the buffer one
media second per wall second; draining to empty mid-download opens a
stall, which closes at a completion once the buffer refills to the
rebuffer target. Clients on one trace split its capacity equally among
those with a download in flight. The engine steps from event to event
(request, completion, and a capacity breakpoint while a download is in
flight) with every rate constant in between, so progress is exact; an
idle link jumps to the next request. A stall onset is not an event: the
rate split depends only on which downloads are in flight, so a client
settles its own buffer drain, and any stall it opened, when its segment
lands. A single session is the one-client case, and `integrate_download`
is one download of it.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from math import inf
from typing import NamedTuple

from .abr import AbrConfig, BitrateLadder, decide
from .errors import InvalidParameterError, ProfileExhaustedError, check_int
from .estimators import EstimatorConfig, estimator_update

DEFAULT_MAX_BUFFER_S = 30.0
BUFFER_TICK_S = 0.5
# most buffer samples (and buffer CDF thresholds) one session may need; a
# longer session is refused instead of filling memory
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
    max_buffer_s: float = DEFAULT_MAX_BUFFER_S
    rebuffer_target_s: float = None  # None means one segment duration
    total_segments: int = 150

    def __post_init__(self):
        check_int("total_segments", self.total_segments, 1)
        seg_dur, target = _durations(self)
        if not (self.max_buffer_s > self.abr.panic_buffer_s):
            raise InvalidParameterError(
                "max_buffer_s %g must exceed panic_buffer_s %g"
                % (self.max_buffer_s, self.abr.panic_buffer_s))
        if self.max_buffer_s < seg_dur:
            raise InvalidParameterError(
                "max_buffer_s %g cannot hold one %g s segment"
                % (self.max_buffer_s, seg_dur))
        if not (0.0 < target <= self.max_buffer_s):
            raise InvalidParameterError(
                "rebuffer_target_s must be in (0, max_buffer_s], got %r"
                % (target,))
        # the wall time is at least the media duration
        _check_samples(self.total_segments * seg_dur)


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
    stalls: tuple  # ((start_s, duration_s), ...)
    startup_delay_s: float
    wall_time_s: float
    idle_full_s: float  # request time lost waiting for buffer room
    buffer_series: tuple  # ((t_s, level_s), ...)


def _durations(cfg):
    seg_dur, target = cfg.ladder.segment_duration_s, cfg.rebuffer_target_s
    return seg_dur, seg_dur if target is None else target


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
    trace = _run_shared(profile, cfg, [start_s])[0]
    return trace.records[0].t_complete_s - start_s


class _Client:
    """Mutable per-client engine state; results come out as SessionTrace.

    `buffer` is the level at the current request while a segment is in
    flight, and the level the next request will see otherwise. The drain
    in between (none while a stall is open) concerns no other client, so
    it is settled when the segment lands.
    """

    def __init__(self, start_time, cfg):
        self.start_time = start_time
        self.cfg = cfg
        self.seg_dur, self.target = _durations(cfg)
        self.room = cfg.max_buffer_s - self.seg_dur  # most buffer at a request
        self.est_state = cfg.estimator.initial_state
        self.estimate = None
        self.buffer = 0.0
        self.stalled = False
        self.stall_start = 0.0
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
                               self.buffer, self.next_index == 1)
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
        self.est_state, self.estimate = estimator_update(self.est_state, inst)
        if self.next_index > 1 and not self.stalled:
            # an onset that ties with the arrival goes to the arrival
            empty_at = self.t_request + self.buffer
            if empty_at < t:
                self.stalled = True
                self.stall_start = empty_at
                self.buffer = 0.0
            else:
                self.buffer = max(0.0, self.buffer - tau)
        self.buffer += self.seg_dur
        last = self.next_index == self.cfg.total_segments
        if self.next_index == 1:
            self.startup_delay = t - self.start_time
        if self.stalled and (self.buffer >= self.target or last):
            # a stall can only close when new media lands; at end of
            # stream the player drains whatever it has
            self.stalls.append((self.stall_start, t - self.stall_start))
            self.stalled = False
        # positional: keywords nearly double the cost of building a record
        self.records.append(SegmentRecord(
            self.next_index, self.decision.quality_index, self.size,
            self.t_request, t, inst, self.estimate.value_kbps, self.buffer,
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
    """Replay a one-client trace into its ((t_s, level_s), ...) series.

    Points: the origin, a sample every BUFFER_TICK_S, and each request,
    stall onset, completion and the final drain. The buffer holds during
    stalls and drains otherwise; a deferred request starts at `room`.
    """
    series = [(0.0, 0.0)]
    emit = series.append
    t = level = 0.0
    next_tick = BUFFER_TICK_S

    def advance(to_t, draining):
        # move the clock, emitting buffer samples along the way;
        # `x if x > 0.0 else 0.0` is max(0.0, x), -0.0 and NaN included
        nonlocal t, level, next_tick
        if to_t <= t:
            return
        if draining:
            while next_tick <= to_t:
                x = level - (next_tick - t)
                emit((next_tick, x if x > 0.0 else 0.0))
                next_tick += BUFFER_TICK_S
            x = level - (to_t - t)
            level = x if x > 0.0 else 0.0
        else:
            held = level if level > 0.0 else 0.0
            while next_tick <= to_t:
                emit((next_tick, held))
                next_tick += BUFFER_TICK_S
        t = to_t

    stalls = iter(trace.stalls)
    stall = next(stalls, None)  # the open stall, else the next one
    stalled = False
    for r in trace.records:
        if level > room:
            advance(r.t_request_s, draining=True)
            level = room
        emit((t, level))
        if not stalled and stall is not None and stall[0] < r.t_complete_s:
            advance(stall[0], draining=True)
            level = 0.0
            stalled = True
            emit((t, 0.0))
        advance(r.t_complete_s, draining=not stalled)
        level = r.buffer_after_s
        # the engine computed the duration as this same difference
        if stalled and r.t_complete_s - stall[0] >= stall[1]:
            stalled = False
            stall = next(stalls, None)
        emit((t, level))
    advance(t + level, draining=True)
    emit((t, 0.0))
    return tuple(series)


def run_session(profile, cfg):
    """Play cfg.total_segments segments against the profile.

    Runs the shared-link engine with one client that owns the whole link.
    Returns the full per-segment trace plus stall and buffer accounting.
    The closing identity, checked by the test suite to nanosecond scale:
    wall_time = startup_delay + total media duration + total stall time.
    Time lost to buffer-full waits overlaps playback, so it appears as
    idle_full_s instead of extending the wall clock. cfg was checked when
    built; only a wall time of more than MAX_BUFFER_SAMPLES ticks raises
    InvalidParameterError here (a longer media duration cannot be built).
    """
    trace = _run_shared(profile, cfg, [0.0])[0]
    _check_samples(trace.wall_time_s)
    room = cfg.max_buffer_s - cfg.ladder.segment_duration_s
    return replace(trace, buffer_series=_buffer_series(trace, room))
