"""Playback simulation over a bandwidth trace, for one client or many.

Deterministic fluid model. Each client requests segments one at a time,
back to back, but waits while the buffer lacks one segment of room.
Playback holds until the first segment lands, then drains the buffer one
media second per wall second; draining to empty mid-download opens a
stall, which closes at a completion once the buffer refills to the
rebuffer target. Clients on one trace split its capacity equally among
those with a download in flight. The engine steps from event to event
(request, completion, stall onset, room-wait expiry, capacity breakpoint)
with every rate constant in between, so progress is exact. A single
session is the one-client case.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace

from .abr import AbrConfig, BitrateLadder, decide
from .errors import InvalidParameterError, ProfileExhaustedError
from .estimators import EstimatorConfig, ThroughputSample, estimator_new, \
    estimator_update

DEFAULT_MAX_BUFFER_S = 30.0
BUFFER_TICK_S = 0.5


@dataclass(frozen=True)
class SimConfig:
    ladder: BitrateLadder = BitrateLadder()
    abr: AbrConfig = AbrConfig()
    estimator: EstimatorConfig = EstimatorConfig()
    max_buffer_s: float = DEFAULT_MAX_BUFFER_S
    rebuffer_target_s: float = None  # None means one segment duration
    total_segments: int = 150


@dataclass(frozen=True)
class SegmentRecord:
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


def _validated(cfg):
    if cfg.total_segments < 1:
        raise InvalidParameterError(
            "total_segments must be >= 1, got %r" % (cfg.total_segments,))
    seg_dur = cfg.ladder.segment_duration_s
    if cfg.max_buffer_s <= cfg.abr.panic_buffer_s:
        raise InvalidParameterError(
            "max_buffer_s %g must exceed panic_buffer_s %g"
            % (cfg.max_buffer_s, cfg.abr.panic_buffer_s))
    if cfg.max_buffer_s < seg_dur:
        raise InvalidParameterError(
            "max_buffer_s %g cannot hold one %g s segment"
            % (cfg.max_buffer_s, seg_dur))
    target = cfg.rebuffer_target_s
    if target is None:
        target = seg_dur
    if not (0.0 < target <= cfg.max_buffer_s):
        raise InvalidParameterError(
            "rebuffer_target_s must be in (0, max_buffer_s], got %r"
            % (target,))
    return seg_dur, target


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


WAITING = "waiting"
DOWNLOADING = "downloading"
DEFERRING = "deferring"
DONE = "done"


class _Client:
    """Mutable per-client engine state; results come out as SessionTrace."""

    def __init__(self, start_time, cfg, seg_dur, target):
        self.start_time = start_time
        self.cfg = cfg
        self.seg_dur = seg_dur
        self.target = target
        self.room = cfg.max_buffer_s - seg_dur  # deepest buffer at a request
        self.state = WAITING
        self.est_state = estimator_new(cfg.estimator)
        self.estimate = None
        self.buffer = 0.0
        self.playing = False
        self.stalled = False
        self.stall_start = 0.0
        self.next_index = 1
        self.decision = None
        self.size = 0.0
        self.remaining = 0.0
        self.t_request = 0.0
        self.defer_until = 0.0
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
        self.remaining = self.size
        self.t_request = t
        self.state = DOWNLOADING

    def complete(self, t):
        tau = t - self.t_request
        if tau <= 0.0:
            # the transfer time fell below one ulp of the clock
            raise InvalidParameterError(
                "segment %d downloaded in zero time at t=%r; the link is "
                "too fast for the clock's resolution" % (self.next_index, t))
        inst = self.size / tau
        self.est_state, self.estimate = estimator_update(
            self.est_state, ThroughputSample(inst, self.next_index))
        self.buffer += self.seg_dur
        last = self.next_index == self.cfg.total_segments
        if self.next_index == 1:
            self.playing = True
            self.startup_delay = t - self.start_time
        if self.stalled and (self.buffer >= self.target or last):
            # a stall can only close when new media lands; at end of
            # stream the player drains whatever it has
            self.stalls.append((self.stall_start, t - self.stall_start))
            self.stalled = False
        self.records.append(SegmentRecord(
            index=self.next_index, quality_index=self.decision.quality_index,
            size_kbit=self.size, t_request_s=self.t_request,
            t_complete_s=t, instant_throughput_kbps=inst,
            estimate_kbps=self.estimate.value_kbps, buffer_after_s=self.buffer,
            decision_reason=self.decision.reason))
        self.next_index += 1
        if last:
            self.state = DONE
            self.wall_time = t + self.buffer  # remaining media plays out
        elif self.buffer > self.room:
            wait = self.buffer - self.room
            self.idle_full += wait
            self.defer_until = t + wait
            self.state = DEFERRING
        else:
            self.issue(t)

    def trace(self):
        return SessionTrace(
            records=tuple(self.records), stalls=tuple(self.stalls),
            startup_delay_s=self.startup_delay, wall_time_s=self.wall_time,
            idle_full_s=self.idle_full, buffer_series=())


def _run_shared(profile, sim_cfg, start_times):
    """Run one shared-link session per start time; returns SessionTraces."""
    seg_dur, target = _validated(sim_cfg)
    clients = [_Client(st, sim_cfg, seg_dur, target) for st in start_times]
    starts = profile.starts
    t = 0.0
    while any(c.state != DONE for c in clients):
        active = [c for c in clients if c.state == DOWNLOADING]
        bp_idx = bisect_right(starts, t)
        rate = 0.0
        if active:
            if t >= profile.duration_s:
                raise ProfileExhaustedError(
                    "trace ends at %g with downloads in flight"
                    % (profile.duration_s,))
            rate = profile.breakpoints[bp_idx - 1][1] / len(active)
        # gather the next event of every kind; kind order settles ties
        events = []  # (time, kind_rank, client_id, kind)
        for cid, c in enumerate(clients):
            if c.state == WAITING:
                events.append((max(c.start_time, t), 1, cid, "start"))
            elif c.state == DOWNLOADING and rate > 0:
                events.append((t + c.remaining / rate, 0, cid, "complete"))
            elif c.state == DEFERRING:
                events.append((c.defer_until, 2, cid, "resume"))
            if (c.playing and not c.stalled and c.state != DONE
                    and c.buffer > 0):
                events.append((t + c.buffer, 3, cid, "empty"))
        if bp_idx < len(starts):
            events.append((starts[bp_idx], 4, -1, "breakpoint"))
        elif t < profile.duration_s < float("inf"):
            # trace end acts as a breakpoint so downloads cannot outrun it
            events.append((profile.duration_s, 4, -1, "breakpoint"))
        if not events:
            raise ProfileExhaustedError(
                "no capacity left for the remaining downloads")
        events.sort()
        t_next = events[0][0]
        dt = t_next - t
        if dt > 0:
            for c in clients:
                if c.state == DOWNLOADING:
                    c.remaining -= rate * dt
                if c.playing and not c.stalled and c.state != DONE:
                    c.buffer = max(0.0, c.buffer - dt)
        t = t_next
        for ev_t, _, cid, kind in events:
            if ev_t != t_next:
                break
            if kind == "breakpoint":
                continue
            c = clients[cid]
            if kind == "complete" and c.state == DOWNLOADING:
                c.remaining = 0.0
                c.complete(t)
            elif kind == "start" and c.state == WAITING:
                c.issue(t)
            elif kind == "resume" and c.state == DEFERRING:
                c.buffer = c.room
                c.issue(t)
            elif kind == "empty":
                # stale once the same-instant completion refilled it; the
                # tolerance absorbs dust from t_next - t != buffer exactly
                if c.playing and not c.stalled and c.state != DONE \
                        and c.buffer <= 1e-9:
                    c.buffer = 0.0
                    c.stalled = True
                    c.stall_start = t
    return [c.trace() for c in clients]


def _buffer_series(trace, room):
    """Replay a one-client trace into its ((t_s, level_s), ...) series.

    Points: the origin, a sample every BUFFER_TICK_S, and each request,
    stall onset, completion and the final drain. The buffer holds during
    stalls and drains otherwise; a deferred request starts at `room`.
    """
    series = [(0.0, 0.0)]
    t = level = 0.0
    next_tick = BUFFER_TICK_S

    def advance(to_t, draining):
        # move the clock, emitting buffer samples along the way
        nonlocal t, level, next_tick
        if to_t <= t:
            return
        while next_tick <= to_t:
            sample = level - (next_tick - t) if draining else level
            series.append((next_tick, max(0.0, sample)))
            next_tick += BUFFER_TICK_S
        if draining:
            level = max(0.0, level - (to_t - t))
        t = to_t

    stalls = iter(trace.stalls)
    stall = next(stalls, None)  # the open stall, else the next one
    stalled = False
    for r in trace.records:
        if level > room:
            advance(r.t_request_s, draining=True)
            level = room
        series.append((t, level))
        if not stalled and stall is not None and stall[0] < r.t_complete_s:
            advance(stall[0], draining=True)
            level = 0.0
            stalled = True
            series.append((t, 0.0))
        advance(r.t_complete_s, draining=not stalled)
        level = r.buffer_after_s
        # the engine computed the duration as this same difference
        if stalled and r.t_complete_s - stall[0] >= stall[1]:
            stalled = False
            stall = next(stalls, None)
        series.append((t, level))
    advance(t + level, draining=True)
    series.append((t, 0.0))
    return tuple(series)


def run_session(profile, cfg):
    """Play cfg.total_segments segments against the profile.

    Runs the shared-link engine with one client that owns the whole link.
    Returns the full per-segment trace plus stall and buffer accounting.
    The closing identity, checked by the test suite to nanosecond scale:
    wall_time = startup_delay + total media duration + total stall time.
    Time lost to buffer-full waits overlaps playback, so it appears as
    idle_full_s instead of extending the wall clock.
    """
    trace = _run_shared(profile, cfg, [0.0])[0]
    room = cfg.max_buffer_s - cfg.ladder.segment_duration_s
    return replace(trace, buffer_series=_buffer_series(trace, room))
