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
settles its own buffer drain, and any stall, when its segment lands.
Each client is a coroutine that keeps its state in locals: it yields
each request as (request time, segment size), is sent its completion
time, and returns its SessionTrace, which holds its records and its
SimConfig and derives the rest: stalls, startup delay, wall time and
idle time. Its SimConfig, checked when built, holds every knob, the
ladder rule's too; `decide` reads it.
`run_shared(profile, clients)` is the engine: it takes one (SimConfig,
start time) pair per client, so clients on one link may differ in
estimator, buffer ceiling or length, and returns one SessionTrace per
pair. Two or more clients run the heap-based loop, `_run_link`; a lone
client owns the whole capacity, so it runs `_run_alone`, a loop with no
heap and no share that gives the same records and errors bit for bit.
A single session (`run_session`) is the one-client case,
`integrate_download` is one download of it, and
`affsim.fairness.run_fairness` keeps its clients' traces on
`FairnessResult.traces`. A trace stores no buffer series: its records
fix the level at every time (0 until the first segment lands, then a
drain from each completion's level), and `affsim.report.summarize` gives
the fraction of wall time the level spends at or below each threshold.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import pairwise
from math import inf, ulp
from typing import NamedTuple

from .abr import BitrateLadder, decide
from .errors import (ClockHorizonError, InvalidParameterError,
                     ProfileExhaustedError, check_int)
from .estimators import EstimatorConfig, estimator_kinds

# most records one run may hold (and buffer CDF rows one summary may
# give); a longer run is refused instead of filling memory
MAX_ROWS = 1 << 20
# a client's wall time must stay below this: there one ulp of the clock is
# at most 2^-32 s, so the closing identity's few ulps of rounding stay
# under 1e-9 s
CLOCK_HORIZON_S = float(1 << 21)


@dataclass(frozen=True)
class SimConfig:
    ladder: BitrateLadder = BitrateLadder()
    panic_buffer_s: float = 8.0  # `decide` drops to rung 0 below this
    initial_quality_index: int = 0  # the rung before any estimate exists
    estimator: EstimatorConfig = EstimatorConfig()
    max_buffer_s: float = 30.0
    total_segments: int = 150

    def __post_init__(self):
        if not (0 <= self.panic_buffer_s < inf):
            raise InvalidParameterError(
                "panic_buffer_s must be finite and >= 0, got %r"
                % (self.panic_buffer_s,))
        check_int("initial_quality_index", self.initial_quality_index, 0)
        check_int("total_segments", self.total_segments, 1)
        if not (self.max_buffer_s > self.panic_buffer_s):
            raise InvalidParameterError(
                "max_buffer_s %r must exceed panic_buffer_s %r"
                % (self.max_buffer_s, self.panic_buffer_s))
        if self.max_buffer_s < self.ladder.segment_duration_s:
            raise InvalidParameterError(
                "max_buffer_s %r cannot hold one %r s segment"
                % (self.max_buffer_s, self.ladder.segment_duration_s))
        if self.total_segments > MAX_ROWS:
            raise InvalidParameterError(
                "total_segments %d is over %d records"
                % (self.total_segments, MAX_ROWS))
        rungs = len(self.ladder.bitrates_kbps)
        if self.initial_quality_index >= rungs:
            raise InvalidParameterError(
                "initial_quality_index %d outside ladder of %d rungs"
                % (self.initial_quality_index, rungs))


# one per segment: a NamedTuple builds faster than a frozen dataclass
class SegmentRecord(NamedTuple):
    """One segment's download: 8 fields and one derived view,
    instant_throughput_kbps, the estimator's sample for the segment."""

    index: int
    quality_index: int
    size_kbit: float
    t_request_s: float
    t_complete_s: float
    estimate_kbps: float
    buffer_after_s: float
    decision_reason: str

    @property
    def instant_throughput_kbps(self):
        """size_kbit / download time, with the engine's own arithmetic,
        so it is bit for bit the sample the estimator took."""
        return self.size_kbit / (self.t_complete_s - self.t_request_s)


@dataclass(frozen=True)
class SessionTrace:
    """A session's records and the SimConfig that ran it; the rest is
    derived from them. The first download is the startup delay, and the
    wall time ends when the media left at the last completion has played.
    The level at each later request is the record before's
    buffer_after_s, capped at room = max_buffer_s minus one segment (the
    excess is time spent waiting for room, idle_full_s), and a download
    that outlasts that level stalls playback from the moment it empties
    until it lands. One cached walk over those levels gives stalls and
    idle_full_s."""

    records: tuple
    config: SimConfig
    buffer_series = ()  # not a field; only bench/ reads it (ROADMAP item 1)

    @cached_property
    def _walk(self):
        room = self.config.max_buffer_s - self.config.ladder.segment_duration_s
        stalls, idle_full = [], 0.0
        for prev, r in pairwise(self.records):
            level = prev.buffer_after_s
            if level > room:
                idle_full += level - room
                level = room
            # an onset that ties with the arrival goes to the arrival
            empty_at = r.t_request_s + level
            if empty_at < r.t_complete_s:
                stalls.append((empty_at, r.t_complete_s - empty_at))
        return tuple(stalls), idle_full

    @property
    def stalls(self):
        """((start_s, duration_s), ...), each inside one download."""
        return self._walk[0]

    @property
    def idle_full_s(self):
        """Request time lost waiting for buffer room."""
        return self._walk[1]

    @property
    def startup_delay_s(self):
        first = self.records[0]
        return first.t_complete_s - first.t_request_s

    @property
    def wall_time_s(self):
        last = self.records[-1]
        return last.t_complete_s + last.buffer_after_s  # media plays out


def integrate_download(profile, start_s, size_kbit):
    """Seconds needed to move size_kbit starting at start_s.

    One download by the shared-link engine's one-client loop: a lone
    client fetches one 1 s segment from a one-rung ladder of size_kbit.
    Raises ProfileExhaustedError when the trace ends first, and
    ClockHorizonError when that segment would play out at or past
    CLOCK_HORIZON_S.
    """
    if not 0 < size_kbit < inf:
        raise InvalidParameterError(
            "size_kbit must be positive and finite, got %r" % (size_kbit,))
    if not 0 <= start_s < profile.duration_s:
        raise ProfileExhaustedError(
            "download starts at %g, outside the trace" % (start_s,))
    cfg = SimConfig(ladder=BitrateLadder((size_kbit,), 1.0), total_segments=1)
    try:
        # not run_shared, whose start rule would refuse a late start before
        # its one download could name the ulp or the horizon
        trace = _run_alone(profile, cfg, start_s)
    except InvalidParameterError:
        # the engine's only refusal here: a transfer below one ulp
        raise InvalidParameterError(
            "size_kbit %r from start_s %g downloads in less than one ulp "
            "of the clock" % (size_kbit, start_s)) from None
    return trace.records[0].t_complete_s - start_s


def _client(start_time, cfg):
    """One client of `run_shared`, a coroutine: it yields each segment's
    (request time, size read from the ladder), next() the first and each
    completion time sent the rest, and after the last completion returns
    its SessionTrace, or raises ClockHorizonError if its wall time reached
    CLOCK_HORIZON_S. `buffer` is the level at the current request while a
    segment is in flight; the drain in between, any stall it ends in, and
    the next decision (from the estimate and the level at the next
    request) concern no other client, so they are settled when the
    segment lands.
    """
    seg_dur = cfg.ladder.segment_duration_s
    sizes = cfg.ladder.segment_sizes_kbit  # shared by every record at a rung
    room = cfg.max_buffer_s - seg_dur  # most buffer at a request
    last = cfg.total_segments
    update = estimator_kinds()[cfg.estimator.kind].update
    state = cfg.estimator.initial_state
    buffer = 0.0
    records = []
    estimate, t = None, start_time
    for index in range(1, last + 1):
        if buffer > room:
            t += buffer - room  # wait for room
            buffer = room
        quality_index, reason = decide(cfg, estimate, buffer)
        size = sizes[quality_index]
        t_request = t
        t = yield t, size
        tau = t - t_request
        if tau <= 0.0:
            # the transfer time fell below one ulp of the clock
            raise InvalidParameterError(
                "segment %d downloaded in zero time at t=%r; the link is "
                "too fast for the clock's resolution" % (index, t))
        # the sample is the record's instant_throughput_kbps
        state, estimate = update(state, size / tau)
        # SessionTrace's stall test: the buffer empties first, unless the
        # onset ties with the arrival
        if t_request + buffer < t:
            buffer = 0.0
        else:
            # max(0.0, buffer - tau), without the builtin's call
            buffer = buffer - tau if buffer > tau else 0.0
        buffer += seg_dur
        # SegmentRecord's own __new__ costs twice as much
        records.append(tuple.__new__(SegmentRecord, (
            index, quality_index, size, t_request, t, estimate, buffer,
            reason)))
    trace = SessionTrace(tuple(records), cfg)
    if (wall := trace.wall_time_s) >= CLOCK_HORIZON_S:
        raise ClockHorizonError(
            "the clock reaches %r s, where one ulp is %r s; a run must "
            "end before the %d s (2^21 s) clock horizon"
            % (wall, ulp(wall), CLOCK_HORIZON_S))
    return trace


def run_shared(profile, clients):
    """Run one shared-link session per (SimConfig, start time) pair in
    clients; returns their SessionTraces, in order.

    The engine's one entry. Exactly one pair runs `_run_alone`, the
    heap-free loop of a lone client, and any other count `_run_link`;
    both give the same records and raise the same errors. A start time
    must be finite and at least 0, the start of the trace, since clients
    record their own request times, and the clients' total_segments must
    sum to at most MAX_ROWS records. A breach of either raises
    InvalidParameterError, and a start at or past CLOCK_HORIZON_S (2^21 s),
    where no run can end, raises ClockHorizonError, both before any client
    starts. A client whose wall time reaches CLOCK_HORIZON_S
    raises ClockHorizonError when its last segment lands: past it one ulp
    of the clock exceeds 2^-32 s, too coarse to keep the closing identity
    within 1e-9 s.
    """
    rows = sum(cfg.total_segments for cfg, _ in clients)
    if rows > MAX_ROWS:
        raise InvalidParameterError(
            "clients' total_segments sum to %d, over %d records"
            % (rows, MAX_ROWS))
    for _, st in clients:
        if not 0.0 <= st < inf:
            raise InvalidParameterError(
                "start times must be finite and at least 0, got %r" % (st,))
        if st >= CLOCK_HORIZON_S:
            raise ClockHorizonError(
                "start time %r is at or past the clock horizon" % (st,))
    if len(clients) == 1:
        cfg, st = clients[0]
        return [_run_alone(profile, cfg, st)]
    return _run_link(profile, clients)


def _run_link(profile, clients):
    """`run_shared` for any number of clients.

    Every download in flight gets the same share of the capacity, so one
    clock, `served`, counts the kbit each of them has received since t=0,
    and a download is done when `served` reaches its value at the request
    plus the segment size. Downloads in flight wait in a heap keyed on
    that target, and the start times and ends of room waits in one keyed
    on wall time, so each event costs O(log N) for N clients. Each client
    is a `_client` coroutine, sent its completion time once per segment;
    a next request due at once goes straight into flight, and the trace
    it returns is its entry in the result.
    """
    traces = [None] * len(clients)
    sends = []
    requests = []  # (due, client id, size): starts and ends of room waits
    for cid, (cfg, st) in enumerate(clients):
        client = _client(st, cfg)
        due, size = next(client)
        requests.append((due, cid, size))
        sends.append(client.send)
    heapify(requests)
    bps, starts, end = profile.breakpoints, profile.starts, profile.duration_s
    n_starts = len(starts)
    finishing = []  # (served target, client id) per download in flight
    served = 0.0
    # the clock starts at the earliest request, and a bisection finds its
    # piece, so a late start skips the walk from t=0
    t = t_bp = min((st for _, st in clients), default=0.0)
    bp_idx = bisect_right(starts, t)
    while finishing or requests:
        if t >= t_bp:
            while bp_idx < n_starts and starts[bp_idx] <= t:
                bp_idx += 1
            cap = bps[bp_idx - 1][1]
            t_bp = starts[bp_idx] if bp_idx < n_starts else end
            if finishing and t >= end:
                raise ProfileExhaustedError(
                    "trace ends at %g with downloads in flight" % (end,))
        # an idle link moves nothing, so only a download in flight stops
        # at a breakpoint, or at the end so it cannot outrun the trace
        t_next = t_done = inf
        if finishing:
            rate = cap / len(finishing)
            if rate > 0:
                t_done = t + (finishing[0][0] - served) / rate
            t_next = t_bp if t_bp < t_done else t_done
        if requests and requests[0][0] < t_next:
            t_next = requests[0][0]
        if t_next == inf:
            raise ProfileExhaustedError(
                "no capacity left for the remaining downloads")
        # on a tie the completion wins; landing exactly on its target
        # keeps rounding from delaying it
        if t_next == t_done:
            served = finishing[0][0]
        elif finishing:
            served += rate * (t_next - t)
        t = t_next
        while finishing and finishing[0][0] <= served:
            cid = heappop(finishing)[1]
            try:
                due, size = sends[cid](t)
            except StopIteration as done:
                traces[cid] = done.value
                continue
            if due == t:
                heappush(finishing, (served + size, cid))
            else:
                heappush(requests, (due, cid, size))
        while requests and requests[0][0] <= t:
            _, cid, size = heappop(requests)
            heappush(finishing, (served + size, cid))
    return traces


def _run_alone(profile, cfg, start):
    """`_run_link` for one client, bit for bit, without its heaps.

    The lone download in flight moves at the full capacity (cap / 1 is
    cap), so there is no share to recompute. Each download steps from
    breakpoint to breakpoint on the same `served` clock, with the same
    checks in the same order: the trace end is tested as a breakpoint is
    crossed, a download that can never land raises before the completion
    tie, and a completion that ties with a breakpoint wins. An idle link
    jumps straight to the next request.
    """
    client = _client(start, cfg)
    send = client.send
    t, size = next(client)
    bps, starts, end = profile.breakpoints, profile.starts, profile.duration_s
    n_starts = len(starts)
    served = 0.0
    t_bp = t  # the first download reads its piece
    bp_idx = bisect_right(starts, t)
    while True:
        target = served + size
        while True:
            if t >= t_bp:
                while bp_idx < n_starts and starts[bp_idx] <= t:
                    bp_idx += 1
                cap = bps[bp_idx - 1][1]
                t_bp = starts[bp_idx] if bp_idx < n_starts else end
                if t >= end:
                    raise ProfileExhaustedError(
                        "trace ends at %g with downloads in flight" % (end,))
            t_done = t + (target - served) / cap if cap > 0 else inf
            if t_bp < t_done:
                served += cap * (t_bp - t)
                t = t_bp
                if target <= served:  # rounding landed it on the breakpoint
                    break
            elif t_done == inf:
                raise ProfileExhaustedError(
                    "no capacity left for the remaining downloads")
            else:
                # landing exactly on its target keeps rounding from
                # delaying the next download
                served, t = target, t_done
                break
        try:
            due, size = send(t)
        except StopIteration as done:
            return done.value
        if due == inf:  # a room wait ran the clock out
            raise ProfileExhaustedError(
                "no capacity left for the remaining downloads")
        t = due  # after a room wait, an idle link jumps to the request


def run_session(profile, cfg):
    """Play cfg.total_segments segments against the profile.

    Runs the shared-link engine with one client that owns the whole link,
    on its heap-free one-client loop. Returns the per-segment records and
    cfg as a SessionTrace, whose stall and idle accounting, startup delay
    and wall time are derived from them. The records fix the buffer level
    at every time: 0 from the first request until the first completion,
    then from each completion's buffer_after_s a drain of one media second
    per wall second, floored at 0, until the next completion, and after
    the last one until wall_time_s; summarize's buffer CDF weighs that
    level by wall time. The closing identity, checked by the test suite to
    nanosecond scale: wall_time = startup_delay + total media duration +
    total stall time. Time lost to buffer-full waits overlaps playback, so
    it appears as idle_full_s instead of extending the wall clock. cfg was
    checked when built, so a run holds at most MAX_ROWS records, and a
    run whose wall time reaches CLOCK_HORIZON_S raises ClockHorizonError.
    """
    return run_shared(profile, ((cfg, 0.0),))[0]
