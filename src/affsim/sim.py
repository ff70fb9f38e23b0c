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
Each client is a coroutine that keeps its state in locals: it yields each
request as (request time, segment size), is sent its completion time, and
returns its SessionTrace. A single session is the one-client case, and
`integrate_download` is one download of it. A trace stores no buffer
series: its records fix the level at every time (0 until the first
segment lands, then a drain from each completion's level), and
`affsim.report.summarize` gives the fraction of wall time the level
spends at or below each threshold.
"""

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf
from typing import NamedTuple

from .abr import AbrConfig, BitrateLadder, _check_start_rung, decide
from .errors import InvalidParameterError, ProfileExhaustedError, check_int
from .estimators import EstimatorConfig, estimator_kinds

# most records one run may hold (and buffer CDF rows one summary may
# give); a longer run is refused instead of filling memory
MAX_ROWS = 1 << 20


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
        if self.total_segments > MAX_ROWS:
            raise InvalidParameterError(
                "total_segments %d is over %d records"
                % (self.total_segments, MAX_ROWS))
        _check_start_rung(self.ladder, self.abr)


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
    buffer_series = ()  # not a field; only bench/ reads it (ROADMAP item 1)


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


def _client(start_time, cfg):
    """One client of `_run_shared`, a coroutine: it yields each segment's
    (request time, size in kbit), next() the first and each completion
    time sent the rest, and after the last completion it returns its
    SessionTrace. `buffer` is the level at the current request while a
    segment is in flight; the drain in between, any stall it ends in, and
    the next decision (from the estimate and the level at the next
    request) concern no other client, so they are settled when the
    segment lands.
    """
    ladder, abr = cfg.ladder, cfg.abr
    rungs, seg_dur = ladder.bitrates_kbps, ladder.segment_duration_s
    room = cfg.max_buffer_s - seg_dur  # most buffer at a request
    last = cfg.total_segments
    update = estimator_kinds()[cfg.estimator.kind].update
    state = cfg.estimator.initial_state
    buffer = idle_full = 0.0
    records, stalls = [], []
    estimate, t = None, start_time
    for index in range(1, last + 1):
        if buffer > room:
            wait = buffer - room
            idle_full += wait
            buffer = room  # the level once the wait is over
            t += wait
        quality_index, reason = decide(ladder, abr, estimate, buffer)
        size = rungs[quality_index] * seg_dur
        t_request = t
        t = yield t, size
        tau = t - t_request
        if tau <= 0.0:
            # the transfer time fell below one ulp of the clock
            raise InvalidParameterError(
                "segment %d downloaded in zero time at t=%r; the link is "
                "too fast for the clock's resolution" % (index, t))
        inst = size / tau
        state, estimate = update(state, inst)
        if index == 1:
            startup_delay = t - start_time
        else:
            # an onset that ties with the arrival goes to the arrival
            empty_at = t_request + buffer
            if empty_at < t:
                stalls.append((empty_at, t - empty_at))
                buffer = 0.0
            else:
                # max(0.0, buffer - tau), without the builtin's call
                buffer = buffer - tau if buffer > tau else 0.0
        buffer += seg_dur
        # SegmentRecord's own __new__ costs twice as much
        records.append(tuple.__new__(SegmentRecord, (
            index, quality_index, size, t_request, t, inst, estimate,
            buffer, reason)))
    return SessionTrace(
        records=tuple(records), stalls=tuple(stalls),
        startup_delay_s=startup_delay,
        wall_time_s=t + buffer,  # remaining media plays out
        idle_full_s=idle_full)


def _run_shared(profile, sim_cfg, start_times):
    """Run one shared-link session per start time; returns SessionTraces.

    Every download in flight gets the same share of the capacity, so one
    clock, `served`, counts the kbit each of them has received since t=0,
    and a download is done when `served` reaches its value at the request
    plus the segment size. Downloads in flight wait in a heap keyed on
    that target, and the start times and ends of room waits in one keyed
    on wall time, so each event costs O(log N) for N clients. Each client
    is a `_client` coroutine, sent its completion time once per segment;
    a next request due at once goes straight into flight, and the trace
    it returns is its entry in the result. A start time must be finite
    and at least 0, the start of the trace, since clients record their
    own request times; another raises InvalidParameterError.
    """
    traces = [None] * len(start_times)
    sends = []
    requests = []  # (due, client id, size): starts and ends of room waits
    for cid, st in enumerate(start_times):
        if not 0.0 <= st < inf:
            raise InvalidParameterError(
                "start times must be finite and at least 0, got %r" % (st,))
        client = _client(st, sim_cfg)
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
    t = t_bp = min(start_times, default=0.0)
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


def run_session(profile, cfg):
    """Play cfg.total_segments segments against the profile.

    Runs the shared-link engine with one client that owns the whole link.
    Returns the full per-segment trace plus stall and buffer accounting.
    The records fix the buffer level at every time: 0 from the first
    request until the first completion, then from each completion's
    buffer_after_s a drain of one media second per wall second, floored
    at 0, until the next completion, and after the last one until
    wall_time_s; summarize's buffer CDF weighs that level by wall time.
    The closing identity, checked by the test suite to nanosecond scale:
    wall_time = startup_delay + total media duration + total stall time.
    Time lost to buffer-full waits overlaps playback, so it appears as
    idle_full_s instead of extending the wall clock. cfg was checked when
    built, so a run holds at most MAX_ROWS records.
    """
    return _run_shared(profile, cfg, [0.0])[0]
