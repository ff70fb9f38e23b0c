"""Differential test: the virtual-time shared-link engine against the old one.

The engine before the processor-sharing rewrite rebuilt and sorted every
client's next event at each step, subtracted `rate * dt` from every
download and drained every buffer, with stall onsets as events of their
own. It is frozen below as the reference. Both must agree on every
decision and stall count exactly and on every time to 1e-9 s. The old
clients kept their own stalls, startup delay, wall time and idle time;
a trace derives them from its records and config, and each must agree
with the old client's to 1e-9 s.
"""

import random
from bisect import bisect_right

import pytest

from affsim import (
    BandwidthProfile,
    EstimatorConfig,
    ProfileExhaustedError,
    SegmentRecord,
    SimConfig,
    decide,
    estimator_update,
    run_shared,
    synthesize_profile,
)
from affsim.errors import InvalidParameterError
from test_sim_differential import ReferenceTrace

TOL = 1e-9


def _durations(cfg):
    # the references' segment duration and rebuffer target, one segment
    return cfg.ladder.segment_duration_s, cfg.ladder.segment_duration_s


WAITING = "waiting"
DOWNLOADING = "downloading"
DEFERRING = "deferring"
DONE = "done"


class ReferenceClient:
    """Per-client state of the swept engine, frozen as it stood."""

    def __init__(self, start_time, cfg, seg_dur, target):
        self.start_time = start_time
        self.cfg = cfg
        self.seg_dur = seg_dur
        self.target = target
        self.room = cfg.max_buffer_s - seg_dur  # deepest buffer at a request
        self.state = WAITING
        self.est_state = cfg.estimator.initial_state
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
        self.decision = decide(self.cfg, self.estimate, self.buffer)
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
        self.est_state, self.estimate = estimator_update(self.est_state, inst)
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
            t_complete_s=t, estimate_kbps=self.estimate,
            buffer_after_s=self.buffer,
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
        return ReferenceTrace(
            records=tuple(self.records), stalls=tuple(self.stalls),
            startup_delay_s=self.startup_delay, wall_time_s=self.wall_time,
            idle_full_s=self.idle_full)


def reference_run_shared(profile, clients):
    """The shared-link engine as it stood before virtual time; one client
    per (SimConfig, start time) pair."""
    clients = [ReferenceClient(st, cfg, *_durations(cfg))
               for cfg, st in clients]
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


def scaled(profile, factor):
    return BandwidthProfile(
        tuple((t, b * factor) for t, b in profile.breakpoints),
        profile.duration_s)


def random_case(rng):
    n = rng.randint(1, 16)
    segments = rng.randint(20, 60)
    cfg = SimConfig(
        estimator=EstimatorConfig(
            kind=rng.choice(("aff", "ewma", "sliding_mean"))),
        max_buffer_s=rng.uniform(12.0, 40.0), total_segments=segments)
    kind = rng.choice(("test1", "test2", "test3", "test4"))
    # capacity grows with N, at a random share per client, so some runs
    # stall and some pin their buffers at the ceiling
    share = 2.0 ** rng.uniform(-3.0, 0.6)
    profile = scaled(synthesize_profile(kind, rng.randrange(100),
                                        4.0 * segments + 240.0), n * share)
    if rng.random() < 0.2:
        starts = [rng.uniform(0.0, 15.0)] * n  # lockstep: ties everywhere
    else:
        starts = [rng.uniform(0.0, 15.0) for _ in range(n)]
    return profile, cfg, starts


def random_mixed_case(rng):
    """A random link whose clients each draw their own estimator kind,
    buffer ceiling and segment count."""
    n = rng.randint(1, 16)
    cfgs = [SimConfig(
        estimator=EstimatorConfig(
            kind=rng.choice(("aff", "ewma", "sliding_mean"))),
        max_buffer_s=rng.uniform(12.0, 40.0),
        total_segments=rng.randint(20, 60)) for _ in range(n)]
    longest = max(cfg.total_segments for cfg in cfgs)
    share = 2.0 ** rng.uniform(-3.0, 0.6)
    profile = scaled(synthesize_profile(
        rng.choice(("test1", "test2", "test3", "test4")), rng.randrange(100),
        4.0 * longest + 240.0), n * share)
    starts = [rng.uniform(0.0, 15.0)] * n if rng.random() < 0.2 else \
        [rng.uniform(0.0, 15.0) for _ in range(n)]
    return profile, list(zip(cfgs, starts))


def assert_same_client(new, old):
    assert [(r.index, r.quality_index, r.decision_reason, r.size_kbit)
            for r in new.records] == \
        [(r.index, r.quality_index, r.decision_reason, r.size_kbit)
         for r in old.records]
    times = [(a.t_request_s, b.t_request_s) for a, b in
             zip(new.records, old.records)]
    times += [(a.t_complete_s, b.t_complete_s) for a, b in
              zip(new.records, old.records)]
    times += [(a.buffer_after_s, b.buffer_after_s) for a, b in
              zip(new.records, old.records)]
    assert len(new.stalls) == len(old.stalls)
    times += [(a[i], b[i]) for a, b in zip(new.stalls, old.stalls)
              for i in (0, 1)]
    times += [(new.startup_delay_s, old.startup_delay_s),
              (new.wall_time_s, old.wall_time_s),
              (new.idle_full_s, old.idle_full_s)]
    worst = max(abs(a - b) for a, b in times)
    assert worst <= TOL, worst


def assert_same_link(profile, clients):
    new = run_shared(profile, clients)
    old = reference_run_shared(profile, clients)
    assert len(new) == len(old) == len(clients)
    for a, b in zip(new, old):
        assert_same_client(a, b)
    return sum(len(tr.stalls) for tr in new)


def test_matches_reference_on_random_shared_links():
    rng = random.Random(2025)
    stalls = 0
    for _ in range(200):
        profile, cfg, starts = random_case(rng)
        stalls += assert_same_link(profile, [(cfg, st) for st in starts])
    # stall onsets are where the two engines differ most
    assert stalls > 1000
    # clients of one link with configs of their own
    rng = random.Random(2026)
    stalls = mixed = 0
    for _ in range(150):
        profile, clients = random_mixed_case(rng)
        stalls += assert_same_link(profile, clients)
        mixed += len({cfg for cfg, _ in clients}) > 1
    assert stalls > 500 and mixed > 120, (stalls, mixed)


@pytest.mark.parametrize("max_buffer_s", [2.0, 10.0])
def test_matches_reference_when_requests_wait_for_room(max_buffer_s):
    # a 2 s buffer ceiling leaves no room at a request: every segment waits
    # until the buffer is empty, and the stall opens at the request itself
    cfg = SimConfig(max_buffer_s=max_buffer_s, total_segments=40,
                    panic_buffer_s=1.0)
    profile = scaled(synthesize_profile("test3", 4, 400.0), 3.0)
    clients = [(cfg, st) for st in (0.0, 0.5, 0.5, 7.25)]
    new = run_shared(profile, clients)
    old = reference_run_shared(profile, clients)
    assert sum(len(tr.stalls) for tr in old) > 0
    for a, b in zip(new, old):
        assert_same_client(a, b)
