"""Exact replay of the playback model in rational arithmetic.

Every input of the model is a float, and so a rational number, so
`fractions.Fraction` can play a session with no rounding at all.
`ExactLink` takes the profile and the clients of one `run_shared` call, and the
traces that call returned, and plays them again exactly: the same segment
sizes in the same order, from the same start times, by the model's rules.
Those rules are: a request waits while the buffer lacks one segment of
room; downloads in flight split the capacity equally; playback drains one
media second per wall second, floored at 0; and a download that outlasts
the level at its request stalls playback for the difference. The replay
does not decide rungs again, because an exact estimate can pick another
rung at a near-tie.
"""

from bisect import bisect_right
from fractions import Fraction
from math import inf


class ExactSession:
    """One client's exact replay: its request and completion times, the
    level after each completion, its stall total and its wall time."""

    def __init__(self, cfg, start, sizes):
        self.seg = Fraction(cfg.ladder.segment_duration_s)
        # most buffer at a request; no ceiling, no room wait
        self.room = (Fraction(cfg.max_buffer_s) - self.seg
                     if cfg.max_buffer_s < inf else None)
        self.start = Fraction(start)
        self.sizes = sizes
        self.level = Fraction(0)
        self.requests, self.completions, self.levels = [], [], []
        # at each completion: the link's events so far, and the kbit it
        # had moved
        self.events, self.served = [], []
        self.stall = Fraction(0)

    def request(self, t):
        """The size of the segment requested at t."""
        self.requests.append(t)
        return self.sizes[len(self.completions)]

    def complete(self, t):
        """Settle the drain up to t; the time of the next request, or None
        after the last segment."""
        tau = t - self.requests[-1]
        if self.completions and self.level < tau:  # playback has started
            self.stall += tau - self.level
        self.level = max(self.level - tau, Fraction(0)) + self.seg
        self.completions.append(t)
        self.levels.append(self.level)
        if len(self.completions) == len(self.sizes):
            return None
        wait = Fraction(0)
        if self.room is not None and self.level > self.room:
            wait = self.level - self.room
            self.level = self.room
        return t + wait

    @property
    def wall(self):
        return self.completions[-1] + self.levels[-1]


class ExactLink:
    """The exact replay of one `run_shared` call: its sessions, its count
    of events, and the kbit the link moved, summed per download (`moved`)
    and as capacity over the time some download was in flight
    (`offered`)."""

    def __init__(self, profile, clients, traces):
        self.sessions = [
            ExactSession(cfg, start, [Fraction(r.size_kbit)
                                      for r in trace.records])
            for (cfg, start), trace in zip(clients, traces)]
        self.moved = self.offered = Fraction(0)
        self.events = 0  # steps from one event time to the next
        starts = [Fraction(t) for t in profile.starts]
        caps = [Fraction(kbps) for _, kbps in profile.breakpoints]
        end = profile.duration_s
        due = {i: s.start for i, s in enumerate(self.sessions)}
        flight = {}  # client: kbit left of its download
        t = min(due.values())
        while due or flight:
            self.events += 1
            for i in [i for i, d in due.items() if d <= t]:
                del due[i]
                flight[i] = self.sessions[i].request(t)
            piece = bisect_right(starts, t)
            cap = caps[piece - 1]
            events = list(due.values())
            if piece < len(starts):
                events.append(starts[piece])
            if flight and cap:
                events.append(t + min(flight.values()) * len(flight) / cap)
            t_next = min(events)
            if flight:
                assert t_next <= end, "the trace ends mid-download"
                share = cap / len(flight) * (t_next - t)
                for i in flight:
                    flight[i] -= share
                self.moved += share * len(flight)
                self.offered += cap * (t_next - t)
            t = t_next
            for i in [i for i, left in flight.items() if left == 0]:
                del flight[i]
                session = self.sessions[i]
                session.events.append(self.events)
                session.served.append(self.moved)
                nxt = session.complete(t)
                if nxt is not None:
                    due[i] = nxt
