"""The float engine against an exact replay of the model.

`exact_oracle.ExactLink` plays a `run_shared` call again in rationals, with
the segment sizes the float run chose. In the replay the closing identity
(wall = first completion + media + stalls) and conservation (the kbit the
downloads received are the capacity offered while one was in flight, and
the sizes they sum to) hold exactly, which checks the model itself.

The float run must then stay within one error budget of the replay. The
engine rounds two clocks at each event: the time, and `served`, the kbit
the link has moved, which turns into time at a download's share of the
capacity. So one event's unit of error is one ulp of the time the record
reaches (its completion plus its level) plus one ulp of the kbit moved by
then over the slowest share (the least capacity over the client count).
Every request time, completion time and level, and every client's wall
time and stall total, lies within BUDGET_PER_EVENT units per event of the
link up to that completion. The budget is measured, not chosen per case.
The worst error per event was 0.93 units over 742 random lone sessions,
8.1 over 1,229 random links of 2 to 4 clients with up to 60 segments each
(the draws below: 0.94 over 1,500 of them), and 11.1 on the two-client
link of `test_long_sessions_below_the_horizon`, where a download that
starts d seconds late misses d seconds at 3,000 kbps and makes them up at
700 kbps, so one crossing can multiply an error by 4.3. Longer mixed links
show an engine fault: with up to 300 segments per client the worst was
18.9, and 3 links of 1,229 left any budget, because two clients' downloads
touched end to start, each request landing on the other's completion.
The engine's rounding opens an overlap there that doubles every cycle;
one client's wall time ended 1 s after the exact one's. The draws stop at
60 segments per client for that reason. `test_touching_downloads` keeps
one such link as an expected failure until the engine mends it.

Capacities stay positive and within a factor of 50 of each other. A
download's last fraction of a kbit, rounded away at a breakpoint, is
divided by the capacity of the piece after it, so the unit divides by the
least capacity, which a piece of zero capacity would leave undefined.
"""

import math
from fractions import Fraction

import pytest
from exact_oracle import ExactLink
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (BandwidthProfile, BitrateLadder, EstimatorConfig,
                    SimConfig, run_shared)
from affsim.sim import CLOCK_HORIZON_S

BUDGET_PER_EVENT = 32

capacities = st.one_of(st.sampled_from([250.0, 1000.0, 4000.0]),
                       st.floats(100.0, 5000.0))
lengths = st.one_of(st.integers(1, 4).map(float), st.floats(0.01, 10.0))


@st.composite
def clients(draw, end):
    seg = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 4.0))
    rungs = draw(st.lists(st.sampled_from([250.0, 500.0, 1000.0, 2000.0])
                          | st.floats(10.0, 3000.0),
                          min_size=1, max_size=4, unique=True))
    max_buffer_s = seg * draw(st.sampled_from([1.0, 1.5, 2.0, 4.0, 15.0])
                              | st.floats(1.0, 20.0))
    cfg = SimConfig(
        ladder=BitrateLadder(tuple(sorted(rungs)), seg),
        panic_buffer_s=min(draw(st.sampled_from([0.0, 1.0, 8.0])),
                           max_buffer_s / 2.0),
        estimator=EstimatorConfig(
            kind=draw(st.sampled_from(["aff", "ewma", "sliding_mean"]))),
        max_buffer_s=max_buffer_s,
        total_segments=draw(st.integers(1, 60)))
    return cfg, draw(st.sampled_from([0.0]) | st.floats(0.0, end))


@st.composite
def links(draw):
    """(profile, clients) for one run_shared call, on an open-ended
    trace, so every run completes."""
    bps, t = [], 0.0
    for length, kbps in draw(st.lists(st.tuples(lengths, capacities),
                                      min_size=1, max_size=40)):
        bps.append((t, kbps))
        t += length
    caps = [kbps for _, kbps in bps]
    scale = max(caps) / 50.0
    bps = [(start, max(kbps, scale)) for start, kbps in bps]
    n = draw(st.sampled_from([1, 1, 2, 3, 4]))
    return (BandwidthProfile(tuple(bps), math.inf),
            [draw(clients(t)) for _ in range(n)])


def check(profile, pairs):
    """Run the float engine and the replay, and check both."""
    traces = run_shared(profile, pairs)
    link = ExactLink(profile, pairs, traces)
    sizes = [Fraction(r.size_kbit) for trace in traces
             for r in trace.records]
    assert link.moved == link.offered == sum(sizes)
    slowest = min(kbps for _, kbps in profile.breakpoints) / len(pairs)
    for trace, exact in zip(traces, link.sessions):
        n = len(trace.records)
        assert exact.wall == exact.completions[0] + n * exact.seg \
            + exact.stall
        for k, r in enumerate(trace.records):
            reach = exact.completions[k] + exact.levels[k]
            unit = math.ulp(reach) + math.ulp(exact.served[k]) / slowest
            budget = BUDGET_PER_EVENT * exact.events[k] * unit
            for got, want in ((r.t_request_s, exact.requests[k]),
                              (r.t_complete_s, exact.completions[k]),
                              (r.buffer_after_s, exact.levels[k])):
                assert abs(Fraction(got) - want) <= budget, (k, got, want)
        float_stall = sum(d for _, d in trace.stalls)
        assert abs(Fraction(trace.wall_time_s) - exact.wall) <= budget
        assert abs(Fraction(float_stall) - exact.stall) <= budget
    return traces, link


@settings(max_examples=100, deadline=None, derandomize=True)
@given(links())
def test_engine_within_budget_of_exact_replay(link):
    check(*link)


@pytest.mark.parametrize("kbps, seg, segments, start", [
    # 350 segments of 5,000 s play out above 2^20 s
    ((1000.0, 3000.0, 700.0), 5000.0, 350, 0.0),
    # a late start: 1,000 short segments end near 2^21 s
    ((2500.0, 900.0, 1800.0), 2.0, 1000, CLOCK_HORIZON_S - 4000.0),
], ids=["long-segments", "late-start"])
def test_long_sessions_below_the_horizon(kbps, seg, segments, start):
    # three pieces repeated from the start on, where the sessions stall
    # and wait for room; alone, and sharing the link with a second client
    bps = ((0.0, kbps[0]),) + tuple(
        (start + i * 3.7 * seg, kbps[i % 3]) for i in range(1, 3 * segments))
    cfg = SimConfig(ladder=BitrateLadder((500.0, 1000.0, 2000.0), seg),
                    panic_buffer_s=seg, max_buffer_s=4 * seg,
                    total_segments=segments)
    other = SimConfig(ladder=BitrateLadder((600.0, 1500.0), seg),
                      panic_buffer_s=0.0, max_buffer_s=3 * seg,
                      total_segments=segments // 2)
    for pairs in ([(cfg, start)], [(cfg, start), (other, start + seg)]):
        traces, link = check(BandwidthProfile(bps, math.inf), pairs)
        assert all(trace.stalls and trace.idle_full_s for trace in traces)
        walls = [exact.wall for exact in link.sessions]
        assert 2 ** 20 < max(walls) < CLOCK_HORIZON_S


# Two clients whose downloads touch end to start on a mixed link: by
# client 0's 20th segment, each one's request lands on the other's
# completion. The float run's error, 9e-10 s at that completion and past
# the budget there, doubles every cycle to 1 s at the 95th, and client 0's
# wall time ends at 173.38 s against the replay's 172.38 s. The engine's
# mixed-link loop lets rounding compound here; ROADMAP item 21 tracks the
# mend, which turns this test into a pass.
TOUCHING_LINK = (
    BandwidthProfile(((0.0, 250.0), (2.0, 1000.0), (4.0, 4000.0),
                      (5.0, 4951.653329588688), (6.0, 1000.0),
                      (6.6976970053747324, 4000.0)), math.inf),
    [(SimConfig(ladder=BitrateLadder((250.0, 500.0, 1000.0, 2000.0), 0.5),
                panic_buffer_s=0.0, max_buffer_s=0.75, total_segments=289),
      27.66765200149093),
     (SimConfig(ladder=BitrateLadder((500.0, 705.0523278604102, 2000.0),
                                     0.5),
                panic_buffer_s=0.0, max_buffer_s=2.6235175126234305,
                total_segments=249),
      0.0)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rounding compounds between touching downloads "
                   "on a mixed link (ROADMAP item 21)")
def test_touching_downloads():
    check(*TOUCHING_LINK)
