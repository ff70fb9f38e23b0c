"""Differential test: the engine's one-client loop against its N-client loop.

`run_shared` runs a lone client on `sim._run_alone`, which keeps no heap
and no share, and two or more on `sim._run_link`. Both loops must give a
lone client the same trace, compared with `==`, or raise the same error,
type and message. The draws reach every path of either loop: pieces of
zero capacity, an open-ended zero-capacity tail, a trace that ends in
mid-download or exactly at its last breakpoint, downloads shorter than
one ulp of the clock, late starts, room waits, stalls, and breakpoints
that tie with completions and requests (whole-second pieces, rungs and
capacities that divide each other).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsim import (
    AffSimError,
    BandwidthProfile,
    BitrateLadder,
    EstimatorConfig,
    SimConfig,
    sim,
)

INF = math.inf

capacities = st.one_of(
    # 1e300 kbps lands a segment in less than one ulp of the clock
    st.sampled_from([0.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 1e300]),
    st.floats(1e-3, 1e4),
)
lengths = st.one_of(st.integers(1, 6).map(float), st.floats(0.01, 8.0))


@st.composite
def links(draw):
    """(profile, cfg, start) for one client."""
    pieces = draw(st.lists(st.tuples(lengths, capacities), min_size=1,
                           max_size=8))
    bps, t = [], 0.0
    for length, kbps in pieces * draw(st.integers(1, 12)):
        bps.append((t, kbps))
        t += length
    # the trace ends after its last piece, at its last breakpoint, or
    # never, on its last piece or on a tail of zero capacity
    end = draw(st.sampled_from(["after", "at", "open", "zero tail"]))
    if end == "zero tail":
        bps.append((t, 0.0))
    end = {"after": t, "at": bps[-1][0]}.get(end, INF)
    seg = draw(st.sampled_from([0.5, 1.0, 2.0]))
    rungs = draw(st.lists(st.sampled_from([250.0, 500.0, 1000.0, 2000.0]),
                          min_size=1, max_size=3, unique=True))
    # one segment of room or none at all: requests wait for the buffer
    max_buffer_s = seg * draw(st.sampled_from([1.0, 1.5, 2.0, 4.0, 15.0]))
    cfg = SimConfig(
        ladder=BitrateLadder(tuple(sorted(rungs)), seg),
        panic_buffer_s=min(draw(st.sampled_from([0.0, 1.0, 8.0])),
                           max_buffer_s / 2.0),
        estimator=EstimatorConfig(
            kind=draw(st.sampled_from(["aff", "ewma", "sliding_mean"]))),
        max_buffer_s=max_buffer_s,
        total_segments=draw(st.integers(1, 25)))
    start = draw(st.one_of(
        st.floats(0.0, t + 2.0),
        # at 1e17 s one ulp of the clock is 16 s
        st.sampled_from([b for b, _ in bps] + [1e17]),
    ))
    return BandwidthProfile(tuple(bps), end), cfg, start


def outcome(run):
    try:
        return run()
    except AffSimError as e:
        return type(e), str(e)


@given(links())
@settings(max_examples=300, deadline=None, derandomize=True)
# the download reaches an open-ended tail of zero capacity: no breakpoint
# and no completion is left, which must raise, not land at t=inf
@example((BandwidthProfile(((0.0, 1000.0), (1.0, 0.0)), INF),
          SimConfig(ladder=BitrateLadder((2000.0,), 1.0), total_segments=2),
          0.0))
# the trace ends in mid-download
@example((BandwidthProfile(((0.0, 1000.0),), 3.0),
          SimConfig(total_segments=3), 0.0))
# a start past a trace that ends at its last breakpoint
@example((BandwidthProfile(((0.0, 1000.0), (4.0, 500.0)), 4.0),
          SimConfig(total_segments=3), 4.0))
# completions and room-wait ends tie with whole-second breakpoints
@example((BandwidthProfile(tuple((float(i), 500.0 * (1 + i % 2))
                                 for i in range(40)), 40.0),
          SimConfig(ladder=BitrateLadder((500.0, 1000.0), 1.0),
                    panic_buffer_s=0.0, max_buffer_s=1.0,
                    total_segments=12), 1.0))
# the third download's completion rounds to just past the breakpoint at
# 0.3, but crossing it serves the whole segment: it lands there and does
# not wait out the piece of zero capacity
@example((BandwidthProfile(((0.0, 3000.0), (0.3, 0.0), (1.3, 1000.0)), INF),
          SimConfig(ladder=BitrateLadder((1000.0,), 0.3), total_segments=3),
          0.0))
# the room wait after the first segment overflows the clock to inf, so
# no request is left that the link could serve
@example((BandwidthProfile(((0.0, 1e-304),), INF),
          SimConfig(ladder=BitrateLadder((1e-306,), 1e306),
                    panic_buffer_s=0.0, max_buffer_s=1e306,
                    total_segments=2), 1.79e308))
# a download shorter than one ulp of the clock
@example((BandwidthProfile(((0.0, 1000.0),), INF),
          SimConfig(total_segments=2), 1e17))
def test_lone_client_loops_agree(link):
    profile, cfg, start = link
    alone = outcome(lambda: sim._run_alone(profile, cfg, start))
    shared = outcome(lambda: sim._run_link(profile, [(cfg, start)])[0])
    assert alone == shared
