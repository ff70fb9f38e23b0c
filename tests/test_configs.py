"""Config types check their own fields when built.

Each probe once built a config that failed later, or ran: it must now end
in an InvalidParameterError that names the field, raised by the
constructor. The fuzz draws hostile values for every numeric field of the
four config types: each construction either raises AffSimError, or builds
a config whose short run raises AffSimError or keeps the closing identity.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    AffSimError,
    BandwidthProfile,
    BitrateLadder,
    EstimatorConfig,
    FairnessConfig,
    InvalidParameterError,
    SimConfig,
    run_fairness,
    run_session,
)
from affsim.cli import main
from affsim.sim import MAX_ROWS

CONSTANT = BandwidthProfile(((0.0, 1000.0),), math.inf)
SHORT_SEGMENTS = 5
SHORT_CLIENTS = 3


@pytest.mark.parametrize("field, build", [
    ("total_segments", lambda: SimConfig(total_segments=2.5)),
    ("total_segments", lambda: SimConfig(total_segments=True)),
    ("initial_quality_index", lambda: SimConfig(initial_quality_index=1.5)),
    ("initial_quality_index", lambda: SimConfig(initial_quality_index=True)),
    ("window", lambda: EstimatorConfig(kind="sliding_mean", window=True)),
    ("n_clients", lambda: FairnessConfig(n_clients=2.5)),
    ("window", lambda: FairnessConfig(window=(0, 1, 2))),
    ("window", lambda: FairnessConfig(window=("a", "b"))),
    ("rng_seed", lambda: FairnessConfig(rng_seed=math.nan)),
    ("kind", lambda: EstimatorConfig(kind="x")),
    ("kind", lambda: EstimatorConfig(kind=["aff"])),
    ("step_size", lambda: EstimatorConfig(step_size=0)),
    ("n_clients", lambda: FairnessConfig(
        n_clients=10 ** 8, sim=SimConfig(total_segments=5))),
    # its media (5e5 s) would pass a cap on wall time; its records do not
    ("total_segments", lambda: SimConfig(
        ladder=BitrateLadder(segment_duration_s=0.001),
        total_segments=500_000_000)),
    # the whole message, pinned
    ("^initial_quality_index 1 outside ladder of 1 rungs$", lambda: SimConfig(
        initial_quality_index=1, ladder=BitrateLadder((800.0,)))),
], ids=["segments-float", "segments-bool", "initial-float", "initial-bool",
        "avg-window-bool", "clients-float", "window-triple", "window-text",
        "seed-nan", "unknown-kind", "unhashable-kind", "zero-step",
        "clients-over-record-cap", "segments-over-record-cap",
        "initial-outside-ladder"])
def test_probe_refused_when_built(field, build):
    with pytest.raises(InvalidParameterError, match=field):
        build()


def test_record_cap_boundary():
    # 2^19 half-second segments stay under the session cap; two clients
    # of them hold exactly MAX_ROWS records, three do not
    sim = SimConfig(ladder=BitrateLadder(segment_duration_s=0.5),
                    total_segments=MAX_ROWS // 2)
    assert FairnessConfig(n_clients=2, sim=sim)
    with pytest.raises(InvalidParameterError, match="n_clients 3 x "):
        FairnessConfig(n_clients=3, sim=sim)


def test_knobs_of_other_kinds_are_not_checked(capsys):
    assert EstimatorConfig(kind="ewma", step_size=5.0, window=0)
    assert main(["run", "--synth", "test1", "--segments", "3",
                 "--estimator", "ewma", "--step-size", "5"]) == 0
    assert "segments: 3" in capsys.readouterr().out


SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
            5e-324, -5e-324, 1e-300, True, False)
HOSTILE = st.one_of(st.sampled_from(SPECIALS), st.floats(),
                    st.integers(-10 ** 30, 10 ** 30))


def hostile_tuples(*items):
    """Up to four items, sorted or not, each hostile or one of `items`."""
    drawn = st.lists(st.one_of(st.sampled_from(items), HOSTILE), max_size=4)
    return st.one_of(drawn.map(tuple), drawn.map(sorted).map(tuple))


@st.composite
def fields(draw, spec):
    """Keyword arguments from `spec`, name -> (ordinary, hostile) values.

    A drawn subset of the fields, often one or none, takes hostile values
    and the rest ordinary ones, so valid configs are drawn too.
    """
    hostile = draw(st.sets(st.sampled_from(sorted(spec))))
    return {name: draw(spec[name][1] if name in hostile else spec[name][0])
            for name in spec}


def ordinary(*values):
    return st.sampled_from(values)


LADDERS = fields({
    "bitrates_kbps": (ordinary((250.0, 500.0, 1000.0, 2000.0), (800.0,)),
                      hostile_tuples(250.0, 500.0, 1000.0, 2000.0)),
    "segment_duration_s": (ordinary(2.0, 1.0, 0.5), HOSTILE)})
ESTIMATORS = fields({
    "kind": (ordinary("aff", "ewma", "sliding_mean"), HOSTILE),
    "step_size": (ordinary(0.1, 0.05), HOSTILE),
    "forgetting_min": (ordinary(0.6, 0.3), HOSTILE),
    "forgetting_max": (ordinary(1.0, 0.9), HOSTILE),
    "ewma_weight": (ordinary(0.2, 0.5), HOSTILE),
    "window": (ordinary(3, 1), HOSTILE)})
SIMS = fields({
    "panic_buffer_s": (ordinary(8.0, 0.0), HOSTILE),
    "initial_quality_index": (ordinary(0, 1), HOSTILE),
    "max_buffer_s": (ordinary(30.0, 10.0), HOSTILE),
    "total_segments": (ordinary(1, 3, 5, 150), HOSTILE)})
FAIRNESS = fields({
    "n_clients": (ordinary(2, 3, 10), HOSTILE),
    "start_jitter_s": (ordinary(15.0, 0.0, 1.0), HOSTILE),
    "window": (ordinary((0.0, 50.0), (5.0, 20.0)),
               hostile_tuples(0.0, 5.0, 50.0)),
    "rng_seed": (ordinary(0, 7), HOSTILE)})
SHORT_SIMS = ordinary(*[
    SimConfig(estimator=EstimatorConfig(kind=kind),
              total_segments=SHORT_SEGMENTS)
    for kind in ("aff", "ewma", "sliding_mean")])


def built(cls, kwargs):
    """The config, or None when its constructor refuses the fields."""
    try:
        return cls(**kwargs)
    except AffSimError:
        return None


def identity_gap(trace, start_s, seg_dur):
    media = len(trace.records) * seg_dur
    stalls = sum(d for _, d in trace.stalls)
    return abs(trace.wall_time_s - start_s
               - (trace.startup_delay_s + media + stalls))


@given(LADDERS, ESTIMATORS, SIMS)
@settings(max_examples=150, deadline=None)
def test_hostile_session_fields(ladder_kw, est_kw, sim_kw):
    # a refused part falls back to its default, so the fields of the
    # types around it are still drawn
    ladder = built(BitrateLadder, ladder_kw) or BitrateLadder()
    estimator = built(EstimatorConfig, est_kw) or EstimatorConfig()
    cfg = built(SimConfig, dict(sim_kw, ladder=ladder, estimator=estimator))
    if cfg is None:
        return
    cfg = dataclasses.replace(
        cfg, total_segments=min(cfg.total_segments, SHORT_SEGMENTS))
    try:
        trace = run_session(CONSTANT, cfg)
    except AffSimError:
        return
    assert identity_gap(trace, 0.0, cfg.ladder.segment_duration_s) <= 1e-9


@given(FAIRNESS, SHORT_SIMS)
@settings(max_examples=150, deadline=None)
def test_hostile_fairness_fields(fair_kw, sim):
    cfg = built(FairnessConfig, dict(fair_kw, profile=CONSTANT, sim=sim))
    if cfg is None:
        return
    cfg = dataclasses.replace(cfg, n_clients=min(cfg.n_clients, SHORT_CLIENTS))
    try:
        result = run_fairness(cfg)
    except AffSimError:
        return
    assert 0.0 < result.jfi <= 1.0 + 1e-12
    assert len(result.traces) == cfg.n_clients
    for trace in result.traces:
        start_s = trace.records[0].t_request_s  # the first never waits
        # a late start puts the clock where its resolution passes 1e-9
        tol = 1e-9 + 16 * math.ulp(trace.wall_time_s)
        gap = identity_gap(trace, start_s, cfg.sim.ladder.segment_duration_s)
        assert gap <= tol
