"""Shared-link fairness tests."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsim import (
    BandwidthProfile,
    ClockHorizonError,
    EstimatorConfig,
    FairnessConfig,
    InvalidParameterError,
    SimConfig,
    fairness_table3,
    jain_index,
    run_fairness,
    run_session,
    run_shared,
    synthesize_profile,
)
from affsim import estimators, sim
from affsim.profiles import SYNTH_KINDS

KINDS = ("aff", "ewma", "sliding_mean")


def constant(kbps, duration_s=1e6):
    return BandwidthProfile(((0.0, kbps),), duration_s)


class TestJainIndex:
    def test_equal_allocations_score_one(self):
        assert jain_index([1.0, 1.0, 1.0, 1.0]) == 1.0
        assert jain_index([7.5] * 9) == pytest.approx(1.0)

    def test_single_value_scores_one(self):
        assert jain_index([3.0]) == 1.0

    def test_one_hog_scores_reciprocal_n(self):
        assert jain_index([5.0, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.2)

    def test_hand_examples(self):
        assert jain_index([1.0, 3.0]) == pytest.approx(0.8)
        assert jain_index([1.0, 2.0, 3.0, 4.0]) == pytest.approx(100.0 / 120.0)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParameterError):
            jain_index([])
        with pytest.raises(InvalidParameterError):
            jain_index([0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            jain_index([1.0, -0.5])
        with pytest.raises(InvalidParameterError):
            jain_index([1.0, float("nan")])
        with pytest.raises(InvalidParameterError):
            jain_index([1.0, float("inf")])

    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=1e-3, max_value=1e6)),
                    min_size=1, max_size=40).filter(lambda xs: sum(xs) > 0))
    @settings(max_examples=300, deadline=None)
    def test_bounds(self, xs):
        j = jain_index(xs)
        assert 1.0 / len(xs) - 1e-12 <= j <= 1.0

    # every scaled value stays finite and normal: 1e6 * 2**1000 < 2**1020
    # and 0.01 * 2**-1000 > 2**-1007
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2,
                    max_size=20),
           st.randoms(use_true_random=False),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_permutation_and_scale_invariance(self, xs, rng, log2_scale):
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert jain_index(shuffled) == pytest.approx(jain_index(xs),
                                                     rel=1e-12)
        s = 2.0 ** log2_scale
        assert jain_index([x * s for x in xs]) == pytest.approx(
            jain_index(xs), rel=1e-12)

    @given(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           st.integers(min_value=1, max_value=100))
    @example(1e200, 2)  # the squares once overflowed to NaN,
    @example(1e-200, 2)  # underflowed to a refusal,
    @example(1.1, 40)  # or rounded to 1.0000000000000007
    @example(5e-324, 40)
    @example(1.7976931348623157e308, 40)
    @settings(max_examples=300, deadline=None)
    def test_equal_values_never_score_above_one(self, value, n):
        assert 1.0 - 1e-12 < jain_index([value] * n) <= 1.0


class TestSharedEngine:
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    def test_lockstep_clients_match_solo(self, n):
        # n identical clients splitting a constant n*C link behave exactly
        # like one client owning C
        cfg = SimConfig(total_segments=60)
        group = run_shared(constant(n * 2000.0), [(cfg, 0.0)] * n)
        solo = run_session(constant(2000.0), cfg)
        for other in group[1:]:
            assert other.records == group[0].records
        for shared_rec, solo_rec in zip(group[0].records, solo.records):
            assert shared_rec.quality_index == solo_rec.quality_index
            assert shared_rec.t_complete_s == pytest.approx(
                solo_rec.t_complete_s, abs=1e-9)
        assert group[0].stalls == solo.stalls

    @given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=40.0),
                              st.one_of(st.just(0.0),
                                        st.floats(min_value=50.0,
                                                  max_value=20000.0))),
                    min_size=1, max_size=8),
           st.floats(min_value=100.0, max_value=20000.0),
           st.lists(st.floats(min_value=0.0, max_value=30.0),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=30),
           st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    @example(pieces=[(100.0, 22000.0), (100.0, 12000.0), (100.0, 6000.0)],
             tail_kbps=22000.0, start_times=[1.0, 2.5, 4.0, 7.5, 11.0],
             segments=180, kinds=["aff"])  # the built-in shared link
    @example(pieces=[(100.0, 22000.0), (100.0, 12000.0), (100.0, 6000.0)],
             tail_kbps=22000.0, start_times=[1.0, 2.5, 4.0, 7.5, 11.0],
             segments=180, kinds=list(KINDS))  # and a mixed one
    @settings(max_examples=150, deadline=None)
    def test_total_downloads_never_exceed_link_capacity(
            self, pieces, tail_kbps, start_times, segments, kinds):
        # by any time T, the kbit completed never exceed what the trace
        # offered over [0, T]; the last piece is open ended and positive.
        # Client i runs estimator kinds[i % len(kinds)], and each keeps
        # the closing identity from its own start time
        bps, t = [], 0.0
        for length, kbps in pieces:
            bps.append((t, kbps))
            t += length
        bps.append((t, tail_kbps))
        profile = BandwidthProfile(tuple(bps), math.inf)
        cfgs = [SimConfig(estimator=EstimatorConfig(kind=kind),
                          total_segments=segments) for kind in kinds]
        clients = [(cfgs[i % len(cfgs)], start)
                   for i, start in enumerate(start_times)]
        traces = run_shared(profile, clients)
        assert len(traces) == len(clients)
        done = sorted((r.t_complete_s, r.size_kbit)
                      for tr in traces for r in tr.records)
        moved = 0.0
        for t_done, size in done:
            moved += size
            assert moved <= offered_kbit(profile, t_done) + 1e-6
        for (cfg, start), trace in zip(clients, traces):
            media = segments * cfg.ladder.segment_duration_s
            stalls = sum(d for _, d in trace.stalls)
            assert abs(trace.wall_time_s - start - (
                trace.startup_delay_s + media + stalls)) <= 1e-9

    def test_staggered_starts_shift_first_request(self):
        cfg = SimConfig(total_segments=5)
        traces = run_shared(constant(5000.0), [(cfg, 0.0), (cfg, 3.0)])
        assert traces[0].records[0].t_request_s == 0.0
        assert traces[1].records[0].t_request_s == 3.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf,
                                     -math.inf])
    def test_start_time_negative_or_not_finite_rejected(self, bad):
        # the trace starts at 0 and each client records its own request
        # times, so a start before 0 would be logged at a time never
        # served; a lone client, on the heap-free loop, is refused alike
        cfg = SimConfig(total_segments=5)
        for clients in ([(cfg, bad)], [(cfg, 0.0), (cfg, bad)]):
            with pytest.raises(InvalidParameterError,
                               match="start times must be finite and at "
                                     "least 0, got"):
                run_shared(constant(5000.0), clients)

    def test_start_at_or_past_the_horizon_refused_first(self):
        # no such client can end; the engine once ran every client first
        # and blamed the trace
        cfg = SimConfig()
        for clients in ([(cfg, 2.0 ** 21)], [(cfg, 2.0 ** 21), (cfg, 0.0)]):
            with pytest.raises(ClockHorizonError) as err:
                run_shared(fairness_table3(), clients)
            assert str(err.value) == (
                "start time 2097152.0 is at or past the clock horizon")

    def test_total_records_cap_boundary(self, monkeypatch):
        # the clients' total_segments may sum to MAX_ROWS records; one more
        # is refused before any client starts
        monkeypatch.setattr(sim, "MAX_ROWS", 10)
        link = constant(5000.0)
        four, six = SimConfig(total_segments=4), SimConfig(total_segments=6)
        traces = run_shared(link, [(four, 0.0), (six, 1.0)])
        assert [len(tr.records) for tr in traces] == [4, 6]
        monkeypatch.setattr(sim, "_client", None)
        with pytest.raises(InvalidParameterError,
                           match="clients' total_segments sum to 11, over "
                                 "10 records"):
            run_shared(link, [(four, 0.0), (six, 1.0), (SimConfig(
                total_segments=1), 2.0)])

    def test_clients_keep_their_own_configs(self):
        # an aff and an ewma client on one link: each trace is the one its
        # config gives, so the two estimates part
        cfgs = [SimConfig(estimator=EstimatorConfig(kind=kind),
                          total_segments=30 + 10 * i)
                for i, kind in enumerate(("aff", "ewma"))]
        link = fairness_table3()
        traces = run_shared(link, [(cfgs[0], 0.0), (cfgs[1], 2.0)])
        assert [len(tr.records) for tr in traces] == [30, 40]
        assert traces[1].records[0].t_request_s == 2.0
        ewma = estimators.estimator_kinds()["ewma"].update
        state = cfgs[1].estimator.initial_state
        for r in traces[1].records:
            state, estimate = ewma(state, r.instant_throughput_kbps)
            assert r.estimate_kbps == estimate
        assert [r.estimate_kbps for r in traces[0].records[1:]] != \
            [r.estimate_kbps for r in traces[1].records[1:30]]

    def test_empty_link_returns_no_traces(self):
        assert run_shared(constant(5000.0), []) == []


def offered_kbit(profile, until):
    """Capacity the profile offers over [0, until], in kbit."""
    bps = profile.breakpoints
    total = 0.0
    for i, (start, kbps) in enumerate(bps):
        stop = bps[i + 1][0] if i + 1 < len(bps) else until
        if start < until:
            total += (min(stop, until) - start) * kbps
    return total


class TestEngineOperationCount:
    """Operation counts of the shared-link engine, exact for any host.

    Each client is sent one value per segment, its completion time, and
    makes one decision and one estimator update per segment, both looked
    up where a tracer can wrap them. Each download enters and leaves the
    in-flight heap once. Only the N start times, heapified rather than
    pushed, and the D requests deferred by a room wait pass through the
    request heap; a request due at its completion goes straight into
    flight. A lone client owns the whole link, so its loop keeps no heap.
    """

    KEYS = ("push", "pop", "send", "return", "decide", "update")

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(self.KEYS, 0)

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        client = sim._client

        class CountedClient:
            # the engine primes a client with next() and sends it each
            # completion; the last send ends it with its trace
            def __init__(self, *args):
                self.gen = client(*args)

            def __next__(self):
                return next(self.gen)

            def send(self, t):
                counts["send"] += 1
                try:
                    return self.gen.send(t)
                except StopIteration:
                    counts["return"] += 1
                    raise

        monkeypatch.setattr(sim, "heappush", counted("push", sim.heappush))
        monkeypatch.setattr(sim, "heappop", counted("pop", sim.heappop))
        monkeypatch.setattr(sim, "decide", counted("decide", sim.decide))
        monkeypatch.setattr(estimators, "aff_update",
                            counted("update", estimators.aff_update))
        monkeypatch.setattr(sim, "_client", CountedClient)
        return counts

    def test_heap_and_client_calls_per_segment(self, counts):
        n, segments = 40, 180
        base = fairness_table3()
        link = BandwidthProfile(  # the 10-client link scaled to 40 clients
            tuple((t, kbps * n / 10.0) for t, kbps in base.breakpoints),
            base.duration_s)
        for seed in range(4):
            counts.update(dict.fromkeys(self.KEYS, 0))
            traces = run_fairness(FairnessConfig(
                n_clients=n, profile=link,
                sim=SimConfig(total_segments=segments), rng_seed=seed)).traces
            assert len(traces) == n
            deferred = sum(b.t_request_s != a.t_complete_s
                           for tr in traces
                           for a, b in zip(tr.records, tr.records[1:]))
            assert deferred > 0
            sn = segments * n
            assert counts["send"] == counts["decide"] == \
                counts["update"] == sn
            assert counts["return"] == n
            assert counts["pop"] == sn + n + deferred
            assert counts["push"] == sn + deferred

    def test_lone_client_needs_no_heap(self, counts):
        # a session, a one-pair link and one download all run the
        # one-client loop, room waits and breakpoints included
        cfg = SimConfig(max_buffer_s=12.0, total_segments=180)
        profile = synthesize_profile("test1", 3, 1000.0)
        runs = [
            (lambda: run_session(profile, cfg).records, 180),
            (lambda: run_shared(profile, [(cfg, 7.5)])[0].records, 180),
            (lambda: sim.integrate_download(profile, 7.5, 3000.0), 1),
        ]
        for run, segments in runs:
            counts.update(dict.fromkeys(self.KEYS, 0))
            records = run()
            if segments > 1:
                assert any(b.t_request_s != a.t_complete_s
                           for a, b in zip(records, records[1:]))
                assert any(r.t_request_s < t < r.t_complete_s
                           for r in records for t in profile.starts)
            assert counts["push"] == counts["pop"] == 0
            assert counts["send"] == counts["decide"] == \
                counts["update"] == segments
            assert counts["return"] == 1


class TestRunFairness:
    def test_result_keeps_the_scored_traces(self):
        cfg = FairnessConfig(n_clients=3, sim=SimConfig(total_segments=60),
                             window=(20.0, 100.0), rng_seed=4)
        result = run_fairness(cfg)
        assert len(result.traces) == 3
        rng = random.Random(4)  # run_fairness draws one start per client
        assert [tr.records[0].t_request_s for tr in result.traces] == \
            [rng.uniform(0.0, cfg.start_jitter_s) for _ in range(3)]
        lo, hi = cfg.window
        assert result.per_client_avg_kbps == tuple(
            sum(r.size_kbit for r in tr.records
                if lo <= r.t_complete_s <= hi) / (hi - lo)
            for tr in result.traces)
        # the traces stay out of repr, equality and hashing
        bare = dataclasses.replace(result, traces=())
        assert "traces" not in repr(result)
        assert bare == result and hash(bare) == hash(result)

    def test_zero_jitter_is_exactly_symmetric(self):
        cfg = FairnessConfig(n_clients=4, start_jitter_s=0.0,
                             window=(50.0, 350.0))
        result = run_fairness(cfg)
        first = result.per_client_avg_kbps[0]
        assert all(v == first for v in result.per_client_avg_kbps)
        assert result.jfi == pytest.approx(1.0)

    def test_two_clients_on_ample_constant_link(self):
        cfg = FairnessConfig(
            n_clients=2, start_jitter_s=0.0, window=(50.0, 350.0),
            profile=constant(4000.0, duration_s=400.0),
            sim=SimConfig(total_segments=180))
        result = run_fairness(cfg)
        a, b = result.per_client_avg_kbps
        assert abs(a - b) <= 0.01 * max(a, b)
        assert result.jfi >= 0.9999

    def test_default_profile_and_shape(self):
        result = run_fairness(FairnessConfig(rng_seed=0))
        assert len(result.per_client_avg_kbps) == 10
        assert result.total_avg_kbps == pytest.approx(
            sum(result.per_client_avg_kbps) / 10.0)
        assert 0.0 < result.jfi <= 1.0
        assert result.jfi >= 0.97  # loose floor, near-equal sharing
        for v in result.per_client_avg_kbps:
            assert 800.0 <= v <= 1600.0

    def test_deterministic_for_seed(self):
        a = run_fairness(FairnessConfig(rng_seed=5))
        b = run_fairness(FairnessConfig(rng_seed=5))
        assert a == b

    def test_seed_changes_start_times(self):
        a = run_fairness(FairnessConfig(rng_seed=0))
        b = run_fairness(FairnessConfig(rng_seed=1))
        assert a.per_client_avg_kbps != b.per_client_avg_kbps

    def test_window_bounds_attribution(self):
        # shrinking the window to a single phase keeps averages near the
        # per-client equal share of that phase
        cfg = FairnessConfig(n_clients=2, start_jitter_s=0.0,
                             window=(60.0, 90.0),
                             profile=constant(3000.0, duration_s=200.0),
                             sim=SimConfig(total_segments=95))
        result = run_fairness(cfg)
        for v in result.per_client_avg_kbps:
            assert v <= 3000.0 / 2.0 + 500.0

    @given(st.sampled_from(SYNTH_KINDS), st.integers(0, 2 ** 16),
           st.integers(2, 5), st.integers(20, 40),
           st.floats(0.0, 15.0), st.data())
    @settings(max_examples=40, deadline=None)
    def test_window_sums_match_a_scan(self, kind, seed, n, segments,
                                      jitter, data):
        # the windowed sums are the ones a scan over every record gives,
        # bit for bit, also when an end lands on a completion time or one
        # ulp either side of it
        cfg = FairnessConfig(n_clients=n, start_jitter_s=jitter,
                             window=(0.0, 3000.0),
                             profile=synthesize_profile(kind, seed, 3000.0),
                             sim=SimConfig(total_segments=segments),
                             rng_seed=seed)
        times = sorted({r.t_complete_s for tr in run_fairness(cfg).traces
                        for r in tr.records})
        i = data.draw(st.integers(0, len(times) - 3))
        j = data.draw(st.integers(i + 2, len(times) - 1))
        nudge = st.sampled_from((-math.inf, None, math.inf))
        w_lo, w_hi = (t if d is None else math.nextafter(t, d)
                      for t, d in ((times[i], data.draw(nudge)),
                                   (times[j], data.draw(nudge))))
        result = run_fairness(dataclasses.replace(cfg, window=(w_lo, w_hi)))
        assert result.per_client_avg_kbps == tuple(
            sum(r.size_kbit for r in tr.records
                if w_lo <= r.t_complete_s <= w_hi) / (w_hi - w_lo)
            for tr in result.traces)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_fairness(FairnessConfig(n_clients=1))
        for jitter in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                run_fairness(FairnessConfig(start_jitter_s=jitter))
        with pytest.raises(InvalidParameterError):
            run_fairness(FairnessConfig(window=(300.0, 100.0)))
        with pytest.raises(InvalidParameterError):
            run_fairness(FairnessConfig(window=(50.0, 500.0)))  # past end

    def test_default_link_is_owned_by_the_config(self):
        assert FairnessConfig().profile == fairness_table3()
        # the config builds; the run, where it meets its trace, refuses
        cfg = FairnessConfig(window=(50.0, 500.0))
        with pytest.raises(InvalidParameterError) as err:
            run_fairness(cfg)
        assert str(err.value) == (
            "profile ends at 360.0, before the window end 500.0")

    def test_infinite_window_end_rejected(self):
        open_ended = BandwidthProfile(((0.0, 2500.0),), math.inf)
        with pytest.raises(InvalidParameterError, match="window"):
            run_fairness(FairnessConfig(profile=open_ended,
                                        window=(50.0, math.inf)))

    def test_window_without_completions_is_named(self):
        # every client is done before 100 s, so no segment lands in the
        # window; the window, not the allocations, is to blame
        cfg = FairnessConfig(window=(100.0, 300.0),
                             sim=SimConfig(total_segments=20))
        with pytest.raises(InvalidParameterError) as err:
            run_fairness(cfg)
        assert str(err.value) == (
            "no client completed a segment inside the window [100.0, 300.0]")

    def test_estimator_homogeneity_respected(self):
        sliding = dataclasses.replace(
            FairnessConfig(rng_seed=3).sim,
            estimator=dataclasses.replace(
                FairnessConfig().sim.estimator, kind="sliding_mean"))
        result = run_fairness(FairnessConfig(sim=sliding, rng_seed=3))
        assert result.jfi >= 0.97
