"""Shared-link fairness tests."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsim import (
    BandwidthProfile,
    FairnessConfig,
    InvalidParameterError,
    SimConfig,
    fairness_table3,
    jain_index,
    run_fairness,
    run_session,
)
from affsim import sim
from affsim.fairness import _run_shared


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
        assert 1.0 / len(xs) - 1e-12 <= j <= 1.0 + 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2,
                    max_size=20),
           st.randoms(use_true_random=False),
           st.integers(min_value=-6, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_permutation_and_scale_invariance(self, xs, rng, log2_scale):
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert jain_index(shuffled) == pytest.approx(jain_index(xs),
                                                     rel=1e-12)
        s = 2.0 ** log2_scale
        assert jain_index([x * s for x in xs]) == pytest.approx(
            jain_index(xs), rel=1e-12)


class TestSharedEngine:
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    def test_lockstep_clients_match_solo(self, n):
        # n identical clients splitting a constant n*C link behave exactly
        # like one client owning C
        cfg = SimConfig(total_segments=60)
        group = _run_shared(constant(n * 2000.0), cfg, [0.0] * n)
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
           st.integers(min_value=1, max_value=30))
    @example(pieces=[(100.0, 22000.0), (100.0, 12000.0), (100.0, 6000.0)],
             tail_kbps=22000.0, start_times=[1.0, 2.5, 4.0, 7.5, 11.0],
             segments=180)  # the built-in shared link
    @settings(max_examples=150, deadline=None)
    def test_total_downloads_never_exceed_link_capacity(
            self, pieces, tail_kbps, start_times, segments):
        # by any time T, the kbit completed never exceed what the trace
        # offered over [0, T]; the last piece is open ended and positive
        bps, t = [], 0.0
        for length, kbps in pieces:
            bps.append((t, kbps))
            t += length
        bps.append((t, tail_kbps))
        profile = BandwidthProfile(tuple(bps), math.inf)
        traces = _run_shared(profile, SimConfig(total_segments=segments),
                             start_times)
        done = sorted((r.t_complete_s, r.size_kbit)
                      for tr in traces for r in tr.records)
        moved = 0.0
        for t_done, size in done:
            moved += size
            assert moved <= offered_kbit(profile, t_done) + 1e-6

    def test_staggered_starts_shift_first_request(self):
        cfg = SimConfig(total_segments=5)
        traces = _run_shared(constant(5000.0), cfg, [0.0, 3.0])
        assert traces[0].records[0].t_request_s == 0.0
        assert traces[1].records[0].t_request_s == 3.0


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

    Each segment is one request and one completion. Both pass through one
    heap each way, except that the N start times are heapified, not pushed.
    """

    def test_heap_and_client_calls_per_segment(self, monkeypatch):
        counts = dict.fromkeys(("push", "pop", "issue", "complete"), 0)

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sim, "heappush", counted("push", sim.heappush))
        monkeypatch.setattr(sim, "heappop", counted("pop", sim.heappop))
        monkeypatch.setattr(sim._Client, "issue",
                            counted("issue", sim._Client.issue))
        monkeypatch.setattr(sim._Client, "complete",
                            counted("complete", sim._Client.complete))
        n, segments, runs = 40, 180, 4
        base = fairness_table3()
        link = BandwidthProfile(  # the 10-client link scaled to 40 clients
            tuple((t, kbps * n / 10.0) for t, kbps in base.breakpoints),
            base.duration_s)
        for seed in range(runs):
            run_fairness(FairnessConfig(
                n_clients=n, profile=link,
                sim=SimConfig(total_segments=segments), rng_seed=seed))
        assert counts["issue"] == counts["complete"] == runs * segments * n
        assert counts["pop"] == runs * 2 * segments * n
        assert counts["push"] == runs * (2 * segments * n - n)


class TestRunFairness:
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
        with pytest.raises(InvalidParameterError) as err:
            FairnessConfig(window=(50.0, 500.0))
        assert str(err.value) == (
            "profile ends at 360, before the window end 500")

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
            "no client completed a segment inside the window [100, 300]")

    def test_estimator_homogeneity_respected(self):
        sliding = dataclasses.replace(
            FairnessConfig(rng_seed=3).sim,
            estimator=dataclasses.replace(
                FairnessConfig().sim.estimator, kind="sliding_mean"))
        result = run_fairness(FairnessConfig(sim=sliding, rng_seed=3))
        assert result.jfi >= 0.97
