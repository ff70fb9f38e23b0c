"""Bandwidth profile tests."""

import argparse
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    BUILTIN_PROFILES,
    BandwidthProfile,
    InvalidParameterError,
    OutOfRangeError,
    ProfileParseError,
    ProfileStats,
    ProfileValidationError,
    bandwidth_at,
    dump_profile,
    fairness_table3,
    load_profile,
    profile_stats,
    synthesize_profile,
)
from affsim.cli import _synth_span
from affsim.profiles import MAX_SYNTH_DURATION_S

TABLE3_CSV = "0,22000\n100,12000\n200,6000\n300,22000"


class TestLoadProfile:
    def test_parses_plain_rows(self):
        p = load_profile(TABLE3_CSV, 360.0)
        assert p.breakpoints == (
            (0.0, 22000.0), (100.0, 12000.0), (200.0, 6000.0),
            (300.0, 22000.0))
        assert p.duration_s == 360.0

    def test_matches_builtin_fairness_profile(self):
        assert load_profile(TABLE3_CSV, 360.0) == fairness_table3()

    def test_header_comments_and_blanks_skipped(self):
        text = "time_s,bandwidth_kbps\n# shaped link\n\n0,1000\n5,2000\n"
        p = load_profile(text, 10.0)
        assert p.breakpoints == ((0.0, 1000.0), (5.0, 2000.0))

    def test_single_row_constant_profile(self):
        p = load_profile("0,1000", 10.0)
        assert bandwidth_at(p, 9.999) == 1000.0

    def test_accepts_iterable_of_lines(self):
        p = load_profile(iter(["0,750\n", "4,250\n"]), 8.0)
        assert p.breakpoints == ((0.0, 750.0), (4.0, 250.0))

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # a mark opening the first data row would make it look like a
        # header; one mark, on the first line only, is dropped
        want = ((0.0, 1000.0), (5.0, 2000.0))
        assert load_profile("\ufeff0,1000\n5,2000\n", 20.0).breakpoints \
            == want
        assert load_profile(iter(["\ufeff0,1000\n", "5,2000\n"]),
                            20.0).breakpoints == want
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1000\n5,2000\n")
        with open(path, encoding="utf-8") as fh:
            assert load_profile(fh, 20.0).breakpoints == want
        with pytest.raises(ProfileValidationError, match="got 5"):
            # the second mark still makes the first row a header
            load_profile("\ufeff\ufeff0,1000\n5,2000\n", 20.0)
        with pytest.raises(ProfileParseError) as err:
            load_profile("0,1000\n\ufeff5,2000\n", 20.0)
        assert err.value.line_no == 2

    def test_no_duration_means_open_ended(self):
        p = load_profile("0,1000")
        assert p.duration_s == math.inf
        assert bandwidth_at(p, 1e12) == 1000.0

    def test_malformed_row_reports_line_number(self):
        text = "time_s,bandwidth_kbps\n0,1000\n5,banana\n"
        with pytest.raises(ProfileParseError) as err:
            load_profile(text, 10.0)
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)

    def test_wrong_field_count_reports_line_number(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile("0,1000\n5,1000,9\n", 10.0)
        assert err.value.line_no == 2

    def test_non_numeric_after_data_is_an_error(self):
        # only a leading header is tolerated
        with pytest.raises(ProfileParseError):
            load_profile("0,1000\nwat,1000\n", 10.0)

    def test_times_not_increasing_rejected(self):
        with pytest.raises(ProfileValidationError):
            load_profile("5,1000\n0,2000", 10.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ProfileValidationError):
            load_profile("# nothing here\n", 10.0)
        with pytest.raises(ProfileValidationError,
                           match="profile needs at least one row"):
            BandwidthProfile((), 10.0)

    def test_round_trips_through_dump(self):
        p = load_profile(TABLE3_CSV, 360.0)
        again = load_profile(dump_profile(p), 360.0)
        assert again == p


class TestValidation:
    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ProfileValidationError):
            BandwidthProfile(((1.0, 100.0),), 10.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ProfileValidationError):
            BandwidthProfile(((0.0, -1.0),), 10.0)

    def test_duration_before_last_breakpoint_rejected(self):
        with pytest.raises(ProfileValidationError):
            BandwidthProfile(((0.0, 100.0), (20.0, 50.0)), 10.0)

    @pytest.mark.parametrize("breakpoints", [
        ((0.0, float("nan")), (5.0, 3000.0)),
        ((0.0, 1000.0), (5.0, float("inf"))),
        ((0.0, 1000.0), (float("nan"), 3000.0)),
        ((0.0, 1000.0), (float("inf"), 3000.0)),
    ], ids=["nan-kbps", "inf-kbps", "nan-start", "inf-start"])
    def test_non_finite_values_rejected(self, breakpoints):
        with pytest.raises(ProfileValidationError):
            BandwidthProfile(breakpoints, math.inf)

    def test_nan_duration_rejected(self):
        with pytest.raises(ProfileValidationError):
            BandwidthProfile(((0.0, 100.0),), float("nan"))

    def test_zero_bandwidth_allowed(self):
        p = BandwidthProfile(((0.0, 0.0),), 10.0)
        assert bandwidth_at(p, 5.0) == 0.0

    def test_breakpoint_starts_are_derived_not_fields(self):
        p = BandwidthProfile(((0, 100), (5, 50)), 10.0)
        assert p.starts == (0.0, 5.0)
        assert "starts" not in repr(p)
        assert p == BandwidthProfile(((0.0, 100.0), (5.0, 50.0)), 10.0)
        moved = dataclasses.replace(p, breakpoints=((0.0, 1.0), (7.0, 2.0)))
        assert moved.starts == (0.0, 7.0)


class TestBandwidthAt:
    def test_interior_lookup(self):
        p = fairness_table3()
        assert bandwidth_at(p, 150.0) == 12000.0

    def test_boundary_belongs_to_later_interval(self):
        p = fairness_table3()
        assert bandwidth_at(p, 100.0) == 12000.0
        assert bandwidth_at(p, 200.0) == 6000.0
        assert bandwidth_at(p, 300.0) == 22000.0

    def test_start_and_end_behaviour(self):
        p = fairness_table3()
        assert bandwidth_at(p, 0.0) == 22000.0
        with pytest.raises(OutOfRangeError):
            bandwidth_at(p, 360.0)
        with pytest.raises(OutOfRangeError):
            bandwidth_at(p, -0.001)
        with pytest.raises(OutOfRangeError):
            bandwidth_at(p, math.nan)


class TestProfileStats:
    def test_fairness_profile_stats(self):
        s = profile_stats(fairness_table3())
        assert s.max_mbps == 22.0
        assert s.min_mbps == 6.0
        assert s.avg_mbps == pytest.approx(5320.0 / 360.0)  # 14.777...
        assert s.avg_mbps == pytest.approx(14.78, abs=0.01)

    def test_constant_profile_stats(self):
        s = profile_stats(BandwidthProfile(((0.0, 1500.0),), 42.0))
        assert (s.max_mbps, s.min_mbps, s.avg_mbps) == (1.5, 1.5, 1.5)
        assert s.stddev_mbps == 0.0

    def test_two_equal_halves(self):
        p = BandwidthProfile(((0.0, 1000.0), (10.0, 3000.0)), 20.0)
        s = profile_stats(p)
        assert s.avg_mbps == pytest.approx(2.0)
        assert s.stddev_mbps == pytest.approx(1.0)

    def test_weights_by_time_not_by_row(self):
        # 1 Mbps for 90% of the time must dominate a brief 11 Mbps spike
        p = BandwidthProfile(((0.0, 1000.0), (18.0, 11000.0)), 20.0)
        s = profile_stats(p)
        assert s.avg_mbps == pytest.approx(2.0)

    @pytest.mark.parametrize("log2_scale", [-1000, -40, -1, 1, 40, 990])
    def test_power_of_two_scaling_scales_stats_exactly(self, log2_scale):
        s = 2.0 ** log2_scale
        for p in (fairness_table3(), synthesize_profile("test2", 4, 800.0)):
            scaled = BandwidthProfile(
                tuple((t, b * s) for t, b in p.breakpoints), p.duration_s)
            assert profile_stats(scaled) == ProfileStats(
                *(v * s for v in dataclasses.astuple(profile_stats(p))))

    def test_open_ended_profile_has_no_stats(self):
        with pytest.raises(InvalidParameterError):
            profile_stats(load_profile("0,1000"))


class TestBuiltins:
    def test_registry_contains_fairness_profile(self):
        assert BUILTIN_PROFILES["fairness-table3"]() == fairness_table3()

    def test_fairness_profile_shape(self):
        p = fairness_table3()
        assert p.duration_s == 360.0
        assert len(p.breakpoints) == 4


SYNTH_ROWS = {
    # kind: (floor_kbps, ceil_kbps, mean_kbps, sd_kbps)
    "test1": (800.0, 2400.0, 2170.0, 276.5),
    "test2": (10.0, 4570.0, 1230.0, 637.4),
    "test3": (10.0, 5730.0, 2310.0, 1331.7),
}


class TestSynthesize:
    def test_deterministic_for_seed(self):
        a = synthesize_profile("test1", 7, 600.0)
        b = synthesize_profile("test1", 7, 600.0)
        assert a == b

    def test_seeds_differ(self):
        assert synthesize_profile("test1", 1, 600.0) \
            != synthesize_profile("test1", 2, 600.0)

    def test_kinds_use_independent_streams(self):
        assert synthesize_profile("test1", 1, 600.0) \
            != synthesize_profile("test2", 1, 600.0)

    @pytest.mark.parametrize("kind", sorted(SYNTH_ROWS))
    @pytest.mark.parametrize("duration", [60.0, 300.0, 600.0])
    def test_stats_hit_targets(self, kind, duration):
        lo, hi, mean, sd = SYNTH_ROWS[kind]
        for seed in range(5):
            p = synthesize_profile(kind, seed, duration)
            s = profile_stats(p)
            assert s.max_mbps <= hi / 1000.0 + 1e-9
            assert s.min_mbps >= lo / 1000.0 - 1e-9
            assert abs(s.avg_mbps - mean / 1000.0) <= 0.15 * mean / 1000.0
            assert abs(s.stddev_mbps - sd / 1000.0) <= 0.15 * sd / 1000.0

    @pytest.mark.parametrize("kind", sorted(SYNTH_ROWS))
    def test_trace_touches_both_extremes(self, kind):
        lo, hi, _, _ = SYNTH_ROWS[kind]
        p = synthesize_profile(kind, 3, 600.0)
        values = [b for _, b in p.breakpoints]
        assert min(values) == lo
        assert max(values) == hi

    def test_reference_seed_stats(self):
        s = profile_stats(synthesize_profile("test1", 7, 600.0))
        assert abs(s.avg_mbps - 2.17) <= 0.15 * 2.17
        assert abs(s.stddev_mbps - 0.2765) <= 0.15 * 0.2765
        assert s.max_mbps <= 2.40 + 1e-9
        assert s.min_mbps >= 0.80 - 1e-9

    def test_sudden_drop_kind_is_two_plateaus(self):
        p = synthesize_profile("test4", 0, 600.0)
        assert p.breakpoints == ((0.0, 2390.0), (300.0, 600.0))
        assert p == synthesize_profile("test4", 99, 600.0)  # seed-free

    def test_sudden_drop_stats(self):
        s = profile_stats(synthesize_profile("test4", 0, 600.0))
        assert abs(s.avg_mbps - 1.50) <= 0.15 * 1.50
        assert abs(s.stddev_mbps - 0.8063) <= 0.15 * 0.8063

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            synthesize_profile("test9", 0, 600.0)

    @pytest.mark.parametrize("seed", [float("nan"), 1.5, True, "1"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed was once formatted with %d, so 1.5 gave seed 1's trace
        with pytest.raises(InvalidParameterError, match="seed"):
            synthesize_profile("test1", seed, 600.0)

    def test_too_short_duration_rejected(self):
        with pytest.raises(InvalidParameterError):
            synthesize_profile("test1", 0, 59.0)

    def test_duration_bound(self):
        # the bound admits the CLI's default span for 2^19 s of media, and
        # refuses the next float up before any generation (test1 at 1e300
        # once looped until memory ran out)
        longest_media = 2.0 ** 19
        args = argparse.Namespace(segments=int(longest_media / 2.0),
                                  segment_duration=2.0)
        assert _synth_span(args) <= MAX_SYNTH_DURATION_S
        p = synthesize_profile("test4", 0, MAX_SYNTH_DURATION_S)
        assert p.duration_s == MAX_SYNTH_DURATION_S
        over = math.nextafter(MAX_SYNTH_DURATION_S, math.inf)
        for kind in ("test1", "test2", "test3", "test4"):
            with pytest.raises(InvalidParameterError,
                               match=r"must lie in \[60, 2097152\]"):
                synthesize_profile(kind, 0, over)

    @pytest.mark.parametrize("kind", ["test1", "test4"])
    def test_nan_duration_rejected(self, kind):
        # an infinite duration is covered by a CLI test in a child process,
        # since the generator loop would never end on it
        with pytest.raises(InvalidParameterError):
            synthesize_profile(kind, 0, float("nan"))


times = st.floats(min_value=0.0, max_value=999.0,
                  allow_nan=False, allow_infinity=False)


class TestLookupProperties:
    @given(st.lists(st.tuples(times,
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=12),
           times)
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_linear_scan(self, raw, t):
        starts = sorted({0.0} | {round(s, 3) for s, _ in raw})
        bps = tuple((s, raw[i % len(raw)][1]) for i, s in enumerate(starts))
        p = BandwidthProfile(bps, 1000.0)
        want = None
        for start, kbps in p.breakpoints:
            if start <= t:
                want = kbps
        assert bandwidth_at(p, t) == want
