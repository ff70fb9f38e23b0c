"""QoE summary and export tests."""

import dataclasses
import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (
    BandwidthProfile,
    BitrateLadder,
    InvalidParameterError,
    SimConfig,
    export,
    parse_csv_export,
    run_session,
    summarize,
    to_dict,
)
from affsim import report as report_module
from affsim.fairness import FairnessResult
from affsim.report import BUFFER_CDF_STEP_S
from affsim.sim import MAX_ROWS, SegmentRecord, SessionTrace

LADDER = BitrateLadder()


def make_trace(qualities, levels=None):
    # a request every 2 s from t=0, each landing 1 s later at its level;
    # a level under 1 s stalls the next download, and the last level plays
    # out after the last completion
    if levels is None:
        levels = [10.0] * len(qualities)
    records = tuple(
        SegmentRecord(
            index=i + 1, quality_index=q,
            size_kbit=LADDER.bitrates_kbps[q] * 2.0,
            t_request_s=2.0 * i, t_complete_s=2.0 * i + 1.0,
            estimate_kbps=1000.0, buffer_after_s=level,
            decision_reason="throughput")
        for i, (q, level) in enumerate(zip(qualities, levels)))
    return SessionTrace(records, SimConfig(ladder=LADDER))


class TestSummarize:
    def test_mean_bitrate_hand_example(self):
        report = summarize(make_trace([0] + [3] * 149), LADDER)
        assert report.mean_bitrate_kbps == pytest.approx(
            (250.0 + 149 * 2000.0) / 150.0)
        assert report.mean_bitrate_kbps == pytest.approx(1988.3333, abs=5e-5)
        assert report.bitrate_changes == 1

    def test_mean_bitrate_of_huge_rungs_is_finite(self):
        # two rungs near the float maximum overflow a plain sum; a sum of
        # scaled rungs gives their mean, and a finite sum stays as it was
        ladder = BitrateLadder((1e307, 1.5e308))
        report = summarize(make_trace([1, 1, 0]), ladder)
        assert report.mean_bitrate_kbps == pytest.approx(
            1e307 / 3 + 1e308, rel=1e-12)
        report = summarize(make_trace([0, 0, 1]), ladder)
        assert report.mean_bitrate_kbps == (1e307 + 1e307 + 1.5e308) / 3

    def test_change_count_is_adjacent_differences(self):
        report = summarize(make_trace([0, 1, 1, 2, 1, 1, 0]), LADDER)
        assert report.bitrate_changes == 4
        assert summarize(make_trace([2] * 8), LADDER).bitrate_changes == 0

    def test_stalls_pass_through(self):
        # the second download empties a 0.5 s buffer, the third a 0.75 s one
        trace = make_trace([0, 0, 0], levels=(0.5, 0.75, 10.0))
        assert trace.stalls == ((2.5, 0.5), (4.75, 0.25))
        report = summarize(trace, LADDER)
        assert report.stall_events == 2
        assert report.stall_durations_s == (0.5, 0.25)

    def test_bitrate_cdf(self):
        report = summarize(make_trace([0, 0, 1, 3]), LADDER)
        assert report.bitrate_cdf == (
            (250.0, 0.5), (500.0, 0.75), (1000.0, 0.75), (2000.0, 1.0))

    def test_buffer_cdf_half_second_grid(self):
        # over 4.2 s of wall time: 0 until 1 s, a drain from 0.6 that
        # empties 0.6 s later and lasts to 3 s, then a drain from 1.2 that
        # empties as playback ends at 4.2 s
        trace = make_trace([0, 0], levels=(0.6, 1.2))
        report = summarize(trace, LADDER)
        thresholds = [th for th, _ in report.buffer_cdf]
        fractions = [fr for _, fr in report.buffer_cdf]
        assert thresholds == [0.0, 0.5, 1.0, 1.5]
        assert fractions == pytest.approx(
            [2.4 / 4.2, 3.4 / 4.2, 4.0 / 4.2, 1.0])
        assert fractions[-1] == 1.0

    def test_trace_without_records_rejected(self):
        with pytest.raises(InvalidParameterError, match="no records"):
            summarize(make_trace([]), LADDER)

    # -1 would index the top rung and 7 would overrun the ladder
    @pytest.mark.parametrize("bad", [7, 4, -1])
    def test_quality_index_outside_ladder_rejected(self, bad):
        trace = make_trace([0, 1, 2])
        records = trace.records[:2] + (
            trace.records[2]._replace(quality_index=bad),)
        with pytest.raises(InvalidParameterError,
                           match=r"quality_index %d .*4-rung" % bad):
            summarize(dataclasses.replace(trace, records=records), LADDER)

    def test_an_empty_buffer_gives_one_row(self):
        report = summarize(make_trace([0, 1], levels=(0.0, -0.0)), LADDER)
        assert report.buffer_cdf == ((0.0, 1.0),)

    def test_cdfs_monotone_and_complete_on_real_session(self):
        profile = BandwidthProfile(((0.0, 2500.0),), 1e6)
        trace = run_session(profile, SimConfig(total_segments=40))
        report = summarize(trace, LADDER)
        for cdf in (report.bitrate_cdf, report.buffer_cdf):
            fractions = [fr for _, fr in cdf]
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0
        assert 250.0 <= report.mean_bitrate_kbps <= 2000.0

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"),
                                     float("inf")], ids=["nan", "-inf", "inf"])
    def test_non_finite_buffer_level_rejected(self, bad, position):
        # max() skips a NaN that is not first, so each level is checked;
        # a finite last level keeps the wall time finite
        levels = [0.0, 1.0, 2.0, 3.0]
        levels[position] = bad
        with pytest.raises(InvalidParameterError, match="levels must be"):
            summarize(make_trace([0, 0, 0, 0], levels=levels), LADDER)

    # a level of inf once made the threshold loop grow a list without end,
    # and 1e9 s (2e9 thresholds) ran out of memory; each runs in a child
    # with capped memory and a timeout
    SUMMARIZE_LEVEL = (
        "import sys\n"
        "from affsim import BitrateLadder, InvalidParameterError\n"
        "from affsim import SessionTrace, SimConfig, summarize\n"
        "from affsim.sim import SegmentRecord\n"
        "rec = SegmentRecord(1, 0, 1.0, 0.0, 1.0, 1.0, float(sys.argv[1]),\n"
        "                    'x')\n"
        "# a second record, empty at 3 s, keeps the wall time finite\n"
        "end = rec._replace(index=2, t_request_s=2.0, t_complete_s=3.0,\n"
        "                   buffer_after_s=0.0)\n"
        "trace = SessionTrace((rec, end), SimConfig())\n"
        "try:\n"
        "    summarize(trace, BitrateLadder())\n"
        "except InvalidParameterError as exc:\n"
        "    sys.exit(0 if 'finite' in str(exc) else 3)\n"
        "sys.exit(4)\n")

    def test_infinite_buffer_level_rejected(self, capped_python):
        proc = capped_python(self.SUMMARIZE_LEVEL, "inf")
        assert proc.returncode == 0, proc.stderr

    def test_huge_buffer_level_rejected(self, capped_python):
        proc = capped_python(self.SUMMARIZE_LEVEL, "1e9")
        assert proc.returncode == 0, proc.stderr

    def test_threshold_cap_boundary(self, monkeypatch):
        # a 2.0 s top level needs thresholds 0.0..2.0, four steps of 0.5 s
        trace = make_trace([0], levels=(2.0,))
        monkeypatch.setattr(report_module, "MAX_ROWS", 4)
        report = summarize(trace, LADDER)
        assert [th for th, _ in report.buffer_cdf] == [0.0, 0.5, 1.0, 1.5,
                                                       2.0]
        monkeypatch.setattr(report_module, "MAX_ROWS", 3)
        with pytest.raises(InvalidParameterError, match="at most 1.5 s"):
            summarize(trace, LADDER)


class TestSummarizeOperationCount:
    def test_buffer_cdf_comparisons_are_constant_per_sample(self):
        # the samples are the records' levels, one per segment
        compared = [0]

        class Level(float):
            def __lt__(self, other):
                compared[0] += 1
                return float.__lt__(self, other)

            def __le__(self, other):
                compared[0] += 1
                return float.__le__(self, other)

            def __gt__(self, other):
                compared[0] += 1
                return float.__gt__(self, other)

            def __ge__(self, other):
                compared[0] += 1
                return float.__ge__(self, other)

        m = 2000
        counts = []
        for top in (30.0, 30000.0):
            compared[0] = 0
            levels = [Level(top * (i + 1) / m) for i in range(m)]
            trace = make_trace([0] * m, levels=levels)
            report = summarize(trace, LADDER)
            assert len(report.buffer_cdf) == 2 * top + 1
            counts.append(compared[0])
        # max() and the branches compare each level a fixed number of
        # times, and nothing compares it per threshold: a thousand times
        # the thresholds take the same count, two per record, and one per
        # request after the first in the trace's own stall walk
        assert counts[0] == counts[1] == 3 * m - 1, counts


def _around(k):
    # a threshold and one ulp either side of it
    x = k * BUFFER_CDF_STEP_S
    return [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]


SPECIAL_LEVELS = [5e-324, 0.0, -0.0, -1.0]
CAP = MAX_ROWS
# the top two thresholds, and one ulp either side that does not pass the top
CAP_LEVELS = _around(CAP - 1) + [CAP * BUFFER_CDF_STEP_S,
                                 math.nextafter(CAP * BUFFER_CDF_STEP_S, 0.0)]


def one_level_trace(level):
    # empty for 1 s, then a drain from `level` for 2 s, and a last
    # segment that lands at 3 s on an empty buffer and ends the session
    return make_trace([0, 0], levels=(level, 0.0))


class TestBufferBins:
    """A level goes to bin ceil(level / step), or bin 0 at or below zero:
    the first threshold at or above it, as bisect_left finds it."""

    @pytest.fixture(scope="class")
    def thresholds(self):
        # summarize's own, up to MAX_ROWS steps
        report = summarize(one_level_trace(CAP * BUFFER_CDF_STEP_S), LADDER)
        return [th for th, _ in report.buffer_cdf]

    def test_step_is_a_power_of_two(self):
        # otherwise level / step would round, and ceil could miss a bin
        mantissa, _ = math.frexp(BUFFER_CDF_STEP_S)
        assert mantissa == 0.5

    def test_thresholds_are_exact_multiples(self, thresholds):
        assert len(thresholds) == CAP + 1
        assert all(th == k * BUFFER_CDF_STEP_S
                   for k, th in enumerate(thresholds))

    def test_ceil_is_bisect_left(self, thresholds):
        levels = [x for k in range(201) for x in _around(k)]
        for x in levels + SPECIAL_LEVELS + CAP_LEVELS:
            ceiled = math.ceil(x / BUFFER_CDF_STEP_S) if x > 0.0 else 0
            assert ceiled == bisect_left(thresholds, x), x

    def test_summarize_bins_corners(self, thresholds):
        # the top level at a completion gets the last row, exactly 1.0
        for x in [x for k in range(201) for x in _around(k)] + \
                SPECIAL_LEVELS + CAP_LEVELS:
            cdf = summarize(one_level_trace(x), LADDER).buffer_cdf
            assert len(cdf) == bisect_left(thresholds, x) + 1, x
            assert cdf[-1] == (thresholds[len(cdf) - 1], 1.0), x


class TestToDict:
    def test_report_dict(self):
        report = summarize(make_trace([0, 3], levels=(0.5, 1.0)), LADDER)
        d = to_dict(report)
        assert d["bitrate_changes"] == 1
        assert d["stall_events"] == 1
        assert d["stall_durations_s"] == [0.5]
        assert d["bitrate_cdf"][0] == [250.0, 0.5]
        # 1 s empty, 0.5 s draining from 0.5, 1.5 s empty (the stall
        # from 2.5 s), then 1 s draining from 1.0 to 0
        assert d["buffer_cdf"] == [[0.0, 0.625], [0.5, 0.875], [1.0, 1.0]]

    def test_fairness_dict(self):
        result = FairnessResult(per_client_avg_kbps=(1000.0, 1200.0),
                                jfi=0.99, total_avg_kbps=1100.0)
        d = to_dict(result)
        assert d == {"jfi": 0.99, "total_avg_kbps": 1100.0,
                     "per_client_avg_kbps": [1000.0, 1200.0]}

    def test_rejects_other_types(self):
        with pytest.raises(InvalidParameterError):
            to_dict({"not": "a report"})
        for fmt in ("json", "csv"):
            with pytest.raises(InvalidParameterError,
                               match="cannot export 'object'"):
                export(object(), fmt)


class TestExport:
    def setup_method(self):
        # a 0.875 s level after the third segment stalls the fourth
        levels = [10.0] * 150
        levels[2] = 0.875
        self.report = summarize(make_trace([0] + [3] * 149, levels), LADDER)

    def test_json_round_trip_full_precision(self):
        text = export(self.report, "json")
        assert json.loads(text) == to_dict(self.report)
        assert repr((250.0 + 149 * 2000.0) / 150.0)[:12] in text

    def test_csv_layout(self):
        lines = export(self.report, "csv").splitlines()
        assert lines[0] == "section,key,value"
        assert "summary,bitrate_changes,1" in lines
        assert "summary,mean_bitrate_kbps,1988.3333" in lines
        assert "stall_durations_s,0,0.1250" in lines
        assert "bitrate_cdf,2000.0000,1.0000" in lines
        assert any(line.startswith("buffer_cdf,0.5000,") for line in lines)

    def test_csv_parse_is_inverse_at_printed_precision(self):
        parsed = parse_csv_export(export(self.report, "csv"))
        summary = dict(parsed["summary"])
        assert summary["bitrate_changes"] == 1.0
        assert summary["mean_bitrate_kbps"] == pytest.approx(
            self.report.mean_bitrate_kbps, abs=5e-5)
        got = [(float(key), frac) for key, frac in parsed["bitrate_cdf"]]
        assert got == [(kbps, pytest.approx(frac, abs=5e-5))
                       for kbps, frac in self.report.bitrate_cdf]

    def test_csv_fairness_sections(self):
        result = FairnessResult(per_client_avg_kbps=(1000.0, 1200.0, 1100.0),
                                jfi=0.995, total_avg_kbps=1100.0)
        parsed = parse_csv_export(export(result, "csv"))
        assert dict(parsed["summary"])["jfi"] == pytest.approx(0.995)
        assert len(parsed["per_client_avg_kbps"]) == 3

    def test_bad_format_and_bad_header(self):
        with pytest.raises(InvalidParameterError):
            export(self.report, "yaml")
        with pytest.raises(InvalidParameterError):
            parse_csv_export("foo,bar,baz\n1,2,3\n")

    @pytest.mark.parametrize("text, match", [
        ("", "header None"),
        ("section,key,value\nsummary,jfi\n", r"line 2 .*'summary', 'jfi'"),
        ("section,key,value\nsummary,jfi,0.5\nsummary,jfi,high\n",
         r"line 3 .*'high'"),
    ], ids=["empty", "two-fields", "non-numeric"])
    def test_malformed_csv_export_names_the_row(self, text, match):
        with pytest.raises(InvalidParameterError, match=match):
            parse_csv_export(text)


# a random session of up to 30 segments: a level under 1 s stalls the
# next download
SESSIONS = st.lists(
    st.tuples(st.integers(0, 3), st.floats(0.0, 40.0)),
    min_size=1, max_size=30,
).map(lambda rows: summarize(make_trace(*zip(*rows)), LADDER))
FAIRNESS_RESULTS = st.builds(
    FairnessResult,
    per_client_avg_kbps=st.lists(st.floats(0.0, 1e4), min_size=1,
                                 max_size=12).map(tuple),
    jfi=st.floats(0.0, 1.0), total_avg_kbps=st.floats(0.0, 1e4),
    traces=st.just((make_trace([0]),)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(obj=st.one_of(SESSIONS, FAIRNESS_RESULTS))
def test_exports_follow_the_fields(obj):
    """The compared fields, in field order, are the whole export. The CSV
    puts each scalar in `summary` and each sequence in its own section,
    keyed by position from 0, or by the key of a (key, value) row. A
    printed value is the value rounded to 4 places, so within 5e-5."""
    names = [f.name for f in dataclasses.fields(obj) if f.compare]
    d = to_dict(obj)
    assert list(d) == names
    assert json.loads(export(obj, "json")) == d
    parsed = parse_csv_export(export(obj, "csv"))
    summary = parsed.pop("summary")
    assert [name for name, _ in summary] == [
        name for name in names if not isinstance(getattr(obj, name), tuple)]
    for name, got in summary:
        assert got == round(getattr(obj, name), 4), name
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, tuple):
            continue
        if not (value and isinstance(value[0], tuple)):
            value = tuple(enumerate(value))
        rows = [(float(key), got) for key, got in parsed.pop(name, ())]
        assert rows == [(round(k, 4), round(v, 4)) for k, v in value], name
    assert not parsed  # no section but the fields'
