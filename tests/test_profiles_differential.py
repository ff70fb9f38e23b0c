"""Differential tests: load_profile against its former row loop, and the
scaled time-weighted moments against the unscaled sums they replaced.

The CSV reader was rewritten to do less work per row. The version it
replaced is frozen below as the reference. For every input both must
return an equal profile, or raise the same exception type with the same
message and line number. The synthetic generator and profile_stats now
sum on values scaled by a power of two; wherever the unscaled sums are
finite, their traces and stats must be the same to the bit.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (BandwidthProfile, ProfileParseError, ProfileStats,
                    ProfileValidationError, dump_profile, fairness_table3,
                    load_profile, profile_stats, synthesize_profile)
from affsim.profiles import SYNTH_TARGETS


def reference_load_profile(source, duration_s=None):
    """load_profile as it stood before the leaner row loop."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    rows = []
    saw_data = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ProfileParseError(
                line_no, "expected 2 comma-separated fields, got %d"
                % len(fields))
        if not saw_data:
            try:
                float(fields[0])
            except ValueError:
                saw_data = True  # header row, consume it
                continue
        try:
            t, b = float(fields[0]), float(fields[1])
        except ValueError:
            raise ProfileParseError(
                line_no, "could not parse %r as numbers" % (line,)) from None
        if not (math.isfinite(t) and math.isfinite(b)):
            raise ProfileParseError(line_no, "values must be finite")
        rows.append((t, b))
        saw_data = True
    if not rows:
        raise ProfileValidationError("profile has no data rows")
    if duration_s is None:
        duration_s = math.inf
    return BandwidthProfile(tuple(rows), duration_s)


# Whitespace around fields: float() ignores all of it except U+001C..U+001F,
# which str.strip removes. In a str source the breaking characters also end
# a line (str.splitlines), so a clean str input pads with the others only.
BREAKING = "\x0b\x0c\x1c\x1d\x1e\x85\u2028"
NON_BREAKING = " \t\x1f\xa0\u2003\u3000"

NON_NUMBERS = st.sampled_from(
    ["", "abc", "time_s", "1.2.3", "0x10", "--1", "1,", "fast", "\u00bd"])
NON_FINITE = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e999"])
BANDWIDTHS = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.floats(min_value=0.0, max_value=1e7).map(repr),
    st.sampled_from(["1_000", "2.5e3", "+7", "-0.0", ".5", "5."]))
CLEAN_KINDS = ["data"] * 6 + ["comment", "blank"]
DIRTY_KINDS = CLEAN_KINDS + ["header", "one field", "three fields",
                             "non-numeric", "non-finite"]


@st.composite
def csv_sources(draw):
    """A CSV source: its form and its lines, each with its own ending.

    About half the inputs are clean (increasing times, a header only on the
    first row, padding that keeps the rows whole), so they parse; the rest
    mix in malformed rows and any padding.
    """
    form = draw(st.sampled_from(["str", "list", "iterator"]))
    clean = draw(st.booleans())
    pad = st.text(alphabet=NON_BREAKING if clean and form == "str"
                  else NON_BREAKING + BREAKING, max_size=3)
    lines = []
    if clean and draw(st.booleans()):
        lines.append(draw(pad) + "time_s" + draw(pad) + ","
                     + draw(pad) + "bandwidth_kbps" + draw(pad))
    t = 0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(CLEAN_KINDS if clean else DIRTY_KINDS))
        if kind == "data":
            time_s = draw(st.sampled_from(["%d", "%r", "%.3e"])) % (
                t if draw(st.booleans()) else float(t))
            t += draw(st.integers(min_value=1 if clean else 0,
                                  max_value=50))
            first, second = time_s, draw(BANDWIDTHS)
        elif kind == "comment":
            lines.append(draw(pad) + "#" + draw(st.text(max_size=8)))
            continue
        elif kind == "blank":
            lines.append(draw(pad))
            continue
        elif kind == "header":
            first, second = "time_s", "bandwidth_kbps"
        elif kind == "one field":
            lines.append(draw(pad) + str(t) + draw(pad))
            continue
        elif kind == "three fields":
            lines.append(",".join(draw(pad) + str(t) + draw(pad)
                                  for _ in range(3)))
            continue
        elif kind == "non-numeric":
            first, second = draw(st.sampled_from([
                (draw(NON_NUMBERS), str(t)), (str(t), draw(NON_NUMBERS))]))
        else:
            first, second = draw(st.sampled_from([
                (draw(NON_FINITE), "500"), (str(t), draw(NON_FINITE))]))
        lines.append(draw(pad) + first + draw(pad) + "," + draw(pad)
                     + second + draw(pad))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return form, [line + end for line, end in zip(lines, ends)]


def outcome(fn, source, duration_s):
    try:
        profile = fn(source, duration_s)
    except (ProfileParseError, ProfileValidationError) as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))
    return repr(profile)


@given(csv_sources(), st.sampled_from([None, 600.0, math.inf]))
@settings(max_examples=500, deadline=None)
def test_load_profile_matches_reference(source_spec, duration_s):
    form, lines = source_spec

    def source():
        if form == "str":
            return "".join(lines)
        return list(lines) if form == "list" else iter(lines)
    assert outcome(load_profile, source(), duration_s) \
        == outcome(reference_load_profile, source(), duration_s)


@pytest.mark.parametrize("text", [
    "time_s,bandwidth_kbps\n0,1000\n",
    "time_s,bandwidth_kbps\ntime_s,bandwidth_kbps\n0,1000\n",
    "# c\n\n  time_s , kbps \r\n 0 ,\t1000\r\n5,2000",
    "0\x1f,1000\n",
    "0,\x1f1000\n",
    "0,1000\n\x1f5,fast\n",
    "x\n",
    "a,b,c\n0,1000\n",
    "0,nan\n",
    "header,row\n",
    "",
], ids=["header", "two-headers", "crlf-comment-padding", "us-after-time",
        "us-before-bandwidth", "us-then-bad-row", "one-field-first",
        "three-fields-first", "nan-bandwidth", "header-only", "empty"])
def test_fixed_cases_match_reference(text):
    for make in (str, str.splitlines, lambda s: s.splitlines(True)):
        assert outcome(load_profile, make(text), None) \
            == outcome(reference_load_profile, make(text), None)


def reference_moments(pieces):
    """The unscaled time-weighted mean and stddev, as both callers had it."""
    total = sum(length for length, _ in pieces)
    mean = sum(length * v for length, v in pieces) / total
    var = sum(length * (v - mean) ** 2 for length, v in pieces) / total
    return mean, math.sqrt(var)


def reference_synth_breakpoints(kind, seed, duration_s):
    """synthesize_profile's test1..test3 rows before the scaled moments."""
    lo, hi, target_mean, target_sd = SYNTH_TARGETS[kind]
    rng = random.Random("%s:%d" % (kind, seed))
    segments = []
    t = 0.0
    while t < duration_s:
        length = min(rng.uniform(1.0, 5.0), duration_s - t)
        segments.append([length, rng.gauss(target_mean, target_sd)])
        t += length
    for _ in range(4):
        mean, sd = reference_moments(segments)
        if sd == 0.0:
            break
        scale = target_sd / sd
        for seg in segments:
            seg[1] = min(hi, max(lo, target_mean + scale * (seg[1] - mean)))
    touch_len = min(1.0, duration_s / 600.0)
    touches = max(1, round(duration_s / 600.0))
    for value in (lo, hi):
        for _ in range(touches):
            i = rng.randrange(len(segments))
            length, v = segments[i]
            if length > 2.0 * touch_len:
                segments[i] = [length - touch_len, v]
                segments.insert(i + 1, [touch_len, value])
            else:
                segments[i] = [length, value]
    breakpoints = []
    t = 0.0
    for length, v in segments:
        breakpoints.append((t, v))
        t += length
    return tuple(breakpoints)


def reference_profile_stats(profile):
    bps = profile.breakpoints
    pieces = []
    for i, (start, kbps) in enumerate(bps):
        end = bps[i + 1][0] if i + 1 < len(bps) else profile.duration_s
        if end > start:
            pieces.append((end - start, kbps))
    mean, sd = reference_moments(pieces)
    return ProfileStats(max(b for _, b in pieces) / 1000.0,
                        min(b for _, b in pieces) / 1000.0,
                        mean / 1000.0, sd / 1000.0)


@pytest.mark.parametrize("kind", ["test1", "test2", "test3", "test4"])
def test_synthetic_traces_and_stats_match_unscaled_sums(kind):
    grid = [(seed, d) for seed in range(30) for d in (60.0, 800.0)]
    grid += [(seed, 24000.0) for seed in range(2)]
    for seed, duration in grid:
        profile = synthesize_profile(kind, seed, duration)
        if kind != "test4":  # the two plateaus take no moments
            assert dump_profile(profile) == dump_profile(BandwidthProfile(
                reference_synth_breakpoints(kind, seed, duration),
                duration))
        assert profile_stats(profile) == reference_profile_stats(profile)
    assert profile_stats(fairness_table3()) == \
        reference_profile_stats(fairness_table3())
