"""Differential test: load_profile against its former row loop.

The CSV reader was rewritten to do less work per row. The version it
replaced is frozen below as the reference. For every input both must
return an equal profile, or raise the same exception type with the same
message and line number.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsim import (BandwidthProfile, ProfileParseError,
                    ProfileValidationError, load_profile)


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
