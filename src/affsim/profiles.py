"""Piecewise-constant bandwidth traces.

A profile is a list of (start_time_s, bandwidth_kbps) breakpoints plus a
duration. Each breakpoint holds until the next one starts (intervals are
right-open), and the last one holds until the duration runs out. A profile
loaded without an explicit duration is open ended: the final bandwidth
persists indefinitely and only lookups below infinity are answerable.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (InvalidParameterError, OutOfRangeError,
                     ProfileParseError, ProfileValidationError, check_int)


@dataclass(frozen=True)
class BandwidthProfile:
    breakpoints: tuple  # ((start_s, kbps), ...)
    duration_s: float
    # breakpoint start times, built once for bisect lookups
    starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps, prev = [], None  # converted and checked in one pass
        for t, b in self.breakpoints:
            t, b = float(t), float(b)
            if not (prev is not None or t == 0.0):
                raise ProfileValidationError(
                    "first breakpoint must start at 0, got %g" % t)
            if prev is not None and not prev < t < math.inf:
                raise ProfileValidationError(
                    "start times must be finite and strictly increasing "
                    "(%g then %g)" % (prev, t))
            if not 0 <= b < math.inf:
                raise ProfileValidationError(
                    "bandwidth must be finite and >= 0, got %g at t=%g"
                    % (b, t))
            bps.append((t, b))
            prev = t
        if prev is None:
            raise ProfileValidationError("profile needs at least one row")
        if not (self.duration_s >= prev):
            raise ProfileValidationError(
                "duration %g ends before the last breakpoint at %g"
                % (self.duration_s, prev))
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "starts", tuple([t for t, _ in bps]))


def load_profile(source, duration_s=None):
    """Parse `time_s,bandwidth_kbps` rows into a profile.

    `source` is a string or an iterable of lines. One byte order mark
    (U+FEFF) opening the first line is dropped. Blank lines and lines
    starting with '#' are skipped. A leading header row is tolerated when
    its first field is not numeric. Any other unparseable row raises
    ProfileParseError with its 1-based line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    rows = []
    append = rows.append
    inf = math.inf
    header_seen = False
    for line_no, raw in enumerate(lines, 1):
        if line_no == 1:
            raw = raw.removeprefix("\ufeff")  # a UTF-8 byte order mark
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            first, second = line.split(",")
        except ValueError:
            raise ProfileParseError(
                line_no, "expected 2 comma-separated fields, got %d"
                % (line.count(",") + 1)) from None
        # float() keeps U+001C..U+001F around a number; str.strip drops them
        try:
            t = float(first.strip())
        except ValueError:
            if not (rows or header_seen):
                header_seen = True  # header row, consume it
                continue
            raise ProfileParseError(
                line_no, "could not parse %r as numbers" % (line,)) from None
        try:
            b = float(second.strip())
        except ValueError:
            raise ProfileParseError(
                line_no, "could not parse %r as numbers" % (line,)) from None
        if not (-inf < t < inf and -inf < b < inf):
            raise ProfileParseError(line_no, "values must be finite")
        append((t, b))
    if not rows:
        raise ProfileValidationError("profile has no data rows")
    if duration_s is None:
        duration_s = math.inf
    return BandwidthProfile(tuple(rows), duration_s)


def dump_profile(profile):
    """Serialize back to CSV text that load_profile accepts."""
    return "time_s,bandwidth_kbps\n" + "".join(
        "%r,%r\n" % bp for bp in profile.breakpoints)


def bandwidth_at(profile, t):
    """Bandwidth in kbit/s at time t, for 0 <= t < duration."""
    if not 0 <= t < profile.duration_s:
        raise OutOfRangeError(
            "t=%g outside [0, %g)" % (t, profile.duration_s))
    return profile.breakpoints[bisect_right(profile.starts, t) - 1][1]


@dataclass(frozen=True)
class ProfileStats:
    max_mbps: float
    min_mbps: float
    avg_mbps: float
    stddev_mbps: float


def unit_scale(top):
    """The power of two that brings finite top >= 0 into [0.5, 1) (at most
    2**1021); scaling by it is exact while the products stay normal."""
    return math.ldexp(1.0, -max(math.frexp(top)[1], -1021))


def _moments(pieces):
    """Time-weighted mean and stddev of (length_s, value) pieces, summed on
    values scaled by unit_scale so that no square overflows."""
    scale = unit_scale(max(abs(v) for _, v in pieces))
    total = sum(length for length, _ in pieces)
    mean = sum(length * (v * scale) for length, v in pieces) / total
    var = sum(length * (v * scale - mean) ** 2 for length, v in pieces) / total
    return mean / scale, math.sqrt(var) / scale


def profile_stats(profile):
    """Time-weighted stats over the whole profile, in Mbit/s."""
    if not math.isfinite(profile.duration_s) or profile.duration_s <= 0:
        raise InvalidParameterError(
            "stats need a finite positive duration, got %r"
            % (profile.duration_s,))
    ends = profile.starts[1:] + (profile.duration_s,)
    pieces = [(end - start, kbps)  # (length_s, kbps)
              for (start, kbps), end in zip(profile.breakpoints, ends)
              if end > start]
    rates = [b for _, b in pieces]
    return ProfileStats(*(kbps / 1000.0 for kbps in (
        max(rates), min(rates), *_moments(pieces))))


def fairness_table3():
    """Built-in shared-link trace: 22 -> 12 -> 6 -> 22 Mbit/s over 360 s."""
    return BandwidthProfile(
        ((0.0, 22000.0), (100.0, 12000.0), (200.0, 6000.0), (300.0, 22000.0)),
        360.0)


BUILTIN_PROFILES = {"fairness-table3": fairness_table3}

# Per-kind targets in kbit/s: (floor, ceiling, mean, stddev). The generator
# reproduces these as time-weighted stats of the emitted trace.
SYNTH_TARGETS = {
    "test1": (800.0, 2400.0, 2170.0, 276.5),
    "test2": (10.0, 4570.0, 1230.0, 637.4),
    "test3": (10.0, 5730.0, 2310.0, 1331.7),
}

TEST4_HIGH_KBPS = 2390.0
TEST4_LOW_KBPS = 600.0

MIN_SYNTH_DURATION_S = 60.0
# About 24 days: room for the CLI's default span (2 x media + 120 s) of a
# session with up to 2^19 s of media. A session's media has no such bound
# (up to 2^20 segments of any duration), so a longer span is refused here
# instead of generated.
MAX_SYNTH_DURATION_S = 2 ** 21


def synthesize_profile(kind, seed, duration_s):
    """Generate a seeded random trace shaped like one of four scenarios.

    test1 through test3 are noisy traces whose time-weighted mean and
    stddev land on fixed targets (drawn values are affinely recentered,
    then clipped to the target floor/ceiling, and the trace touches both
    extremes at least once). test4 is a deterministic two-plateau trace:
    a high half followed by a sudden drop, independent of the seed.
    """
    if not (MIN_SYNTH_DURATION_S <= duration_s <= MAX_SYNTH_DURATION_S):
        raise InvalidParameterError(
            "duration_s must lie in [%g, %d], got %r"
            % (MIN_SYNTH_DURATION_S, MAX_SYNTH_DURATION_S, duration_s))
    check_int("seed", seed, -math.inf)
    if kind == "test4":
        return BandwidthProfile(
            ((0.0, TEST4_HIGH_KBPS), (duration_s / 2.0, TEST4_LOW_KBPS)),
            duration_s)
    if kind not in SYNTH_TARGETS:
        raise InvalidParameterError("unknown synthetic kind %r" % (kind,))
    lo, hi, target_mean, target_sd = SYNTH_TARGETS[kind]
    rng = random.Random("%s:%d" % (kind, seed))
    segments = []  # [length_s, kbps]
    t = 0.0
    while t < duration_s:
        length = min(rng.uniform(1.0, 5.0), duration_s - t)
        segments.append([length, rng.gauss(target_mean, target_sd)])
        t += length
    # Recenter so the realized time-weighted stats hit the targets, then
    # clip; a few rounds absorb the distortion clipping introduces.
    for _ in range(4):
        mean, sd = _moments(segments)
        if sd == 0.0:
            break
        scale = target_sd / sd
        for seg in segments:
            v = target_mean + scale * (seg[1] - mean)
            seg[1] = lo if v < lo else hi if v > hi else v  # without calls
    # Guarantee the extremes appear. Touches are kept short so they do not
    # disturb the calibrated stats, and scale down with short durations.
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
    starts = accumulate((length for length, _ in segments), initial=0.0)
    return BandwidthProfile(
        tuple(zip(starts, (v for _, v in segments))), duration_s)
