"""Quality-of-experience summaries and result export.

`export` renders text and writes no file. A result's compared dataclass
fields, in field order, are its export, so `FairnessResult.traces` never
is, and a QoeReport's scalar fields are the eight numbers `affsim run`
prints. `to_dict` turns their tuples into lists, and JSON writes that
dict at full precision. `summary` renders the scalar fields, an int as
is and a float at 4 places, for the CLI's `name: value` lines and the
CSV's `summary` rows. The CSV is long-form `section,key,value` rows: a
sequence field is its own section, its rows keyed by position from 0,
or by the repr of their first value when they are (key, value) pairs,
so a key reads back exactly. The buffer CDF weighs the level by wall
time: each row is the fraction of the session's wall time that the
buffer spends at or below its threshold.
"""

import csv
import io
import json
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from math import ceil, inf
from operator import attrgetter, ne

from .errors import InvalidParameterError
from .fairness import FairnessResult
from .profiles import unit_scale
from .sim import MAX_ROWS

BUFFER_CDF_STEP_S = 0.5


@dataclass(frozen=True)
class QoeReport:
    """A session's headline QoE numbers; its fields, in order, are what
    `to_dict` and `export` write, and its scalar fields are what
    `affsim run` prints."""

    segments: int
    mean_bitrate_kbps: float
    bitrate_changes: int
    stall_events: int
    stall_time_s: float
    startup_delay_s: float
    wall_time_s: float
    idle_full_s: float  # request time lost waiting for buffer room
    stall_durations_s: tuple
    bitrate_cdf: tuple  # ((kbps, fraction of segments at or below), ...)
    buffer_cdf: tuple   # ((seconds, fraction of wall time at or below), ...)


def summarize(trace, ladder):
    """Collapse a SessionTrace into its headline QoE numbers.

    The mean bitrate sums rungs scaled by `unit_scale` only when their
    plain sum overflows. Each CDF takes one pass. The rungs strictly
    increase, so a bitrate is at or below rung i exactly when its quality
    index is at most i. The buffer CDF gives the fraction of wall time,
    from the first request to wall_time_s, that the buffer level spends at
    or below each threshold k * BUFFER_CDF_STEP_S, up to the first at or
    above the top level. The level is 0 until the first completion, then
    drains at slope 1 from each buffer_after_s, floored at 0, until the
    next completion or wall_time_s. A stretch of g seconds from level a
    spends g - min(g, max(0, a - th)) at or below th: its time goes to the
    bins ceil(level / step) of its two end levels (bin 0 at or below zero)
    and one whole step to each bin between, and two running sums give every
    row; the last is exactly 1.0. A level above MAX_ROWS steps raises
    InvalidParameterError, as a non-finite one does, and so do non-finite
    or out-of-order times, a trace with no records and a quality index
    outside the ladder.
    """
    records = trace.records
    qualities = [r.quality_index for r in records]
    if not qualities:
        raise InvalidParameterError("cannot summarize a trace with no records")
    rungs = ladder.bitrates_kbps
    # one set per call, not a branch per record
    outside = set(qualities).difference(range(len(rungs)))
    if outside:
        raise InvalidParameterError(
            "quality_index %r is outside the %d-rung ladder"
            % (min(outside), len(rungs)))
    changes = sum(map(ne, qualities, qualities[1:]))
    n = len(qualities)
    mean_bitrate = sum(map(rungs.__getitem__, qualities)) / n
    if mean_bitrate == inf:  # the rungs are finite, so the sum overflowed
        scale = unit_scale(rungs[-1])
        mean_bitrate = sum([rungs[q] * scale for q in qualities]) / n / scale
    per_rung = [0] * len(rungs)
    for q in qualities:
        per_rung[q] += 1
    bitrate_cdf = tuple(
        (rung, count / n) for rung, count in zip(rungs, accumulate(per_rung)))
    step = BUFFER_CDF_STEP_S
    t0, wall = records[0].t_request_s, trace.wall_time_s
    if not 0.0 < wall - t0 < inf:
        raise InvalidParameterError(
            "wall_time_s must be finite and after the first request at %r, "
            "got %r" % (t0, wall))
    # each stretch drains from its start level until its end time
    levels = chain((0.0,), map(attrgetter("buffer_after_s"), records))
    ends = chain(map(attrgetter("t_complete_s"), records), (wall,))
    # max() skips a NaN that is not first; the loop refuses it
    top = max(chain((0.0,), map(attrgetter("buffer_after_s"), records)))
    if not top / step <= MAX_ROWS:
        raise InvalidParameterError(
            "buffer levels must be finite and at most %g s, got %r"
            % (MAX_ROWS * step, top))
    spent = [0.0] * (ceil(top / step) + 1)  # besides whole bins crossed
    crossed = [0] * len(spent)  # +1 at a drain's first, -1 after
    for a, t in zip(levels, ends):
        g = t - t0
        if not g >= 0.0:
            raise InvalidParameterError(
                "completion times and wall_time_s must be finite and in "
                "order, got %r after %r" % (t, t0))
        t0 = t
        if a > 0.0:
            hi = ceil(a / step)
            low = a - g  # where the drain ends, before the floor at 0
            lo = ceil(low / step) if low > 0.0 else 0
            if lo == hi:
                spent[hi] += g
                continue
            spent[lo] += lo * step - low  # in bin 0: the time empty
            spent[hi] += a - (hi - 1) * step
            crossed[lo + 1] += 1
            crossed[hi] -= 1
        elif a > -inf:
            spent[0] += g
        else:  # NaN and -inf
            raise InvalidParameterError(
                "buffer levels must be finite, got %r" % (a,))
    # every term is at least 0, so the rows never fall
    covered = list(accumulate(
        s + step * c for s, c in zip(spent, accumulate(crossed))))
    del spent, crossed  # the rows reuse their memory
    total = covered[-1]
    buffer_cdf = tuple((k * step, v / total) for k, v in enumerate(covered))
    durations = tuple(d for _, d in trace.stalls)
    return QoeReport(
        segments=n,
        mean_bitrate_kbps=mean_bitrate,
        bitrate_changes=changes,
        stall_events=len(durations),
        # float, so summary prints 4 places with no stalls or int times
        stall_time_s=sum(durations, 0.0),
        startup_delay_s=float(trace.startup_delay_s),
        wall_time_s=float(wall),
        idle_full_s=trace.idle_full_s,
        stall_durations_s=durations,
        bitrate_cdf=bitrate_cdf,
        buffer_cdf=buffer_cdf)


def _exported(obj):
    """(name, value) of obj's compared fields, in field order: the one
    schema of to_dict and both export formats."""
    if not isinstance(obj, (QoeReport, FairnessResult)):
        raise InvalidParameterError("cannot export %r" % (type(obj).__name__,))
    return [(f.name, getattr(obj, f.name)) for f in fields(obj) if f.compare]


def _plain(value):  # a tuple becomes a list, and so do its rows
    if not isinstance(value, tuple):
        return value
    if value and isinstance(value[0], tuple):
        return [list(row) for row in value]
    return list(value)


def to_dict(obj):
    return {name: _plain(value) for name, value in _exported(obj)}


def summary(obj):
    """(name, text) of a QoeReport's or FairnessResult's scalar fields, in
    field order: an int as is, a float at 4 places. The CLI prints these
    as `name: text` lines, and CSV writes them as its `summary` rows."""
    return [(name, str(value) if isinstance(value, int) else "%.4f" % value)
            for name, value in _exported(obj) if not isinstance(value, tuple)]


def _csv_rows(obj):
    rows = [("section", "key", "value")]
    rows += [("summary", name, cell) for name, cell in summary(obj)]
    for name, value in _exported(obj):
        if not isinstance(value, tuple):
            continue
        if value and isinstance(value[0], tuple):  # (key, value) rows
            rows += [(name, repr(k), "%.4f" % v) for k, v in value]
        else:
            rows += [(name, str(i), "%.4f" % v) for i, v in enumerate(value)]
    return rows


def export(obj, fmt):
    """Return a QoeReport or FairnessResult rendered as 'json' or 'csv'
    text; the caller writes it where it wants."""
    if fmt == "json":
        return json.dumps(to_dict(obj), indent=2) + "\n"
    if fmt != "csv":
        raise InvalidParameterError("unknown export format %r" % (fmt,))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_rows(obj))
    return buf.getvalue()


def parse_csv_export(text):
    """Read a CSV export back into {section: ...} (inverse of export).

    Text that is not an export raises InvalidParameterError naming the
    first bad row.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["section", "key", "value"]:
        raise InvalidParameterError(
            "not a toolkit CSV export: header %r" % (header,))
    out = {}
    for row in reader:
        try:
            section, key, value = row
            out.setdefault(section, []).append((key, float(value)))
        except ValueError:
            raise InvalidParameterError(
                "CSV export line %d is not section,key,number: %r"
                % (reader.line_num, row)) from None
    return out
