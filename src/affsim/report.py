"""Quality-of-experience summaries and result export.

The CSV layout is long-form `section,key,value` rows so that one flat file
can carry scalar metrics and CDF tables side by side. Floats are printed
with 4 decimal places in CSV; JSON keeps full precision. The buffer CDF
weighs the level by wall time: each row is the fraction of the session's
wall time that the buffer spends at or below its threshold.
"""

import csv
import io
import json
from dataclasses import dataclass
from itertools import accumulate, chain
from math import ceil, inf
from operator import attrgetter, ne

from .errors import InvalidParameterError
from .fairness import FairnessResult
from .sim import MAX_ROWS

BUFFER_CDF_STEP_S = 0.5


@dataclass(frozen=True)
class QoeReport:
    bitrate_changes: int
    stall_events: int
    stall_durations_s: tuple
    mean_bitrate_kbps: float
    bitrate_cdf: tuple  # ((kbps, fraction of segments at or below), ...)
    buffer_cdf: tuple   # ((seconds, fraction of wall time at or below), ...)


def summarize(trace, ladder):
    """Collapse a SessionTrace into its headline QoE numbers.

    Each CDF takes one pass. The rungs strictly increase, so a bitrate is
    at or below rung i exactly when its quality index is at most i. The
    buffer CDF gives the fraction of wall time, from the first request to
    wall_time_s, that the buffer level spends at or below each threshold
    k * BUFFER_CDF_STEP_S, up to the first at or above the top level. The
    level is 0 until the first completion, then drains at slope 1 from
    each buffer_after_s, floored at 0, until the next completion or
    wall_time_s. A stretch of g seconds from level a spends
    g - min(g, max(0, a - th)) at or below th: its time goes to the bins
    ceil(level / step) of its two end levels (bin 0 at or below zero) and
    one whole step to each bin between, and two running sums give every
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
    return QoeReport(
        bitrate_changes=changes,
        stall_events=len(trace.stalls),
        stall_durations_s=tuple(d for _, d in trace.stalls),
        mean_bitrate_kbps=mean_bitrate,
        bitrate_cdf=bitrate_cdf,
        buffer_cdf=buffer_cdf)


def _report_dict(report):
    return {
        "bitrate_changes": report.bitrate_changes,
        "stall_events": report.stall_events,
        "stall_durations_s": list(report.stall_durations_s),
        "mean_bitrate_kbps": report.mean_bitrate_kbps,
        "bitrate_cdf": [list(row) for row in report.bitrate_cdf],
        "buffer_cdf": [list(row) for row in report.buffer_cdf],
    }


def _fairness_dict(result):
    return {
        "jfi": result.jfi,
        "total_avg_kbps": result.total_avg_kbps,
        "per_client_avg_kbps": list(result.per_client_avg_kbps),
    }


def _is_report(obj):  # the one type check of both export formats
    if isinstance(obj, (QoeReport, FairnessResult)):
        return isinstance(obj, QoeReport)
    raise InvalidParameterError("cannot export %r" % (type(obj).__name__,))


def to_dict(obj):
    return _report_dict(obj) if _is_report(obj) else _fairness_dict(obj)


def _csv_rows(obj):
    rows = [("section", "key", "value")]
    if _is_report(obj):
        rows.append(("summary", "bitrate_changes", str(obj.bitrate_changes)))
        rows.append(("summary", "stall_events", str(obj.stall_events)))
        rows.append(("summary", "mean_bitrate_kbps",
                     "%.4f" % obj.mean_bitrate_kbps))
        for i, d in enumerate(obj.stall_durations_s, start=1):
            rows.append(("stall_durations_s", str(i), "%.4f" % d))
        for kbps, frac in obj.bitrate_cdf:
            rows.append(("bitrate_cdf", "%.4f" % kbps, "%.4f" % frac))
        for seconds, frac in obj.buffer_cdf:
            rows.append(("buffer_cdf", "%.4f" % seconds, "%.4f" % frac))
    else:
        rows.append(("summary", "jfi", "%.4f" % obj.jfi))
        rows.append(("summary", "total_avg_kbps",
                     "%.4f" % obj.total_avg_kbps))
        for i, v in enumerate(obj.per_client_avg_kbps):
            rows.append(("per_client_avg_kbps", str(i), "%.4f" % v))
    return rows


def export(obj, fmt, destination=None):
    """Render a QoeReport or FairnessResult as 'json' or 'csv' text.

    Writes to `destination` (a path or writable file object) when given,
    and always returns the rendered text.
    """
    if fmt == "json":
        text = json.dumps(to_dict(obj), indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(_csv_rows(obj))
        text = buf.getvalue()
    else:
        raise InvalidParameterError("unknown export format %r" % (fmt,))
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w") as fh:
                fh.write(text)
    return text


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
