"""Quality-of-experience summaries and result export.

The CSV layout is long-form `section,key,value` rows so that one flat file
can carry scalar metrics and CDF tables side by side. Floats are printed
with 4 decimal places in CSV; JSON keeps full precision.
"""

import csv
import io
import json
from dataclasses import dataclass
from itertools import accumulate
from math import ceil, inf
from operator import itemgetter, ne

from .errors import InvalidParameterError
from .fairness import FairnessResult
from .sim import BUFFER_TICK_S, MAX_BUFFER_SAMPLES

BUFFER_CDF_STEP_S = 0.5


@dataclass(frozen=True)
class QoeReport:
    bitrate_changes: int
    stall_events: int
    stall_durations_s: tuple
    mean_bitrate_kbps: float
    bitrate_cdf: tuple  # ((kbps, fraction of segments at or below), ...)
    buffer_cdf: tuple   # ((seconds, fraction of samples at or below), ...)


def summarize(trace, ladder):
    """Collapse a SessionTrace into its headline QoE numbers.

    Each CDF takes one pass. The rungs strictly increase, so a bitrate is
    at or below rung i exactly when its quality index is at most i. The
    buffer CDF counts the corners and, by sim.buffer_samples' rule, the
    BUFFER_TICK_S ticks between them in one loop; its top threshold comes
    from the corners, which no tick exceeds. A buffer level goes to the
    first threshold at or above it, so a level equal to one counts there:
    bin ceil(level / BUFFER_CDF_STEP_S), and bin 0 at or below zero. The
    step is a power of two, so the k-th threshold, built by adding the
    step k times, is exactly k steps, and the division is exact too.
    A level above MAX_BUFFER_SAMPLES thresholds raises
    InvalidParameterError, as a non-finite one does, and so do a time
    beyond MAX_BUFFER_SAMPLES ticks, a trace with no records and a
    quality index outside the ladder.
    """
    qualities = [r.quality_index for r in trace.records]
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
    series = trace.buffer_series
    buffer_cdf = ()
    if series:
        top = max(map(itemgetter(1), series))
        if not top / BUFFER_CDF_STEP_S <= MAX_BUFFER_SAMPLES:
            raise InvalidParameterError(
                "buffer levels must be finite and at most %g s, got %r"
                % (MAX_BUFFER_SAMPLES * BUFFER_CDF_STEP_S, top))
        thresholds = [0.0]
        while thresholds[-1] < top:
            thresholds.append(thresholds[-1] + BUFFER_CDF_STEP_S)
        per_bin = [0] * len(thresholds)
        bin_s = BUFFER_CDF_STEP_S
        step = tick = BUFFER_TICK_S
        last, t0, level0 = MAX_BUFFER_SAMPLES * step, 0.0, 0.0
        for t, level in series:
            if not t <= last:
                raise InvalidParameterError(
                    "buffer series times must be finite and at most %g s, "
                    "got %r" % (last, t))
            while tick < t:
                # no tick exceeds the corner before it, so none exceeds top
                x = level0 - (tick - t0)
                per_bin[ceil(x / bin_s) if x > 0.0 else 0] += 1
                tick += step
            if tick == t:
                tick += step
            if level > 0.0:
                per_bin[ceil(level / bin_s)] += 1
            elif level > -inf:
                per_bin[0] += 1
            else:
                # NaN and -inf
                raise InvalidParameterError(
                    "buffer levels must be finite, got %r" % (level,))
            t0, level0 = t, level
        m = sum(per_bin)
        buffer_cdf = tuple(
            (th, count / m)
            for th, count in zip(thresholds, accumulate(per_bin)))
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


def to_dict(obj):
    if isinstance(obj, QoeReport):
        return _report_dict(obj)
    if isinstance(obj, FairnessResult):
        return _fairness_dict(obj)
    raise InvalidParameterError("cannot export %r" % (type(obj).__name__,))


def _csv_rows(obj):
    rows = [("section", "key", "value")]
    if isinstance(obj, QoeReport):
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
    elif isinstance(obj, FairnessResult):
        rows.append(("summary", "jfi", "%.4f" % obj.jfi))
        rows.append(("summary", "total_avg_kbps",
                     "%.4f" % obj.total_avg_kbps))
        for i, v in enumerate(obj.per_client_avg_kbps):
            rows.append(("per_client_avg_kbps", str(i), "%.4f" % v))
    else:
        raise InvalidParameterError(
            "cannot export %r" % (type(obj).__name__,))
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
