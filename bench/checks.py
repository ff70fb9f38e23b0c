"""Output checks and digests shared by the workloads.

Each check returns a list of problem strings; an empty list means the
output passed. Digests hash every simulated float by its repr, so two
runs, or two commits, agree on a digest only when they agree exactly.
"""

import hashlib
from bisect import bisect_right

IDENTITY_TOL_S = 1e-9
CONSERVATION_REL_TOL = 1e-9


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def session_digest(trace):
    """Digest of a SessionTrace's simulated values, field by field."""
    records = [(r.index, r.quality_index, r.size_kbit, r.t_request_s,
                r.t_complete_s, r.instant_throughput_kbps, r.estimate_kbps,
                r.buffer_after_s, r.decision_reason) for r in trace.records]
    return digest(records, trace.stalls, trace.startup_delay_s,
                  trace.wall_time_s, trace.idle_full_s, trace.buffer_series)


def breakpoint_starts(profile):
    return [t for t, _ in profile.breakpoints]


def capacity_kbit(profile, starts, t0, t1):
    """(kbit the profile offers over [t0, t1], constant pieces touched).

    `starts` is breakpoint_starts(profile), built once by the caller.
    """
    bps = profile.breakpoints
    idx = max(0, bisect_right(starts, t0) - 1)
    total = 0.0
    pieces = 0
    t = t0
    while t < t1 and idx < len(bps):
        piece_end = bps[idx + 1][0] if idx + 1 < len(bps) else \
            profile.duration_s
        seg_end = min(piece_end, t1)
        if seg_end > t:
            total += bps[idx][1] * (seg_end - t)
            pieces += 1
        t = seg_end
        idx += 1
    return total, pieces


def check_session(profile, cfg, trace, report):
    """Closing identity, conservation and summary consistency."""
    problems = []
    seg_dur = cfg.ladder.segment_duration_s
    records = trace.records
    if len(records) != cfg.total_segments:
        problems.append("%d records for %d segments"
                        % (len(records), cfg.total_segments))
    stall_total = sum(d for _, d in trace.stalls)
    gap = abs(trace.wall_time_s - (trace.startup_delay_s
                                   + len(records) * seg_dur + stall_total))
    if not gap <= IDENTITY_TOL_S:
        problems.append("closing identity off by %r s" % (gap,))
    starts = breakpoint_starts(profile)
    for r in records:
        offered, _ = capacity_kbit(profile, starts, r.t_request_s,
                                   r.t_complete_s)
        if not r.size_kbit <= offered * (1.0 + CONSERVATION_REL_TOL):
            problems.append("segment %d moved %r kbit, trace offers %r"
                            % (r.index, r.size_kbit, offered))
            break
    qualities = [r.quality_index for r in records]
    changes = sum(1 for a, b in zip(qualities, qualities[1:]) if a != b)
    if report.bitrate_changes != changes or \
            report.stall_events != len(trace.stalls):
        problems.append("summary disagrees with the trace")
    return problems


def check_csv_roundtrip(api, obj, keys):
    """Export obj as CSV, re-parse it, and compare `keys` at 4 dp."""
    parsed = api.parse_csv_export(api.export(obj, "csv"))
    summary = dict(parsed.get("summary", ()))
    problems = []
    for key in keys:
        want = round(float(getattr(obj, key)), 4)
        if key not in summary or abs(summary[key] - want) > 5e-5:
            problems.append("csv export %s=%r, expected %r"
                            % (key, summary.get(key), want))
    return problems
