"""Command line front end.

Subcommands: run (single session), fairness (shared link), compare (all
three estimators on one trace), stats (trace statistics). Every domain
error exits nonzero with a one-line diagnostic on stderr.
"""

import argparse
import functools
import json
import sys

from .abr import AbrConfig, BitrateLadder
from .errors import AffSimError
from .estimators import EstimatorConfig, estimator_kinds
from .fairness import FairnessConfig, run_fairness
from .profiles import BUILTIN_PROFILES, load_profile, profile_stats, \
    synthesize_profile
from .report import export, summarize, to_dict
from .sim import SegmentRecord, SimConfig, run_session

SYNTH_KINDS = ("test1", "test2", "test3", "test4")


@functools.cache
def _estimators():  # {command-line name: kind}, in table order
    return {EstimatorConfig(kind).label: kind for kind in estimator_kinds()}


def _add_profile_args(p, profile_required=True):
    group = p.add_mutually_exclusive_group(required=profile_required)
    group.add_argument("--profile",
                       help="bandwidth trace CSV path, or a built-in name "
                            "(%s)" % ", ".join(sorted(BUILTIN_PROFILES)))
    group.add_argument("--synth", choices=SYNTH_KINDS,
                       help="generate a synthetic trace instead")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for synthetic traces and client jitter")
    p.add_argument("--duration", type=float, default=None,
                   help="trace duration in seconds (csv traces default to "
                        "open ended, synthetic ones to a generous span)")


def _add_session_args(p, sim, pick_estimator=True):
    # each default is read from the default-built config sim; compare runs
    # every kind, so it takes no --estimator
    ladder, abr, est = sim.ladder, sim.abr, sim.estimator
    p.add_argument("--segments", type=int, default=sim.total_segments)
    p.add_argument("--segment-duration", type=float,
                   default=ladder.segment_duration_s)
    p.add_argument("--ladder",
                   default=",".join(map(str, ladder.bitrates_kbps)),
                   help="comma separated bitrates in kbit/s, ascending")
    p.add_argument("--panic-buffer", type=float, default=abr.panic_buffer_s)
    p.add_argument("--max-buffer", type=float, default=sim.max_buffer_s)
    p.add_argument("--initial-quality", type=int,
                   default=abr.initial_quality_index)
    if pick_estimator:
        p.add_argument("--estimator", choices=_estimators(), default=est.label)
    p.add_argument("--step-size", type=float, default=est.step_size)
    p.add_argument("--forgetting-min", type=float, default=est.forgetting_min)
    p.add_argument("--forgetting-max", type=float, default=est.forgetting_max)
    p.add_argument("--ewma-weight", type=float, default=est.ewma_weight)
    p.add_argument("--avg-window", type=int, default=est.window,
                   help="sample count for the sliding mean")


def _add_out_args(p):
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _sim_config(args, name):
    try:
        rungs = tuple(float(b) for b in args.ladder.split(","))
    except ValueError:
        raise AffSimError("could not parse --ladder %r" % (args.ladder,)) \
            from None
    return SimConfig(
        ladder=BitrateLadder(rungs, args.segment_duration),
        abr=AbrConfig(args.panic_buffer, args.initial_quality),
        estimator=EstimatorConfig(
            kind=_estimators()[name], step_size=args.step_size,
            forgetting_min=args.forgetting_min,
            forgetting_max=args.forgetting_max,
            ewma_weight=args.ewma_weight, window=args.avg_window),
        max_buffer_s=args.max_buffer,
        total_segments=args.segments)


def _build_profile(args, default_synth_duration):
    if args.synth:
        return synthesize_profile(args.synth, args.seed, default_synth_duration
                                  if args.duration is None else args.duration)
    if args.profile is None:  # fairness without a trace: the config's link
        return None
    if args.profile in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[args.profile]()
    try:
        with open(args.profile, encoding="utf-8") as fh:
            return load_profile(fh, args.duration)
    except UnicodeDecodeError:
        raise AffSimError("profile %r is not UTF-8 text" % (args.profile,)) \
            from None


def _synth_span(args):
    # generous default so sessions with stalls still fit in the trace
    return max(60.0, 2.0 * args.segments * args.segment_duration + 120.0)


def _print_session(trace, report):
    stall_total = sum(d for _, d in trace.stalls)
    print("segments: %d" % len(trace.records))
    print("mean_bitrate_kbps: %.4f" % report.mean_bitrate_kbps)
    print("bitrate_changes: %d" % report.bitrate_changes)
    print("stall_events: %d" % report.stall_events)
    print("stall_time_s: %.4f" % stall_total)
    print("startup_delay_s: %.4f" % trace.startup_delay_s)
    print("wall_time_s: %.4f" % trace.wall_time_s)
    print("idle_full_s: %.4f" % trace.idle_full_s)


def _write_trace_csv(trace, path):
    # a SegmentRecord is a tuple in column order, so one % formats its row
    row = "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s\n"
    text = ",".join(SegmentRecord._fields) + "\n" + "".join(
        row % r for r in trace.records)
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_run(args):
    cfg = _sim_config(args, args.estimator)  # checked before the trace
    profile = _build_profile(args, _synth_span(args))
    trace = run_session(profile, cfg)
    report = summarize(trace, cfg.ladder)
    _print_session(trace, report)
    if args.trace:
        _write_trace_csv(trace, args.trace)
    if args.out:
        export(report, args.format, args.out)
    return 0


def _cmd_fairness(args):
    sim = _sim_config(args, args.estimator)  # checked before the trace
    try:
        window = tuple(float(x) for x in args.window.split(":"))
    except ValueError:
        raise AffSimError("window must look like LO:HI, got %r"
                          % (args.window,)) from None
    cfg = FairnessConfig(
        n_clients=args.clients, start_jitter_s=args.jitter, window=window,
        profile=_build_profile(args, _synth_span(args)), sim=sim,
        rng_seed=args.seed)
    result = run_fairness(cfg)
    print("clients: %d" % args.clients)
    print("jfi: %.4f" % result.jfi)
    print("total_avg_kbps: %.4f" % result.total_avg_kbps)
    for i, v in enumerate(result.per_client_avg_kbps):
        print("client_%d_avg_kbps: %.4f" % (i, v))
    if args.out:
        export(result, args.format, args.out)
    return 0


def _cmd_compare(args):
    # rows in alphabetical order of command-line name
    cfgs = [_sim_config(args, name) for name in sorted(_estimators())]
    profile = _build_profile(args, _synth_span(args))
    rows = [(cfg.estimator.label,
             summarize(run_session(profile, cfg), cfg.ladder)) for cfg in cfgs]
    header = ("method", "bitrate_changes", "stall_events", "stall_time_s",
              "mean_bitrate_kbps")
    table = [header]
    for label, rep in rows:
        stall_time = ", ".join("%.2f" % d for d in rep.stall_durations_s) \
            or "--"
        table.append((label, str(rep.bitrate_changes),
                      str(rep.stall_events), stall_time,
                      "%.2f" % rep.mean_bitrate_kbps))
    widths = [max(len(row[i]) for row in table)
              for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              .rstrip())
    if args.out:
        payload = {label: to_dict(rep) for label, rep in rows}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_stats(args):
    stats = profile_stats(_build_profile(args, 600.0))
    for name, mbps in vars(stats).items():  # in field order
        print("%s: %.4f" % (name, mbps))
    return 0


def build_parser():
    """Return a new argument parser for the affsim command line."""
    parser = argparse.ArgumentParser(
        prog="affsim",
        description="Trace-driven adaptive bitrate simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one playback session")
    _add_profile_args(p_run)
    _add_session_args(p_run, SimConfig())
    _add_out_args(p_run)
    p_run.add_argument("--trace", help="write the per-segment CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_fair = sub.add_parser("fairness",
                            help="simulate clients sharing one link")
    fair = FairnessConfig()
    _add_profile_args(p_fair, profile_required=False)
    _add_session_args(p_fair, fair.sim)
    _add_out_args(p_fair)
    p_fair.add_argument("--clients", type=int, default=fair.n_clients)
    p_fair.add_argument("--jitter", type=float, default=fair.start_jitter_s)
    p_fair.add_argument("--window", default="%r:%r" % fair.window)
    p_fair.set_defaults(func=_cmd_fairness)

    p_cmp = sub.add_parser("compare",
                           help="run all three estimators on one trace")
    _add_profile_args(p_cmp)
    _add_session_args(p_cmp, SimConfig(), pick_estimator=False)
    p_cmp.add_argument("--out", help="write per-method reports as JSON")
    p_cmp.set_defaults(func=_cmd_compare)

    p_stats = sub.add_parser("stats", help="print trace statistics")
    _add_profile_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    return parser


@functools.cache
def _parser():
    # parse_args leaves the parser as it was and returns a new Namespace,
    # so one parser serves every main() call of the process
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AffSimError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
