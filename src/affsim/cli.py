"""Command line front end.

Subcommands: run (single session), fairness (shared link), compare (all
three estimators on one trace), stats (trace statistics). Every domain
error exits nonzero with a one-line diagnostic on stderr. This is the one
module that opens files: the library takes and returns text.
"""

import argparse
import functools
import json
import sys

from .abr import BitrateLadder
from .errors import AffSimError
from .estimators import EstimatorConfig, estimator_kinds
from .fairness import FairnessConfig, _check_records, run_fairness
from .profiles import BUILTIN_PROFILES, SYNTH_KINDS, BandwidthProfile, \
    load_profile, profile_stats, synthesize_profile
from .report import export, summarize, summary, to_dict
from .sim import SegmentRecord, SimConfig, run_session


@functools.cache
def _estimators():  # {command-line name: kind}, in table order
    return {EstimatorConfig(kind).label: kind for kind in estimator_kinds()}


def _add_profile_args(p, default_profile=None):
    # a command with a default trace needs neither option
    group = p.add_mutually_exclusive_group(required=default_profile is None)
    builtins = ", ".join(sorted(BUILTIN_PROFILES))
    group.add_argument("--profile", default=default_profile,
                       help="bandwidth trace CSV path, or a built-in name "
                            "(%s)" % builtins)
    group.add_argument("--synth", choices=SYNTH_KINDS,
                       help="generate a synthetic trace instead")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for synthetic traces and client jitter")
    duration_help = (
        "trace duration in seconds; it also cuts or stretches a built-in "
        "trace (%s). Unset, a built-in trace keeps its own length, a csv "
        "trace is open ended and a synthetic one gets a generous span"
        % builtins)
    if default_profile is not None:
        duration_help += ". With neither --profile nor --synth the trace " \
            "is %s" % default_profile
    p.add_argument("--duration", type=float, default=None,
                   help=duration_help)


def _add_session_args(p, sim, pick_estimator=True):
    # each default is read from the default-built config sim; compare runs
    # every kind, so it takes no --estimator
    ladder, est = sim.ladder, sim.estimator
    p.add_argument("--segments", type=int, default=sim.total_segments)
    p.add_argument("--segment-duration", type=float,
                   default=ladder.segment_duration_s)
    p.add_argument("--ladder",
                   default=",".join(map(str, ladder.bitrates_kbps)),
                   help="comma separated bitrates in kbit/s, ascending")
    p.add_argument("--panic-buffer", type=float, default=sim.panic_buffer_s)
    p.add_argument("--max-buffer", type=float, default=sim.max_buffer_s)
    p.add_argument("--initial-quality", type=int,
                   default=sim.initial_quality_index)
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
        panic_buffer_s=args.panic_buffer,
        initial_quality_index=args.initial_quality,
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
    if args.profile in BUILTIN_PROFILES:
        profile = BUILTIN_PROFILES[args.profile]()
        if args.duration is None:
            return profile
        return BandwidthProfile(profile.breakpoints, args.duration)
    try:
        with open(args.profile, encoding="utf-8") as fh:
            return load_profile(fh, args.duration)
    except UnicodeDecodeError:
        raise AffSimError("profile %r is not UTF-8 text" % (args.profile,)) \
            from None


def _synth_span(args):
    # generous default so sessions with stalls still fit in the trace
    return 2.0 * args.segments * args.segment_duration + 120.0


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _trace_csv(trace):
    # the record's fields, with its derived instant_throughput_kbps after
    # t_complete_s
    fields = SegmentRecord._fields
    header = fields[:5] + ("instant_throughput_kbps",) + fields[5:]
    row = "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s\n"
    return ",".join(header) + "\n" + "".join(
        row % (r.index, r.quality_index, r.size_kbit, r.t_request_s,
               r.t_complete_s, r.instant_throughput_kbps, r.estimate_kbps,
               r.buffer_after_s, r.decision_reason)
        for r in trace.records)


def _cmd_run(args):
    cfg = _sim_config(args, args.estimator)  # checked before the trace
    profile = _build_profile(args, _synth_span(args))
    trace = run_session(profile, cfg)
    report = summarize(trace, cfg.ladder)
    for name, text in summary(report):
        print("%s: %s" % (name, text))
    if args.trace:
        _write(args.trace, _trace_csv(trace))
    if args.out:
        _write(args.out, export(report, args.format))
    return 0


def _cmd_fairness(args):
    sim = _sim_config(args, args.estimator)  # checked before the trace
    _check_records(args.clients, sim)  # and so are the run's records
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
    for name, text in summary(result):  # jfi, total_avg_kbps
        print("%s: %s" % (name, text))
    for i, v in enumerate(result.per_client_avg_kbps):
        print("client_%d_avg_kbps: %.4f" % (i, v))
    if args.out:
        _write(args.out, export(result, args.format))
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
        _write(args.out, json.dumps(
            {label: to_dict(rep) for label, rep in rows}, indent=2) + "\n")
    return 0


def _cmd_stats(args):
    stats = profile_stats(_build_profile(args, 600.0))
    for name, mbps in vars(stats).items():  # in field order
        print("%s: %.4f" % (name, mbps))
    return 0


def _run_options(p_run):
    _add_profile_args(p_run)
    _add_session_args(p_run, SimConfig())
    _add_out_args(p_run)
    p_run.add_argument("--trace", help="write the per-segment CSV here")
    p_run.set_defaults(func=_cmd_run)


def _fairness_options(p_fair):
    fair = FairnessConfig()
    _add_profile_args(p_fair, "fairness-table3")
    _add_session_args(p_fair, fair.sim)
    _add_out_args(p_fair)
    p_fair.add_argument("--clients", type=int, default=fair.n_clients)
    p_fair.add_argument("--jitter", type=float, default=fair.start_jitter_s)
    p_fair.add_argument("--window", default="%r:%r" % fair.window)
    p_fair.set_defaults(func=_cmd_fairness)


def _compare_options(p_cmp):
    _add_profile_args(p_cmp)
    _add_session_args(p_cmp, SimConfig(), pick_estimator=False)
    p_cmp.add_argument("--out", help="write per-method reports as JSON")
    p_cmp.set_defaults(func=_cmd_compare)


def _stats_options(p_stats):
    _add_profile_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)


# (name, help, the function that adds its options), in `affsim -h` order
_COMMANDS = (
    ("run", "simulate one playback session", _run_options),
    ("fairness", "simulate clients sharing one link", _fairness_options),
    ("compare", "run all three estimators on one trace", _compare_options),
    ("stats", "print trace statistics", _stats_options),
)


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. It adds its command's options the first time
    it parses, so a call builds only the options of the command it runs.
    The subparsers action and parse_args both go through parse_known_args,
    so -h, usage and errors see every option. Help formatted before any
    parse, as by format_help on a fresh parser, lists only -h."""

    def __init__(self, *, add_options, **kwargs):
        super().__init__(**kwargs)
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            add, self._add_options = self._add_options, None
            add(self)
        return super().parse_known_args(args, namespace)


def build_parser():
    """Return a new argument parser for the affsim command line."""
    parser = argparse.ArgumentParser(
        prog="affsim",
        description="Trace-driven adaptive bitrate simulation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, help_text, add_options in _COMMANDS:
        sub.add_parser(name, help=help_text, add_options=add_options)
    return parser


@functools.cache
def _parser():
    # parse_args returns a new Namespace, and leaves the parser as it was
    # but for the options a command adds on its first call, so one parser
    # serves every main() call of the process
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
