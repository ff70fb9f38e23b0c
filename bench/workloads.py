"""The three benchmark workloads.

Each workload is a closed loop: one process makes one top-level call after
another, with no think time. A workload builds its inputs from the seed in
`setup`, lists the calls of one pass in `Inputs.calls`, makes one call in
`run` (the timed part), and checks that call's output in `check` (untimed).

Why these three: ROADMAP item 2 rewrites `sim.integrate_download` and its
breakpoint lookup, and item 3 rewrites the shared-link event engine in
`fairness`. `long_trace` spends most of its time in the first and none in
the second; `shared_link` is the reverse; `cli_sweep` uses every layer on
small inputs, where per-call fixed costs, parsing and writing dominate.
"""

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import checks


@dataclass
class Inputs:
    calls: list
    sizes: dict
    profiles: dict = field(default_factory=dict)


@dataclass
class Outcome:
    problems: list
    segments: int
    digest: str
    qoe: dict  # metric -> list of per-session (or per-client) values


class LongTrace:
    """run_session + summarize on a long test1 trace, three estimators in
    turn. Each download rebuilds the breakpoint start list, so the profile
    lookup in sim.integrate_download dominates; fairness is never called.
    Sessions are short next to the trace so that a run holds many calls."""

    name = "long_trace"

    TRACE_S = 24000.0
    SEGMENTS = 1000
    KINDS = ("aff", "ewma", "sliding_mean")

    def setup(self, api, seed, workdir):
        profile = api.synthesize_profile("test1", seed, self.TRACE_S)
        calls = [(profile, api.SimConfig(
            estimator=api.EstimatorConfig(kind=kind),
            total_segments=self.SEGMENTS)) for kind in self.KINDS]
        return Inputs(calls, {
            "trace_kind": "test1", "trace_seed": seed,
            "trace_s": self.TRACE_S,
            "breakpoints": len(profile.breakpoints),
            "segments_per_session": self.SEGMENTS,
            "estimators": list(self.KINDS)})

    def run(self, api, call):
        profile, cfg = call
        trace = api.run_session(profile, cfg)
        return trace, api.summarize(trace, cfg.ladder)

    def check(self, api, inputs, call, output):
        profile, cfg = call
        trace, report = output
        problems = checks.check_session(profile, cfg, trace, report)
        problems += checks.check_csv_roundtrip(
            api, report,
            ("mean_bitrate_kbps", "bitrate_changes", "stall_events"))
        return Outcome(
            problems, len(trace.records),
            checks.digest(checks.session_digest(trace), report),
            dict(mean_bitrate_kbps=[report.mean_bitrate_kbps],
                 stall_s=[sum(report.stall_durations_s)],
                 switches=[report.bitrate_changes]))


class SharedLink:
    """run_fairness with 40 clients on the built-in link scaled by N/10.
    The O(N)-per-event engine in fairness dominates; integrate_download is
    never called and the link has four breakpoints."""

    name = "shared_link"

    CLIENTS = 40
    SEGMENTS = 180
    RUNS = 4  # rng seeds per pass

    def scaled_link(self, api, n_clients):
        # the unscaled 360 s link runs out of capacity at 40 clients
        base = api.fairness_table3()
        scale = n_clients / 10.0
        return api.BandwidthProfile(
            tuple((t, kbps * scale) for t, kbps in base.breakpoints),
            base.duration_s)

    def setup(self, api, seed, workdir):
        profile = self.scaled_link(api, self.CLIENTS)
        sim = api.SimConfig(total_segments=self.SEGMENTS)
        rng_seeds = [seed * self.RUNS + k for k in range(self.RUNS)]
        calls = [api.FairnessConfig(n_clients=self.CLIENTS, profile=profile,
                                    sim=sim, rng_seed=s) for s in rng_seeds]
        return Inputs(calls, {
            "clients": self.CLIENTS, "segments_per_client": self.SEGMENTS,
            "rng_seeds": rng_seeds, "link": "fairness-table3 x %g"
            % (self.CLIENTS / 10.0)})

    def run(self, api, call):
        return api.run_fairness(call)

    def check(self, api, inputs, cfg, result):
        problems = []
        per_client = result.per_client_avg_kbps
        if len(per_client) != cfg.n_clients:
            problems.append("%d client averages for %d clients"
                            % (len(per_client), cfg.n_clients))
        if not 0.0 < result.jfi <= 1.0:
            problems.append("jfi %r outside (0, 1]" % (result.jfi,))
        if not all(v > 0.0 for v in per_client):
            problems.append("a client moved nothing in the window")
        mean = sum(per_client) / len(per_client)
        if abs(result.total_avg_kbps - mean) > 1e-9 * mean:
            problems.append("total_avg_kbps is not the client mean")
        # everything completed inside the window was downloaded in [0, hi]
        lo, hi = cfg.window
        offered, _ = checks.capacity_kbit(
            cfg.profile, checks.breakpoint_starts(cfg.profile), 0.0, hi)
        moved = sum(per_client) * (hi - lo)
        if not moved <= offered * (1.0 + checks.CONSERVATION_REL_TOL):
            problems.append("clients moved %r kbit, link offers %r"
                            % (moved, offered))
        problems += checks.check_csv_roundtrip(
            api, result, ("jfi", "total_avg_kbps"))
        return Outcome(
            problems, cfg.n_clients * cfg.sim.total_segments,
            checks.digest(per_client, result.jfi, result.total_avg_kbps),
            dict(mean_bitrate_kbps=per_client, jfi=[result.jfi]))


_RUN_FIELDS = ("segments", "mean_bitrate_kbps", "bitrate_changes",
               "stall_events", "stall_time_s", "startup_delay_s",
               "wall_time_s", "idle_full_s")


def _parse_run_stdout(text):
    values = dict(line.split(": ", 1) for line in text.splitlines())
    return {k: float(values[k]) for k in _RUN_FIELDS}


def _parse_compare_stdout(text):
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:
        cells = re.split(r"\s{2,}", line.strip())
        stalls = 0.0 if cells[3] == "--" else \
            sum(float(d) for d in cells[3].split(", "))
        rows[cells[0]] = {"bitrate_changes": int(cells[1]),
                          "stall_events": int(cells[2]),
                          "stall_time_s": stalls,
                          "mean_bitrate_kbps": float(cells[4])}
    return rows


def _identity_problems(run, seg_dur):
    # the CLI prints at 4 dp, so three rounded terms bound the gap
    gap = abs(run["wall_time_s"] - (run["startup_delay_s"]
                                    + run["segments"] * seg_dur
                                    + run["stall_time_s"]))
    return [] if gap <= 2e-4 else ["printed closing identity off by %g" % gap]


class CliSweep:
    """In-process cli.main compare / run / export over 24 short CSV traces.
    Argparse, CSV parsing, report writing and per-session fixed costs weigh
    as much as the simulation, so a change that makes short sessions
    dearer shows here."""

    name = "cli_sweep"

    KINDS = ("test1", "test2", "test3")
    SEEDS_PER_KIND = 8
    TRACE_S = 800.0
    SEGMENTS = 150  # the CLI default
    SEG_DUR = 2.0

    def setup(self, api, seed, workdir):
        calls = []
        profiles = {}
        seeds = [seed * self.SEEDS_PER_KIND + k
                 for k in range(self.SEEDS_PER_KIND)]
        for kind in self.KINDS:
            for s in seeds:
                profile = api.synthesize_profile(kind, s, self.TRACE_S)
                stem = os.path.join(workdir, "%s-%d" % (kind, s))
                path = stem + ".csv"
                with open(path, "w") as fh:
                    fh.write(api.dump_profile(profile))
                # the CLI loads CSV traces open ended
                profiles[path] = api.BandwidthProfile(profile.breakpoints,
                                                      math.inf)
                calls.append(("compare", path, ["compare", "--profile", path]))
                calls.append(("run_json", path, [
                    "run", "--profile", path, "--out", stem + ".aff.json"]))
                calls.append(("run_csv", path, [
                    "run", "--profile", path, "--estimator", "ewma",
                    "--format", "csv", "--out", stem + ".ewma.csv",
                    "--trace", stem + ".ewma.trace.csv"]))
        return Inputs(calls, {
            "trace_kinds": list(self.KINDS), "trace_seeds": seeds,
            "trace_s": self.TRACE_S, "segments_per_session": self.SEGMENTS,
            "calls_per_trace": ["compare", "run --out json",
                                "run --estimator ewma --format csv --trace"]},
            profiles)

    def run(self, api, call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(call[2])
        return code, out.getvalue(), err.getvalue()

    def check(self, api, inputs, call, output):
        kind, path, argv = call
        code, stdout, stderr = output
        if code != 0 or stderr:
            return Outcome(["exit code %r: %s" % (code, stderr.strip())], 0,
                           "", {})
        if kind == "compare":
            return self._check_compare(stdout)
        run = _parse_run_stdout(stdout)
        problems = _identity_problems(run, self.SEG_DUR)
        if run["segments"] != self.SEGMENTS:
            problems.append("ran %g segments" % run["segments"])
        out_path = argv[argv.index("--out") + 1]
        with open(out_path) as fh:
            exported = fh.read()
        if kind == "run_json":
            rep = json.loads(exported)
            summary = {k: rep[k] for k in ("mean_bitrate_kbps",
                                           "bitrate_changes", "stall_events")}
            if abs(sum(rep["stall_durations_s"]) - run["stall_time_s"]) \
                    > 1e-4:
                problems.append("json stall durations disagree with stdout")
            extra = ()
        else:
            summary = dict(api.parse_csv_export(exported)["summary"])
            trace_path = argv[argv.index("--trace") + 1]
            with open(trace_path) as fh:
                trace_csv = fh.read()
            problems += self._check_trace_csv(inputs.profiles[path],
                                              trace_csv)
            extra = (trace_csv,)
        for key in ("mean_bitrate_kbps", "bitrate_changes", "stall_events"):
            if abs(round(summary[key], 4) - run[key]) > 5e-5:
                problems.append("exported %s=%r, printed %r"
                                % (key, summary[key], run[key]))
        return Outcome(
            problems, self.SEGMENTS,
            checks.digest(stdout, exported, *extra),
            dict(mean_bitrate_kbps=[run["mean_bitrate_kbps"]],
                 stall_s=[run["stall_time_s"]],
                 switches=[run["bitrate_changes"]]))

    def _check_compare(self, stdout):
        rows = _parse_compare_stdout(stdout)
        problems = []
        if sorted(rows) != ["aff", "avg3", "ewma"]:
            problems.append("compare printed rows %r" % (sorted(rows),))
        return Outcome(
            problems, self.SEGMENTS * len(rows), checks.digest(stdout),
            dict(mean_bitrate_kbps=[r["mean_bitrate_kbps"]
                                    for r in rows.values()],
                 stall_s=[r["stall_time_s"] for r in rows.values()],
                 switches=[r["bitrate_changes"] for r in rows.values()]))

    def _check_trace_csv(self, profile, text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(1, self.SEGMENTS + 1)):
            return ["trace csv does not list segments 1..%d" % self.SEGMENTS]
        starts = checks.breakpoint_starts(profile)
        for r in rows:
            size, t_req, t_done = float(r[2]), float(r[3]), float(r[4])
            # times are printed at 4 dp: widen the window by the rounding
            offered, _ = checks.capacity_kbit(
                profile, starts, max(0.0, t_req - 5e-5), t_done + 5e-5)
            if not size <= offered + 1e-4:
                return ["trace csv segment %s moved %r kbit, trace offers %r"
                        % (r[0], size, offered)]
        return []


WORKLOADS = {w.name: w for w in (LongTrace(), SharedLink(), CliSweep())}
