#!/usr/bin/env python3
"""affsim benchmark: closed-loop workloads, output checks, traced layer split.

Run from the root of a checkout that holds `src/affsim`:

    python3 bench/run.py --workload long_trace --seed 1 --seconds 20 --trace 0

With `--trace 0` the calls run untraced and the end-to-end metrics are
reported; host times are scaled to a reference speed measured in the same
run (see HostSpeed). With `--trace 1` every public affsim function is
wrapped from outside (see tracing.py), the per-layer self times and exact
counts are reported, the spans are written to
`.bench_out/<workload>.spans.csv`, and a small scaling sweep is timed.
Either way every call's output is checked.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The line before it is the run record: Python version, git
commit, seed, input sizes, output digest and the metrics that hold only on
some workloads. See bench/README.md for what each metric means.
"""

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from bisect import bisect_right

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from checks import breakpoint_starts, capacity_kbit, digest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, SharedLink  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 15
REFERENCE_STEPS = 6000
REFERENCE_MS = 10.0  # nominal; the scale of "reference speed"
SPEED_EVERY_S = 0.25  # call time between reference samples
P90_MIN_CALLS = 100
SWEEP_BREAKPOINTS = (1000, 4000, 16000)
SWEEP_DOWNLOADS = 200
SWEEP_CLIENTS = (10, 20, 40)
SWEEP_SEGMENTS = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="host seconds of calls to time (whole passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_affsim():
    if not os.path.isfile(os.path.join(SRC, "affsim", "__init__.py")):
        raise SystemExit("error: no affsim sources under %s" % (SRC,))
    sys.path.insert(0, SRC)
    import affsim
    import affsim.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(affsim.__file__))) \
            != SRC:
        raise SystemExit("error: imported affsim from %s, not %s"
                         % (affsim.__file__, SRC))
    return affsim


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class HostSpeed:
    """How slow the host runs now, from a fixed reference loop.

    A shared host's speed can drift by tens of percent over minutes, and
    the drift slows the reference loop along with affsim. Host times are
    reported at reference speed: divided by `factor()` = median reference
    time / REFERENCE_MS, with the samples taken in the same stretch of the
    run as the times they scale.
    """

    def __init__(self):
        self.samples_ms = []

    def sample(self):
        t0 = time.perf_counter()
        _reference_work()
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def factor(self):
        return statistics.median(self.samples_ms) / REFERENCE_MS


def _reference_work():
    # interpreter work of the kinds the simulator does (float arithmetic,
    # bisect over breakpoints, tuples, dicts); it never touches affsim
    starts = [3.0 * i for i in range(2000)]
    x, acc, rows, sums = 12345, 0.0, [], {}
    for i in range(REFERENCE_STEPS):
        x = (1103515245 * x + 12345) % 2147483648
        t = x / 2147483648.0 * 6000.0
        acc += (t - starts[bisect_right(starts, t) - 1]) * 0.5
        rows.append((i, t, acc))
    for i, t, _ in rows:
        sums[i % 97] = sums.get(i % 97, 0.0) + t
    return acc, sums


def timed_setup(workload, api, seed, workdir):
    """Build the inputs repeatedly; return (inputs, median seconds, speed)."""
    times = []
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        gc.collect()  # garbage from the previous build is not this one's cost
        t0 = time.perf_counter()
        inputs = workload.setup(api, seed, workdir)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times), speed.factor()


class Loop:
    """Whole passes over the workload's calls, each call timed on its own.

    Every call's output is checked outside the timed region. The first
    pass's outcomes give the digest and QoE values; a repeated call must
    reproduce its first-pass digest.
    """

    def __init__(self, workload, api, inputs):
        self.workload = workload
        self.api = api
        self.inputs = inputs
        self.passes = 0
        self.pass_rates = []  # segments per second of call time, per pass
        self.durations = []
        self.segments = 0
        self.failed = 0
        self.failures = []
        self.first = {}
        self.speed = HostSpeed()
        self._since_sample = SPEED_EVERY_S

    def run(self, seconds):
        """Run whole passes until at least `seconds` of call time."""
        busy = 0.0
        while busy < seconds or self.passes == 0:
            busy += self.run_pass()

    def run_pass(self, tracer=None):
        """One pass; with a tracer, each call is a root span. Returns the
        pass's call time."""
        busy = 0.0
        segments_before = self.segments
        run = self.workload.run
        if tracer is not None:
            run = tracer.wrap(run, "bench")
        for k, call in enumerate(self.inputs.calls):
            if self._since_sample >= SPEED_EVERY_S:
                self.speed.sample()
                self._since_sample = 0.0
            error = out = None
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = run(self.api, call)
            except Exception:
                error = traceback.format_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.recording = False
            self.durations.append(t1 - t0)
            busy += t1 - t0
            self._since_sample += t1 - t0
            self._account(k, out, error)
        self.passes += 1
        self.pass_rates.append((self.segments - segments_before) / busy)
        return busy

    def _account(self, k, out, error):
        if error is not None:
            problems = [error.strip().splitlines()[-1]]
        else:
            try:
                outcome = self.workload.check(self.api, self.inputs,
                                              self.inputs.calls[k], out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc()]
            else:
                problems = list(outcome.problems)
                first = self.first.setdefault(k, outcome)
                if first.digest != outcome.digest:
                    problems.append("output differs from the first pass")
                if not problems:
                    self.segments += outcome.segments
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("call %d: %s" % (k, "; ".join(problems)))

    def digest(self):
        return digest([self.first[k].digest if k in self.first else None
                       for k in range(len(self.inputs.calls))])

    def qoe(self):
        """Mean of each QoE value over the first pass's sessions/clients."""
        pooled = {}
        for k in sorted(self.first):
            for key, values in self.first[k].qoe.items():
                pooled.setdefault(key, []).extend(values)
        return {key: sum(v) / len(v) for key, v in pooled.items() if v}


def peak_mem_mib(workload, api, call):
    tracemalloc.start()
    try:
        workload.run(api, call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2.0 ** 20


def end_to_end(workload, api, inputs, seconds, record):
    mem = peak_mem_mib(workload, api, inputs.calls[0])
    loop = Loop(workload, api, inputs)
    loop.run(seconds)
    calls_ms = [d * 1e3 for d in loop.durations]
    speed = loop.speed.factor()
    raw = {"segments_per_s": statistics.median(loop.pass_rates),
           "call_ms_p50": statistics.median(calls_ms)}
    qoe = loop.qoe()
    metrics = {
        "segments_per_s": (raw["segments_per_s"] * speed, "1/s"),
        "call_ms_p50": (raw["call_ms_p50"] / speed, "ms"),
        "peak_mem_mib": (mem, "MiB"),
        # absent only when every first-pass call failed
        "qoe.mean_bitrate_kbps": (qoe.get("mean_bitrate_kbps", 0.0), "kbps"),
    }
    partial = {}
    if len(calls_ms) >= P90_MIN_CALLS:
        partial["call_ms_p90"] = (
            statistics.quantiles(calls_ms, n=10)[8] / speed, "ms")
    if "stall_s" in qoe:
        partial["qoe.stall_s"] = (qoe["stall_s"], "s")
        partial["qoe.switches"] = (qoe["switches"], "count")
    if "jfi" in qoe:
        partial["fair.jfi_min"] = (min(
            v for o in loop.first.values() for v in o.qoe["jfi"]), "1")
    record.update(passes=loop.passes, calls=len(calls_ms),
                  digest=loop.digest(), workload_only_metrics=_fmt(partial),
                  raw=raw, host_speed={"calls": speed,
                                       "samples": len(loop.speed.samples_ms)})
    return loop, metrics


def pass_counts(tracer):
    """Exact counts over the first traced pass, as {name: (value, unit)}."""
    downloads = pieces = samples = 0
    for profile, trace in tracer.sessions:
        downloads += len(trace.records)
        samples += len(trace.buffer_series)
        starts = breakpoint_starts(profile)
        for r in trace.records:
            pieces += capacity_kbit(profile, starts, r.t_request_s,
                                    r.t_complete_s)[1]
    fair_segments = sum(cfg.n_clients * cfg.sim.total_segments
                        for cfg in tracer.fairness_cfgs)
    return {
        "segments": (downloads + fair_segments, "count"),
        "sim.downloads": (downloads, "count"),
        "sim.pieces_per_download": (pieces / downloads if downloads else 0.0,
                                    "pieces/download"),
        "sim.buffer_samples": (samples, "count"),
        "fairness.clients": (sum(cfg.n_clients
                                 for cfg in tracer.fairness_cfgs), "count"),
        "fairness.segments": (fair_segments, "count"),
        "abr.startup_decisions": (tracer.reasons.get("startup", 0), "count"),
        "abr.throughput_decisions": (tracer.reasons.get("throughput", 0),
                                     "count"),
        "abr.panic_decisions": (tracer.reasons.get("buffer_panic", 0),
                                "count"),
    }


def layer_metrics(totals, counts, traced_passes):
    m = dict(counts)
    for layer in ("sim.integrate_download", "estimators.aff",
                  "estimators.ewma", "estimators.sliding_mean", "abr",
                  "report.summarize", "report.export"):
        calls, self_s = totals[layer]
        m[layer + ".us_per_call"] = (self_s / calls * 1e6 if calls else 0.0,
                                     "us")
    for layer in totals:
        if layer != "estimators.dispatch":
            m[layer + ".calls"] = (totals[layer][0], "count")
            m[layer + ".self_s"] = (totals[layer][1], "s")
    del m["bench.calls"]
    m["estimators.self_s"] = (sum(s for name, (_, s) in totals.items()
                                  if name.startswith("estimators.")), "s")
    fair_segments = counts["fairness.segments"][0] * traced_passes
    m["fairness.us_per_segment"] = (
        totals["fairness"][1] / fair_segments * 1e6 if fair_segments else 0.0,
        "us")
    return m


def scaling_sweep(api, seed):
    """integrate_download cost against breakpoints; fairness against N."""
    m = {}
    sizes = {}
    rng = random.Random(seed)
    for bps in SWEEP_BREAKPOINTS:
        # synthetic pieces average 3 s
        profile = api.synthesize_profile("test1", seed, 3.0 * bps)
        starts = [rng.uniform(0.0, profile.duration_s - 600.0)
                  for _ in range(SWEEP_DOWNLOADS)]
        t0 = time.perf_counter()
        for s in starts:
            api.integrate_download(profile, s, 4000.0)
        dt = time.perf_counter() - t0
        key = "scale.integrate_download.us_per_call.bp%dk" % (bps // 1000)
        m[key] = (dt / SWEEP_DOWNLOADS * 1e6, "us")
        sizes[key] = {"breakpoints": len(profile.breakpoints),
                      "downloads": SWEEP_DOWNLOADS}
    shared = SharedLink()
    for n in SWEEP_CLIENTS:
        cfg = api.FairnessConfig(
            n_clients=n, profile=shared.scaled_link(api, n),
            sim=api.SimConfig(total_segments=SWEEP_SEGMENTS), rng_seed=seed)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.recording = True
            api.run_fairness(cfg)
            tracer.recording = False
        finally:
            tracer.uninstall()
        key = "scale.fairness.us_per_segment.n%d" % n
        m[key] = (tracer.layer_totals()["fairness"][1]
                  / (n * SWEEP_SEGMENTS) * 1e6, "us")
        sizes[key] = {"clients": n, "segments_per_client": SWEEP_SEGMENTS}
    return m, sizes


def per_layer(workload, api, inputs, seconds, seed, record):
    """Traced passes alternate with untraced ones, so that host drift
    affects both sides of `trace.overhead_s` alike."""
    tracer = Tracer()
    loop = Loop(workload, api, inputs)
    traced_s = plain_s = 0.0
    traced_passes = 0
    while traced_passes == 0 or traced_s < seconds / 2.0:
        tracer.collecting = traced_passes == 0
        tracer.install()
        try:
            traced_s += loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced_passes += 1
        plain_s += loop.run_pass()
    traced_s = tracer.root_total_s()
    metrics = layer_metrics(tracer.layer_totals(), pass_counts(tracer),
                            traced_passes)
    metrics["trace.total_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    sweep, sweep_sizes = scaling_sweep(api, seed)
    metrics.update(sweep)
    spans_path = os.path.join(OUT_DIR, "%s.spans.csv" % workload.name)
    tracer.write_csv(spans_path)
    record.update(passes=loop.passes, traced_passes=traced_passes,
                  calls=len(loop.durations), digest=loop.digest(),
                  spans=len(tracer.layer),
                  spans_file=os.path.relpath(spans_path, ROOT),
                  sweep_sizes=sweep_sizes)
    return loop, metrics


def _fmt(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    api = import_affsim()
    workload = WORKLOADS[args.workload]
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "commit": git_commit(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        inputs, setup_s, setup_speed = timed_setup(workload, api, args.seed,
                                                   workdir)
        record["sizes"] = inputs.sizes
        record["calls_per_pass"] = len(inputs.calls)
        if args.trace:
            loop, metrics = per_layer(workload, api, inputs, args.seconds,
                                      args.seed, record)
        else:
            loop, metrics = end_to_end(workload, api, inputs, args.seconds,
                                       record)
            metrics["setup_s"] = (setup_s / setup_speed, "s")
            record["raw"]["setup_s"] = setup_s
            record["host_speed"]["setup"] = setup_speed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in loop.failures:
        print("failed %s" % line, file=sys.stderr)
    attempted = len(loop.durations)
    record["failures"] = loop.failures
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": _fmt(metrics),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
