"""Counted cost: opcodes and Python calls per segment, at a git revision and
in the work tree.

    python3 scripts/op_count.py --rev REV

Extracts REV with `bench_pairs.extract` (`git archive`) into a temporary
directory. For each side (the revision, "parent", and the work tree,
"change") and each shape it runs one child process that imports that
side's `src/affsim` and counts one reduced pass shaped like a benchmark
workload:

- `long_trace`: three 1,000-segment sessions, one per estimator, on a
  24,000 s `test1` trace, each followed by `summarize`;
- `shared_link`: one `run_fairness` of 40 clients x 180 segments on the
  built-in link scaled by 4;
- `cli_sweep`: `cli.main` `compare`, `run --out` (JSON) and
  `run --estimator ewma --format csv --out --trace` on three 800 s CSV
  traces (`test1`, `test2`, `test3`).

What counts. `sys.settrace` with `f_trace_opcodes` sees Python frames
only; time spent in C (builtins, `bisect`, `csv`, `json`'s scanner) is
not counted. A frame whose code lives in the side's `src/affsim` counts
its opcodes and calls (a call is a `call` event: an entry, or a
generator's resume) under its function. A stdlib frame (the standard
library, frozen import machinery included) counts under the innermost
`affsim` frame below it on the stack, in the `stdlib_*` columns; a stdlib
frame with no `affsim` frame below it, and every other frame (this
script), counts nowhere. Set-up is counted apart from the pass: building
the inputs (trace synthesis, configs, CSV files) and, for `cli_sweep`, a
first run of every call, which builds each command's parser and fills
the CLI's caches. Modules are imported before counting starts.

Writes a `counts` block of a BENCH record as JSON to stdout: per shape
and side the pass's segments, the set-up totals, and opcodes and calls
per segment in total, by module and by function, with the functions
whose per-segment counts are higher in the change. Children run with
`PYTHONHASHSEED=0`, so two runs at one commit print the same counts.
Counts differ between Python versions: stdlib only, a tool for records,
never a test gate.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import sysconfig
import tempfile

from bench_pairs import SIDES, extract

SEED = 1
COLUMNS = ("opcodes", "calls", "stdlib_opcodes", "stdlib_calls")
STDLIB = os.path.join(os.path.realpath(sysconfig.get_paths()["stdlib"]), "")
SITE = os.path.join(os.path.realpath(sysconfig.get_paths()["purelib"]), "")


class OpCounter:
    """Counts of frames under package, a directory of Python files: each
    row is [opcodes, calls, stdlib_opcodes, stdlib_calls], keyed by
    "module.qualname" of the package's function."""

    def __init__(self, package):
        self.package = os.path.join(os.path.realpath(package), "")
        self.rows = collections.defaultdict(lambda: [0] * len(COLUMNS))
        self._keys = {}  # code object -> its key, STDLIB or None
        self._tracers = {}  # (key, column) -> local trace function

    def _key(self, code):
        try:
            return self._keys[code]
        except KeyError:
            pass
        path = code.co_filename
        real = os.path.realpath(path)
        if real.startswith(self.package):
            module = os.path.splitext(real[len(self.package):])[0]
            key = "%s.%s" % (module.replace(os.sep, "."), code.co_qualname)
        elif path.startswith("<frozen ") or (real.startswith(STDLIB)
                                             and not real.startswith(SITE)):
            key = STDLIB
        else:
            key = None
        self._keys[code] = key
        return key

    def _tracer(self, key, column):
        # one local trace function per row and column, made once
        try:
            return self._tracers[key, column]
        except KeyError:
            row = self.rows[key]

            def count(frame, event, arg):
                if event == "opcode":
                    row[column] += 1
                return count
            self._tracers[key, column] = count
            return count

    def _call(self, frame, event, arg):
        if event != "call":
            return None
        key = self._key(frame.f_code)
        if key is None:
            return None
        column = 0
        if key is STDLIB:
            owner = frame.f_back
            while owner is not None and self._key(owner.f_code) in (STDLIB,
                                                                    None):
                owner = owner.f_back
            if owner is None:
                return None
            key, column = self._key(owner.f_code), 2
        self.rows[key][column + 1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._tracer(key, column)

    def run(self, fn, *args):
        """fn(*args), counted; returns its result."""
        sys.settrace(self._call)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


def long_trace(affsim, workdir):
    profile = affsim.synthesize_profile("test1", SEED, 24000.0)
    cfgs = [affsim.SimConfig(estimator=affsim.EstimatorConfig(kind=kind),
                             total_segments=1000)
            for kind in ("aff", "ewma", "sliding_mean")]

    def one_pass():
        segments = 0
        for cfg in cfgs:
            trace = affsim.run_session(profile, cfg)
            affsim.summarize(trace, cfg.ladder)
            segments += len(trace.records)
        return segments
    return one_pass


def shared_link(affsim, workdir):
    base = affsim.fairness_table3()
    link = affsim.BandwidthProfile(
        tuple((t, kbps * 4.0) for t, kbps in base.breakpoints),
        base.duration_s)
    cfg = affsim.FairnessConfig(
        n_clients=40, profile=link,
        sim=affsim.SimConfig(total_segments=180), rng_seed=SEED * 4)

    def one_pass():
        result = affsim.run_fairness(cfg)
        return sum(len(trace.records) for trace in result.traces)
    return one_pass


def cli_sweep(affsim, workdir):
    per_session = affsim.SimConfig().total_segments  # the CLI's default
    calls = []
    for kind in ("test1", "test2", "test3"):
        stem = os.path.join(workdir, kind)
        with open(stem + ".csv", "w") as fh:
            fh.write(affsim.dump_profile(
                affsim.synthesize_profile(kind, SEED, 800.0)))
        calls += [
            (["compare", "--profile", stem + ".csv"], 3),
            (["run", "--profile", stem + ".csv", "--out", stem + ".json"], 1),
            (["run", "--profile", stem + ".csv", "--estimator", "ewma",
              "--format", "csv", "--out", stem + ".out.csv",
              "--trace", stem + ".trace.csv"], 1)]

    def one_pass():
        segments = 0
        with contextlib.redirect_stdout(io.StringIO()):
            for argv, sessions in calls:
                if affsim.cli.main(argv) != 0:
                    raise RuntimeError("%r exited nonzero" % (argv,))
                segments += sessions * per_session
        return segments
    one_pass()  # parsers and caches: set-up
    return one_pass


SHAPES = {f.__name__: f for f in (long_trace, shared_link, cli_sweep)}


def column_sums(rows):
    return [sum(row[i] for row in rows) for i in range(len(COLUMNS))]


def per_segment(rows, segments):
    """The total, module and function tables of rows, each count over
    segments."""
    def scaled(row):
        return {c: v / segments for c, v in zip(COLUMNS, row)}
    modules = collections.defaultdict(list)
    for key, row in rows.items():
        modules[key.split(".")[0]].append(row)
    return {"total": scaled(column_sums(rows.values())),
            "modules": {m: scaled(column_sums(r))
                        for m, r in sorted(modules.items())},
            "functions": {k: scaled(r) for k, r in sorted(rows.items())}}


def count_shape(root, shape):
    """One side's counts of one shape, in this process: root's
    `src/affsim` must be the `affsim` that imports."""
    import affsim
    import affsim.cli  # before counting starts, as affsim is
    package = os.path.join(root, "src", "affsim")
    if os.path.realpath(os.path.dirname(affsim.__file__)) != \
            os.path.realpath(package):
        raise SystemExit("error: imported %s, not %s"
                         % (affsim.__file__, package))
    with tempfile.TemporaryDirectory() as workdir:
        setup = OpCounter(package)
        one_pass = setup.run(SHAPES[shape], affsim, workdir)
        counted = OpCounter(package)
        segments = counted.run(one_pass)
    counts = {"segments": segments,
              "setup": dict(zip(COLUMNS, column_sums(setup.rows.values())))}
    counts.update(per_segment(counted.rows, segments))
    return counts


def run_child(root, shape):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--tree", root,
         "--shape", shape], env=env, check=True, capture_output=True,
        text=True).stdout
    return json.loads(out)


def higher(parent, change):
    """Functions whose per-segment opcodes or calls are higher in change."""
    zero = dict.fromkeys(COLUMNS, 0)
    return sorted(name for name, row in change["functions"].items()
                  if any(row[c] > parent["functions"].get(name, zero)[c]
                         for c in COLUMNS))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", help="the parent revision")
    ap.add_argument("--tree", help=argparse.SUPPRESS)  # a child's side
    ap.add_argument("--shape", choices=SHAPES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.tree:
        json.dump(count_shape(args.tree, args.shape), sys.stdout)
        return
    if not args.rev:
        ap.error("--rev is required")
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    shapes = {}
    with tempfile.TemporaryDirectory() as parent_root:
        extract(args.rev, root, parent_root)
        roots = {"parent": parent_root, "change": root}
        for shape in SHAPES:
            sides = {side: run_child(roots[side], shape) for side in SIDES}
            sides["higher_in_change"] = higher(sides["parent"],
                                               sides["change"])
            shapes[shape] = sides
    sys.stdout.write(json.dumps({"counts": {
        "rev": args.rev, "python": sys.version.split()[0],
        "seed": SEED, "shapes": shapes}}, indent=1) + "\n")


if __name__ == "__main__":
    main()
