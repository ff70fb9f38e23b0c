"""Counted cost: opcodes and Python calls per segment, at a git revision and
in the work tree.

    python3 scripts/op_count.py --rev REV

Extracts REV with `bench_pairs.extract` (`git archive`) into a temporary
directory, and refuses to go on, through `bench_pairs.one_benchmark`, if
its `bench/` or `BENCHMARK.json` differ from the work tree's. For each
side (the revision, "parent", and the work tree, "change") and each
workload of `BENCHMARK.json`, in order, it runs one child process that
imports that side's `src/affsim` and `bench/workloads.py` and counts one
pass of the workload at seed 1, as `bench/run.py --seed 1` builds it:
`workload.run` on each of its calls, with each output checked by
`workload.check` outside the count. A check that reports a problem ends
the script with an error, so every count comes from outputs the
benchmark accepts. The divisor is the checks' `Outcome.segments`, the
segments that the benchmark's `segments_per_s` counts. Set-up is counted
apart from the pass: the workload's `setup` (trace synthesis, configs,
CSV files) and one first pass over its calls, which builds each CLI
command's parser and fills the caches. Modules are imported before
counting starts.

What counts. `sys.settrace` with `f_trace_opcodes` sees Python frames
only; time spent in C (builtins, `bisect`, `csv`, `json`'s scanner) is
not counted. A frame whose code lives in the side's `src/affsim` counts
its opcodes and calls (a call is a `call` event: an entry, or a
generator's resume) under its function. A stdlib frame (the standard
library, frozen import machinery included) counts under the innermost
`affsim` frame below it on the stack, in the `stdlib_*` columns; a stdlib
frame with no `affsim` frame below it, and every other frame (this
script, `bench/`), counts nowhere.

Writes a `counts` block of a BENCH record as JSON to stdout: per workload
and side the pass's segments, the set-up totals, and opcodes and calls
per segment in total, by module and by function, with the functions
whose per-segment counts are higher in the change. Children run with
`PYTHONHASHSEED=0`, so two runs at one commit print the same counts.
Both sides take about 16 s together (Python 3.11, x86_64, 2 CPUs).
Counts differ between Python versions: stdlib only, a tool for records,
never a test gate.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import sysconfig
import tempfile

from bench_pairs import SIDES, extract, one_benchmark

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1  # bench_pairs.py's default
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


def count_pass(package, workload, api, workdir):
    """Counts of one pass of workload over api, frames under package
    counted. The workload's setup and a first pass over its calls are
    set-up; in the counted pass each call's output is checked outside the
    count, a check that reports a problem exits with an error, and the
    checks' segments are the divisor."""
    setup = OpCounter(package)
    inputs = setup.run(workload.setup, api, SEED, workdir)
    for call in inputs.calls:
        setup.run(workload.run, api, call)
    counted = OpCounter(package)
    segments = 0
    for k, call in enumerate(inputs.calls):
        outcome = workload.check(api, inputs, call,
                                 counted.run(workload.run, api, call))
        if outcome.problems:
            sys.exit("error: %s call %d: %s" % (
                workload.name, k, "; ".join(outcome.problems)))
        segments += outcome.segments
    counts = {"segments": segments,
              "setup": dict(zip(COLUMNS, column_sums(setup.rows.values())))}
    counts.update(per_segment(counted.rows, segments))
    return counts


def count_shape(root, shape):
    """One side's counts of one workload, in this process: root's
    `src/affsim` and `bench/workloads.py` must be the ones that import."""
    import affsim
    import affsim.cli  # before counting starts, as affsim is
    import workloads
    package = os.path.join(root, "src", "affsim")
    for module, path in ((affsim, package),
                         (workloads, os.path.join(root, "bench"))):
        if os.path.realpath(os.path.dirname(module.__file__)) != \
                os.path.realpath(path):
            sys.exit("error: imported %s, not from %s"
                     % (module.__file__, path))
    with tempfile.TemporaryDirectory() as workdir:
        return count_pass(package, workloads.WORKLOADS[shape], affsim,
                          workdir)


def run_child(root, shape):
    # no bytecode written, so no __pycache__ is left in either checkout
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   os.path.join(root, d) for d in ("src", "bench")))
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--tree", root,
         "--shape", shape], env=env, capture_output=True, text=True)
    if child.returncode:
        sys.exit(child.stderr.rstrip())
    return json.loads(child.stdout)


def shapes():
    """The workload names of BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


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
    ap.add_argument("--shape", choices=shapes(), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.tree:
        json.dump(count_shape(args.tree, args.shape), sys.stdout)
        return
    if not args.rev:
        ap.error("--rev is required")
    counts = {}
    with tempfile.TemporaryDirectory() as parent_root:
        extract(args.rev, ROOT, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        one_benchmark(roots, args.rev)
        for shape in shapes():
            sides = {side: run_child(roots[side], shape) for side in SIDES}
            sides["higher_in_change"] = higher(sides["parent"],
                                               sides["change"])
            counts[shape] = sides
    sys.stdout.write(json.dumps({"counts": {
        "rev": args.rev, "python": sys.version.split()[0],
        "seed": SEED, "shapes": counts}}, indent=1) + "\n")


if __name__ == "__main__":
    main()
