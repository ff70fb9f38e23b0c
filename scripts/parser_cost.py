"""Time and memory of building the affsim CLI parser, cold and warm.

    python3 scripts/parser_cost.py [--src DIR] [--reps N]

A case builds a parser with `affsim.cli.build_parser()` and parses the
argv of one command, or of all four in turn on the same parser, so each
command's options are in place, however the parser adds them. Cold runs
one case per fresh interpreter, after `import affsim.cli`: what the first
`affsim.cli.main` call of a process pays. Warm repeats the case in one
interpreter after a first build, so lazily built module state is filled.
Memory is the tracemalloc peak of one case, taken in runs of its own.
Prints one JSON object: medians over --reps runs (cold) or the least of
--reps runs (warm).
Stdlib only; --src points at the `src` directory of any checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

ARGVS = {
    "run": ["run", "--synth", "test1"],
    "fairness": ["fairness"],
    "compare": ["compare", "--synth", "test1"],
    "stats": ["stats", "--synth", "test1"],
}
CASES = {**{name: [argv] for name, argv in ARGVS.items()},
         "all_four": list(ARGVS.values())}


def one_case(build, argvs, memory):
    """Seconds, or with memory the tracemalloc peak in bytes, of one
    parser build and its parses; tracemalloc slows the build, so a run
    measures one or the other."""
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    parser = build()
    for argv in argvs:
        parser.parse_args(argv)
    elapsed = time.perf_counter() - t0
    if not memory:
        return elapsed
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def summary(seconds, peaks, pick):
    return {"ms": pick(seconds) * 1e3, "kib": pick(peaks) / 1024.0}


def warm(src, reps):
    sys.path.insert(0, src)
    from affsim.cli import build_parser
    out = {}
    for case, argvs in CASES.items():
        one_case(build_parser, argvs, False)
        out[case] = summary(
            [one_case(build_parser, argvs, False) for _ in range(reps)],
            [one_case(build_parser, argvs, True) for _ in range(reps)], min)
    return out


def cold(src, reps):
    def fresh(case, memory):
        return json.loads(subprocess.run(
            [sys.executable, __file__, "--src", src, "--child", case]
            + ["--memory"] * memory,
            check=True, capture_output=True, text=True).stdout)

    return {case: summary([fresh(case, False) for _ in range(reps)],
                          [fresh(case, True) for _ in range(reps)],
                          statistics.median)
            for case in CASES}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    ap.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    if args.child:  # one cold case in this fresh interpreter
        sys.path.insert(0, src)
        from affsim.cli import build_parser
        print(json.dumps(one_case(build_parser, CASES[args.child],
                                  args.memory)))
        return
    print(json.dumps({"python": sys.version.split()[0], "src": src,
                      "reps": args.reps, "cold": cold(src, args.reps),
                      "warm": warm(src, args.reps)}, indent=1))


if __name__ == "__main__":
    main()
