"""Time and memory of building the affsim CLI parsers, cold and warm.

    python3 scripts/parser_cost.py [--src DIR] [--reps N]

A case builds, for each of its argvs, the parser that `affsim.cli.main`
builds for that argv's command (`affsim.cli._parser`, uncached: the
command's options alone), and parses the argv with it. The four one-
command cases are what one call pays; all_four builds and parses all four
commands in turn, and `full` builds the whole parser, every command's
options, as `affsim.cli.build_parser()` does, and parses one command. Cold runs one case per fresh
interpreter, after `import affsim.cli`: what the first `affsim.cli.main`
call of a process pays. Warm repeats the case in one interpreter after a
first build, so lazily built module state is filled.
Memory is the tracemalloc peak of one case, taken in runs of its own.
Prints one JSON object: medians over --reps runs (cold) or the least of
--reps runs (warm).
Stdlib only; --src points at the `src` directory of a checkout whose
`affsim.cli._parser` takes a command.
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
         "all_four": list(ARGVS.values()), "full": [ARGVS["run"]]}


def one_case(case, memory):
    """Seconds, or with memory the tracemalloc peak in bytes, of one
    case's parser builds and parses; tracemalloc slows the build, so a run
    measures one or the other."""
    from affsim.cli import _parser
    build = _parser.__wrapped__  # main's parser for a command, uncached
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    for argv in CASES[case]:
        # None, as for an argv that names no command, is the whole parser
        build(None if case == "full" else argv[0]).parse_args(argv)
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
    out = {}
    for case in CASES:
        one_case(case, False)
        out[case] = summary(
            [one_case(case, False) for _ in range(reps)],
            [one_case(case, True) for _ in range(reps)], min)
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
        import affsim.cli  # noqa: F401  (the import is not timed)
        print(json.dumps(one_case(args.child, args.memory)))
        return
    print(json.dumps({"python": sys.version.split()[0], "src": src,
                      "reps": args.reps, "cold": cold(src, args.reps),
                      "warm": warm(src, args.reps)}, indent=1))


if __name__ == "__main__":
    main()
