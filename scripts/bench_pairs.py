"""Alternating runs of the benchmark at a git revision and in the work tree.

    python3 scripts/bench_pairs.py --rev REV [--seconds 20] [--seed 1]

Extracts REV with `git archive` into a temporary directory, and refuses to
run if its `bench/` or `BENCHMARK.json` differ from the work tree's, since
the two sides would then not run one benchmark. For every workload of
`BENCHMARK.json` it runs
`bench/run.py --workload W --seed SEED --seconds S --trace 0` in both
checkouts, one run at a time, for 10 pairs: the revision (the parent)
runs first in pairs 1, 3, 5, ... and the work tree (the change) first in
pairs 2, 4, 6, .... It writes the `workloads` block of a BENCH record as
JSON to stdout: per workload the attempted and failed counts
and digests of each side's runs, and per end-to-end metric of
`BENCHMARK.json` both sides' runs in pair order, their medians and
inclusive quartiles, the change's percent difference, the pairs it wins
in the metric's direction and the tied ones, the bound, whether the
change's median is within the bound, and `unresolved` when the parent's
interquartile range, over its median, exceeds the bound.
Stdlib only; run it from anywhere inside the repository. A tool for
records, never a test gate.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
PAIRS = 10


def tree_files(root, names):
    """{path: bytes} of the files under root's names, skipping caches."""
    files = {}
    for name in names:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
        for top, dirs, found in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for file in found:
                full = os.path.join(top, file)
                with open(full, "rb") as fh:
                    files[os.path.relpath(full, root)] = fh.read()
    return files


def extract(rev, root, dest):
    """Write the files of git revision rev into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def one_benchmark(roots, rev):
    """The BENCHMARK.json that both checkouts of roots ({side: root})
    share. Exits with an error if the parent's (rev's) `bench/` or
    BENCHMARK.json differ from the change's: the sides would not run one
    benchmark."""
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = bench["paths"] + ["BENCHMARK.json"]
    if tree_files(roots["parent"], names) != tree_files(roots["change"],
                                                        names):
        sys.exit("error: %s at %s differ from the work tree's; the "
                 "sides would not run one benchmark" % (", ".join(names), rev))
    return bench


def run_once(root, workload, seed, seconds):
    """bench/run.py's result in checkout root: metric values, attempted
    and failed counts, and the digest."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    record, result = map(json.loads, out.splitlines()[-2:])
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": record["digest"]}


def quartiles(values):
    """[first, third] quartile, inclusive method."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent, change, better, bound):
    """One metric's entry: runs are in pair order, better is "lower" or
    "higher", and bound is the largest worsening allowed, as a fraction
    of the parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    pct = (lambda x: round(100.0 * x / pm, 2)) if pm else (lambda x: None)
    iqr_pct = pct(pq[1] - pq[0])
    return {
        "parent_runs": parent, "change_runs": change,
        "parent_median": pm, "parent_quartiles": pq,
        "change_median": cm, "change_quartiles": quartiles(change),
        "change_vs_parent_pct": pct(cm - pm),
        "change_better_pairs": sum(sign * (c - p) > 0
                                   for p, c in zip(parent, change)),
        "tied_pairs": sum(p == c for p, c in zip(parent, change)),
        "bound_pct": 100.0 * bound,
        "within_bound": sign * (cm - pm) >= -bound * abs(pm),
        "parent_iqr_pct": iqr_pct,
        "unresolved": iqr_pct is not None and iqr_pct > 100.0 * bound,
    }


def workload_block(runs, seed, end_to_end):
    """The record's entry for one workload from {side: [run, ...]}."""
    pairs = len(runs["parent"])
    block = {
        "pairs": pairs,
        "first_in_pair": [SIDES[i % 2] for i in range(pairs)],
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
        "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
        "digest_seed_%d" % seed: {
            s: sorted({r["digest"] for r in runs[s]}) for s in SIDES},
        "metrics": {},
    }
    for metric in end_to_end:
        name = metric["name"]
        values = {s: [r["metrics"].get(name) for r in runs[s]]
                  for s in SIDES}
        if None in values["parent"] + values["change"]:
            continue  # not every run reports it
        block["metrics"][name] = compare(values["parent"], values["change"],
                                         metric["better"], metric["bound"])
    return block


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", required=True, help="the parent revision")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as parent_root:
        extract(args.rev, root, parent_root)
        roots = {"parent": parent_root, "change": root}
        bench = one_benchmark(roots, args.rev)
        workloads = {}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {s: [] for s in SIDES}
            for i in range(PAIRS):
                # the parent first in odd pairs (1-based)
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(roots[side], workload,
                                               args.seed, args.seconds))
            workloads[workload] = workload_block(runs, args.seed,
                                                 bench["end_to_end"])
    sys.stdout.write(json.dumps({"workloads": workloads}, indent=1) + "\n")


if __name__ == "__main__":
    main()
