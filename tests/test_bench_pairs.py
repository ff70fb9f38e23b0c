"""The statistics of scripts/bench_pairs.py, on fixed numbers, and its
rule that both sides run one benchmark, on temporary trees.

No benchmark runs here: the script's own runs are minutes long.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_lower_is_better():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    change = [9.0, 11.0, 13.0, 12.0, 14.5, 15.0, 15.0, 18.0, 17.0, 30.0]
    entry = bench_pairs.compare(parent, change, "lower", 0.25)
    assert entry["parent_median"] == 14.5
    assert entry["parent_quartiles"] == [12.25, 16.75]
    assert entry["change_median"] == 14.75
    assert entry["change_vs_parent_pct"] == 1.72
    # pairs 1, 4, 7 and 9 are lower; pairs 2 and 6 tie
    assert (entry["change_better_pairs"], entry["tied_pairs"]) == (4, 2)
    assert entry["bound_pct"] == 25.0
    assert entry["within_bound"]
    # the parent's spread, 4.5 over 14.5, is wider than the bound
    assert entry["parent_iqr_pct"] == 31.03
    assert entry["unresolved"]
    assert entry["parent_runs"] == parent and entry["change_runs"] == change


@pytest.mark.parametrize("change, within", [
    ([90.0] * 4, True), ([89.0] * 4, False), ([200.0] * 4, True)])
def test_higher_is_better_bound(change, within):
    entry = bench_pairs.compare([100.0] * 4, change, "higher", 0.1)
    assert entry["within_bound"] is within
    assert entry["parent_iqr_pct"] == 0.0 and not entry["unresolved"]


def test_a_zero_median_gives_no_percent():
    entry = bench_pairs.compare([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], "lower",
                                0.05)
    assert entry["change_vs_parent_pct"] is None
    assert entry["within_bound"] and not entry["unresolved"]
    assert entry["tied_pairs"] == 2


def test_workload_block():
    def run(value, digest, failed=0):
        return {"metrics": {"setup_s": value}, "attempted": 9,
                "failed": failed, "digest": digest}
    runs = {"parent": [run(1.0, "a"), run(2.0, "a"), run(3.0, "a")],
            "change": [run(1.5, "a"), run(1.0, "b", 1), run(3.0, "a")]}
    end_to_end = [{"name": "setup_s", "better": "lower", "bound": 0.25},
                  {"name": "segments_per_s", "better": "higher",
                   "bound": 0.25}]
    block = bench_pairs.workload_block(runs, 7, end_to_end)
    assert block["pairs"] == 3
    assert block["first_in_pair"] == ["parent", "change", "parent"]
    assert block["failed"] == {"parent": [0, 0, 0], "change": [0, 1, 0]}
    assert block["digest_seed_7"] == {"parent": ["a"], "change": ["a", "b"]}
    # a metric that no run reports has no entry
    assert list(block["metrics"]) == ["setup_s"]
    assert block["metrics"]["setup_s"]["change_better_pairs"] == 1


def test_reproduces_a_committed_record():
    # every metric entry of BENCH_33.json, from its own runs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    with open(os.path.join(ROOT, "BENCH_33.json")) as fh:
        record = json.load(fh)
    for block in record["workloads"].values():
        for name, entry in block["metrics"].items():
            assert bench_pairs.compare(
                entry["parent_runs"], entry["change_runs"],
                metrics[name]["better"], metrics[name]["bound"]) == entry


def test_sides_must_share_one_benchmark(tmp_path):
    # scripts/op_count.py refuses through the same function
    roots = {}
    for side in bench_pairs.SIDES:
        root = tmp_path / side
        (root / "bench" / "sub").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(
            json.dumps({"paths": ["bench"], "workloads": []}))
        (root / "bench" / "run.py").write_text("pass\n")
        (root / "bench" / "sub" / "checks.py").write_text("pass\n")
        (root / "src.py").write_text(side)  # outside bench/: not compared
        roots[side] = str(root)
    assert bench_pairs.one_benchmark(roots, "REV")["paths"] == ["bench"]
    (tmp_path / "change" / "bench" / "sub" / "checks.py").write_text("x\n")
    with pytest.raises(SystemExit) as err:
        bench_pairs.one_benchmark(roots, "REV")
    assert err.value.code == (
        "error: bench, BENCHMARK.json at REV differ from the work tree's; "
        "the sides would not run one benchmark")
