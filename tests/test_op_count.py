"""The counter of scripts/op_count.py, on small fixed functions.

No workload runs here: the script's shapes run in child processes, per
side, and are a tool for records.
"""

import importlib.util
import os
import sys
import textwrap

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)  # op_count imports bench_pairs from there
try:
    import op_count
finally:
    sys.path.remove(SCRIPTS)

SMALL = '''
import textwrap


def loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def twice():
    return leaf() + leaf()


def leaf():
    return 1


def gen(n):
    for i in range(n):
        yield i


def dedent():
    return textwrap.dedent("  a\\n  b\\n")
'''


@pytest.fixture
def small(tmp_path):
    """The module above, loaded from a package directory of its own."""
    (tmp_path / "small.py").write_text(SMALL)
    spec = importlib.util.spec_from_file_location(
        "small", str(tmp_path / "small.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, str(tmp_path)


def counted(package, fn, *args):
    counter = op_count.OpCounter(package)
    counter.run(fn, *args)
    return {key: list(row) for key, row in counter.rows.items()}


def test_opcodes_grow_by_one_loop_body_per_pass(small):
    module, package = small
    ops = [counted(package, module.loop, n)["small.loop"] for n in
           (10, 20, 30)]
    assert [row[1] for row in ops] == [1, 1, 1]  # one call each
    step = ops[1][0] - ops[0][0]
    assert step > 0 and step % 10 == 0
    assert ops[2][0] - ops[1][0] == step


def test_calls_and_generator_resumes(small):
    module, package = small
    rows = counted(package, module.twice)
    assert rows["small.twice"][1] == 1 and rows["small.leaf"][1] == 2
    # an entry and three resumes; the fourth ends the generator
    assert counted(package, lambda: list(module.gen(3)))["small.gen"][1] == 4


def test_stdlib_counts_under_its_caller(small):
    module, package = small
    opcodes, calls, stdlib_opcodes, stdlib_calls = counted(
        package, module.dedent)["small.dedent"]
    assert calls == 1 and stdlib_calls >= 1 and stdlib_opcodes > opcodes
    assert counted(package, module.leaf)["small.leaf"][2:] == [0, 0]


def test_other_frames_count_nowhere(small):
    module, package = small
    # this test's frames and the stdlib called from them are outside
    rows = counted(package, lambda: (textwrap.dedent(" x"), module.leaf()))
    assert list(rows) == ["small.leaf"]


def test_two_counts_agree(small):
    module, package = small
    assert counted(package, module.dedent) == counted(package, module.dedent)


def test_per_segment_tables():
    rows = {"a.f": [10, 2, 4, 0], "a.g": [6, 2, 0, 0], "b.h": [4, 0, 0, 2]}
    tables = op_count.per_segment(rows, 2)
    assert tables["total"] == {"opcodes": 10.0, "calls": 2.0,
                               "stdlib_opcodes": 2.0, "stdlib_calls": 1.0}
    assert tables["modules"]["a"] == {"opcodes": 8.0, "calls": 2.0,
                                      "stdlib_opcodes": 2.0,
                                      "stdlib_calls": 0.0}
    assert tables["functions"]["b.h"]["stdlib_calls"] == 1.0
    assert op_count.per_segment({}, 5)["total"] == dict.fromkeys(
        op_count.COLUMNS, 0.0)


def test_higher_names_what_rose():
    def side(**functions):
        return {"functions": {name: dict(zip(op_count.COLUMNS, row))
                              for name, row in functions.items()}}
    parent = side(f=[10, 1, 0, 0], g=[5, 1, 2, 0])
    change = side(f=[9, 1, 0, 0], g=[5, 1, 3, 0], h=[1, 0, 0, 0])
    assert op_count.higher(parent, change) == ["g", "h"]
