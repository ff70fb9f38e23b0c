"""Names and examples other code and readers rely on must work.

`affsim.__all__` is the public surface, and `bench/tracing.py` patches the
functions it lists in `TRACED` by module and name. A deleted or renamed
function would otherwise only show up as a failing traced benchmark run.
The README's Python examples run as written, so they cannot go stale.
"""

import ast
import importlib
import os
import re

import pytest

import affsim

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACING = os.path.join(ROOT, "bench", "tracing.py")
README = os.path.join(ROOT, "README.md")


def traced_names():
    """TRACED's (module, function, layer) rows, read without running the
    file."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read(), TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACING)


def test_every_public_name_resolves_once():
    assert len(set(affsim.__all__)) == len(affsim.__all__)
    missing = [name for name in affsim.__all__
               if not hasattr(affsim, name)]
    assert missing == []


@pytest.mark.parametrize("module, name, layer", traced_names())
def test_traced_function_resolves(module, name, layer):
    assert callable(getattr(importlib.import_module(module), name))


def readme_python_blocks():
    """(first line number, code) of each fenced python block in README."""
    with open(README) as fh:
        text = fh.read()
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```", text,
                                 re.S | re.M)]


def test_readme_python_blocks_run():
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    for line_no, code in blocks:
        # padded so a traceback names the README line
        exec(compile("\n" * (line_no - 1) + code, README, "exec"),
             {"__name__": "readme"})
