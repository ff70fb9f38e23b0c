"""Names other code relies on must resolve.

`affsim.__all__` is the public surface, and `bench/tracing.py` patches the
functions it lists in `TRACED` by module and name. A deleted or renamed
function would otherwise only show up as a failing traced benchmark run.
"""

import ast
import importlib
import os

import pytest

import affsim

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                       "tracing.py")


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
