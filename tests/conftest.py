"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import affsim

_MEMORY_CAP = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")


@pytest.fixture
def capped_python():
    """Run Python code in a child with 1 GiB of address space and 30 s.

    For inputs that once exhausted memory or looped without end: the cap
    turns a runaway allocation into a MemoryError in the child, and the
    timeout turns a hang into a failure, so neither reaches the test run.
    Returns the finished subprocess.CompletedProcess.
    """
    src = os.path.dirname(os.path.dirname(affsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])

    def run(code, *args):
        return subprocess.run(
            [sys.executable, "-c", _MEMORY_CAP + code] + list(args),
            env=env, capture_output=True, text=True, timeout=30)
    return run
