"""Names and examples other code and readers rely on must work.

`affsim.__all__` is the public surface. `bench/tracing.py` patches the
functions it lists in `TRACED` by module and name, and the benchmark
calls the package as `api.<name>`. A deleted or renamed function would
otherwise only show up as a failing benchmark run. The README's Python
examples run as written, so they cannot go stale. A `_`-prefixed name
stays private to its module: no other affsim module imports it. Every
module, test modules too, reads each name it imports. Every public
function has a reader: affsim's own modules, the benchmark or the README.
Only the command line opens a file. The benchmark's
checks read a trace's views (stalls, startup and wall time, idle time,
buffer series), so they run here on a session and its report.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re
import sys

import pytest

import affsim
import affsim.cli
from affsim import (SimConfig, dump_profile, load_profile, run_session,
                    summarize, synthesize_profile)

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.join(ROOT, "src", "affsim")
BENCH = os.path.join(ROOT, "bench")
TRACING = os.path.join(BENCH, "tracing.py")
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


def test_engine_entry_is_public():
    assert "run_shared" in affsim.__all__
    assert affsim.run_shared is affsim.sim.run_shared


@pytest.mark.parametrize("module, name, layer", traced_names())
def test_traced_function_resolves(module, name, layer):
    assert callable(getattr(importlib.import_module(module), name))


def bench_api_chains():
    """Each dotted `api.<name>...` chain the benchmark's sources use, where
    `api` is the imported affsim package, read without running them."""
    chains = set()
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        inner = {id(n.value) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "api":
                chains.add(".".join(reversed(names)))
    return sorted(chains)


def test_bench_reads_the_api():
    assert {"cli.main", "run_session", "summarize"} <= set(bench_api_chains())


@pytest.mark.parametrize("chain", bench_api_chains())
def test_bench_api_chain_resolves(chain):
    obj = affsim
    for name in chain.split("."):
        obj = getattr(obj, name)


def test_bench_checks_read_a_session():
    # a session that stalls and waits for room, so every view is read
    spec = importlib.util.spec_from_file_location(
        "bench_checks", os.path.join(BENCH, "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    profile = synthesize_profile("test3", 15, 2000.0)
    cfg = SimConfig(max_buffer_s=11.0)
    trace = run_session(profile, cfg)
    assert trace.stalls and trace.idle_full_s > 0.0
    report = summarize(trace, cfg.ladder)
    assert checks.check_session(profile, cfg, trace, report) == []
    digest = checks.session_digest(trace)
    assert len(digest) == 64
    assert digest == checks.session_digest(run_session(profile, cfg))


def test_bench_checks_read_a_trace_csv(tmp_path, monkeypatch):
    # the benchmark's cli_sweep checks each run's --trace file by its
    # columns, so a 150-segment one, stalling and waiting for room, must
    # pass, and one with a size the link cannot carry must not
    monkeypatch.syspath_prepend(BENCH)  # workloads.py imports checks
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    link = tmp_path / "link.csv"
    link.write_text(dump_profile(synthesize_profile("test3", 15, 2000.0)))
    path = tmp_path / "trace.csv"
    assert affsim.cli.main(["run", "--profile", str(link), "--max-buffer",
                            "11", "--trace", str(path)]) == 0
    text = path.read_text()
    assert len(text.splitlines()) == 151
    check = workloads.CliSweep()._check_trace_csv
    profile = load_profile(link.read_text())  # open ended, as the CLI's
    trace = run_session(profile, SimConfig(max_buffer_s=11.0))
    assert trace.stalls and trace.idle_full_s > 0.0
    assert check(profile, text) == []
    lines = text.splitlines(keepends=True)
    row = lines[1].split(",")
    row[2] = "1e12"
    lines[1] = ",".join(row)
    assert check(profile, "".join(lines)) != []


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


def private_imports():
    """(importer, source, name) for each `_`-prefixed name that one affsim
    module imports from another, or reads off an imported affsim module,
    read without running them."""
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        importer = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        modules = {}  # local name -> affsim module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    source = ("affsim." + source).rstrip(".")
                if source.split(".")[0] != "affsim":
                    continue
                for alias in node.names:
                    if source == "affsim":  # `from . import sim`
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((importer, source[len("affsim."):],
                                   alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")):
                found.add((importer, modules[node.value.id], node.attr))
    return found


def test_private_names_stay_in_their_module():
    assert private_imports() == set()


def unread_imports():
    """(file, name) for each name that a module under src/affsim or tests/
    imports and never reads, read without running them. A name the module
    lists in `__all__` counts as read: `__init__.py` re-exports that way."""
    found = set()
    paths = glob.glob(os.path.join(SRC, "*.py")) \
        + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    for path in sorted(paths):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds a
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read.update(ast.literal_eval(node.value))
        found.update((os.path.relpath(path, ROOT), name)
                     for name in imported - read)
    return found


def test_every_imported_name_is_read():
    assert unread_imports() == set()


def loaded_names(paths):
    """Each name that the files at paths load, as a bare name or as an
    attribute, read without running them."""
    found = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
    return found


def test_every_public_function_has_a_reader():
    # a function that affsim's own modules, the benchmark and the README
    # all leave alone is surface that nothing reads; the benchmark also
    # names the functions it traces in strings
    src = [path for path in glob.glob(os.path.join(SRC, "*.py"))
           if os.path.basename(path) != "__init__.py"]
    bench = glob.glob(os.path.join(BENCH, "*.py"))
    read = loaded_names(src + bench)
    read.update(name for _, name, _ in traced_names())
    with open(README) as fh:
        read.update(re.findall(r"\w+", fh.read()))
    unread = [name for name in affsim.__all__
              if inspect.isfunction(getattr(affsim, name))
              and name not in read]
    assert unread == []


def file_openers():
    """(module, line) of each `open` call under src/affsim, read without
    running them."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found.extend(
            (os.path.basename(path), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"))
    return found


def test_only_the_cli_opens_files():
    # the library takes and returns text: load_profile reads it and export
    # renders it, and the command line does every read and write
    openers = file_openers()
    assert {module for module, _ in openers} == {"cli.py"}, openers
