"""List each `if`/`while` in src/affsim that a pytest run takes only one way.

    python3 scripts/branch_cover.py [PYTEST ARGS...]

Runs pytest in this process with a `sys.settrace` arc recorder loaded as
a plugin, then prints one line per `if` or `while` statement of
src/affsim whose test went only one way (or never ran), and a total.
With no arguments it runs the Tier-1 suite from the repository root.
Tests that run affsim in a child process are not seen, so the `__main__`
guard of `affsim.cli` shows as never true. The recorder slows the suite
about fourfold (Tier-1: 29 s to 111 s on 2 CPUs). Never a gate: it
reports, and exits with pytest's code.

How an outcome is seen: a line event that follows one of the test's own
lines in the same frame is an arc. An arc into the first statement of the
body is the true branch; an arc to any other line, or a return from the
frame, is the false one. An exception while the test runs is neither.
Stdlib only, besides pytest itself.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "affsim")


def decisions(path):
    """[(kind, test lines, body lines)] for every if/while statement."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)):
            test = range(node.lineno, node.test.end_lineno + 1)
            first = node.body[0]
            body = range(first.lineno, first.end_lineno + 1)
            out.append(("while" if isinstance(node, ast.While) else "if",
                        test, body))
    return out


class ArcRecorder:
    """A pytest plugin: records, per file of the package, the arcs that
    leave a decision's test lines, and reports the one-way decisions at
    the end of the session."""

    def __init__(self):
        self.files = {}  # path -> [(kind, test lines, body lines)]
        self.watched = {}  # path -> set of test lines
        for name in sorted(os.listdir(PACKAGE)):
            if name.endswith(".py"):
                path = os.path.join(PACKAGE, name)
                self.files[path] = decisions(path)
                self.watched[path] = {line for _, test, _ in self.files[path]
                                      for line in test}
        self.arcs = {path: set() for path in self.files}  # (from, to)

    def _trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        watched = self.watched.get(path)
        if watched is None:
            return None
        arcs = self.arcs[path]
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                if last is not None:
                    arcs.add((last, line))
                last = line if line in watched else None
            elif event == "return":
                if last is not None:
                    arcs.add((last, None))
                last = None
            elif event == "exception":
                last = None
            return local
        return local

    def pytest_sessionstart(self, session):
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)

    def one_way(self):
        """[(path, line, kind, the outcome never seen)], in file order."""
        out = []
        for path, found in self.files.items():
            arcs = self.arcs[path]
            for kind, test, body in found:
                left = [to for frm, to in arcs if frm in test and to not in
                        test]
                true = any(to is not None and to in body for to in left)
                false = any(to is None or to not in body for to in left)
                if not (true and false):
                    missing = ("both" if not (true or false) else
                               "false" if true else "true")
                    out.append((path, test.start, kind, missing))
        return sorted(out)

    def pytest_terminal_summary(self, terminalreporter):
        rows = self.one_way()
        total = sum(len(found) for found in self.files.values())
        terminalreporter.write_sep("=", "branch cover: src/affsim")
        for path, line, kind, missing in rows:
            terminalreporter.write_line("%s:%d: %s never %s" % (
                os.path.relpath(path, ROOT), line, kind,
                "ran" if missing == "both" else "went " + missing))
        terminalreporter.write_line(
            "%d of %d if/while statements went both ways"
            % (total - len(rows), total))


def main(argv):
    import pytest
    os.chdir(ROOT)
    args = argv or ["-q", "--continue-on-collection-errors",
                    "-p", "no:cacheprovider"]
    return pytest.main(args, plugins=[ArcRecorder()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
