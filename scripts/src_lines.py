"""Line counts of src/affsim, per module, for the work tree and a git revision.

    python3 scripts/src_lines.py [--rev REV]

Each module's lines are split four ways: code, doc (docstring and comment
lines: a string statement's lines, or a line that holds only a comment),
blank, and their total. The revision's files are read with
`git show REV:path`, so the work tree is not touched; a module that exists
on one side only counts 0 on the other. Prints a table with the net change (work tree minus revision) per module
and in total. Stdlib only; run it from anywhere inside the repository.
"""

import argparse
import ast
import io
import os
import subprocess
import tokenize

PACKAGE = "src/affsim"
KINDS = ("total", "code", "doc", "blank")


def classify(text):
    """{kind: line count} for one module's source text."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in doc:
            kind = "doc"
        elif not line.strip():
            kind = "blank"
        elif number in code:
            kind = "code"
        else:  # a comment alone on its line
            kind = "doc"
        counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout


def count_tree(root):
    folder = os.path.join(root, PACKAGE)
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                out[name] = classify(fh.read())
    return out


def count_rev(root, rev):
    out = {}
    for path in git(root, "ls-tree", "-r", "--name-only", rev,
                    PACKAGE + "/").split():
        if path.endswith(".py"):
            out[os.path.basename(path)] = classify(
                git(root, "show", "%s:%s" % (rev, path)))
    return out


def compare(rev_counts, tree_counts):
    """{module: {"rev": counts, "tree": counts, "net": counts}}, with a
    "TOTAL" row."""
    empty = dict.fromkeys(KINDS, 0)
    rows = {}
    for name in sorted(set(rev_counts) | set(tree_counts)):
        old = rev_counts.get(name, empty)
        new = tree_counts.get(name, empty)
        rows[name] = {"rev": old, "tree": new,
                      "net": {k: new[k] - old[k] for k in KINDS}}
    rows["TOTAL"] = {side: {k: sum(r[side][k] for r in rows.values())
                            for k in KINDS}
                     for side in ("rev", "tree", "net")}
    return rows


def table(rev, rows):
    head = ["module"] + ["%s %s" % (side, k) for side in (rev, "tree", "net")
                         for k in KINDS]
    body = [[name] + ["%+d" % r[side][k] if side == "net" else
                      str(r[side][k])
                      for side in ("rev", "tree", "net") for k in KINDS]
            for name, r in rows.items()]
    widths = [max(len(row[i]) for row in [head] + body)
              for i in range(len(head))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                     for row in [head] + body)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", default="HEAD",
                    help="git revision to compare against (default HEAD)")
    args = ap.parse_args()
    root = git(os.path.dirname(os.path.abspath(__file__)),
               "rev-parse", "--show-toplevel").strip()
    rows = compare(count_rev(root, args.rev), count_tree(root))
    print(table(args.rev, rows))


if __name__ == "__main__":
    main()
