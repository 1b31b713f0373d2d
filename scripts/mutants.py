#!/usr/bin/env python3
"""Mutation sample: does the test suite notice a small fault in a function?

Each function named on the command line (``name`` or ``Class.method``, looked
up in ``src/spectacle/*.py``) is searched, in source order, for three kinds of
site:

* an int constant, which becomes the constant + 1;
* a unary minus, which is dropped;
* a binary or augmented + or -, which becomes the other.

Expressions inside f-strings are skipped.  Of each function's sites it takes
``SITES_PER_FUNCTION`` evenly spaced ones (the first and the last among them).
Each mutant is written into one temporary copy of the tree, never into the
checkout, and the test suite runs there (``pytest -x -q``, no bytecode
written, so no stale cache outlives a mutant).  A mutant is killed when the
suite fails or runs past ``TIMEOUT_S``, and survived when it passes.  One line
is printed per mutant; the exit status is 1 when any mutant survived.  A
survivor is either equivalent (no input tells it apart) or a missing test.

    python3 scripts/mutants.py spectacle_assemble LiftReport.to_json_dict bernoulli_number

Standard library only.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "spectacle"
TIMEOUT_S = 600  # the whole suite takes well under a minute; a looping mutant does not end
SITES_PER_FUNCTION = 4


class Mutant(NamedTuple):
    path: Path  # relative to the tree's root
    line: int
    kind: str
    source: bytes  # the whole mutated file


def _find(tree: ast.Module, qualname: str) -> Optional[ast.AST]:
    def walk(body: List[ast.stmt], prefix: str) -> Optional[ast.AST]:
        for node in body:
            if isinstance(node, ast.FunctionDef) and prefix + node.name == qualname:
                return node
            if isinstance(node, ast.ClassDef):
                found = walk(node.body, prefix + node.name + ".")
                if found:
                    return found
        return None

    return walk(tree.body, "")


def _is_site(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub)
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub))


def _sites(func: ast.FunctionDef) -> List[ast.AST]:
    """The function body's sites in source order, outside f-strings."""
    in_fstring = {
        id(inner) for node in ast.walk(func) if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    nodes = [
        node for stmt in func.body for node in ast.walk(stmt)
        if id(node) not in in_fstring and _is_site(node)
    ]
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def _mutate(src: bytes, node: ast.AST) -> Optional[Tuple[str, bytes]]:
    """(description, mutated source) for one site, or None when the site's
    text is not the plain token it should be."""
    starts = [0]
    for line in src.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno: int, col: int) -> int:  # ast columns are UTF-8 byte offsets
        return starts[lineno - 1] + col

    start, end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
    if isinstance(node, ast.Constant):
        bumped = str(node.value + 1).encode()
        return f"int {node.value} -> {node.value + 1}", src[:start] + bumped + src[end:]
    if isinstance(node, ast.UnaryOp):
        if src[start:start + 1] != b"-":
            return None
        text = src[start:end].decode()
        return f"unary minus dropped: {text}", src[:start] + b" " + src[start + 1:]
    if isinstance(node, ast.AugAssign):
        left, right = node.target, node.value
    else:
        left, right = node.left, node.right
    # the text between the operands holds the operator, perhaps with brackets
    lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
    old, new = (b"+", b"-") if isinstance(node.op, ast.Add) else (b"-", b"+")
    gap = src[lo:hi]
    if gap.count(old) != 1 or gap.count(new) or b"#" in gap:
        return None
    text = " ".join(src[start:end].decode().split())
    return f"{old.decode()} -> {new.decode()}: {text}", src[:lo] + gap.replace(old, new) + src[hi:]


def _spaced(items: list, n: int) -> list:
    if len(items) <= n:
        return items
    return [items[round(i * (len(items) - 1) / (n - 1))] for i in range(n)]


def mutants(qualname: str) -> List[Mutant]:
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        src = path.read_bytes()
        func = _find(ast.parse(src), qualname)
        if func is None:
            continue
        found = []
        for node in _sites(func):
            made = _mutate(src, node)
            if made is None:
                continue
            kind, mutated = made
            try:
                ast.parse(mutated)
            except SyntaxError:
                continue
            found.append(Mutant(PACKAGE / path.name, node.lineno, kind, mutated))
        return _spaced(found, SITES_PER_FUNCTION)
    raise SystemExit(f"mutants: no function {qualname!r} in {PACKAGE}")


def _suite_passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,  # so a timeout also ends the interpreters the tests start
    )
    try:
        return proc.wait(timeout=TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", metavar="FUNCTION", help="name or Class.method")
    args = parser.parse_args(argv)
    plan = [(name, m) for name in args.functions for m in mutants(name)]
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_run", "*.egg-info"))
        if not _suite_passes(tree):
            print("mutants: the suite fails on the unmutated tree", file=sys.stderr)
            return 2
        for name, m in plan:
            target = tree / m.path
            original = target.read_bytes()
            target.write_bytes(m.source)
            try:
                killed = not _suite_passes(tree)
            finally:
                target.write_bytes(original)
            survived += not killed
            status = "killed  " if killed else "SURVIVED"
            print(f"{status} {m.path.name}:{m.line} {name}: {m.kind}", flush=True)
    print(f"{len(plan) - survived} killed, {survived} survived of {len(plan)} mutants")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
