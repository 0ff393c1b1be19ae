"""Diff-scoped mutation testing: do the tests catch a small fault on the lines a change touches?

For every line of ``src/`` that differs from a base revision (``git diff
BASE -- src/``), this script makes one mutant at a time:

* a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
* an arithmetic, shift or bitwise operator swapped, in an expression or an
  augmented assignment: ``+`` and ``-``, ``*`` and ``//``, ``<<`` and
  ``>>``, ``&`` and ``|``, and so on (see ``SWAPS``);
* an integer constant moved by +1 and by -1.

Each mutant is written into a copy of the working tree in a temporary
directory, where the whole tier-1 suite runs with ``python -m pytest -x
-q``.  The unmutated suite runs there first, and its time sets each
mutant's limit: three times as long plus 30 seconds.  A mutant that runs
past the limit, for example one that makes a loop spin, counts as
killed.  A mutant the tests pass is a survivor: either the tests miss a
fault there, or the mutant computes the same thing as the original.
Survivors are printed with their line, before and after.  Exit status 0
means every mutant was killed, 1 that some survived, 2 that the
unmutated tree failed its tests.

Run from the repository root, with the standard library only:

    python tools/mutants.py               # against HEAD~1, the parent of the last commit
    python tools/mutants.py --base REV    # against any other revision

A killed mutant costs one start of the suite up to its first failure, a
hung one its limit, and a survivor a whole run.  This is not a test and
gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

# Operator token -> the token it is swapped for.
COMPARISONS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
SWAPS = {
    "+": "-",
    "-": "+",
    "*": "//",
    "//": "*",
    "/": "*",
    "%": "//",
    "**": "*",
    "<<": ">>",
    ">>": "<<",
    "&": "|",
    "|": "&",
    "^": "|",
    "@": "*",
}
_HUNK = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@", re.MULTILINE)


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: int  # 1-based
    start: int  # column offsets of the replaced text on that line
    end: int
    replacement: str
    what: str


def changed_lines(base: str, root: Path) -> dict[str, set[int]]:
    """The lines of each Python file under src/ that differ from ``base``, by path."""
    out = subprocess.run(
        ["git", "diff", "--unified=0", base, "--", "src/"], cwd=root, capture_output=True, text=True, check=True
    ).stdout
    lines: dict[str, set[int]] = {}
    for part in re.split(r"^diff --git ", out, flags=re.MULTILINE)[1:]:
        target = re.search(r"^\+\+\+ b/(.+)$", part, re.MULTILINE)
        if not target or not target[1].endswith(".py"):
            continue
        for hunk in _HUNK.finditer(part):
            first, count = int(hunk[1]), int(hunk[2] or 1)
            lines.setdefault(target[1], set()).update(range(first, first + count))
    return lines


def _op_tokens(source: str) -> list[tokenize.TokenInfo]:
    return [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.OP]


def _between(tokens, after: ast.AST, before: ast.AST, wanted) -> tokenize.TokenInfo | None:
    """The operator token in ``wanted`` between the end of ``after`` and the start of ``before``."""
    lo, hi = (after.end_lineno, after.end_col_offset), (before.lineno, before.col_offset)
    for t in tokens:
        if lo <= t.start and t.end <= hi and t.string in wanted:
            return t
    return None


def mutants_of(path: str, source: str, lines: set[int]) -> list[Mutant]:
    """Every mutant of ``source`` on ``lines``, in source order."""
    tokens = _op_tokens(source)
    found: list[Mutant] = []

    def swap(token, table, kind):
        if token is not None and token.start[0] in lines and token.start[0] == token.end[0]:
            new = table[token.string]
            found.append(Mutant(path, token.start[0], token.start[1], token.end[1], new, f"{kind} {token.string} -> {new}"))

    tree = ast.parse(source)
    # Annotations are never evaluated under ``from __future__ import annotations``.
    annotations = {
        id(inner)
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if note is not None
        for inner in ast.walk(note)
    }
    for node in ast.walk(tree):
        first, last = getattr(node, "lineno", 0), getattr(node, "end_lineno", 0)
        if id(node) in annotations or not lines.intersection(range(first, last + 1)):
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                swap(_between(tokens, left, right, COMPARISONS), COMPARISONS, "comparison")
        elif isinstance(node, ast.BinOp):
            swap(_between(tokens, node.left, node.right, SWAPS), SWAPS, "operator")
        elif isinstance(node, ast.AugAssign):
            augmented = {op + "=": new + "=" for op, new in SWAPS.items()}
            swap(_between(tokens, node.target, node.value, augmented), augmented, "assignment")
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.lineno in lines
            and node.lineno == node.end_lineno
        ):
            for step in (1, -1):
                new = str(node.value + step)
                found.append(
                    Mutant(path, node.lineno, node.col_offset, node.end_col_offset, new, f"constant {node.value} -> {new}")
                )
    return sorted(found, key=lambda m: (m.line, m.start, m.what))


def apply(source: str, mutant: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[mutant.line - 1]
    lines[mutant.line - 1] = text[: mutant.start] + mutant.replacement + text[mutant.end :]
    return "".join(lines)


def copy_tree(root: Path, into: Path) -> None:
    """Copy the working tree's tracked and untracked-but-not-ignored files."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        src = root / name
        if src.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)


def run_tests(tree: Path, timeout: float | None = None) -> str:
    """'passed', 'failed' or 'timeout' for one run of the suite in ``tree``, stopped after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision the working tree is compared with (default HEAD~1)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    mutants = [
        m
        for path, lines in sorted(changed_lines(args.base, root).items())
        for m in mutants_of(path, (root / path).read_text(), lines)
    ]
    print(f"{len(mutants)} mutants on the lines of src/ that differ from {args.base}")
    if not mutants:
        return 0

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        copy_tree(root, tree)
        start = time.perf_counter()
        if run_tests(tree) != "passed":
            print("the unmutated tree fails its tests; no mutant was run")
            return 2
        baseline = time.perf_counter() - start
        limit = 3 * baseline + 30
        print(f"the unmutated suite took {baseline:.0f} s; each mutant is stopped after {limit:.0f} s", flush=True)
        for i, m in enumerate(mutants, 1):
            target = tree / m.path
            original = target.read_text()
            mutated = apply(original, m)
            target.write_text(mutated)
            start = time.perf_counter()
            try:
                outcome = run_tests(tree, limit)
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - start
            status = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"{i:3d}/{len(mutants)} {m.path}:{m.line}: {m.what}: {status} in {seconds:.0f} s", flush=True)
            if outcome == "passed":
                survivors.append((m, original.splitlines()[m.line - 1], mutated.splitlines()[m.line - 1]))

    print(f"\n{len(mutants) - len(survivors)} of {len(mutants)} mutants killed; survivors:")
    for m, before, after in survivors:
        print(f"{m.path}:{m.line}: {m.what}\n  - {before.strip()}\n  + {after.strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
