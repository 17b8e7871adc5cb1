"""Print the code lines of each Python module under the given paths, and their total.

    python3 tools/code_lines.py src/dctool
    python3 tools/code_lines.py src/dctool/polyform.py src/dctool/wrel.py

A code line holds at least one token that is not a comment and not part of
a module, class or function docstring; blank lines, comment lines and
docstring lines do not count.  A directory counts every `*.py` file below
it, in sorted order.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token other than a comment or a docstring."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths) -> list:
    """Every `.py` file a path names: the file itself, or each file below a directory, sorted."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    total = 0
    for path in modules(parser.parse_args(argv).paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
