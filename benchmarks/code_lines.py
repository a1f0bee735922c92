#!/usr/bin/env python3
"""Count code lines: the lines of Python source that are neither comments, docstrings
nor blank.

Run:  python benchmarks/code_lines.py [PATH ...]

Each PATH is a Python file or a directory searched recursively for ``*.py`` files
(default: ``src``).  Prints one ``lines  path`` row per file, in path order, and then the
total.  A line counts when it holds a token of code, so every line of a statement spread
over several lines counts, and a comment after code does not stop its line from counting.
A docstring, the string literal that opens a module, class or function body, counts none
of its lines; any other string literal counts all of its lines.
"""

import argparse
import ast
import io
import os
import tokenize
from typing import Iterable, List, Optional, Set

#: Token types that are not code: comments, line breaks and indentation.
_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
})
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def python_files(paths: Iterable[str]) -> List[str]:
    """Every ``*.py`` file named by ``paths`` or found under them, sorted."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                found.extend(os.path.join(root, n) for n in names if n.endswith(".py"))
        else:
            found.append(path)
    return sorted(found)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="Python files or directories (default: src)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")
    return total


if __name__ == "__main__":
    main()
