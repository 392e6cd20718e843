"""Print the code lines of each module under a source tree, and their total.

Usage: python3 tools/code_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to the ``src`` directory beside this script's parent.
A code line is a line that holds at least one token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) are left out, so the count moves only when code
does.  Modules are listed by path, relative to SOURCE_DIR.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))  # type: ignore[operator]
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    skipped = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    counts = {}
    for directory, subdirectories, files in os.walk(root):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fp:
                    counts[os.path.relpath(path, root)] = code_lines(fp.read())
    width = max(map(len, counts), default=5)
    for path, count in counts.items():
        print(f"{path:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
