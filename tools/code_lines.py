"""Print the code lines of each module under a source tree, and their total.

Usage: python3 tools/code_lines.py [SOURCE_DIR]
       python3 tools/code_lines.py [SOURCE_DIR] --command -- CLI_ARG...

SOURCE_DIR defaults to the ``src`` directory beside this script's parent.
A code line is a line that holds at least one token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) are left out, so the count moves only when code
does.  Modules are listed by path, relative to SOURCE_DIR.

With ``--command``, it runs ``scholargraph CLI_ARG...`` once, with
SOURCE_DIR on the path, in the current directory, and counts only the
``scholargraph`` modules that the command imported: what a command
compiles when no bytecode is cached.  The store and the sidecar the
arguments name are copied before the run and put back after it, as
``tools/peak_rss.py`` does, so the files are left as they were found.
"""

from __future__ import annotations

import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize

from peak_rss import FILES, named_file

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
USAGE = "usage: python3 tools/code_lines.py [SOURCE_DIR] [--command -- CLI_ARG...]"
# runs the command, then writes the file of each scholargraph module it
# imported to the path in argv[1]
COMMAND = """
import json, sys
from scholargraph.cli import main
code = main(sys.argv[2:])
files = [m.__file__ for name, m in list(sys.modules.items()) if name.split(".")[0] == "scholargraph"]
with open(sys.argv[1], "w", encoding="utf-8") as fp:
    json.dump(files, fp)
sys.exit(code)
"""


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


def tree_modules(root: str) -> list[str]:
    """Every module under ``root``, in walk order."""
    paths = []
    for directory, subdirectories, files in os.walk(root):
        subdirectories.sort()
        paths += [os.path.join(directory, name) for name in sorted(files) if name.endswith(".py")]
    return paths


def command_modules(root: str, args: list[str]) -> list[str]:
    """The modules that ``scholargraph ARGS`` imports with ``root`` on the
    path, sorted; the files the arguments name are restored after the run."""
    paths = [path for path in (named_file(args, *named) for named in FILES) if os.path.exists(path)]
    env = dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as saved:
        copies = [os.path.join(saved, str(k)) for k in range(len(paths))]
        for path, copy in zip(paths, copies):
            shutil.copyfile(path, copy)
        listing = os.path.join(saved, "modules.json")
        try:
            done = subprocess.run(
                [sys.executable, "-c", COMMAND, listing, *args],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
        finally:
            for path, copy in zip(paths, copies):
                shutil.copyfile(copy, path)
        if done.returncode != 0:
            sys.exit(f"scholargraph {' '.join(args)} failed:\n{done.stderr.decode('utf-8', 'replace')}")
        with open(listing, encoding="utf-8") as fp:
            return sorted(json.load(fp))


def main(argv: list[str]) -> int:
    args = None
    if "--command" in argv:
        if "--" not in argv or argv.index("--command") > argv.index("--"):
            sys.exit(USAGE)
        own, args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
        own.remove("--command")
        argv = own
        if not args:
            sys.exit(USAGE)
    if len(argv) > 1 or any(arg.startswith("-") for arg in argv):
        sys.exit(USAGE)
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    root = os.path.abspath(root)
    counts = {}
    for path in tree_modules(root) if args is None else command_modules(root, args):
        with open(path, encoding="utf-8") as fp:
            counts[os.path.relpath(path, root)] = code_lines(fp.read())
    width = max(map(len, counts), default=5)
    for path, count in counts.items():
        print(f"{path:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
