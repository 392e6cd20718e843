"""Measure the peak resident memory of one ``scholargraph`` command.

Usage: python3 tools/peak_rss.py --tree TREE [--repeat N] -- CLI_ARG...

Runs ``scholargraph CLI_ARG...`` with TREE's ``src`` on the path (and
``PYTHONHASHSEED=0``, as the benchmark runs it) ``N`` times (default 3) in
the current directory, and prints each run's peak RSS, the child's own
``ru_maxrss``, then the minimum and the median.  The store and the sidecar
the arguments name (``--store``/``--sidecar``, else the environment
variables, else the CLI's defaults) are copied before the first run and
put back before each later one and after the last, so every run starts
from the same files and the files are left as they were found.

A child's ``ru_maxrss`` starts from the resident size of the process that
spawned it, so this launcher imports as little as it can and prints its own
peak as well: a command's figure means something only above that floor.
The benchmark harness (``perfbench/run.py``) grows well past a small
command's peak, so its ``peak_rss_mb`` cannot show gains below its own size.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile

CLI = "import sys; from scholargraph.cli import main; sys.exit(main())"
# the files a command may write, the CLI option and variable that name each,
# and the CLI's default
FILES = (
    ("--store", "SCHOLARGRAPH_STORE", "scholargraph.store"),
    ("--sidecar", "SCHOLARGRAPH_SIDECAR", "scholargraph.sidecar"),
)
USAGE = "usage: python3 tools/peak_rss.py --tree TREE [--repeat N] -- CLI_ARG..."


def named_file(args: list[str], option: str, variable: str, default: str) -> str:
    """The path ``args`` give ``option``, else the variable's, else the default."""
    for k, arg in enumerate(args):
        if arg == option and k + 1 < len(args):
            return args[k + 1]
        if arg.startswith(option + "="):
            return arg[len(option) + 1 :]
    return os.environ.get(variable) or default


def run_once(tree: str, args: list[str]) -> float:
    """Run the CLI once and return its peak RSS in MB; exits on a failure."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryFile() as err, open(os.devnull, "wb") as out:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CLI, *args], env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            err.seek(0)
            sys.exit(f"scholargraph {' '.join(args)} failed:\n{err.read().decode('utf-8', 'replace')}")
    return usage.ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(USAGE)
    own, args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    options = dict(zip(own[::2], own[1::2]))
    if len(own) % 2 or not args or "--tree" not in options or set(options) - {"--tree", "--repeat"}:
        sys.exit(USAGE)
    tree, repeat = options["--tree"], options.get("--repeat", "3")
    if not repeat.isdigit() or int(repeat) < 1:
        sys.exit(USAGE)
    repeat = int(repeat)
    paths = [path for path in (named_file(args, *named) for named in FILES) if os.path.exists(path)]
    with tempfile.TemporaryDirectory() as saved:
        copies = [os.path.join(saved, str(k)) for k in range(len(paths))]
        for path, copy in zip(paths, copies):
            shutil.copyfile(path, copy)
        peaks = []
        try:
            for k in range(repeat):
                if k:
                    for path, copy in zip(paths, copies):
                        shutil.copyfile(copy, path)
                peaks.append(run_once(tree, args))
                print(f"run {k + 1}: {peaks[-1]:.2f} MB")
        finally:
            for path, copy in zip(paths, copies):
                shutil.copyfile(copy, path)
    ranked = sorted(peaks)
    median = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2
    print(f"min {ranked[0]:.2f} MB, median {median:.2f} MB over {len(peaks)} run(s)")
    print(f"launcher's own peak: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
