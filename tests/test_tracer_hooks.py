"""The benchmark's tracer wraps entry points of every layer by name; a
renamed or deleted one must fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_every_hook():
    path = os.pathsep.join(os.path.join(ROOT, part) for part in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
