import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from scholargraph.sidecar import Sidecar  # noqa: E402


@pytest.fixture(autouse=True)
def close_sidecars(monkeypatch):
    """Close each sidecar a test opens and leaves open, as the commands'
    ``with`` blocks do: from Python 3.13 on, a SQLite connection collected
    while open raises a ResourceWarning, which the strict warning filters
    of the test run turn into a failure of whichever test is running."""
    opened = []
    open_sidecar = Sidecar.__init__

    def tracked(self, *args, **kwargs):
        open_sidecar(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Sidecar, "__init__", tracked)
    yield
    for sidecar in opened:
        sidecar.close()
