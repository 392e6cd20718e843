"""``catalog``: print the built-in vocabulary."""

from __future__ import annotations

import argparse
import sys

from ..cli import Config


def configure(parser: argparse.ArgumentParser, command: str):
    return catalog


def catalog(args: argparse.Namespace, cfg: Config) -> int:
    from ..ontology import export_catalog

    sys.stdout.write(export_catalog())
    return 0
