"""``export``: write the store as N-Triples in canonical order."""

from __future__ import annotations

import argparse
import sys

from ..cli import Config, _open_store


def configure(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("--output", default="-", help="output file ('-' for stdout)")
    return export


def export(args: argparse.Namespace, cfg: Config) -> int:
    from ..ntriples import write_ntriples

    terms, run = _open_store(cfg).canonical_run()
    if args.output == "-":
        count = write_ntriples(terms, run, sys.stdout.buffer)
    else:
        with open(args.output, "wb") as fp:
            count = write_ntriples(terms, run, fp)
    sys.stderr.write(f"exported {count} triple(s)\n")
    return 0
