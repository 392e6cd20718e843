"""``ingest-biblio``, ``ingest-usage``, ``ingest-citations``: load TSV rows into the sidecar."""

from __future__ import annotations

import argparse
import sys

from ..cli import Config, _emit, _read_lines


def configure(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("--input", default="-", help="TSV file ('-' for stdin)")
    parser.set_defaults(table=command.partition("-")[2])
    return ingest


def ingest(args: argparse.Namespace, cfg: Config) -> int:
    from ..sidecar import Sidecar

    # the input opens first, so a missing one leaves no new sidecar behind
    with _read_lines(args.input) as lines, Sidecar(cfg.sidecar) as sidecar:
        report = getattr(sidecar, f"ingest_{args.table}")(lines)
    for line, reason in report.problems:
        sys.stderr.write(f"line {line}: rejected: {reason}\n")
    _emit(
        args,
        [f"loaded {report.loaded} record(s), rejected {report.rejected}"],
        [[str(report.loaded), str(report.rejected)]],
    )
    return 0
