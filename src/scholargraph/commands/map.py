"""``map``: project the sidecar's records into the triple store."""

from __future__ import annotations

import argparse
import os

from ..cli import Config, _emit, _open_store, _writer_lock
from ..errors import ScholarGraphError


def configure(parser: argparse.ArgumentParser, command: str):
    parser.add_argument(
        "--affiliations",
        action="store_true",
        help="also mint Affiliation contexts from usage affiliation strings",
    )
    return map_records


def map_records(args: argparse.Namespace, cfg: Config) -> int:
    from ..sidecar import DEFAULT_PROVIDER, Sidecar

    # a mistyped path would open as a new, empty sidecar
    if not os.path.exists(cfg.sidecar):
        raise ScholarGraphError(f"{cfg.sidecar}: no such sidecar; ingest records into it first")
    with _writer_lock(cfg.store):
        store = _open_store(cfg)
        before = len(store)
        with Sidecar(cfg.sidecar) as sidecar:
            report = sidecar.map_to_graph(
                store, provider=cfg.provider or DEFAULT_PROVIDER, affiliations=args.affiliations
            )
        # map never removes a triple, so an unchanged size is an unchanged store
        if len(store) != before:
            store.save(cfg.store)
    _emit(
        args,
        [
            f"publishes contexts created: {report.publishes}",
            f"uses contexts created: {report.uses}",
            f"citation contexts created: {report.citations}",
            f"affiliation contexts created: {report.affiliations}",
            f"store now holds {len(store)} triple(s)",
        ],
        [
            ["publishes", str(report.publishes)],
            ["uses", str(report.uses)],
            ["citations", str(report.citations)],
            ["affiliations", str(report.affiliations)],
        ],
    )
    return 0
