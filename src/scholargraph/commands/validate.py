"""``validate``: check the store's instances against the vocabulary."""

from __future__ import annotations

import argparse

from ..cli import Config, _emit, _open_store


def configure(parser: argparse.ArgumentParser, command: str):
    return validate


def validate(args: argparse.Namespace, cfg: Config) -> int:
    from ..ntriples import serialize_term, serialize_triple
    from ..ontology import literal_audit, validate_all

    store = _open_store(cfg)
    violations = validate_all(store)
    audit = literal_audit(store)
    human = []
    rows = []
    for v in violations:
        human.append(f"{v.severity}: {serialize_term(v.node)}: {v.kind}: {v.message}")
        rows.append([v.severity, serialize_term(v.node), v.kind, v.message])
    for triple in audit:
        message = f"literal not licensed by the vocabulary: {serialize_triple(triple)}"
        human.append(f"error: {serialize_term(triple.subject)}: stray-literal: {message}")
        rows.append(["error", serialize_term(triple.subject), "stray-literal", message])
    if not human:
        human = ["no violations"]
    _emit(args, human, rows)
    errors = sum(1 for v in violations if v.severity == "error") + len(audit)
    return 1 if errors else 0
