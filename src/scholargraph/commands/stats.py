"""``stats``: the store's triple, term, class and ledger counts."""

from __future__ import annotations

import argparse
from collections import Counter

from ..cli import Config, _emit, _open_store
from ..terms import Iri, RDF_TYPE, term_sort_key


def configure(parser: argparse.ArgumentParser, command: str):
    return stats


def stats(args: argparse.Namespace, cfg: Config) -> int:
    store = _open_store(cfg)
    pairs: list[tuple[str, int]] = [
        ("triples", len(store)),
        ("terms", store.term_count()),
    ]
    rdf_type = store.lookup(RDF_TYPE)
    if rdf_type is not None:
        members = Counter(store.predicate_objects(rdf_type))
        classes = {store.decode(o): count for o, count in members.items()}
        for iri in sorted((term for term in classes if isinstance(term, Iri)), key=term_sort_key):
            pairs.append((f"class {iri.value}", classes[iri]))
    for name, count in store.ledger_counts().items():
        if count:
            pairs.append((f"ledger {name}", count))
    human = [f"{key}: {value}" for key, value in pairs]
    rows = [[key, str(value)] for key, value in pairs]
    _emit(args, human, rows)
    return 0
