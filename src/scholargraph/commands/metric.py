"""``metric``: compute a journal's impact factor or usage impact factor and write its node."""

from __future__ import annotations

import argparse
from typing import Optional

from ..cli import Config, _emit, _open_store, _writer_lock
from ..errors import ScholarGraphError
from ..terms import Iri


def configure(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("kind", choices=("if", "uif"), help="if = impact factor, uif = usage impact factor")
    parser.add_argument("--object", required=True, help="group IRI the metric is about")
    parser.add_argument("--year", type=int, required=True, help="target year")
    parser.add_argument("--window", help="publication window START:END (default year-2:year-1)")
    parser.add_argument("--direct-only", action="store_true", help="treat partOf as one hop instead of its closure")
    return metric


def _parse_window(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ScholarGraphError(f"--window needs START:END, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ScholarGraphError(f"--window needs integer years, got {text!r}") from None


def metric(args: argparse.Namespace, cfg: Config) -> int:
    from ..metrics import impact_factor, usage_impact_factor
    from ..ntriples import serialize_term

    window = _parse_window(args.window)
    compute = {"if": impact_factor, "uif": usage_impact_factor}[args.kind]
    with _writer_lock(cfg.store):
        store = _open_store(cfg)
        result = compute(
            store, Iri(args.object), args.year, window=window, transitive=not args.direct_only
        )
        if result.changed:
            store.save(cfg.store)
    shown = format(result.value, f".{cfg.precision}f")
    _emit(
        args,
        [
            f"{result.metric} of {serialize_term(result.object)} for {result.year} "
            f"(window {result.window[0]}..{result.window[1]}): {shown}",
            f"numerator {result.numerator}, denominator {result.denominator}",
            f"node {serialize_term(result.node)}",
        ],
        [
            [
                result.metric.replace(" ", "-"),
                result.object.value,
                str(result.year),
                str(result.numerator),
                str(result.denominator),
                shown,
            ]
        ],
    )
    return 0
