"""``infer`` and ``retract``: run the materialization rules, or take back what they added."""

from __future__ import annotations

import argparse

from ..cli import Config, _emit, _open_store, _writer_lock
from ..errors import ScholarGraphError


def configure(parser: argparse.ArgumentParser, command: str):
    if command == "retract":
        parser.add_argument("--rule", help="rule name")
        parser.add_argument("--all", action="store_true", help="retract every rule")
        return retract
    from ..inference import RULE_SCRIPTS

    parser.add_argument("--rule", help=f"rule name ({', '.join(sorted(RULE_SCRIPTS))})")
    parser.add_argument("--all", action="store_true", help="run every registered rule")
    return infer


def infer(args: argparse.Namespace, cfg: Config) -> int:
    from ..inference import InferenceEngine

    with _writer_lock(cfg.store):
        engine = InferenceEngine(_open_store(cfg))
        if args.all:
            counts = engine.run_all()
        elif args.rule:
            counts = {args.rule: engine.run_rule(args.rule)}
        else:
            raise ScholarGraphError("infer needs --rule NAME or --all")
        if any(counts.values()):
            engine.store.save(cfg.store)
    human = [f"{name}: {count} new triple(s)" for name, count in counts.items()]
    human.append(f"total: {sum(counts.values())}")
    rows = [[name, str(count)] for name, count in counts.items()]
    _emit(args, human, rows)
    return 0


def retract(args: argparse.Namespace, cfg: Config) -> int:
    from ..inference import InferenceEngine

    with _writer_lock(cfg.store):
        engine = InferenceEngine(_open_store(cfg))
        if args.all:
            removed = engine.retract_all()
            label = "all rules"
        elif args.rule:
            removed = engine.retract_rule(args.rule)
            label = args.rule
        else:
            raise ScholarGraphError("retract needs --rule NAME or --all")
        # a rule's rows are the stored rows its tag marks, so removing none means it ledgered none
        if removed:
            engine.store.save(cfg.store)
    _emit(
        args,
        [f"retracted {removed} triple(s) from {label}"],
        [[label, str(removed)]],
    )
    return 0
