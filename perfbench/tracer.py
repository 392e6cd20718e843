"""Launcher for one traced ``scholargraph`` command.

    python3 tracer.py OUT SPAWNED ARGS...

Imports ``scholargraph.cli``, wraps the public entry points of each layer,
runs ``scholargraph.cli.main(ARGS)`` and, when the command ends, writes its
spans (name, start, end, parent) and counters to the JSON file OUT.
SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``start_ms`` covers interpreter start plus the import.

Coarse calls (a load, a save, a rule, a script) become spans.  Calls made
thousands of times per command (``Store.insert``, ``Store.match_ids``,
``validate_instance``) only bump counters, so tracing stays affordable.
``match_ids`` calls made while a loaded snapshot is verified are counted
apart from the others.
Functions that other modules import by name are replaced in every module
that looks them up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.in_map = 0
        self.in_execute = 0
        self.in_verify = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self.stack.pop()

    def spanned(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments, ``after(result)`` may bump counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        from scholargraph import cli, inference, metrics, ntriples, ontology, queryl, sidecar, store
        from scholargraph.queryl import evaluator, parser
        import scholargraph

        modules = (scholargraph, cli, inference, metrics, ntriples, ontology, queryl, evaluator, parser, sidecar, store)
        count = self.counters

        def replace_everywhere(original, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def rows_read(report) -> None:
            count["sidecar.ingest_rows"] += report.loaded + report.rejected

        for method in ("ingest_biblio", "ingest_usage", "ingest_citations"):
            setattr(
                sidecar.Sidecar,
                method,
                self.spanned("sidecar.ingest", getattr(sidecar.Sidecar, method), rows_read),
            )

        map_to_graph = sidecar.Sidecar.map_to_graph

        def traced_map(*args, **kwargs):
            self.in_map += 1
            try:
                return map_to_graph(*args, **kwargs)
            finally:
                self.in_map -= 1

        sidecar.Sidecar.map_to_graph = self.spanned("sidecar.map", traced_map)

        Store = store.Store
        load = Store.__dict__["load"].__func__
        Store.load = classmethod(self.spanned("store.load", load))
        verify_indexes = Store.verify_indexes

        def traced_verify(*args, **kwargs):
            self.in_verify += 1
            try:
                return verify_indexes(*args, **kwargs)
            finally:
                self.in_verify -= 1

        Store.verify_indexes = self.spanned("store.verify", traced_verify)
        Store.save = self.spanned("store.save", Store.save)

        insert = Store.insert

        def counted_insert(self_, triple):
            new = insert(self_, triple)
            count["store.insert_calls"] += 1
            count["store.insert_new"] += new
            if self.in_map:
                count["sidecar.map_insert_calls"] += 1
                count["sidecar.map_new_triples"] += new
            return new

        Store.insert = counted_insert

        remove = Store.remove

        def counted_remove(self_, triple):
            count["store.remove_calls"] += 1
            return remove(self_, triple)

        Store.remove = counted_remove

        match_ids = Store.match_ids

        def counted_match_ids(self_, s, p, o):
            # The full scan that verifies every loaded snapshot is load work,
            # timed as store.verify_s; it is left out of these counters.
            prefix = "store.verify_match_ids" if self.in_verify else "store.match_ids"
            count[prefix + "_calls"] += 1
            if self.in_execute:
                count["queryl.match_ids_calls"] += 1
            rows = 0
            try:
                for hit in match_ids(self_, s, p, o):
                    rows += 1
                    yield hit
            finally:
                count[prefix + "_rows"] += rows

        Store.match_ids = counted_match_ids

        validate_instance = ontology.validate_instance

        def counted_validate_instance(*args, **kwargs):
            count["ontology.validate_instance_calls"] += 1
            return validate_instance(*args, **kwargs)

        replace_everywhere(validate_instance, counted_validate_instance)
        replace_everywhere(ontology.validate_all, self.spanned("ontology.validate", ontology.validate_all))
        replace_everywhere(ntriples.write_ntriples, self.spanned("ntriples.write", ntriples.write_ntriples))
        replace_everywhere(parser.parse_script, self.spanned("queryl.parse", parser.parse_script))

        execute_script = evaluator.execute_script

        def traced_execute(*args, **kwargs):
            self.in_execute += 1
            try:
                report = execute_script(*args, **kwargs)
            finally:
                self.in_execute -= 1
            count["queryl.rows"] += sum(report.block_rows)
            return report

        replace_everywhere(execute_script, self.spanned("queryl.execute", traced_execute))

        Engine = inference.InferenceEngine
        Engine.run_rule = self.spanned(lambda engine, name: f"inference.rule.{name}", Engine.run_rule)
        Engine.retract_all = self.spanned("inference.retract", Engine.retract_all)
        Engine.retract_rule = self.spanned("inference.retract", Engine.retract_rule)
        Engine.load_ledger = self.spanned("inference.ledger_load", Engine.load_ledger)
        Engine.save_ledger = self.spanned("inference.ledger_save", Engine.save_ledger)

        for name in ("impact_factor", "usage_impact_factor"):
            original = getattr(metrics, name)
            replace_everywhere(original, self.spanned(f"metrics.{name}", original))

        replace_everywhere(cli.main, self.spanned("cli.main", cli.main))

    def dump(self, path: str, argv: list[str], start_ms: float) -> None:
        record = {"argv": argv, "start_ms": start_ms, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(record, fp)


def main() -> int:
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import scholargraph.cli

    start_ms = (time.monotonic() - spawned) * 1000.0
    tracer = Tracer()
    tracer.install()
    try:
        return scholargraph.cli.main(argv)
    finally:
        tracer.dump(out, argv, start_ms)


if __name__ == "__main__":
    sys.exit(main())
