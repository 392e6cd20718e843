"""End-to-end benchmark of the ``scholargraph`` command line.

    python3 perfbench/run.py --workload {build,rules,analyst,all} \
        --seed N --seconds S --trace {0,1}

One benchmark process runs one command at a time (a closed loop with one
client).  Each command is its own ``python3`` process, so interpreter start
and import are paid as an operator pays them.  Inputs come from the seeded
generator in ``gen.py``; every command's output is checked against values
the generator derives from its own records, or against properties the
method must have.  The end-to-end times are scaled by a reference
computation timed around every set-up, command and probe (see REFERENCE).
See README.md for the workloads, metrics and seeds.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the session runs under ``tracer.py``
and the object holds the per-layer metrics instead, while the spans of the
run are written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from decimal import Decimal

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
UIF_SCRIPT = os.path.join(ROOT, "tests", "data", "usage_impact_factor.q")
HASH_SEED = "0"
COMMAND_LIMIT_S = 60
CLI = "import sys; from scholargraph.cli import main; sys.exit(main())"
# A fixed standard-library computation, timed in its own process at the start
# of a run and right after every set-up, round command and probe.  A shared
# host's speed can drift by tens of percent over seconds to minutes, so each
# set-up, command and probe is scaled by the mean of the two reference times
# around it: the time metrics read as times on a machine where the reference
# takes REFERENCE_S.
REFERENCE = (
    "d = {}\n"
    "for i in range(75000):\n"
    "    k = str(i * 7919 % 100003)\n"
    "    d[k] = d.get(k, 0) + len(k)\n"
    "s = sorted(d.items())\n"
)
REFERENCE_S = 0.2

# Input sizes per workload: docs, usage events, citations, journals, batches.
# 20 usage events per document is the paper's ratio (1 billion events for 50
# million articles); 4 citations per document is an assumption (README.md).
SIZES = {
    "build": dict(docs=100, events=2000, citations=400, journals=8, batches=3),
    "rules": dict(docs=150, events=3000, citations=600, journals=8, batches=1),
    "analyst": dict(docs=150, events=3000, citations=600, journals=10, batches=1),
}
PROBES_PER_CYCLE = 3
MIN_CYCLES = 2

SUBCOMMANDS = (
    "ingest-biblio", "ingest-usage", "ingest-citations", "map", "validate",
    "export", "query", "infer", "retract", "metric", "stats",
)
RULES = ("affiliation", "authored_by", "contained_in", "published_by", "used_by")


class CheckFailed(Exception):
    pass


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def sha1_of(path: str) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha1(fp.read()).hexdigest()


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def grab(pattern: str, text: str) -> int:
    found = re.search(pattern, text)
    if found is None:
        raise CheckFailed(f"output lacks {pattern!r}: {text[-300:]!r}")
    return int(found.group(1))


def tsv_rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


class Runner:
    """Runs CLI commands in one work directory and records each one."""

    def __init__(self, workdir: str, trace_dir: str | None) -> None:
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
        self.env.pop("SCHOLARGRAPH_STORE", None)
        self.env.pop("SCHOLARGRAPH_SIDECAR", None)
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.phase = "setup"
        self.round = 0
        # Stats probes run against a copy of the state a round leaves behind,
        # after the round commands whose 1-based positions are in probe_at.
        self.probe_dir: str | None = None
        self.probe_at: set[int] = set()
        self.probe_check = None
        self.position = 0
        self.last_reference = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, *args: str, check=None, fmt: str = "human", cwd: str | None = None) -> None:
        """Run ``scholargraph --store ... ARGS`` in ``cwd`` (the work
        directory by default) and record it; ``check(out, err)`` raises
        CheckFailed on a wrong result."""
        cwd = cwd or self.workdir
        argv = ["--store", "graph.store", "--sidecar", "records.sidecar", "--format", fmt, *args]
        serial = len(self.records)
        trace_file = None
        if self.trace_dir is not None:
            trace_file = os.path.join(self.trace_dir, f"cmd-{serial:05d}.json")
        out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            if trace_file is None:
                command = [sys.executable, "-c", CLI, *argv]
            else:
                tracer = os.path.join(BENCH_DIR, "tracer.py")
                command = [sys.executable, tracer, trace_file, repr(started), *argv]
            status, usage = self.wait(subprocess.Popen(command, cwd=cwd, env=self.env, stdout=out, stderr=err))
            wall = time.monotonic() - started
        returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fp:
            stdout = fp.read()
        with open(err_path, encoding="utf-8", errors="replace") as fp:
            stderr = fp.read()
        record = {
            "argv": args,
            "command": args[0],
            "phase": self.phase,
            "round": self.round,
            "wall_s": wall,
            "peak_mb": usage.ru_maxrss / 1024.0,
            "ok": True,
            "trace": trace_file,
        }
        try:
            if returncode != 0:
                raise CheckFailed(f"exit code {returncode}: {stderr[-300:]!r}")
            if check is not None:
                check(stdout, stderr)
        except (CheckFailed, ValueError, LookupError, OSError) as exc:
            record["ok"] = False
            self.failures.append(f"{self.phase} round {self.round}: {' '.join(args)}: {exc}")
        self.records.append(record)
        if self.phase != "setup":
            record["ref_s"] = self.bracket()
        if self.phase == "session":
            self.position += 1
            if self.probe_dir is not None and self.position in self.probe_at:
                self.probe()

    def reference(self) -> float:
        """Time one run of REFERENCE in its own process."""
        started = time.monotonic()
        self.wait(subprocess.Popen([sys.executable, "-c", REFERENCE], cwd=BENCH_DIR, env=self.env))
        return time.monotonic() - started

    def bracket(self) -> float:
        """Time the reference again; returns the mean of that time and the
        one before it, which bracket whatever ran in between."""
        before, self.last_reference = self.last_reference, self.reference()
        return (before + self.last_reference) / 2

    def probe(self) -> None:
        phase, self.phase = self.phase, "probe"
        self.cli("stats", fmt="tsv", check=self.probe_check, cwd=self.probe_dir)
        self.phase = phase

    @staticmethod
    def wait(proc: subprocess.Popen):
        """Reap ``proc``; returns its wait status and resource usage.  A
        command that outlives COMMAND_LIMIT_S is killed."""
        signal.alarm(COMMAND_LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CommandTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage


# -- shared command checks ------------------------------------------------------------


def check_ingest(rows: int):
    def check(out: str, err: str) -> None:
        expect("loaded", grab(r"loaded (\d+) record", out), rows)
        expect("rejected", grab(r"rejected (\d+)", out), 0)

    return check


def check_map(publishes: int, uses: int, citation: int, affiliation: int, triples: int | None = None):
    """`map` must create exactly these contexts (and reach ``triples``)."""

    def check(out: str, err: str) -> None:
        for kind, want in (("publishes", publishes), ("uses", uses), ("citation", citation), ("affiliation", affiliation)):
            expect(f"{kind} contexts", grab(rf"{kind} contexts created: (\d+)", out), want)
        if triples is not None:
            expect("store size", grab(r"store now holds (\d+) triple", out), triples)

    return check


def check_stats(triples: int):
    def check(out: str, err: str) -> None:
        values = {row[0]: row[1] for row in tsv_rows(out) if len(row) == 2}
        expect("stats triples", int(values.get("triples", -1)), triples)

    return check


def ingest_all(run: Runner, corpus: gen.Corpus, files: dict[str, list[str]], inputs: str, after_batch=None) -> None:
    """Ingest records, then each usage batch (calling ``after_batch(k,
    batch)`` after it), then citations."""
    run.cli("ingest-biblio", "--input", os.path.join(inputs, files["biblio"][0]), check=check_ingest(len(corpus.docs)))
    for k, (name, batch) in enumerate(zip(files["usage"], corpus.batches)):
        run.cli("ingest-usage", "--input", os.path.join(inputs, name), check=check_ingest(len(batch)))
        if after_batch is not None:
            after_batch(k, batch)
    run.cli(
        "ingest-citations", "--input", os.path.join(inputs, files["citations"][0]),
        check=check_ingest(len(corpus.citations)),
    )


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Set-up builds the starting state; a round is the timed sequence."""

    name = ""
    setups_per_cycle = 1

    def __init__(self, seed: int, workroot: str, trace_dir: str | None) -> None:
        self.seed = seed
        self.inputs = os.path.join(workroot, "inputs")
        self.base = os.path.join(workroot, "base")
        self.run = Runner(os.path.join(workroot, "session"), trace_dir)
        self.corpus: gen.Corpus | None = None
        self.files: dict[str, list[str]] = {}
        self.triples_after = 0

    def make_inputs(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.corpus = gen.generate(self.seed, **SIZES[self.name])
        self.files = gen.write_inputs(self.corpus, self.inputs, self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def start_round(self) -> None:
        """Put the session directory back into the set-up state."""
        shutil.rmtree(self.run.workdir, ignore_errors=True)
        shutil.copytree(self.base, self.run.workdir)

    def play(self) -> None:
        raise NotImplementedError


class Build(Workload):
    """Write path: batched usage ingest with a map after each batch, then
    citations, validate, export and a repeated map."""

    name = "build"
    # Generating the inputs takes a tenth of a second: sample it more often.
    setups_per_cycle = 5

    def setup(self) -> None:
        self.make_inputs()
        os.makedirs(self.base, exist_ok=True)
        self.triples_after = gen.triple_count(self.corpus, with_affiliations=False)

    def play(self) -> None:
        run, corpus = self.run, self.corpus

        def map_batch(k: int, batch: list[gen.Event]) -> None:
            # The first map also projects every bibliographic record.
            run.cli("map", check=check_map(0 if k else len(corpus.docs), len(batch), 0, 0))

        ingest_all(run, corpus, self.files, self.inputs, after_batch=map_batch)
        run.cli("map", check=check_map(0, 0, len(corpus.citations), 0, self.triples_after))

        def no_violations(out: str, err: str) -> None:
            expect("validate output", out.strip(), "no violations")

        run.cli("validate", check=no_violations)

        def exported(out: str, err: str) -> None:
            expect("exported count", grab(r"exported (\d+) triple", err), self.triples_after)
            with open(run.path("graph.nt"), "rb") as fp:
                expect("export lines", sum(1 for _ in fp), self.triples_after)

        run.cli("export", "--output", "graph.nt", check=exported)
        before = sha1_of(run.path("graph.store"))

        def unchanged(out: str, err: str) -> None:
            check_map(0, 0, 0, 0, self.triples_after)(out, err)
            expect("snapshot after a repeated map", sha1_of(run.path("graph.store")), before)

        run.cli("map", check=unchanged)


class Mapped(Workload):
    """Set-up ingests everything through the CLI and maps with affiliations."""

    def setup(self) -> None:
        self.make_inputs()
        setup_run = Runner(self.base, None)
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        ingest_all(setup_run, self.corpus, self.files, self.inputs)
        corpus = self.corpus
        self.base_triples = gen.triple_count(corpus)
        everything = check_map(
            len(corpus.docs), len(corpus.events), len(corpus.citations),
            sum(1 for e in corpus.events if e.affiliation), self.base_triples,
        )
        setup_run.cli("map", "--affiliations", check=everything)
        for name in (".stdout", ".stderr"):
            os.remove(setup_run.path(name))
        if setup_run.failures:
            raise CheckFailed("; ".join(setup_run.failures))


class Rules(Mapped):
    """infer --all, retract --all, infer --all on a mapped store."""

    name = "rules"

    def setup(self) -> None:
        super().setup()
        self.counts = gen.rule_counts(self.corpus)
        self.triples_after = self.base_triples + sum(self.counts.values())
        self.base_hash = sha1_of(os.path.join(self.base, "graph.store"))

    def play(self) -> None:
        run = self.run
        inferred: list[str] = []

        def check_infer(out: str, err: str) -> None:
            got = {row[0]: int(row[1]) for row in tsv_rows(out)}
            expect("rule counts", got, self.counts)
            inferred.append(sha1_of(run.path("graph.store")))
            expect("snapshot after infer", inferred[0], inferred[-1])

        def check_retract(out: str, err: str) -> None:
            expect("retracted", tsv_rows(out), [["all rules", str(sum(self.counts.values()))]])
            expect("snapshot after retract", sha1_of(run.path("graph.store")), self.base_hash)

        run.cli("infer", "--all", fmt="tsv", check=check_infer)
        run.cli("retract", "--all", fmt="tsv", check=check_retract)
        run.cli("infer", "--all", fmt="tsv", check=check_infer)


class Analyst(Mapped):
    """Many short reads over a larger mapped store: metric if / uif for
    several journals and years, the paper's UIF script retargeted, and
    time-filtered selections."""

    name = "analyst"
    # (journal by size rank, target year); the generator's journal 0 is the largest.
    TARGETS = ((0, 2007), (1, 2006), (2, 2007))

    def setup(self) -> None:
        super().setup()
        corpus = self.corpus
        self.targets = [(corpus.journals[j], year) for j, year in self.TARGETS]
        with open(UIF_SCRIPT, encoding="utf-8") as fp:
            template = fp.read()
        self.scripts = []  # (file name, rows per block, UIF journal, UIF year)
        for k, (journal, year) in enumerate(self.targets[:2]):
            name = f"uif-{k}.q"
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fp:
                fp.write(gen.uif_script(template, journal, year))
            self.scripts.append((name, list(gen.uif_script_rows(corpus, journal, year)), journal, year))
        selections = (
            ("published-2006.q", gen.published_in_year_script(2006), gen.published_in_year_rows(corpus, 2006)),
            ("used-2005-2006.q", gen.used_between_script(2005, 2006), gen.used_between_rows(corpus, 2005, 2006)),
        )
        for name, text, rows in selections:
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fp:
                fp.write(text)
            self.scripts.append((name, [rows], None, None))
        # Each metric writes a 5-triple node; each UIF script run inserts 3.
        self.triples_after = self.base_triples + 5 * 2 * len(self.targets) + 3 * 2

    def play(self) -> None:
        run, corpus = self.run, self.corpus
        numerators: dict[tuple[str, int], int] = {}
        for journal, year in self.targets:
            for kind, derive in (("if", gen.impact_factor), ("uif", gen.usage_impact_factor)):
                numerator, denominator = derive(corpus, journal, year)

                def check(out: str, err: str, kind=kind, key=(journal, year), want=(numerator, denominator)) -> None:
                    [row] = tsv_rows(out)
                    got = (int(row[3]), int(row[4]))
                    if kind == "uif":
                        numerators[key] = got[0]
                    expect(f"{kind} numerator/denominator", got, want)
                    expect(f"{kind} value", row[5], str((Decimal(got[0]) / got[1]).quantize(Decimal("0.000001"))))

                run.cli(
                    "metric", kind, "--object", gen.journal_iri(journal), "--year", str(year),
                    fmt="tsv", check=check,
                )
        for name, rows, journal, year in self.scripts:

            def check(out: str, err: str, rows=rows, key=(journal, year)) -> None:
                got = [int(n) for n in re.findall(r"^\((\d+) row\(s\)", out, re.M)]
                expect("block rows", got, rows)
                if key[0] is not None:
                    expect("UIF script rows vs metric uif numerator", got[0], numerators.get(key))

            run.cli("query", "--file", os.path.join(self.inputs, name), check=check)


WORKLOADS = {w.name: w for w in (Build, Rules, Analyst)}


# -- metrics --------------------------------------------------------------------------


def scaled(record: dict) -> float:
    """A command's wall time on a machine where the reference takes REFERENCE_S."""
    return record["wall_s"] / record["ref_s"] * REFERENCE_S


def session_seconds(records: list[dict], rounds: int, seconds) -> float:
    """Sum over the round's command positions of each position's median of
    ``seconds(record)``."""
    per_round = len(records) // rounds
    return sum(
        statistics.median(seconds(records[r * per_round + k]) for r in range(rounds))
        for k in range(per_round)
    )


def file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def layer_metrics(session: list[dict], probes: list[dict], rounds: int, state: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced commands: totals per round, or
    medians per call where the name says so."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    starts: list[float] = []
    for record in session + probes:
        with open(record["trace"], encoding="utf-8") as fp:
            trace = json.load(fp)
        starts.append(trace["start_ms"])
        if record["phase"] != "session":
            continue
        for name, begin, end, _parent in trace["spans"]:
            spans.setdefault(name, []).append(end - begin)
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(name: str) -> float:
        return sum(spans.get(name, ())) / rounds

    def per_round(name: str) -> float:
        return counters.get(name, 0) / rounds

    def median_ms(name: str) -> float:
        values = spans.get(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    out: dict[str, tuple[float, str]] = {"cli.start_ms": (statistics.median(starts), "ms")}
    for command in SUBCOMMANDS:
        runs = [r for r in session + probes if r["command"] == command]
        out[f"cli.{command}_ms"] = (statistics.median(r["wall_s"] for r in runs) * 1000.0 if runs else 0.0, "ms")
        out[f"cli.{command}_peak_mb"] = (max((r["peak_mb"] for r in runs), default=0.0), "MB")
    map_calls = counters.get("sidecar.map_insert_calls", 0)
    rows = counters.get("queryl.rows", 0)
    out.update(
        {
            "sidecar.ingest_s": (total("sidecar.ingest"), "s"),
            "sidecar.ingest_rows": (per_round("sidecar.ingest_rows"), "count"),
            "sidecar.map_s": (total("sidecar.map"), "s"),
            "sidecar.map_insert_calls": (per_round("sidecar.map_insert_calls"), "count"),
            "sidecar.map_new_triples": (per_round("sidecar.map_new_triples"), "count"),
            "sidecar.map_new_per_insert": (counters.get("sidecar.map_new_triples", 0) / map_calls if map_calls else 0.0, "ratio"),
            "store.load_s": (total("store.load"), "s"),
            "store.load_calls": (len(spans.get("store.load", ())) / rounds, "count"),
            "store.verify_s": (total("store.verify"), "s"),
            "store.save_s": (total("store.save"), "s"),
            "store.save_calls": (len(spans.get("store.save", ())) / rounds, "count"),
            "store.insert_calls": (per_round("store.insert_calls"), "count"),
            "store.insert_new": (per_round("store.insert_new"), "count"),
            "store.remove_calls": (per_round("store.remove_calls"), "count"),
            "store.match_ids_calls": (per_round("store.match_ids_calls"), "count"),
            "store.match_ids_rows": (per_round("store.match_ids_rows"), "count"),
            "store.snapshot_bytes": (float(state["snapshot_bytes"]), "B"),
            "ontology.validate_s": (total("ontology.validate"), "s"),
            "ontology.validate_instance_calls": (per_round("ontology.validate_instance_calls"), "count"),
            "ntriples.write_s": (total("ntriples.write"), "s"),
            "queryl.parse_ms": (total("queryl.parse") * 1000.0, "ms"),
            "queryl.execute_s": (total("queryl.execute"), "s"),
            "queryl.rows": (per_round("queryl.rows"), "count"),
            "queryl.probes_per_row": (counters.get("queryl.match_ids_calls", 0) / rows if rows else 0.0, "probes/row"),
        }
    )
    for rule in RULES:
        out[f"inference.rule_s.{rule}"] = (total(f"inference.rule.{rule}"), "s")
    out.update(
        {
            "inference.retract_s": (total("inference.retract"), "s"),
            "inference.ledger_load_s": (total("inference.ledger_load"), "s"),
            "inference.ledger_save_s": (total("inference.ledger_save"), "s"),
            "inference.ledger_bytes": (float(state["ledger_bytes"]), "B"),
            "metrics.impact_factor_ms": (median_ms("metrics.impact_factor"), "ms"),
            "metrics.usage_impact_factor_ms": (median_ms("metrics.usage_impact_factor"), "ms"),
        }
    )
    return out


# -- one run --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workroot = os.path.join(BENCH_DIR, "_work", f"{name}-{seed}-{os.getpid()}")
    trace_dir = os.path.join(workroot, "trace") if trace else None
    shutil.rmtree(workroot, ignore_errors=True)
    os.makedirs(workroot)
    if trace_dir:
        os.makedirs(trace_dir)
    workload = WORKLOADS[name](seed, workroot, trace_dir)
    run = workload.run
    try:
        # A cycle is one set-up, one timed round and a few stats probes, so
        # every metric samples the whole run, not one stretch of it.  From
        # the second cycle on, the probes are spread between the round's
        # commands, against a copy of the state the first round left behind.
        # Each set-up is scaled by the references timed just before and after it.
        setup_ratios: list[float] = []
        cycle_times: list[float] = []
        began = time.monotonic()
        run.last_reference = run.reference()
        while True:
            started = time.monotonic()
            for _ in range(workload.setups_per_cycle):
                begun = time.monotonic()
                workload.setup()
                took = time.monotonic() - begun
                setup_ratios.append(took / run.bracket())
            run.phase = "session"
            run.position = 0
            workload.start_round()
            workload.play()
            if run.probe_dir is None:
                state = {
                    "snapshot_bytes": file_size(run.path("graph.store")),
                    "ledger_bytes": file_size(run.path("graph.store.ledger")),
                }
                run.probe_check = check_stats(workload.triples_after)
                run.probe_dir = os.path.join(workroot, "probe")
                shutil.copytree(run.workdir, run.probe_dir)
                run.probe_at = {round(run.position * (k + 1) / PROBES_PER_CYCLE) for k in range(PROBES_PER_CYCLE)}
                for _ in range(PROBES_PER_CYCLE):
                    run.probe()
            run.round += 1
            cycle_times.append(time.monotonic() - started)
            # Stop at the cycle boundary nearest to the time limit.
            elapsed = time.monotonic() - began
            if run.round >= MIN_CYCLES and elapsed + statistics.median(cycle_times) / 2 > seconds:
                break
        session = [r for r in run.records if r["phase"] == "session"]
        probes = [r for r in run.records if r["phase"] == "probe"]

        session_s = session_seconds(session, run.round, lambda r: r["wall_s"])
        reference_s = statistics.median(r["ref_s"] for r in session + probes)
        if trace:
            metrics = layer_metrics(session, probes, run.round, state)
            write_trace(name, seed, session_s, run.records)
        else:
            metrics = {
                "setup_s": (statistics.median(setup_ratios) * REFERENCE_S, "s"),
                "session_s": (session_seconds(session, run.round, scaled), "s"),
                "stats_p50_ms": (statistics.median(scaled(r) for r in probes) * 1000.0, "ms"),
                "peak_rss_mb": (max(r["peak_mb"] for r in session), "MB"),
                "state_bytes_per_triple": (
                    (state["snapshot_bytes"] + state["ledger_bytes"]) / workload.triples_after,
                    "B/triple",
                ),
            }
        for failure in run.failures:
            sys.stderr.write(f"FAILED {name}: {failure}\n")
        attempted = len(session) + len(probes)
        failed = sum(1 for r in session + probes if not r["ok"])
        return {
            "correct": not run.failures,
            "attempted": attempted,
            "failed": failed,
            "rounds": run.round,
            "session_s": session_s,
            "reference_s": reference_s,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def write_trace(name: str, seed: int, session_s: float, records: list[dict]) -> None:
    """Gather every traced command's spans into one file for the run."""
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    commands = []
    for record in records:
        if record["trace"] is None:
            continue
        with open(record["trace"], encoding="utf-8") as fp:
            traced = json.load(fp)
        traced.update({k: record[k] for k in ("phase", "round", "wall_s", "peak_mb", "ok")})
        commands.append(traced)
    with open(os.path.join(out_dir, f"trace-{name}-{seed}.json"), "w", encoding="utf-8") as fp:
        json.dump({"workload": name, "seed": seed, "session_s": session_s, "commands": commands}, fp)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join(SRC, "scholargraph", "cli.py"), UIF_SCRIPT):
        if not os.path.exists(needed):
            sys.stderr.write(f"perfbench: {needed} is missing; run from a full checkout\n")
            return 1
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except CheckFailed as exc:
            sys.stderr.write(f"perfbench: {name} set-up failed: {exc}\n")
            return 1
        print(f"{name}: {result['attempted']} command(s) attempted, {result['failed']} failed, "
              f"{result.pop('rounds')} round(s), correct={result['correct']}; measured session "
              f"{result.pop('session_s'):.3f} s{' traced' if args.trace else ''}, "
              f"reference {result.pop('reference_s'):.3f} s")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
