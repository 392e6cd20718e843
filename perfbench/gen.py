"""Seeded input generator and the values the program must produce.

The generator writes bibliographic records, usage events (split into dated
batches) and citation pairs as the TSV files ``scholargraph ingest-*``
reads.  The program sees only those files.  From the same records it
derives, with its own code, what every workload must report: ingest and
mapping counts, the store's triple count, each rule's new-triple count,
impact-factor and usage-impact-factor numerators and denominators, and the
row counts of the benchmark's query scripts.

The only knowledge shared with the program is the documented identifier
scheme for journal roots (SHA-1 of the normalized collection name and the
provider IRI, see ``scholargraph.sidecar``), which the query scripts need in
order to name a generated journal.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

PROVIDER = "urn:mesur:provider:default"
FIRST_YEAR = 2001
LAST_YEAR = 2007

_GIVEN = "Ada Ben Chen Dana Eli Fay Gus Hana Ivan Jo Kai Lena Mo Nia Omar Pia Raj Sol Tao Uma".split()
_FAMILY = "Abe Baker Cruz Diaz Evans Fox Gray Hale Ito Jung Kim Lund Moss Nagy Ortiz Park Quinn Rossi Sato Todd".split()
_FIELDS = "Physics Biology Chemistry Informatics Linguistics Economics Geology Optics Neurology Robotics".split()
_KINDS = "Letters Review Journal Transactions Annals Bulletin".split()
_WORDS = "on the of a usage network graph model study citation ontology scale method data analysis".split()
_ACCESS = ("abstract", "fulltext", "pdf", "html")


def _hash16(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _norm(name: str) -> str:
    return " ".join(name.split()).casefold()


def journal_iri(name: str) -> str:
    """IRI of a collection's root group, as the mapping mints it."""
    return "urn:mesur:group:" + _hash16(f"root|{_norm(name)}|{PROVIDER}")


@dataclass
class Doc:
    doc_id: str
    journal: str
    publisher: str
    year: int
    date: str
    authors: list[str]
    doi: str


@dataclass
class Event:
    event_id: str
    time: str
    year: int
    agent: str
    session: str
    affiliation: str
    access: str
    doc: int  # index into Corpus.docs


@dataclass
class Corpus:
    docs: list[Doc]
    batches: list[list[Event]]
    citations: list[tuple[int, int]]  # (citing index, cited index)
    journals: list[str]

    @property
    def events(self) -> list[Event]:
        return [event for batch in self.batches for event in batch]


def generate(seed: int, docs: int, events: int, citations: int, journals: int, batches: int) -> Corpus:
    """Records with skewed journal sizes and usage.  The caller picks the
    sizes; the skews below (journal weights, usage popularity, authors per
    document, readers per event, affiliated share) are assumptions, not
    measured MESUR figures.  README.md gives the reason for each value."""
    rng = random.Random(seed)
    journal_names = []
    while len(journal_names) < journals:
        name = f"{rng.choice(_FIELDS)} {rng.choice(_KINDS)} {len(journal_names) + 1}"
        journal_names.append(name)
    publishers = [f"{rng.choice(_FAMILY)} Press {k}" for k in range(max(2, journals // 2))]
    journal_weights = [1.0 / (k + 1) ** 0.7 for k in range(journals)]
    author_pool = [
        f"{rng.choice(_GIVEN)} {rng.choice(_FAMILY)}-{k}" for k in range(max(8, docs * 2 // 3))
    ]

    # Journal sizes and each journal's spread over the years follow fixed
    # quotas, so every seed yields the same collection shape.
    total = sum(journal_weights)
    quotas = [int(docs * w / total) for w in journal_weights]
    for k in range(docs - sum(quotas)):
        quotas[k % journals] += 1
    years = LAST_YEAR - FIRST_YEAR + 1
    slots = [(j, FIRST_YEAR + n % years) for j, quota in enumerate(quotas) for n in range(quota)]
    rng.shuffle(slots)
    out_docs: list[Doc] = []
    for i, (j, year) in enumerate(slots):
        date = f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        authors = rng.sample(author_pool, rng.choice((1, 2, 2, 3, 3, 4)))
        doi = f"10.{5000 + j}/s{seed}.{i}" if rng.random() < 0.75 else ""
        out_docs.append(
            Doc(f"doc-{i:06d}", journal_names[j], publishers[j % len(publishers)], year, date, authors, doi)
        )

    users = max(10, events // 8)
    institutions = [f"University of {rng.choice(_FAMILY)} {k}" for k in range(max(3, users // 20))]
    affiliation_of = [rng.choice(institutions) if rng.random() < 0.85 else "" for _ in range(users)]
    order = list(range(docs))
    rng.shuffle(order)
    popularity = [0.0] * docs
    for rank, index in enumerate(order):
        popularity[index] = 1.0 / (rank + 1) ** 0.8
    raw: list[tuple[str, int, int, int]] = []
    for _ in range(events):
        d = rng.choices(range(docs), popularity)[0]
        year = rng.randint(out_docs[d].year, LAST_YEAR)
        time = (
            f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d} "
            f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
        )
        raw.append((time, year, d, rng.randrange(users)))
    raw.sort()
    all_events = [
        Event(
            f"ev-{n:07d}",
            time,
            year,
            f"reader-{u:05d}",
            f"sess-{u:05d}-{time[:7]}",
            affiliation_of[u],
            rng.choice(_ACCESS),
            d,
        )
        for n, (time, year, d, u) in enumerate(raw)
    ]
    size = -(-len(all_events) // batches)
    out_batches = [all_events[k : k + size] for k in range(0, len(all_events), size)]

    pairs: set[tuple[int, int]] = set()
    attempts = 0
    while len(pairs) < citations and attempts < citations * 50:
        attempts += 1
        citing = rng.randrange(docs)
        cited = rng.choices(range(docs), popularity)[0]
        if cited != citing and out_docs[cited].year <= out_docs[citing].year:
            pairs.add((citing, cited))
    return Corpus(out_docs, out_batches, sorted(pairs), journal_names)


# -- input files ---------------------------------------------------------------


def write_inputs(corpus: Corpus, directory: str, seed: int) -> dict[str, list[str]]:
    """Write the TSV files; returns the file names per table."""
    rng = random.Random(seed ^ 0x5EED)
    os.makedirs(directory, exist_ok=True)
    files: dict[str, list[str]] = {"biblio": [], "usage": [], "citations": []}

    def write(name: str, header: str, rows: list[str]) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(header + "\n")
            for row in rows:
                fp.write(row + "\n")
        return name

    biblio = []
    for i, d in enumerate(corpus.docs):
        title = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 8))).capitalize()
        first = rng.randint(1, 400)
        biblio.append(
            "\t".join(
                (
                    d.doc_id, title, "|".join(d.authors), d.journal, d.publisher, d.date,
                    str(first), str(first + rng.randint(2, 30)), str(d.year - 1990),
                    str(rng.randint(1, 12)), d.doi,
                )
            )
        )
    files["biblio"].append(
        write(
            "biblio.tsv",
            "doc_id\ttitle\tauthors\tcollection\tpublisher\tdate\tstart_page\tend_page\tvolume\tissue\tdoi",
            biblio,
        )
    )
    for k, batch in enumerate(corpus.batches):
        rows = [
            "\t".join(
                (e.event_id, e.time, e.agent, e.session, e.affiliation, e.access, corpus.docs[e.doc].doc_id)
            )
            for e in batch
        ]
        files["usage"].append(
            write(f"usage-{k + 1}.tsv", "event_id\ttime\tagent\tsession\taffiliation\taccess_type\tdoc_id", rows)
        )
    rows = [f"{corpus.docs[a].doc_id}\t{corpus.docs[b].doc_id}" for a, b in corpus.citations]
    files["citations"].append(write("citations.tsv", "citing_doc_id\tcited_doc_id", rows))
    return files


# -- derived values ---------------------------------------------------------------


def triple_count(corpus: Corpus, with_affiliations: bool = True) -> int:
    """Triples the mapping projects from every record of the corpus."""
    humans: set[str] = set()
    orgs: set[str] = set()
    editions: set[tuple[str, int]] = set()
    roots: set[str] = set()
    count = 1  # the provider's type
    for d in corpus.docs:
        # Publishes type, hasUnit, unit type, hasProvider, hasTime, hasGroup, hasPublisher
        count += 7
        roots.add(_norm(d.journal))
        editions.add((_norm(d.journal), d.year))
        orgs.add(_norm(d.publisher))
        count += len({_norm(a) for a in d.authors})  # hasAuthor
        humans.update(_norm(a) for a in d.authors)
    for e in corpus.events:
        # Uses type, hasDocument, hasTime, hasProvider, hasUser, hasSession, hasAccessType
        count += 7
        humans.add(_norm(e.agent))
        if with_affiliations and e.affiliation:
            count += 4  # Affiliation type, hasAffiliator, hasAffiliatee, hasTime
            orgs.add(_norm(e.affiliation))
    count += 4 * len(corpus.citations)  # Citation type, hasSource, hasSink, hasWeight
    return count + len(roots) + 2 * len(editions) + len(orgs) + len(humans)


def rule_counts(corpus: Corpus) -> dict[str, int]:
    """New triples each materialization rule adds to a freshly mapped store."""
    docs = corpus.docs
    edition = [(_norm(d.journal), d.year) for d in docs]
    authored = {(i, _norm(a)) for i, d in enumerate(docs) for a in d.authors}
    published = {(_norm(d.publisher), edition[i]) for i, d in enumerate(docs)}
    affiliated = {(_norm(e.affiliation), _norm(e.agent)) for e in corpus.events if e.affiliation}
    used_unit = {(e.doc, _norm(e.agent)) for e in corpus.events}
    used_group = {(edition[e.doc], _norm(e.agent)) for e in corpus.events}
    return {
        "affiliation": 2 * len(affiliated),
        "authored_by": 2 * len(authored),
        "contained_in": 2 * len(docs),
        "published_by": 2 * len(published),
        "used_by": 2 * len(used_unit) + 2 * len(used_group),
    }


def window_docs(corpus: Corpus, journal: str, year: int) -> set[int]:
    """Docs of the journal published in the two years before ``year``."""
    return {i for i, d in enumerate(corpus.docs) if d.journal == journal and year - 2 <= d.year <= year - 1}


def impact_factor(corpus: Corpus, journal: str, year: int) -> tuple[int, int]:
    units = window_docs(corpus, journal, year)
    numerator = sum(1 for a, b in corpus.citations if b in units and corpus.docs[a].year == year)
    return numerator, len(units)


def usage_impact_factor(corpus: Corpus, journal: str, year: int) -> tuple[int, int]:
    units = window_docs(corpus, journal, year)
    numerator = sum(1 for e in corpus.events if e.year == year and e.doc in units)
    return numerator, len(units)


# -- query scripts -------------------------------------------------------------------


def uif_script(template: str, journal: str, year: int) -> str:
    """The paper's usage-impact-factor script, retargeted at a journal and year."""
    # Years first: the journal's hex IRI may itself contain "2007".
    return (
        template.replace("2007", str(year))
        .replace("2004", str(year - 3))
        .replace("urn:issn:1082-9873", journal_iri(journal))
    )


def uif_script_rows(corpus: Corpus, journal: str, year: int) -> tuple[int, int]:
    """Rows of the script's two blocks: the UIF numerator, then every
    Publishes of the journal (the second block's filter is always true)."""
    return (
        usage_impact_factor(corpus, journal, year)[0],
        sum(1 for d in corpus.docs if d.journal == journal),
    )


def published_in_year_script(year: int) -> str:
    return (
        "SELECT ?a\nWHERE ( ?x rdf:type mesur:Publishes )\n"
        "      ( ?x mesur:hasUnit ?a )\n"
        f"      ( ?x mesur:hasTime ?t ) AND ?t = {year} .\n"
    )


def published_in_year_rows(corpus: Corpus, year: int) -> int:
    return sum(1 for d in corpus.docs if d.year == year)


def used_between_script(lo: int, hi: int) -> str:
    return (
        "SELECT ?x\nWHERE ( ?x rdf:type mesur:Uses )\n"
        f"      ( ?x mesur:hasTime ?t ) AND (?t > {lo - 1} AND ?t < {hi + 1}) .\n"
    )


def used_between_rows(corpus: Corpus, lo: int, hi: int) -> int:
    return sum(1 for e in corpus.events if lo <= e.year <= hi)
