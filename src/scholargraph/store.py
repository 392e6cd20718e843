"""Embedded triple store with dictionary encoding and three indexes.

Terms are interned into a dictionary mapping each distinct term to a dense
integer id (ids of removed terms are never reused).  Triples live three
times, once per permutation (SPO, POS, OSP), each as two dict hops ending in
a sorted ``array('q')`` run searched by bisection.  Every pattern shape is
answered by the permutation whose prefix matches its bound slots, and
enumeration order is that permutation's sort order, so results are
deterministic.

The store also owns the inference ledger (:attr:`Store.ledger`: rule name
to the set of triples that rule added), so a snapshot carries it and every
command that loads and saves the store keeps it without knowing of it.

Set semantics: inserting an existing triple is a no-op, removing a missing
one reports False.  The store is safe for one writer or any number of
readers; concurrent writing is the caller's problem (the CLI serializes
writers with a lock file).
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter, lt
from typing import IO, Iterable, Iterator, Optional, Union

from .errors import ScholarGraphError
from .ntriples import serialize_triple
from .terms import Blank, Datatype, Iri, Literal, Term, Triple, term_sort_key


@dataclass(frozen=True, slots=True)
class Var:
    """A named query variable (without the ``?`` sigil)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple with variables allowed in any slot.

    A literal in the subject slot is permitted and simply never matches,
    since no stored triple can carry one.
    """

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> tuple[Var, ...]:
        seen: list[Var] = []
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, Var) and slot not in seen:
                seen.append(slot)
        return tuple(seen)


class SnapshotError(ScholarGraphError):
    """A snapshot file is malformed, or a store cannot be saved consistently."""


_Index = dict[int, dict[int, array]]

_MAGIC = b"SGRAPH"
_VERSION = 2
# version, byte order (0 little, 1 big), term count, triple count
_HEADER = struct.Struct("<HBII")


class Store:
    """In-memory triple store; persistence via canonical snapshots."""

    def __init__(self) -> None:
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._blank_serial = 0
        # rule name -> triples that rule added; every one is in the store
        self.ledger: dict[str, set[Triple]] = {}

    # -- dictionary ----------------------------------------------------------

    def intern(self, term: Term) -> int:
        """Id of ``term``, assigning the next dense id on first sight."""
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        new_id = len(self._terms)
        self._terms.append(term)
        self._ids[term] = new_id
        return new_id

    def lookup(self, term: Term) -> Optional[int]:
        return self._ids.get(term)

    def decode(self, term_id: int) -> Term:
        return self._terms[term_id]

    def term_count(self) -> int:
        return len(self._terms)

    def fresh_blank(self) -> Blank:
        """A blank node whose label collides with nothing seen so far."""
        while True:
            label = f"genid{self._blank_serial}"
            self._blank_serial += 1
            candidate = Blank(label)
            if candidate not in self._ids:
                return candidate

    # -- mutation --------------------------------------------------------------

    def insert(self, triple: Triple) -> bool:
        """Add one triple; False if it was already present."""
        s = self.intern(triple.subject)
        p = self.intern(triple.predicate)
        o = self.intern(triple.object)
        run = self._spo.setdefault(s, {}).setdefault(p, array("q"))
        at = bisect_left(run, o)
        if at < len(run) and run[at] == o:
            return False
        run.insert(at, o)
        insort(self._pos.setdefault(p, {}).setdefault(o, array("q")), s)
        insort(self._osp.setdefault(o, {}).setdefault(s, array("q")), p)
        self._size += 1
        return True

    def insert_many(self, triples: Iterable[Triple]) -> int:
        """Bulk insert; returns how many were new.

        On an empty store this sorts once and builds the runs append-only,
        which is what makes million-triple loads cheap.
        """
        if self._size:
            return sum(1 for t in triples if self.insert(t))
        encoded: list[tuple[int, int, int]] = []
        intern = self.intern
        for t in triples:
            encoded.append((intern(t.subject), intern(t.predicate), intern(t.object)))
        if not encoded:
            return 0
        encoded.sort()
        deduped: list[tuple[int, int, int]] = []
        last = None
        for item in encoded:
            if item != last:
                deduped.append(item)
                last = item
        del encoded
        self._build(deduped)
        return self._size

    def _build(self, spo: list[tuple[int, int, int]]) -> None:
        """Fill the empty indexes from distinct id triples in SPO order."""
        self._build_run(self._spo, spo, 0, 1, 2)
        by_pos = sorted(spo, key=itemgetter(1, 2, 0))
        self._build_run(self._pos, by_pos, 1, 2, 0)
        del by_pos
        by_osp = sorted(spo, key=itemgetter(2, 0, 1))
        self._build_run(self._osp, by_osp, 2, 0, 1)
        self._size = len(spo)

    @staticmethod
    def _build_run(index: _Index, ordered: list[tuple[int, int, int]], a: int, b: int, c: int) -> None:
        current_a = current_b = None
        inner: dict[int, array] = {}
        run = array("q")
        for item in ordered:
            ka, kb, kc = item[a], item[b], item[c]
            if ka != current_a:
                inner = index.setdefault(ka, {})
                current_a, current_b = ka, None
            if kb != current_b:
                run = inner.setdefault(kb, array("q"))
                current_b = kb
            run.append(kc)

    def remove(self, triple: Triple) -> bool:
        """Remove one triple; False if absent.  Dictionary ids survive."""
        s = self._ids.get(triple.subject)
        p = self._ids.get(triple.predicate)
        o = self._ids.get(triple.object)
        if s is None or p is None or o is None:
            return False
        by_p = self._spo.get(s)
        if by_p is None:
            return False
        run = by_p.get(p)
        if run is None:
            return False
        at = bisect_left(run, o)
        if at >= len(run) or run[at] != o:
            return False
        del run[at]
        if not run:
            del by_p[p]
            if not by_p:
                del self._spo[s]
        self._delete(self._pos, p, o, s)
        self._delete(self._osp, o, s, p)
        self._size -= 1
        return True

    @staticmethod
    def _delete(index: _Index, a: int, b: int, c: int) -> None:
        inner = index[a]
        run = inner[b]
        at = bisect_left(run, c)
        del run[at]
        if not run:
            del inner[b]
            if not inner:
                del index[a]

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def contains(self, triple: Triple) -> bool:
        s = self._ids.get(triple.subject)
        p = self._ids.get(triple.predicate)
        o = self._ids.get(triple.object)
        if s is None or p is None or o is None:
            return False
        run = self._spo.get(s, {}).get(p)
        if run is None:
            return False
        at = bisect_left(run, o)
        return at < len(run) and run[at] == o

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    def appears(self, term: Term) -> bool:
        """True if the term occurs in at least one live triple."""
        term_id = self._ids.get(term)
        if term_id is None:
            return False
        return term_id in self._spo or term_id in self._pos or term_id in self._osp

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[tuple[int, int, int]]:
        """All (s, p, o) id triples matching the given bound slots.

        ``None`` is a wildcard.  Enumeration follows the index that serves
        the shape, so order is deterministic for a given store content.
        """
        if s is not None:
            if p is not None:
                run = self._spo.get(s, {}).get(p)
                if run is None:
                    return
                if o is not None:
                    at = bisect_left(run, o)
                    if at < len(run) and run[at] == o:
                        yield (s, p, o)
                    return
                for obj in run:
                    yield (s, p, obj)
                return
            if o is not None:
                run = self._osp.get(o, {}).get(s)
                if run is None:
                    return
                for pred in run:
                    yield (s, pred, o)
                return
            by_p = self._spo.get(s)
            if by_p is None:
                return
            for pred in sorted(by_p):
                for obj in by_p[pred]:
                    yield (s, pred, obj)
            return
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return
            if o is not None:
                run = by_o.get(o)
                if run is None:
                    return
                for subj in run:
                    yield (subj, p, o)
                return
            for obj in sorted(by_o):
                for subj in by_o[obj]:
                    yield (subj, p, obj)
            return
        if o is not None:
            by_s = self._osp.get(o)
            if by_s is None:
                return
            for subj in sorted(by_s):
                for pred in by_s[subj]:
                    yield (subj, pred, o)
            return
        for subj in sorted(self._spo):
            by_p = self._spo[subj]
            for pred in sorted(by_p):
                for obj in by_p[pred]:
                    yield (subj, pred, obj)

    def match_count(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> int:
        """Cheap cardinality estimate for join planning (exact for runs)."""
        if s is not None and p is not None and o is None:
            run = self._spo.get(s, {}).get(p)
            return len(run) if run is not None else 0
        if p is not None and o is not None and s is None:
            run = self._pos.get(p, {}).get(o)
            return len(run) if run is not None else 0
        if s is not None and o is not None and p is None:
            run = self._osp.get(o, {}).get(s)
            return len(run) if run is not None else 0
        if s is not None and p is None and o is None:
            return sum(len(r) for r in self._spo.get(s, {}).values())
        if p is not None and s is None and o is None:
            return sum(len(r) for r in self._pos.get(p, {}).values())
        if o is not None and s is None and p is None:
            return sum(len(r) for r in self._osp.get(o, {}).values())
        if s is None and p is None and o is None:
            return self._size
        return 1 if self.contains_ids(s, p, o) else 0  # type: ignore[arg-type]

    def distinct_count(self, s: Optional[int], p: Optional[int], o: Optional[int], slot: int) -> int:
        """Distinct values in the wildcard ``slot`` (0, 1, 2 for s, p, o)
        among the triples matching the bound slots, for join fan-out
        estimates."""
        if s is None and p is None and o is None:
            return len((self._spo, self._pos, self._osp)[slot])
        if s is not None and p is None and o is None:
            by_p = self._spo.get(s, {})
            return len(by_p) if slot == 1 else len(set().union(*by_p.values()))
        if p is not None and s is None and o is None:
            by_o = self._pos.get(p, {})
            return len(by_o) if slot == 2 else len(set().union(*by_o.values()))
        if o is not None and s is None and p is None:
            by_s = self._osp.get(o, {})
            return len(by_s) if slot == 0 else len(set().union(*by_s.values()))
        # Two slots bound: the free one is a run of unique values.
        return self.match_count(s, p, o)

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        run = self._spo.get(s, {}).get(p)
        if run is None:
            return False
        at = bisect_left(run, o)
        return at < len(run) and run[at] == o

    def match_terms(
        self, s: Optional[Term], p: Optional[Term], o: Optional[Term]
    ) -> Iterator[Triple]:
        """Term-level match; unknown constant terms match nothing."""
        ids: list[Optional[int]] = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                term_id = self._ids.get(term)
                if term_id is None:
                    return
                ids.append(term_id)
        terms = self._terms
        for si, pi, oi in self.match_ids(*ids):
            yield Triple(terms[si], terms[pi], terms[oi])

    def match(self, pattern: TriplePattern) -> Iterator[dict[str, Term]]:
        """Bindings for a pattern; repeated variables must agree."""
        slots = (pattern.subject, pattern.predicate, pattern.object)
        ids: list[Optional[int]] = []
        for slot in slots:
            if isinstance(slot, Var):
                ids.append(None)
            else:
                term_id = self._ids.get(slot)
                if term_id is None:
                    return
                ids.append(term_id)
        terms = self._terms
        for hit in self.match_ids(*ids):
            binding: dict[str, int] = {}
            ok = True
            for slot, value in zip(slots, hit):
                if isinstance(slot, Var):
                    prior = binding.get(slot.name)
                    if prior is None:
                        binding[slot.name] = value
                    elif prior != value:
                        ok = False
                        break
            if ok:
                yield {name: terms[i] for name, i in binding.items()}

    def objects(self, subject: Term, predicate: Term) -> list[Term]:
        return [t.object for t in self.match_terms(subject, predicate, None)]

    def subjects(self, predicate: Term, obj: Term) -> list[Term]:
        return [t.subject for t in self.match_terms(None, predicate, obj)]

    def triples(self) -> Iterator[Triple]:
        """All triples, decoded, in SPO index order."""
        terms = self._terms
        for s, p, o in self.match_ids(None, None, None):
            yield Triple(terms[s], terms[p], terms[o])

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def stats(self) -> dict[str, int]:
        return {
            "triples": self._size,
            "terms": len(self._terms),
            "subjects": len(self._spo),
            "predicates": len(self._pos),
            "objects": len(self._osp),
        }

    def verify_indexes(self) -> bool:
        """All three permutations describe the same triple set (test hook)."""
        spo = set(self.match_ids(None, None, None))
        pos = set()
        for p, by_o in self._pos.items():
            for o, run in by_o.items():
                for s in run:
                    pos.add((s, p, o))
        osp = set()
        for o, by_s in self._osp.items():
            for s, run in by_s.items():
                for p in run:
                    osp.add((s, p, o))
        return spo == pos == osp and len(spo) == self._size

    # -- snapshots ---------------------------------------------------------------

    def save(self, target: Union[str, IO[bytes]]) -> None:
        """Write a canonical snapshot: the term table, the SPO run, the ledger.

        Live terms are sorted into a total order and re-numbered densely.
        The SPO run follows as sorted id triples (POS and OSP are rebuilt
        on load).  The ledger section lists each non-empty rule, in name
        order, with its triples as sorted ids.  Two stores holding the same
        triples and the same ledger therefore produce byte-identical
        snapshots regardless of how they got there, and an empty ledger
        encodes as one that never existed.

        Raises :class:`SnapshotError`, writing nothing, if a ledger triple
        is not in the store.  A path is written as ``<path>.tmp``, synced
        to disk and renamed over ``path``, so a crash leaves either the old
        snapshot or the new one.
        """
        live_ids: set[int] = set()
        flat: list[tuple[int, int, int]] = []
        for s, by_p in self._spo.items():
            for p, run in by_p.items():
                for o in run:
                    flat.append((s, p, o))
                    live_ids.add(s)
                    live_ids.add(p)
                    live_ids.add(o)
        ordered_terms = sorted((self._terms[i] for i in live_ids), key=term_sort_key)
        renumber = {self._ids[t]: n for n, t in enumerate(ordered_terms)}
        ledger: list[tuple[str, list[tuple[int, int, int]]]] = []
        ids = self._ids
        for name in sorted(self.ledger):
            entry: list[tuple[int, int, int]] = []
            for triple in self.ledger[name]:
                s, p, o = ids.get(triple.subject), ids.get(triple.predicate), ids.get(triple.object)
                if s is None or p is None or o is None or not self.contains_ids(s, p, o):
                    raise SnapshotError(
                        f"ledger triple for rule {name!r} is not in the store: {serialize_triple(triple)}"
                    )
                entry.append((renumber[s], renumber[p], renumber[o]))
            if entry:
                ledger.append((name, sorted(entry)))
        body = bytearray()
        body += _MAGIC
        body += _HEADER.pack(_VERSION, 0 if sys.byteorder == "little" else 1, len(ordered_terms), len(flat))
        for term in ordered_terms:
            body += _encode_term(term)
        body += _id_run(sorted((renumber[s], renumber[p], renumber[o]) for s, p, o in flat))
        body += struct.pack("<I", len(ledger))
        for name, entry in ledger:
            raw = name.encode("utf-8")
            body += struct.pack("<II", len(raw), len(entry)) + raw
            body += _id_run(entry)
        if not isinstance(target, str):
            target.write(bytes(body))
            return
        temporary = target + ".tmp"
        try:
            with open(temporary, "wb") as fp:
                fp.write(body)
                fp.flush()
                os.fsync(fp.fileno())
            os.replace(temporary, target)
        except BaseException:
            if os.path.exists(temporary):
                os.unlink(temporary)
            raise

    @classmethod
    def load(cls, source: Union[str, IO[bytes]]) -> "Store":
        """Read a snapshot written by :meth:`save`, checking it as it goes.

        Every id must name a term of the table, the SPO run and each ledger
        rule's triples must be strictly ascending, and every ledger triple
        must be in the SPO run; anything else raises :class:`SnapshotError`.
        """
        if isinstance(source, str):
            with open(source, "rb") as fp:
                data = fp.read()
        else:
            data = source.read()
        if data[: len(_MAGIC)] != _MAGIC:
            raise SnapshotError("not a store snapshot (bad magic)")
        try:
            version, endian, term_count, triple_count = _HEADER.unpack_from(data, len(_MAGIC))
        except struct.error:
            raise SnapshotError("truncated snapshot header") from None
        if version != _VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version} (this build reads {_VERSION}): "
                "delete the snapshot, then rebuild the store with `map` and then `infer`"
            )
        swap = (sys.byteorder == "little") != (endian == 0)
        offset = len(_MAGIC) + _HEADER.size
        store = cls()
        try:
            for _ in range(term_count):
                term, offset = _decode_term(data, offset)
                store.intern(term)
        except (IndexError, ValueError, struct.error) as exc:
            raise SnapshotError(f"bad term section: {exc}") from None
        if len(store._terms) != term_count:
            raise SnapshotError("duplicate terms in snapshot")
        spo, offset = _read_id_run(data, offset, triple_count, swap, term_count, "SPO run")
        store._build(spo)
        del spo
        terms = store._terms
        try:
            (rule_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            previous = None
            for _ in range(rule_count):
                name_size, count = struct.unpack_from("<II", data, offset)
                offset += 8
                raw = data[offset : offset + name_size]
                if len(raw) != name_size:
                    raise SnapshotError("truncated ledger section")
                offset += name_size
                try:
                    name = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise SnapshotError("ledger rule name is not UTF-8") from None
                if not count or (previous is not None and name <= previous):
                    raise SnapshotError("ledger rules are not distinct, non-empty and in name order")
                previous = name
                entry, offset = _read_id_run(data, offset, count, swap, term_count, f"ledger of rule {name!r}")
                if not all(store.contains_ids(s, p, o) for s, p, o in entry):
                    raise SnapshotError(f"ledger of rule {name!r} names a triple the snapshot does not hold")
                store.ledger[name] = {Triple(terms[s], terms[p], terms[o]) for s, p, o in entry}
        except struct.error:
            raise SnapshotError("truncated ledger section") from None
        if offset != len(data):
            raise SnapshotError("trailing bytes after snapshot")
        return store


def _id_run(ordered: list[tuple[int, int, int]]) -> bytes:
    return array("I", chain.from_iterable(ordered)).tobytes()


def _read_id_run(
    data: bytes, offset: int, count: int, swap: bool, term_count: int, what: str
) -> tuple[list[tuple[int, int, int]], int]:
    """``count`` id triples at ``offset``, checked in range and strictly
    ascending, and the offset after them."""
    end = offset + count * 12
    if end > len(data):
        raise SnapshotError(f"truncated {what}")
    run = array("I")
    run.frombytes(memoryview(data)[offset:end])
    if swap:
        run.byteswap()
    if run and max(run) >= term_count:
        raise SnapshotError(f"term id out of range in {what}")
    triples = list(zip(run[0::3], run[1::3], run[2::3]))
    if not all(map(lt, triples, islice(triples, 1, None))):
        raise SnapshotError(f"{what} is not strictly ascending")
    return triples, end


def _encode_term(term: Term) -> bytes:
    if isinstance(term, Iri):
        kind, payload = 0, term.value
        head = struct.pack("<B", kind)
    elif isinstance(term, Blank):
        kind, payload = 1, term.label
        head = struct.pack("<B", kind)
    else:
        payload = term.lexical
        head = struct.pack("<BB", 2, int(term.datatype))
    raw = payload.encode("utf-8")
    return head + struct.pack("<I", len(raw)) + raw


def _decode_term(data: bytes, offset: int) -> tuple[Term, int]:
    kind = data[offset]
    offset += 1
    if kind == 2:
        datatype = Datatype(data[offset])
        offset += 1
    (length,) = struct.unpack_from("<I", data, offset)
    offset += 4
    payload = data[offset : offset + length]
    if len(payload) != length:
        raise SnapshotError("truncated term payload")
    offset += length
    text = payload.decode("utf-8")
    if kind == 0:
        return Iri(text), offset
    if kind == 1:
        return Blank(text), offset
    if kind == 2:
        return Literal(text, datatype), offset
    raise SnapshotError(f"unknown term kind: {kind}")


# -- graph comparison up to blank relabeling ---------------------------------


def _blanks_of(triple: Triple) -> tuple[Blank, ...]:
    out = []
    if isinstance(triple.subject, Blank):
        out.append(triple.subject)
    if isinstance(triple.object, Blank) and triple.object != triple.subject:
        out.append(triple.object)
    return tuple(out)


def _refine_colors(triples: set[Triple], blanks: set[Blank]) -> dict[Blank, tuple]:
    touching: dict[Blank, list[Triple]] = {b: [] for b in blanks}
    for t in triples:
        for b in _blanks_of(t):
            touching[b].append(t)
    colors: dict[Blank, tuple] = {b: () for b in blanks}
    for _ in range(len(blanks) + 1):
        fresh: dict[Blank, tuple] = {}
        for b, ts in touching.items():
            sig = []
            for t in ts:
                subj = ("b", colors[t.subject]) if isinstance(t.subject, Blank) else ("g", term_sort_key(t.subject))
                obj = ("b", colors[t.object]) if isinstance(t.object, Blank) else ("g", term_sort_key(t.object))
                role = "s" if t.subject == b else "o"
                if t.subject == b and t.object == b:
                    role = "so"
                sig.append((role, t.predicate.value, subj, obj))
            fresh[b] = tuple(sorted(sig))
        if fresh == colors:
            break
        colors = fresh
    return colors


def _apply_mapping(triples: set[Triple], mapping: dict[Blank, Blank]) -> set[Triple]:
    out = set()
    for t in triples:
        s = mapping.get(t.subject, t.subject) if isinstance(t.subject, Blank) else t.subject
        o = mapping.get(t.object, t.object) if isinstance(t.object, Blank) else t.object
        out.add(Triple(s, t.predicate, o))
    return out


def isomorphic(left: Iterable[Triple], right: Iterable[Triple]) -> bool:
    """True when the two triple sets are equal up to a blank-label bijection."""
    a, b = set(left), set(right)
    if a == b:
        return True
    if len(a) != len(b):
        return False
    blanks_a = {bl for t in a for bl in _blanks_of(t)}
    blanks_b = {bl for t in b for bl in _blanks_of(t)}
    if len(blanks_a) != len(blanks_b):
        return False
    ground_a = {t for t in a if not _blanks_of(t)}
    ground_b = {t for t in b if not _blanks_of(t)}
    if ground_a != ground_b:
        return False
    colors_a = _refine_colors(a, blanks_a)
    colors_b = _refine_colors(b, blanks_b)
    by_color_a: dict[tuple, list[Blank]] = {}
    for bl, color in colors_a.items():
        by_color_a.setdefault(color, []).append(bl)
    by_color_b: dict[tuple, list[Blank]] = {}
    for bl, color in colors_b.items():
        by_color_b.setdefault(color, []).append(bl)
    if set(by_color_a) != set(by_color_b):
        return False
    if any(len(by_color_a[c]) != len(by_color_b[c]) for c in by_color_a):
        return False

    ordered_a = [bl for c in sorted(by_color_a) for bl in sorted(by_color_a[c], key=lambda x: x.label)]
    candidates = {bl: sorted(by_color_b[colors_a[bl]], key=lambda x: x.label) for bl in ordered_a}

    used: set[Blank] = set()
    mapping: dict[Blank, Blank] = {}

    def assign(i: int) -> bool:
        if i == len(ordered_a):
            return _apply_mapping(a, mapping) == b
        bl = ordered_a[i]
        for cand in candidates[bl]:
            if cand in used:
                continue
            mapping[bl] = cand
            used.add(cand)
            if assign(i + 1):
                return True
            used.discard(cand)
            del mapping[bl]
        return False

    return assign(0)
