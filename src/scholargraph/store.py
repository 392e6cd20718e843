"""Embedded triple store with dictionary encoding and two indexes: the
reader.

This module opens a store and answers every read; its write half,
:mod:`.store_write`, holds every change to the store (batch writes, the
ledger's writes), the snapshot writer and the test hooks.  Each
:class:`Store` method that writes (:meth:`Store.add_rows`,
:meth:`Store.drop_rows`, :meth:`Store.retag`, :meth:`Store.save`,
:meth:`Store.canonical_run`, and the test hook
:meth:`Store.verify_indexes`) is a one-line delegate that imports the
writer on its first call, so the class and its methods are the same for
every caller, each operation has one implementation, and a command that
only reads (``stats``, ``validate``, a SELECT-only ``query``) never
compiles the writer: every command compiles each module it imports when no
bytecode is cached.

Terms are interned into a dictionary mapping each distinct term to a dense
integer id (ids of removed terms are never reused).  The dictionary is
keyed by each term's text (an IRI's value, a blank node's label, a
literal's lexical form) and its head, one byte for the kind and a
literal's datatype: each id keeps its text in a list and its head in a
``bytearray``, and each head has one dict from text to id, which hashes
in C.  (head, text) order is canonical term order (:func:`term_sort_key`),
so a save numbers and encodes terms from their texts alone.
:meth:`Store.decode` makes a term's :class:`Term` object when it is first
asked for and keeps it; a load makes none (HDT's dictionary is decoded by
id on demand in the same way, Fernández et al. 2013).  Triples live
twice, once per permutation (SPO, POS), in ``array('I')`` columns
(unsigned 32-bit, the id type of a snapshot).

Both permutations have one layout (:class:`_Permutation`, after the sorted
permutation runs of RDF-3X and Hexastore): a read-only base run plus a
small copy-on-write overlay of the keys written since (differential files,
Severance & Lohman 1976).  The base run is the second- and third-key
columns, sorted together by (first, second, third), and dense offsets
indexed by first-key id, so a key's base rows are found with two array
reads and no object is made per key.  A load fills SPO's columns from the
snapshot's SPO run with ``frombytes`` and strided slices, and builds no
POS run: POS (:class:`_LazyPos`) cuts each predicate's rows from SPO's
base run into its overlay when that predicate is first read or written,
after one stable sort of the row numbers by predicate, and one subject
column made from SPO's offsets, on the first POS probe.  The overlay is a
dict from a key to its own columns; the first write that changes an SPO
key copies the key's rows there (a POS run is there already).  Reads and
writes of that key use them from then on, and a key emptied by writes
keeps empty columns there, which hide its base rows.  A probe on the
first two keys is two array reads (or a dict get) for the first key, a
bisection of the second column and a slice of the third.  A shape with
the object bound and the predicate free bisects the object in each
predicate's POS rows (the vocabulary has few predicates) and comes in (s,
p) order; any other shape is answered by the permutation whose prefix
matches its bound slots, in its sort order.  A command that reads one
predicate's objects whole (``stats``) scans SPO's live columns instead
(:meth:`Store.predicate_objects`) and builds no POS run.  Every writer
interns its terms and hands the store id rows, ``map``'s projection too;
:meth:`Store.insert` and :meth:`Store.remove` are one-row calls.

The store also keeps the inference ledger, as one tag byte beside each SPO
row (a ``bytearray`` column in the base run and in each overlay key's
columns; POS has none): 0 marks a base fact and k the k-th name of the
store's rule-name table, in the order the names were first used, as
main-memory RDF stores keep a status field beside each fact (RDFox, Motik
et al. 2014).  A ledger names at most 255 rules.  The rules' entries are
disjoint and every ledgered row is a stored one, so the tags hold the
ledger exactly, and a write or a cut carries them with the rows.
:meth:`Store.add_rows` tags the rows it adds, :meth:`Store.retag` moves
held rows to a rule (or back to the base), :meth:`Store.ledger_rows`
gives one rule's rows and :meth:`Store.ledger_counts` the count of each;
the reads scan the tag bytes in C.  :meth:`Store.decode_triple` turns a
row back into a triple.

A snapshot numbers the live terms in canonical order, and its sections
are columnar, each packed as one ``zlib`` stream (written by
:mod:`.store_write`, read by :func:`_unpack`), as column stores compress
each column and decode it with a native codec rather than value by value:
the term table is one run per kind (and per datatype, for literals), each
a length column and one payload blob; the SPO run is each subject's row
count and the predicate and object columns, so a load takes SPO's offsets
from the counts rather than counting a subject column; the ledger section
is the names of the rules that tag a row, in name order, and the tag
column of the SPO run, renumbered to that order.  A load checks the term
table one run at a time by the term constructors' rules, and the id
columns column-wise, with the messages a term-by-term check would give,
but builds no term, no subject column and no POS run: only predicate and
object ids are checked for range, since subject ids are the positions of
the counts, and the order of the rows within each subject is checked on
one 64-bit (predicate, object) key per row, so no row becomes a tuple.
The cyclic garbage collector is paused while it runs.

Set semantics: inserting an existing triple is a no-op, removing a missing
one reports False.  The store is safe for one writer or any number of
readers; concurrent writing is the caller's problem (the CLI serializes
writers with a lock file).
"""

from __future__ import annotations

import gc
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, ge, gt, lt, mul, sub
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from .errors import ScholarGraphError
from .record import FrozenRecord
from .terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    Term,
    TermError,
    Triple,
    check_blanks,
    check_iris,
    check_literals,
)

_setattr = object.__setattr__  # terms, Var and TriplePattern refuse assignment


class Var(FrozenRecord):
    """A named query variable (without the ``?`` sigil)."""

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


class TriplePattern(FrozenRecord):
    """A triple with variables allowed in any slot.

    A literal in the subject slot is permitted and simply never matches,
    since no stored triple can carry one.
    """

    __slots__ = ("subject", "predicate", "object")
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __init__(self, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm) -> None:
        _setattr(self, "subject", subject)
        _setattr(self, "predicate", predicate)
        _setattr(self, "object", object)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.subject == other.subject
                and self.predicate == other.predicate
                and self.object == other.object
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object))

    def variables(self) -> tuple[Var, ...]:
        seen: list[Var] = []
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, Var) and slot not in seen:
                seen.append(slot)
        return tuple(seen)


class SnapshotError(ScholarGraphError):
    """A snapshot file is malformed."""


class LedgerError(ScholarGraphError):
    """A ledger write names a row the store does not hold or one rule too
    many, or a dumped ledger is malformed or inconsistent with the store."""


IdTriple = tuple[int, int, int]
# a column of a permutation: ids, or SPO's tags
Column = Union[array, bytearray]

# the type of every id column, and of the id runs of a snapshot: unsigned
# 32-bit, so a store holds at most 2**32 terms
_ID = "I"

_MAGIC = b"SGRAPH"
_VERSION = 4
# version, byte order (0 little, 1 big), term count, triple count
_HEADER = struct.Struct("<HBII")
# a packed section: the length of its raw bytes, then of its zlib stream
_PACKED = struct.Struct("<QQ")
# the byte order of a snapshot's counts, lengths and ids as this host writes
# them; the header's flag names it for a reader on another host
_NATIVE = "<" if sys.byteorder == "little" else ">"
_U32 = struct.Struct("=I")
# the index of a 64-bit value's high 32-bit half in this host's byte order
_HIGH = 1 if _NATIVE == "<" else 0
# a row's rule is one tag byte, and tag 0 marks a base fact
_MAX_RULES = 255


def _writer():
    """The write half of the store, imported on first use."""
    from . import store_write

    return store_write


class Store:
    """In-memory triple store; persistence via canonical snapshots.

    The commands read and write by id (:meth:`match_ids`,
    :meth:`add_rows`, :meth:`drop_rows`).  :meth:`match_terms`,
    :meth:`objects`, :meth:`subjects`, :meth:`contains` (and ``in``) are
    the public term-level read API for library callers and tests: they
    take and return :class:`Term` objects and decode each hit.  The
    methods that write delegate to :mod:`.store_write`.
    """

    def __init__(self) -> None:
        # the term table (see the module docstring): each id's text and head,
        # one text -> id dict per head, and each id's Term once decoded
        self._texts: list[str] = []
        self._heads = bytearray()
        self._ids: list[dict[str, int]] = [{} for _ in range(_HEADS)]
        self._terms: list[Optional[Term]] = []
        # the two permutations of the triples (see the module docstring)
        self._spo = _Permutation((), (), (), bytearray())
        self._pos = _LazyPos(self._spo)
        self._size = 0
        self._blank_serial = 0
        # ids below this are the term table of the snapshot the store was
        # loaded from, in canonical order; see store_write.save
        self._loaded = 0
        # the rule-name table of the ledger: SPO's tag k names _rules[k - 1]
        self._rules: list[str] = []

    # -- dictionary ----------------------------------------------------------

    def intern(self, term: Term) -> int:
        """Id of ``term``, assigning the next dense id on first sight."""
        head, text = _key(term)
        ids = self._ids[head]
        existing = ids.get(text)
        if existing is not None:
            return existing
        new_id = ids[text] = len(self._texts)
        self._texts.append(text)
        self._heads.append(head)
        self._terms.append(term)
        return new_id

    def lookup(self, term: Term) -> Optional[int]:
        head, text = _key(term)
        return self._ids[head].get(text)

    def decode(self, term_id: int) -> Term:
        """The term of ``term_id``, made on first use and kept."""
        term = self._terms[term_id]
        if term is None:
            term = self._terms[term_id] = _term(self._heads[term_id], self._texts[term_id])
        return term

    def lookup_triple(self, triple: Triple) -> Optional[IdTriple]:
        """The id triple of ``triple``; None if one of its terms has no id."""
        lookup = self.lookup
        s, p, o = lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)
        if s is None or p is None or o is None:
            return None
        return (s, p, o)

    def decode_triple(self, ids: IdTriple) -> Triple:
        decode = self.decode
        s, p, o = ids
        return Triple(decode(s), decode(p), decode(o))

    def term_count(self) -> int:
        return len(self._texts)

    def fresh_blank(self) -> Blank:
        """A blank node whose label collides with nothing seen so far."""
        while True:
            label = f"genid{self._blank_serial}"
            self._blank_serial += 1
            if label not in self._ids[_BLANK]:
                return Blank(label)

    def iri_texts(self, ids: Iterable[int]) -> set[str]:
        """The texts of the IRIs among ``ids``, read from the term table
        without making a term."""
        heads, texts = self._heads, self._texts
        return {texts[term_id] for term_id in ids if heads[term_id] == _IRI}

    # -- mutation (in store_write) ----------------------------------------------

    def insert(self, triple: Triple) -> bool:
        """Add one triple; False if it was already present."""
        intern = self.intern
        return bool(self.add_rows([(intern(triple.subject), intern(triple.predicate), intern(triple.object))]))

    def add_rows(self, rows: Iterable[IdTriple], rule: Optional[str] = None) -> list[IdTriple]:
        """Add id triples, in any order and with repeats, ledgered under
        ``rule`` (None: as base facts); the rows that were new, in SPO
        order.  A row the store holds already keeps its rule."""
        return _writer().add_rows(self, rows, rule)

    def remove(self, triple: Triple) -> bool:
        """Remove one triple; False if absent.  Dictionary ids survive."""
        ids = self.lookup_triple(triple)
        return ids is not None and bool(self.drop_rows((ids,)))

    def drop_rows(self, rows: Iterable[IdTriple]) -> list[IdTriple]:
        """Remove id triples, in any order and with repeats, with their
        ledger tags; the rows that were held, in SPO order."""
        return _writer().drop_rows(self, rows)

    def _build(self, counts: Sequence[int], p: Sequence[int], o: Sequence[int], tags: bytearray) -> None:
        """Make the id columns of distinct triples in SPO order, and their
        tags, SPO's base run, with an empty overlay, and POS a
        :class:`_LazyPos` over it, which builds nothing until it is read;
        ``counts`` holds each subject's row count, by subject id.  The
        columns are arrays (a load's, which are kept as they are) or lists
        (a batch's)."""
        self._spo = _Permutation(counts, p, o, tags)
        self._pos = _LazyPos(self._spo)
        self._size = len(o)

    # -- the ledger ------------------------------------------------------------

    def retag(self, rows: Iterable[IdTriple], rule: Optional[str]) -> int:
        """Ledger the held id triples ``rows`` under ``rule`` (None: make
        them base facts); how many of them changed rule.

        Raises :class:`LedgerError`, changing nothing, if the store does not
        hold one of them.
        """
        return _writer().retag(self, rows, rule)

    def ledger_rows(self, rule: str) -> list[IdTriple]:
        """The id triples ledgered under ``rule``, in SPO order."""
        if rule not in self._rules:
            return []
        return self._spo.tagged(self._rules.index(rule) + 1)

    def ledger_counts(self) -> dict[str, int]:
        """Each rule of the ledger's name table, in name order, with its row
        count, which is 0 once its rows are gone (a load names only the
        rules that tag a row)."""
        return {name: self._spo.tag_count(self._rules.index(name) + 1) for name in sorted(self._rules)}

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def contains(self, triple: Triple) -> bool:
        ids = self.lookup_triple(triple)
        return ids is not None and self.contains_ids(*ids)

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    def appears(self, term: Term) -> bool:
        """True if the term occurs in at least one live triple."""
        term_id = self.lookup(term)
        if term_id is None:
            return False
        keyed = (lo < hi for *_, lo, hi in (self._spo.run(term_id), self._pos.run(term_id)))
        return any(keyed) or any(self._object_runs(None, term_id))

    def predicate_ids(self) -> list[int]:
        """Ids of the predicates that live triples use, ascending."""
        return sorted(self._values(1))

    def predicate_objects(self, p: int) -> Iterator[int]:
        """The object of each live row of predicate ``p``, in no set order,
        read from SPO's columns by one scan in C: unlike a probe of
        ``(None, p, None)``, it builds no POS run, whose first probe sorts
        every row by predicate, so a command that reads one predicate whole
        pays only for that scan."""
        pairs = self._spo.live_columns()
        return chain.from_iterable(compress(objects, map(eq, predicates, repeat(p))) for predicates, objects in pairs)

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[tuple[int, int, int]]:
        """All (s, p, o) id triples matching the given bound slots.

        ``None`` is a wildcard.  Enumeration follows the order the module
        docstring gives for the shape, so it is deterministic for a given
        store content.
        """
        if p is None and o is not None:
            if s is not None:
                for pred, _ in self._object_runs(s, o):
                    yield (s, pred, o)
                return
            pairs = chain.from_iterable(zip(subjects, repeat(pred)) for pred, subjects in self._object_runs(None, o))
            for subj, pred in sorted(pairs):
                yield (subj, pred, o)
            return
        if s is not None:
            predicates, objects, lo, hi = self._spo.run(s)
            if p is None:
                for pred, obj in zip(predicates[lo:hi], objects[lo:hi]):
                    yield (s, pred, obj)
            elif o is None:
                lo = bisect_left(predicates, p, lo, hi)
                for obj in objects[lo : bisect_right(predicates, p, lo, hi)]:
                    yield (s, p, obj)
            elif _seek(predicates, objects, p, o, lo, hi)[1]:
                yield (s, p, o)
            return
        if p is not None:
            objects, subjects, lo, hi = self._pos.run(p)
            if o is None:
                for obj, subj in zip(objects[lo:hi], subjects[lo:hi]):
                    yield (subj, p, obj)
            else:
                lo = bisect_left(objects, o, lo, hi)
                for subj in subjects[lo : bisect_right(objects, o, lo, hi)]:
                    yield (subj, p, o)
            return
        for subj, predicates, objects, lo, hi in self._spo.runs():
            for pred, obj in zip(predicates[lo:hi], objects[lo:hi]):
                yield (subj, pred, obj)

    def _object_runs(self, s: Optional[int], o: int) -> Iterator[tuple[int, array]]:
        """For each predicate, ascending, that has rows with object ``o``
        (and subject ``s``, if bound): the predicate and the run of those
        rows' subjects, ascending, cut from its POS rows."""
        for p, objects, subjects, lo, hi in self._pos.runs():
            lo = bisect_left(objects, o, lo, hi)
            hi = bisect_right(objects, o, lo, hi)
            if s is not None:
                lo = bisect_left(subjects, s, lo, hi)
                hi = bisect_right(subjects, s, lo, hi)
            if lo < hi:
                yield p, subjects[lo:hi]

    def _columns(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> tuple[array, array, int, int, Optional[int]]:
        """For a shape with the subject or the predicate bound, but not all
        three slots: the run of the permutation whose first key is bound,
        as :meth:`_Permutation.run` gives it, and the bound second key or
        None."""
        if s is not None:
            return (*self._spo.run(s), p)
        return (*self._pos.run(p), o)  # type: ignore[arg-type]

    def match_count(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> int:
        """Cheap cardinality estimate for join planning (exact for runs)."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is not None:
            return 1 if self.contains_ids(s, p, o) else 0
        if p is None and o is not None:
            return sum(len(subjects) for _, subjects in self._object_runs(s, o))
        keys, _, lo, hi, second = self._columns(s, p, o)
        if second is None:
            return hi - lo
        lo = bisect_left(keys, second, lo, hi)
        return bisect_right(keys, second, lo, hi) - lo

    def distinct_count(self, s: Optional[int], p: Optional[int], o: Optional[int], slot: int) -> int:
        """Distinct values in the wildcard ``slot`` (0, 1, 2 for s, p, o)
        among the triples matching the bound slots, for join fan-out
        estimates."""
        bound = [i for i, key in enumerate((s, p, o)) if key is not None]
        if not bound:
            return len(self.predicate_ids()) if slot == 1 else len(self._values(slot))
        if bound == [2]:
            runs = self._object_runs(None, o)  # type: ignore[arg-type]
            if slot == 0:
                return len(set().union(*(subjects for _, subjects in runs)))
            return sum(1 for _ in runs)
        if len(bound) == 1:
            second, third, lo, hi, _ = self._columns(s, p, o)
            # the permutation keyed by slot b holds slot b+1, then slot b+2
            return len(set((second if slot == (bound[0] + 1) % 3 else third)[lo:hi]))
        # Two slots bound: the free one is a run of unique values.
        return self.match_count(s, p, o)

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        predicates, objects, lo, hi = self._spo.run(s)
        return lo < hi and _seek(predicates, objects, p, o, lo, hi)[1]

    def match_terms(
        self, s: Optional[Term], p: Optional[Term], o: Optional[Term]
    ) -> Iterator[Triple]:
        """Term-level match; unknown constant terms match nothing."""
        ids: list[Optional[int]] = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                term_id = self.lookup(term)
                if term_id is None:
                    return
                ids.append(term_id)
        yield from map(self.decode_triple, self.match_ids(*ids))

    def objects(self, subject: Term, predicate: Term) -> list[Term]:
        return [t.object for t in self.match_terms(subject, predicate, None)]

    def subjects(self, predicate: Term, obj: Term) -> list[Term]:
        return [t.subject for t in self.match_terms(None, predicate, obj)]

    def triples(self) -> Iterator[Triple]:
        """All triples, decoded, in SPO index order."""
        return map(self.decode_triple, self.match_ids(None, None, None))

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def stats(self) -> dict[str, int]:
        count = self.distinct_count
        return {
            "triples": self._size,
            "terms": len(self._texts),
            "subjects": count(None, None, None, 0),
            "predicates": count(None, None, None, 1),
            "objects": count(None, None, None, 2),
        }

    def verify_indexes(self) -> bool:
        """Both permutations describe the same triple set, and each is sound
        (test hook; :func:`.store_write.verify_indexes`)."""
        return _writer().verify_indexes(self)

    # -- snapshots ---------------------------------------------------------------

    def save(self, target: Union[str, IO[bytes]]) -> None:
        """Write a canonical snapshot to a path, atomically, or to a binary
        file (:func:`.store_write.save`)."""
        _writer().save(self, target)

    def canonical_run(self) -> tuple[list[Term], array]:
        """What a snapshot holds: the live terms in canonical term order, and
        the SPO run (flat s, p, o ids into that list, ascending), whose rows
        are therefore in canonical triple order."""
        return _writer().canonical_run(self)

    def _values(self, slot: int) -> set[int]:
        """The ids in ``slot`` (0, 1 or 2 for s, p, o) of the live triples,
        read from SPO alone: its keys that have rows, or its live columns
        (:meth:`_Permutation.live_columns`)."""
        spo = self._spo
        overlay = spo.overlay
        if slot == 0:
            keys = set(spo.keys).difference(overlay)
            keys.update(key for key, columns in overlay.items() if columns[0])
            return keys
        return set().union(*(pair[slot - 1] for pair in spo.live_columns()))

    @classmethod
    def load(cls, source: Union[str, IO[bytes]]) -> "Store":
        """Read a snapshot written by :meth:`save`, checking it as it goes.

        Each section must unpack to exactly its raw length (:func:`_unpack`),
        every term must pass its constructor's checks and appear once, the
        subject counts must sum to the triple count, every id must name a
        term of the table, the SPO run must be strictly ascending, and the
        ledger section must pass :func:`_read_ledger`'s checks; anything
        else raises :class:`SnapshotError`, with the message of the first
        fault in file order.  Counts, lengths and ids are read in the byte
        order the header names.

        The checks run list-wise: each term run's payloads are decoded as
        one blob where they can be, and the run is checked as a whole by
        its constructor's rules (:func:`check_iris` and its siblings); the
        texts become the term table and fill each head's text-to-id dict,
        whose sizes show a duplicate, and no :class:`Term` is made.  The
        id columns are checked column-wise: a subject id is the position of
        its count, so only the predicate and object columns are checked for
        range, and the order check (:func:`_ascending_within`) reads one
        64-bit key per row and a flag for each subject's first row.  SPO's
        offsets come from the subject counts; the predicate and object
        columns become SPO's base run as they are, and the ledger's tag
        column its tags.  No subject column and no POS run is built
        (:meth:`_build`).  A term table in canonical order (as :meth:`save`
        writes it) is remembered as such, so the next save sorts only the
        terms interned after the load.

        The cyclic garbage collector is paused for the load, since none of
        the objects it makes forms a cycle; the caller's setting is
        restored however the load ends.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._read(source)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _read(cls, source: Union[str, IO[bytes]]) -> "Store":
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
        order = "<" if endian == 0 else ">"
        offset = len(_MAGIC) + _HEADER.size
        store = cls()
        # each section's raw bytes are dropped once read, to lower the peak
        raw, offset = _unpack(data, offset, "term section")
        runs, ordered = _decode_terms(raw, term_count, order)
        del raw
        texts, heads, ids = store._texts, store._heads, store._ids
        for head, run in runs:
            ids[head].update(zip(run, range(len(texts), len(texts) + len(run))))
            texts += run
            heads += bytes((head,)) * len(run)
        del runs
        if sum(map(len, ids)) != term_count:
            raise SnapshotError("duplicate terms in snapshot")
        store._terms = [None] * term_count
        store._loaded = term_count if ordered else 0
        raw, offset = _unpack(data, offset, "SPO run")
        if len(raw) != 4 * (term_count + 2 * triple_count):
            raise SnapshotError("SPO run does not match the header's counts")
        counts, predicates, objects = (
            _ids(raw, 4 * start, size, order)
            for start, size in ((0, term_count), (term_count, triple_count), (term_count + triple_count, triple_count))
        )
        del raw
        if sum(counts) != triple_count:
            raise SnapshotError("SPO subject counts do not sum to the triple count")
        # a subject id is the position of its count, so it is in range
        if triple_count and max(max(predicates), max(objects)) >= term_count:
            raise SnapshotError("term id out of range in SPO run")
        if not _ascending_within(counts, predicates, objects):
            raise SnapshotError("SPO run is not strictly ascending")
        raw, offset = _unpack(data, offset, "ledger section")
        store._rules, tags = _read_ledger(raw, triple_count, order)
        del raw
        store._build(counts, predicates, objects, tags)
        del counts, predicates, objects
        if offset != len(data):
            raise SnapshotError("trailing bytes after snapshot")
        return store


def _unpack(data: bytes, offset: int, what: str) -> tuple[bytes, int]:
    """The raw bytes of the section packed at ``offset``
    (:func:`.store_write._pack`), and the offset after it.  A stream that
    does not unpack to exactly its raw length, ending where its packed
    length says, raises :class:`SnapshotError` naming the section as
    ``what``."""
    try:
        size, packed = _PACKED.unpack_from(data, offset)
    except struct.error:
        raise SnapshotError(f"truncated {what}") from None
    start = offset + _PACKED.size
    end = start + packed
    if end > len(data):
        raise SnapshotError(f"truncated {what}")
    unpacker = zlib.decompressobj()
    try:
        # one byte more than the raw length shows a stream that holds more
        raw = unpacker.decompress(memoryview(data)[start:end], size + 1)
    except (zlib.error, OverflowError) as exc:
        raise SnapshotError(f"corrupt {what}: {exc}") from None
    if len(raw) != size or not unpacker.eof or unpacker.unused_data:
        raise SnapshotError(f"corrupt {what}: its stream does not unpack to its {size} bytes")
    return raw, end


def _ids(raw: bytes, start: int, count: int, order: str) -> array:
    """The ``count`` u32 values at ``start`` of ``raw``, stored in byte
    order ``order`` ("<" or ">")."""
    column = array(_ID)
    column.frombytes(memoryview(raw)[start : start + 4 * count])
    if order != _NATIVE:
        column.byteswap()
    return column


def _read_ledger(raw: bytes, triple_count: int, order: str) -> tuple[list[str], bytearray]:
    """The rule names and the tag column of a raw ledger section, checked:
    the names are UTF-8, distinct and in name order, the column holds one
    tag per triple and no more bytes follow it, every tag is at most the
    rule count, and every named rule tags a row."""
    count_at = struct.Struct(order + "I").unpack_from
    names: list[str] = []
    try:
        (rule_count,) = count_at(raw)
        at = 4
        for _ in range(rule_count):
            (size,) = count_at(raw, at)
            name = raw[at + 4 : at + 4 + size]
            if len(name) != size:
                raise SnapshotError("truncated ledger section")
            at += 4 + size
            try:
                names.append(name.decode("utf-8"))
            except UnicodeDecodeError:
                raise SnapshotError("a rule name in the ledger section is not UTF-8") from None
        (tag_count,) = count_at(raw, at)
    except struct.error:
        raise SnapshotError("truncated ledger section") from None
    if not all(map(lt, names, names[1:])):
        raise SnapshotError("the rules of the ledger section are not distinct and in name order")
    if tag_count != triple_count:
        raise SnapshotError(f"the ledger section holds {tag_count} tags, not one per triple ({triple_count})")
    tags = bytearray(memoryview(raw)[at + 4 :])
    if len(tags) != tag_count:
        raise SnapshotError("truncated ledger section" if len(tags) < tag_count else "trailing bytes in ledger section")
    if tags.translate(None, bytes(range(min(rule_count, _MAX_RULES) + 1))):
        raise SnapshotError(f"a tag in the ledger section is out of range ({rule_count} rules)")
    for tag, name in enumerate(names, 1):
        if tag > _MAX_RULES or tag not in tags:
            raise SnapshotError(f"rule {name!r} of the ledger section tags no row")
    return names, tags


def _ascending_within(counts: Sequence[int], predicates: array, objects: array) -> bool:
    """Whether the rows of each subject, counted by ``counts`` in subject
    order, are strictly ascending by (predicate, object).

    Each row's (predicate, object) pair is one 64-bit key, the predicate
    the high half, made by slice assignment of the two columns into the
    halves of one array in this host's byte order; a row whose key is not
    above the key of the row before it must begin a subject, which one flag
    byte per row marks.  No row becomes a tuple.
    """
    halves = array(_ID, (0,)) * (2 * len(predicates))
    halves[_HIGH::2], halves[1 - _HIGH::2] = predicates, objects
    keys = memoryview(halves).cast("B").cast("Q")
    # the flag of each row that begins a subject, and of the end of the run
    begins = bytearray(len(keys) + 1)
    deque(map(begins.__setitem__, accumulate(counts), repeat(1)), 0)
    # a row at or below the one before it, where it does not begin a subject
    return not any(map(gt, map(ge, keys, keys[1:]), memoryview(begins)[1:]))


# -- the permutations -------------------------------------------------------------

# the columns and bounds of a key that has no rows
_NO_ROWS = (array(_ID), array(_ID), 0, 0)


class _Permutation:
    """The triples in one key order, as (first, second, third) rows.

    The base run is the second- and third-key columns of its rows, sorted
    together by (first, second, third), and the ledger tag of each row
    (``tags``); ``start`` holds dense offsets indexed by first-key id, so
    the base rows of key ``k`` are ``start[k]:start[k + 1]``, and ``keys``
    lists the keys that have base rows, ascending.  A key outside the
    offsets has no base rows.  The overlay maps each key written since the
    base run was filled to its own columns (second, third and tags),
    sorted; reads and writes of that key use them from then on, and a key
    emptied by writes keeps empty columns, which hide its base rows.  The
    base rows of an overlay key have tag 0, so a scan of the base tags
    meets only live rows.  SPO is one; POS is a :class:`_LazyPos`, whose
    runs are cut from SPO's base run.  The writes are in
    :mod:`.store_write` (``merge``, ``cut``, ``places``).
    """

    __slots__ = ("second", "third", "tags", "start", "keys", "overlay")

    def __init__(self, counts: Sequence[int], second: Sequence[int], third: Sequence[int], tags: bytearray) -> None:
        """The base run of distinct rows sorted by (first, second, third),
        given as each first key's row count, by key id, the second and
        third columns (arrays, or lists) and the tags, with an empty
        overlay."""
        self._index(counts)
        self.second, self.third = (c if isinstance(c, array) else array(_ID, c) for c in (second, third))
        self.tags = tags
        self.overlay: dict[int, tuple[Column, ...]] = {}

    def _index(self, counts: Sequence[int]) -> None:
        """Set the offsets and keys of base rows counted by key id."""
        self.keys = array(_ID, compress(range(len(counts)), counts))
        self.start = array(_ID, accumulate(counts, initial=0))

    def base(self) -> tuple[Column, ...]:
        """The base run's columns: second, third and tags."""
        return self.second, self.third, self.tags

    def visible(self) -> list[slice]:
        """The pieces of the base run, in order, whose rows no overlay key
        hides."""
        start = self.start
        pieces: list[slice] = []
        begin = 0
        for key in sorted(self.overlay):
            if key < len(start) - 1 and start[key] < start[key + 1]:
                pieces.append(slice(begin, start[key]))
                begin = start[key + 1]
        pieces.append(slice(begin, len(self.second)))
        return pieces

    def run(self, key: int) -> tuple[array, array, int, int]:
        """The second- and third-key columns that hold the rows of ``key``,
        and the bounds of those rows in them (equal when it has none)."""
        columns = self.overlay.get(key)
        if columns is not None:
            return columns[0], columns[1], 0, len(columns[0])  # type: ignore[return-value]
        start = self.start
        if 0 <= key < len(start) - 1:
            return self.second, self.third, start[key], start[key + 1]
        return _NO_ROWS

    def live_columns(self) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
        """The second- and third-key columns of the live rows, as pairs: a
        view of each piece of the base run that no overlay key hides (no
        write resizes the base run), then each overlay key's own."""
        second, third = memoryview(self.second), memoryview(self.third)
        for piece in self.visible():
            yield second[piece], third[piece]
        for columns in self.overlay.values():
            yield columns[0], columns[1]

    def runs(self) -> Iterator[tuple[int, array, array, int, int]]:
        """Each key that has rows, ascending, with its columns and bounds
        as :meth:`run` gives them."""
        overlay, start, second, third = self.overlay, self.start, self.second, self.third
        for key in sorted(set(self.keys).union(overlay)) if overlay else self.keys:
            columns = overlay.get(key)
            if columns is None:
                yield key, second, third, start[key], start[key + 1]
            elif columns[0]:
                yield key, columns[0], columns[1], 0, len(columns[0])  # type: ignore[misc]

    def counts(self) -> array:
        """Each first key's count of base rows, by key id."""
        return array(_ID, map(sub, islice(self.start, 1, None), self.start))

    def firsts(self) -> array:
        """The first key of each base row, in order."""
        return _repeated(self.counts())

    def tagged(self, tag: int) -> list[IdTriple]:
        """The rows whose tag is ``tag``, not 0, in order (SPO only).  The
        base tags are searched in C for each run of rows with the tag
        within one key, and each overlay key's tags are scanned in C."""
        tags, start, second, third = self.tags, self.start, self.second, self.third
        select = bytearray(256)
        select[tag] = 1
        marks = tags.translate(select)
        rows: list[IdTriple] = []
        at = marks.find(1)
        while at >= 0:
            key = bisect_right(start, at) - 1
            end = marks.find(0, at, start[key + 1])
            if end < 0:
                end = start[key + 1]
            rows += zip(repeat(key), second[at:end], third[at:end])
            at = marks.find(1, end)
        for key, columns in self.overlay.items():
            if tag in columns[2]:
                rows += [(key, b, c) for b, c, t in zip(*columns) if t == tag]
        if self.overlay:
            rows.sort()
        return rows

    def tag_count(self, tag: int) -> int:
        """How many rows have tag ``tag``, not 0 (SPO only)."""
        return self.tags.count(tag) + sum(columns[2].count(tag) for columns in self.overlay.values())  # type: ignore


class _LazyPos(_Permutation):
    """POS over SPO's base run, whose rows a predicate's run is cut from
    when it is first read or written.

    ``source`` is SPO, whose base run no write changes.  The first probe
    sorts SPO's row numbers stably by predicate, once, into ``rows``, which
    ``start`` and ``keys`` index as a base run's offsets and keys do, and
    makes SPO's subject column from its offsets into ``subjects``.  A
    predicate's rows are then sorted by object and its object and subject
    columns gathered into the overlay when it is first read or written;
    from then on the overlay holds its rows, as it holds a key's written
    rows in any permutation.  Stability gives the tie order: SPO order
    within a predicate is (s, o) order, so sorting it by object gives
    (o, s), which is POS order, and no sort compares tuples.  Its own
    base-run columns stay empty, and it has no tags.
    """

    __slots__ = ("source", "rows", "subjects")

    def __init__(self, spo: _Permutation) -> None:
        super().__init__((), (), (), bytearray())
        self.source = spo
        self.rows: Optional[array] = None
        self.subjects: Optional[array] = None

    def base(self) -> tuple[Column, ...]:
        """The base run's columns, which are empty: second and third."""
        return self.second, self.third

    def _sort(self) -> array:
        """``rows``, made on the first call, with the offsets, the keys and
        the subject column."""
        if self.rows is None:
            predicates = self.source.second
            # a list hands the sort its ints without boxing each one again
            predicate = predicates.tolist().__getitem__
            rows = sorted(range(len(predicates)), key=predicate)
            # each predicate's row count, by one bisection of the sorted rows
            counts: list[int] = []
            at = 0
            while at < len(rows):
                p = predicate(rows[at])
                end = bisect_right(rows, p, at, key=predicate)
                counts += repeat(0, p - len(counts))
                counts.append(end - at)
                at = end
            self._index(counts)
            self.rows = array(_ID, rows)
            self.subjects = self.source.firsts()
        return self.rows

    def run(self, key: int) -> tuple[array, array, int, int]:
        columns = self.overlay.get(key)
        if columns is None:
            rows, start = self._sort(), self.start
            if not 0 <= key < len(start) - 1 or start[key] == start[key + 1]:
                return _NO_ROWS
            objects = self.source.third
            cut = sorted(rows[start[key] : start[key + 1]], key=objects.__getitem__)
            columns = self.overlay[key] = tuple(_gather(cut, objects, self.subjects))  # type: ignore[arg-type]
        return columns[0], columns[1], 0, len(columns[0])  # type: ignore[return-value]

    def runs(self) -> Iterator[tuple[int, array, array, int, int]]:
        self._sort()
        overlay = self.overlay
        for key in sorted(set(self.keys).union(overlay)) if overlay else self.keys:
            second, third, lo, hi = self.run(key)
            if lo < hi:
                yield key, second, third, lo, hi


def _seek(second: array, third: array, b: int, c: int, lo: int, hi: int) -> tuple[int, bool]:
    """Where (b, c) sits, or would go, among the rows ``lo:hi`` of a column
    pair, and whether it is there."""
    lo = bisect_left(second, b, lo, hi)
    hi = bisect_right(second, b, lo, hi)
    at = bisect_left(third, c, lo, hi)
    return at, at < hi and third[at] == c


def _repeated(counts: Sequence[int]) -> array:
    """Each id from 0 up, repeated by its count in ``counts``: the first-key
    column of a base run, made as the bytes of each id that has a count,
    repeated by it, so no object is made per row."""
    column = array(_ID)
    column.frombytes(b"".join(map(mul, map(_U32.pack, compress(range(len(counts)), counts)), filter(None, counts))))
    return column


def _gather(rows: list[int], *columns: Sequence[int]) -> Iterator[array]:
    """Each column's values at ``rows``, in that order."""
    return (array(_ID, map(column.__getitem__, rows)) for column in columns)


# The raw term section is one run per kind (0 IRI, 1 blank, 2 literal) and,
# for literals, per datatype: its head (the kind byte, and a literal's
# datatype byte), its term count, a column of each payload's UTF-8 length
# and the payloads as one blob; counts and lengths are u32.  Canonical order
# (term_sort_key) keeps each kind, and each datatype's literals, together,
# and the heads order the runs.  In memory a term's head is one byte, 2 + the
# datatype for a literal, so (head, text) order is canonical order.
_IRI, _BLANK, _LITERAL = 0, 1, 2
_HEADS = _LITERAL + len(Datatype)
_DATATYPES = {int(datatype): datatype for datatype in Datatype}


def _key(term: Term) -> tuple[int, str]:
    """The head and text of ``term``: its key in the term table."""
    cls = term.__class__
    if cls is Iri:
        return _IRI, term.value  # type: ignore[union-attr]
    if cls is Literal:
        return _LITERAL + term.datatype, term.lexical  # type: ignore[union-attr]
    if cls is Blank:
        return _BLANK, term.label  # type: ignore[union-attr]
    raise TypeError(f"not a term: {term!r}")


def _term(head: int, text: str) -> Term:
    """The term of ``head`` and ``text``, made without running its
    constructor's checks, which a load ran on the whole table: each field
    is set as the constructor sets it, past the class's refusal of
    assignment."""
    if head == _IRI:
        term = object.__new__(Iri)
        _setattr(term, "value", text)
    elif head == _BLANK:
        term = object.__new__(Blank)
        _setattr(term, "label", text)
    else:
        term = object.__new__(Literal)
        _setattr(term, "lexical", text)
        _setattr(term, "datatype", _DATATYPES[head - _LITERAL])
    return term


def _decode_terms(raw: bytes, count: int, order: str) -> tuple[list[tuple[int, list[str]]], bool]:
    """The runs of a raw term section that the header says holds ``count``
    terms, each as its head and its terms' texts, and whether they are in
    canonical order.

    One pass splits the section into its runs and each run's payloads; each
    run is then checked as a whole by its constructor's rules, and no term
    is built.  A fault of the layout is raised only after the terms before
    it are checked, so the message is that of the first bad term in table
    order.
    """
    runs: list[tuple[int, list[str]]] = []
    count_at = struct.Struct(order + "I").unpack_from
    size = len(raw)
    offset = total = 0
    fault: Optional[SnapshotError] = None
    try:
        while offset < size:
            head = raw[offset]
            if head == _LITERAL:
                tag = raw[offset + 1]
                if tag not in _DATATYPES:
                    raise SnapshotError(f"bad term section: unknown datatype {tag}")
                head += tag
                offset += 2
            elif head > _LITERAL:
                raise SnapshotError(f"unknown term kind: {head}")
            else:
                offset += 1
            (n,) = count_at(raw, offset)
            start = offset + 4 + 4 * n
            if start > size:
                raise SnapshotError("truncated term section")
            bounds = list(accumulate(_ids(raw, offset + 4, n, order), initial=0))
            whole = bisect_right(bounds, size - start) - 1  # the payloads that are all there
            texts: list[str] = []
            runs.append((head, texts))
            _split(raw[start : start + bounds[whole]], bounds[: whole + 1], texts)
            if whole < n:
                raise SnapshotError("truncated term payload")
            offset = start + bounds[-1]
            total += n
    except SnapshotError as exc:
        fault = exc
    except (IndexError, struct.error):
        fault = SnapshotError("truncated term section")
    except UnicodeDecodeError as exc:
        fault = SnapshotError(f"bad term section: {exc}")
    try:
        for head, texts in runs:
            if head == _IRI:
                check_iris(texts)
            elif head == _BLANK:
                check_blanks(texts)
            else:
                check_literals(texts, _DATATYPES[head - _LITERAL])
    except TermError as exc:
        raise SnapshotError(f"bad term section: {exc}") from None
    if fault is not None:
        raise fault
    if total != count:
        raise SnapshotError(f"term section holds {total} terms, not the header's {count}")
    heads = [head for head, _ in runs]
    ordered = all(map(lt, heads, heads[1:])) and all(all(map(lt, texts, texts[1:])) for _, texts in runs)
    return runs, ordered


def _split(blob: bytes, bounds: list[int], texts: list[str]) -> None:
    """Append to ``texts`` the UTF-8 payloads of ``blob`` between
    consecutive ``bounds``.  An ASCII blob is decoded whole and sliced;
    any other is decoded payload by payload, so that a fault is raised by
    the payload that holds it, once those before it are appended."""
    cuts = map(slice, bounds, islice(bounds, 1, None))
    if blob.isascii():
        texts += map(blob.decode("ascii").__getitem__, cuts)
    else:
        for cut in cuts:
            texts.append(blob[cut].decode("utf-8"))
