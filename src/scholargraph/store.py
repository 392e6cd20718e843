"""Embedded triple store with dictionary encoding and two indexes.

Terms are interned into a dictionary mapping each distinct term to a dense
integer id (ids of removed terms are never reused).  Triples live twice,
once per permutation (SPO, POS), in ``array('I')`` columns (unsigned
32-bit, the id type of a snapshot).

Both permutations have one layout (:class:`_Permutation`, after the sorted
permutation runs of RDF-3X and Hexastore): a read-only base run plus a
small copy-on-write overlay of the keys written since (differential files,
Severance & Lohman 1976).  The base run is the second- and third-key
columns, sorted together by (first, second, third), and dense offsets
indexed by first-key id, so a key's base rows are found with two array
reads and no object is made per key.  A load fills SPO's columns from the
snapshot's SPO run with ``frombytes`` and strided slices, and POS's from
two stable sorts of the row numbers.  The first write to a key copies its
rows into the overlay, a dict from the key to its own column pair; reads
and writes of that key use the pair from then on, and a key emptied by
writes keeps an empty pair there, which hides its base rows.  A batch into
an empty store becomes the base runs, so a store that was never loaded has
the same layout.  A probe on the first two keys is two array reads (or a
dict get) for the first key, a bisection of the second column and a slice
of the third.  A shape with the object bound and the predicate free
bisects the object in each predicate's POS rows (the vocabulary has few
predicates) and comes in (s, p) order; any other shape is answered by the
permutation whose prefix matches its bound slots, in its sort order.

Every write is one batch of id triples, in any order and with repeats:
:meth:`Store.add_rows` and :meth:`Store.drop_rows` sort the batch once per
permutation and rebuild each key's column pair once, with the batch's pairs
spliced in at their bisected places or cut out, so a batch costs
O(batch log batch + touched columns) rather than one array shift per
triple.  :meth:`Store.insert_many` interns its triples and makes one such
call; :meth:`Store.insert` and :meth:`Store.remove` are one-row calls.

The store also owns the inference ledger (:attr:`Store.ledger`: rule name
to the set of id triples that rule added), so a snapshot carries it and
every command that loads and saves the store keeps it without knowing of
it.  :meth:`Store.decode_triple` turns an entry back into a triple.

A snapshot numbers the live terms in canonical order.  A loaded store keeps
the snapshot's numbering as its lowest ids, so a save sorts only the terms
interned since the load and merges them into the loaded order.  That
renumbering keeps the order of loaded ids, and the base run holds loaded
ids only, so a save takes each subject's row count from SPO's offsets
and overlay, maps the base columns as they stand, cuts out the rows of
the overlay's subjects by offset, and sorts and splices in only the
overlay's rows, at the offsets the counts give (a store whose base run
holds ids that were not loaded, as in one that was never loaded, sorts
its whole run once).  ``export`` writes the same
numbering and run (:meth:`Store.canonical_run`), already in canonical
triple order.

A snapshot's sections are columnar and each is packed as one ``zlib``
stream (:func:`_pack`, :func:`_unpack`), as column stores compress each
column and decode it with a native codec rather than value by value:
the term table is one run per kind (and per datatype, for literals), each
a length column and one payload blob; the SPO run is each subject's row
count and the predicate and object columns, so a load takes SPO's offsets
from the counts rather than counting a subject column.  A load checks the
term table one run at a time by the term constructors' rules, and the id
columns whole, with the messages a term-by-term check would give; the
cyclic garbage collector is paused while it runs.

Set semantics: inserting an existing triple is a no-op, removing a missing
one reports False.  The store is safe for one writer or any number of
readers; concurrent writing is the caller's problem (the CLI serializes
writers with a lock file).
"""

from __future__ import annotations

import gc
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import attrgetter, itemgetter, le, lt, sub
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
    make_blanks,
    make_iris,
    make_literals,
    term_sort_key,
)

_setattr = object.__setattr__  # Var and TriplePattern refuse assignment


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
    """A snapshot file is malformed, or a store cannot be saved consistently."""


IdTriple = tuple[int, int, int]

# the type of every id column, and of the id runs of a snapshot: unsigned
# 32-bit, so a store holds at most 2**32 terms
_ID = "I"

_MAGIC = b"SGRAPH"
_VERSION = 3
# version, byte order (0 little, 1 big), term count, triple count
_HEADER = struct.Struct("<HBII")
# a packed section: the length of its raw bytes, then of its zlib stream
_PACKED = struct.Struct("<QQ")
# the zlib level of every section: level 1 measured the best trade of save
# time for size
_LEVEL = 1
# the byte order of a snapshot's counts, lengths and ids as this host writes
# them; the header's flag names it for a reader on another host
_NATIVE = "<" if sys.byteorder == "little" else ">"
_U32 = struct.Struct("=I")


class Store:
    """In-memory triple store; persistence via canonical snapshots.

    The commands read and write by id (:meth:`match_ids`,
    :meth:`add_rows`, :meth:`drop_rows`).  :meth:`match_terms`,
    :meth:`objects`, :meth:`subjects`, :meth:`contains` (and ``in``) are
    the public term-level read API for library callers and tests: they
    take and return :class:`Term` objects and decode each hit.
    """

    def __init__(self) -> None:
        self._terms: list[Term] = []
        self._ids: dict[Term, int] = {}
        # the two permutations of the triples (see the module docstring)
        self._spo = _Permutation((), (), ())
        self._pos = _Permutation((), (), ())
        self._size = 0
        self._blank_serial = 0
        # ids below this are the term table of the snapshot the store was
        # loaded from, in canonical order; see save
        self._loaded = 0
        # rule name -> id triples that rule added; every one is in the store
        self.ledger: dict[str, set[IdTriple]] = {}

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

    def lookup_triple(self, triple: Triple) -> Optional[IdTriple]:
        """The id triple of ``triple``; None if one of its terms has no id."""
        ids = self._ids
        s, p, o = ids.get(triple.subject), ids.get(triple.predicate), ids.get(triple.object)
        if s is None or p is None or o is None:
            return None
        return (s, p, o)

    def decode_triple(self, ids: IdTriple) -> Triple:
        terms = self._terms
        s, p, o = ids
        return Triple(terms[s], terms[p], terms[o])

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
        return self.insert_many((triple,)) == 1

    def insert_many(self, triples: Iterable[Triple]) -> int:
        """Bulk insert; returns how many were new."""
        intern = self.intern
        return len(self.add_rows((intern(t.subject), intern(t.predicate), intern(t.object)) for t in triples))

    def add_rows(self, rows: Iterable[IdTriple]) -> list[IdTriple]:
        """Add id triples, in any order and with repeats; the rows that were
        new, in SPO order.

        The batch is sorted once per permutation, and each key it touches
        gets its column pair rebuilt once, with the new pairs spliced in at
        their bisected places.  Into an empty store the batch becomes the
        base run instead (:meth:`_build`), which is what makes
        million-triple loads cheap.
        """
        batch = sorted(set(rows))
        if not self._size:
            if batch:
                columns = [list(map(itemgetter(slot), batch)) for slot in range(3)]
                if max(map(max, columns)) >= self._loaded:
                    # the base run may hold loaded ids only (see _spo_run)
                    self._loaded = 0
                self._build(_counts(columns[0]), *columns)
            return batch
        added = self._spo.merge(batch)
        if added:
            self._pos.merge(sorted([(p, o, s) for s, p, o in added]))
            self._size += len(added)
        return added

    def _build(self, counts: Sequence[int], s: Sequence[int], p: Sequence[int], o: Sequence[int]) -> None:
        """Make the id columns of distinct triples in SPO order the base runs
        of both permutations, with empty overlays; ``counts`` holds each
        subject's row count, by subject id.

        POS comes from two stable sorts of the row numbers by one integer
        key each: sorting by object leaves equal objects in (s, p) order, and
        sorting that by predicate leaves equal predicates in (o, s) order,
        which is POS order.  Stability supplies the tie order, so no sort
        compares tuples.  The columns are arrays (a load's, of which SPO
        keeps the predicate and object columns) or lists (a batch's, which
        hand the sorts their ints without boxing each one again).
        """
        rows = sorted(range(len(o)), key=o.__getitem__)
        rows.sort(key=p.__getitem__)
        self._pos = _Permutation(_counts(p), *_gather(rows, o, s))
        del rows  # before the subject offsets are made, to lower the peak
        self._spo = _Permutation(counts, p, o)
        self._size = len(o)

    def remove(self, triple: Triple) -> bool:
        """Remove one triple; False if absent.  Dictionary ids survive."""
        ids = self.lookup_triple(triple)
        return ids is not None and bool(self.drop_rows((ids,)))

    def drop_rows(self, rows: Iterable[IdTriple]) -> list[IdTriple]:
        """Remove id triples, in any order and with repeats; the rows that
        were held, in SPO order.

        Like :meth:`add_rows`, each touched key's column pair is rebuilt
        once, without the removed pairs; a key left empty keeps an empty
        overlay pair.
        """
        removed = self._spo.cut(sorted(set(rows)))
        if removed:
            self._pos.cut(sorted([(p, o, s) for s, p, o in removed]))
            self._size -= len(removed)
        return removed

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
        term_id = self._ids.get(term)
        if term_id is None:
            return False
        keyed = (lo < hi for *_, lo, hi in (self._spo.run(term_id), self._pos.run(term_id)))
        return any(keyed) or any(self._object_runs(None, term_id))

    def predicate_ids(self) -> list[int]:
        """Ids of the predicates that live triples use, ascending."""
        return list(map(itemgetter(0), self._pos.runs()))

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
                term_id = self._ids.get(term)
                if term_id is None:
                    return
                ids.append(term_id)
        terms = self._terms
        for si, pi, oi in self.match_ids(*ids):
            yield Triple(terms[si], terms[pi], terms[oi])

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
        count = self.distinct_count
        return {
            "triples": self._size,
            "terms": len(self._terms),
            "subjects": count(None, None, None, 0),
            "predicates": count(None, None, None, 1),
            "objects": count(None, None, None, 2),
        }

    def verify_indexes(self) -> bool:
        """Both permutations describe the same triple set, read through
        :meth:`_Permutation.runs`; in each, the rows so read and the base
        run are strictly ascending, the offsets and keys fit the base run,
        and every overlay pair is of equal length (test hook)."""

        def ascending(rows: list) -> bool:
            return all(map(lt, rows, rows[1:]))

        def rows(index: _Permutation) -> Optional[list[IdTriple]]:
            start = index.start
            out: list[IdTriple] = []
            for key, second, third, lo, hi in index.runs():
                out.extend(zip(repeat(key), second[lo:hi], third[lo:hi]))
            sound = (
                start[0] == 0
                and start[-1] == len(index.second) == len(index.third)
                and all(map(le, start, start[1:]))
                and list(index.keys) == [k for k in range(len(start) - 1) if start[k] < start[k + 1]]
                and ascending(list(zip(index.firsts(), index.second, index.third)))
                and all(len(second) == len(third) for second, third in index.overlay.values())
            )
            return out if sound and ascending(out) else None

        spo, pos = rows(self._spo), rows(self._pos)
        if spo is None or pos is None:
            return False
        return len(spo) == self._size and set(spo) == {(s, p, o) for p, o, s in pos}

    # -- snapshots ---------------------------------------------------------------

    def save(self, target: Union[str, IO[bytes]]) -> None:
        """Write a canonical snapshot: a header, then the term table, the SPO
        run and the ledger, each a section packed by :func:`_pack`.

        Live terms are written in one total order (:func:`term_sort_key`)
        and numbered densely in it.  The terms of the snapshot a store was
        loaded from keep that order as its lowest ids, so only the terms
        interned since are sorted: each is bisected into the loaded order,
        and dead ids drop out.  (A store that was not loaded has no loaded
        terms, so all of its terms are sorted.)  Each kind's terms, and each
        datatype's literals, are one run: a count, a column of UTF-8
        lengths and the payloads as one blob, encoded with one join.

        The SPO run is each subject's row count, for every term id, then the
        predicate and object columns of the rows in SPO order, made from the
        base columns mapped through the new numbering, with the overlay's
        rows sorted and spliced in (:meth:`_spo_run`; POS is rebuilt on
        load).  The ledger section lists each non-empty rule, in name order,
        with its triples as sorted ids.  Two stores holding the same triples
        and the same ledger therefore produce byte-identical raw sections
        regardless of how they got there, and so byte-identical snapshots
        under one ``zlib`` build; an empty ledger encodes as one that never
        existed.

        Raises :class:`SnapshotError`, writing nothing, if a ledger triple
        is not in the store.  A path is written as ``<path>.tmp``, synced
        to disk and renamed over ``path``, and then the directory is
        synced, so a crash or power loss leaves either the old snapshot or
        the new one.
        """
        missing = self._not_held(self.ledger.values())
        if missing:
            name = min(name for name, entry in self.ledger.items() if not missing.isdisjoint(entry))
            ids = next(ids for ids in self.ledger[name] if ids in missing)
            from .ntriples import serialize_triple

            triple = serialize_triple(self.decode_triple(ids))
            raise SnapshotError(f"ledger triple for rule {name!r} is not in the store: {triple}")
        terms, order, renumber = self._numbering()
        counts, predicates, objects = self._spo_run(order, renumber)
        names = [name for name in sorted(self.ledger) if self.ledger[name]]
        ledger: list[Union[bytes, array]] = [_U32.pack(len(names))]
        for name in names:
            entry = self.ledger[name]
            if renumber is None:
                rows = sorted(entry)
            else:
                rows = sorted(zip(*(map(renumber.__getitem__, map(itemgetter(k), entry)) for k in range(3))))
            raw = name.encode("utf-8")
            ledger.append(struct.pack("=II", len(raw), len(rows)) + raw)
            ledger.append(array(_ID, chain.from_iterable(rows)))
        # the sections are written chunk by chunk, so none is copied into another
        body = [_MAGIC + _HEADER.pack(_VERSION, 0 if _NATIVE == "<" else 1, len(terms), self._size)]
        body += _pack(_term_section(terms))
        body += _pack((counts, predicates, objects))
        body += _pack(ledger)
        if not isinstance(target, str):
            target.write(b"".join(body))
            return
        temporary = target + ".tmp"
        try:
            with open(temporary, "wb") as fp:
                fp.writelines(body)
                fp.flush()
                os.fsync(fp.fileno())
            os.replace(temporary, target)
        except BaseException:
            if os.path.exists(temporary):
                os.unlink(temporary)
            raise
        # the rename survives a power loss only once its directory is synced
        directory = os.open(os.path.dirname(target) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def canonical_run(self) -> tuple[list[Term], array]:
        """What a snapshot holds: the live terms in canonical term order, and
        the SPO run (flat s, p, o ids into that list, ascending), whose rows
        are therefore in canonical triple order."""
        terms, order, renumber = self._numbering()
        counts, predicates, objects = self._spo_run(order, renumber)
        run = array(_ID, bytes(12 * len(predicates)))
        run[0::3], run[1::3], run[2::3] = _repeated(counts), predicates, objects
        return terms, run

    def _values(self, slot: int) -> set[int]:
        """The ids in ``slot`` (0 for subjects, 2 for objects) of the live
        triples, read from POS's third or second columns."""
        runs = self._pos.runs()
        return set().union(*((subjects if slot == 0 else objects)[lo:hi] for _, objects, subjects, lo, hi in runs))

    def _not_held(self, entries: Iterable[set[IdTriple]]) -> set[IdTriple]:
        """The id triples of ``entries`` that the store does not hold: their
        union less the rows of the subjects they name."""
        missing: set[IdTriple] = set().union(*entries)
        for s in set(map(itemgetter(0), missing)):
            predicates, objects, lo, hi = self._spo.run(s)
            missing.difference_update(zip(repeat(s), predicates[lo:hi], objects[lo:hi]))
        return missing

    def _numbering(self) -> tuple[list[Term], list[int], Optional[list[int]]]:
        """The live terms in canonical term order, their old ids in that
        order, and the new id of each old id (None when every id keeps its
        own): the one numbering of :meth:`save` and :meth:`canonical_run`.

        Loaded ids are in that order already; each term interned since the
        load is bisected into them, in the order of its sort key.
        """
        live = self._values(0)
        live.update(self._values(2), self.predicate_ids())
        ids = sorted(live)
        loaded_count = self._loaded
        split = bisect_left(ids, loaded_count)
        loaded, fresh = ids[:split], ids[split:]
        terms = self._terms
        keys = list(map(term_sort_key, map(terms.__getitem__, fresh)))
        ranked = sorted(range(len(fresh)), key=keys.__getitem__)
        if not loaded:  # no loaded term to merge into, as in a store that was not loaded
            order = list(map(fresh.__getitem__, ranked))
        else:
            order, start = [], 0
            for k in ranked:
                # where the term falls among all loaded ids, then among the live ones
                at = bisect_left(loaded, bisect_left(terms, keys[k], 0, loaded_count, key=term_sort_key), start)
                order += loaded[start:at]
                order.append(fresh[k])
                start = at
            order += loaded[start:]
        live_terms = list(map(terms.__getitem__, order))
        if order == list(range(len(terms))):
            return live_terms, order, None
        renumber = [0] * len(terms)  # dead ids keep 0; nothing reads them
        for new_id, old_id in enumerate(order):
            renumber[old_id] = new_id
        return live_terms, order, renumber

    def _spo_run(self, order: list[int], renumber: Optional[list[int]]) -> tuple[array, array, array]:
        """The SPO run under the new numbering (:meth:`_numbering`): each live
        term's count of rows as subject, in the new order, and the predicate
        and object columns of the rows in SPO order.

        The counts come from SPO's offsets and overlay.  The base rows of
        the subjects not written are cut out of the base columns by offset
        and mapped as whole columns.  The numbering keeps the order of
        loaded ids, and the base run holds loaded ids only, so those rows
        stay in order, and only the overlay's rows are sorted and spliced in,
        each subject's at the offset that the counts give it.
        """
        spo = self._spo
        overlay, offsets = spo.overlay, spo.start
        counts = spo.counts()
        counts.extend(repeat(0, len(self._terms) - len(counts)))
        pieces: list[slice] = []  # the base rows of the subjects not written
        begin = 0
        for s in sorted(overlay):
            counts[s] = len(overlay[s][0])
            if s < len(offsets) - 1 and offsets[s] < offsets[s + 1]:
                pieces.append(slice(begin, offsets[s]))
                begin = offsets[s + 1]
        pieces.append(slice(begin, len(spo.second)))
        counts = array(_ID, map(counts.__getitem__, order))
        columns = [spo.second, spo.third]
        if len(pieces) > 1:
            columns = [_joined(column, pieces) for column in columns]
        fresh = [(s, p, o) for s, pair in overlay.items() for p, o in zip(*pair)]
        if renumber is not None:
            fresh = [(renumber[s], renumber[p], renumber[o]) for s, p, o in fresh]
            if not self._loaded:
                # every term is new, so no order survives: one sort of all rows
                subjects = spo.firsts()
                if len(pieces) > 1:
                    subjects = _joined(subjects, pieces)
                rows = zip(*(map(renumber.__getitem__, column) for column in (subjects, *columns)))
                run = array(_ID, chain.from_iterable(sorted(chain(rows, fresh))))
                return counts, run[1::3], run[2::3]
            columns = [array(_ID, map(renumber.__getitem__, column)) for column in columns]
        if fresh:
            fresh.sort()
            starts = array(_ID, accumulate(counts, initial=0))
            out = [array(_ID), array(_ID)]
            start = spliced = 0
            for s, group in groupby(fresh, itemgetter(0)):
                rows = list(group)
                # the subject's offset, less the overlay rows spliced before it
                at = starts[s] - spliced
                for k, column in enumerate(out):
                    column += columns[k][start:at]
                    column.extend(map(itemgetter(k + 1), rows))
                spliced += len(rows)
                start = at
            for k, column in enumerate(out):
                column += columns[k][start:]
            columns = out
        return counts, columns[0], columns[1]

    @classmethod
    def load(cls, source: Union[str, IO[bytes]]) -> "Store":
        """Read a snapshot written by :meth:`save`, checking it as it goes.

        Each section must unpack to exactly its raw length (:func:`_unpack`),
        every term must pass its constructor's checks and appear once, the
        subject counts must sum to the triple count, every id must name a
        term of the table, the SPO run and each ledger rule's triples must be
        strictly ascending, and every ledger triple must be in the SPO run;
        anything else raises :class:`SnapshotError`, with the message of the
        first fault in file order.  Counts, lengths and ids are read in the
        byte order the header names.

        The checks run list-wise: each term run's payloads are decoded as
        one blob where they can be, and the run is checked by its
        constructor's rules and built as a whole (:func:`make_iris` and its
        siblings); the id columns are checked whole.  SPO's offsets come
        from the subject counts, and its subject column, which the order
        check and POS's rebuild read, is each subject repeated by its count;
        the predicate and object columns become SPO's base run as they are.
        Each ledger rule is checked as it is read, against the rows of the
        subjects it names, in one set difference.  A term table in
        canonical order (as :meth:`save` writes it) is remembered as such,
        so the next save sorts only the terms interned after the load.

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
        store._terms, ordered = _decode_terms(raw, term_count, order)
        del raw
        store._ids = dict(zip(store._terms, range(term_count)))
        if len(store._ids) != term_count:
            raise SnapshotError("duplicate terms in snapshot")
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
        subjects = _repeated(counts)
        _check_rows((subjects, predicates, objects), term_count, "SPO run")
        store._build(counts, subjects, predicates, objects)
        del counts, subjects, predicates, objects
        raw, offset = _unpack(data, offset, "ledger section")
        sizes = struct.Struct(order + "II").unpack_from
        try:
            (rule_count,) = struct.unpack_from(order + "I", raw)
            at = 4
            previous = None
            for _ in range(rule_count):
                name_size, count = sizes(raw, at)
                at += 8
                name_raw = raw[at : at + name_size]
                if len(name_raw) != name_size:
                    raise SnapshotError("truncated ledger section")
                at += name_size
                try:
                    name = name_raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise SnapshotError("ledger rule name is not UTF-8") from None
                if not count or (previous is not None and name <= previous):
                    raise SnapshotError("ledger rules are not distinct, non-empty and in name order")
                previous = name
                entry, at = _read_id_run(raw, at, count, order, term_count, f"ledger of rule {name!r}")
                triples = store.ledger[name] = set(zip(*entry))
                if store._not_held((triples,)):
                    raise SnapshotError(f"ledger of rule {name!r} names a triple the snapshot does not hold")
            if at != len(raw):
                raise SnapshotError("trailing bytes in ledger section")
        except struct.error:
            raise SnapshotError("truncated ledger section") from None
        del raw
        if offset != len(data):
            raise SnapshotError("trailing bytes after snapshot")
        return store


def _pack(pieces: Iterable[Union[bytes, array]]) -> list[bytes]:
    """The section whose raw bytes are ``pieces``, concatenated, as a
    snapshot holds it: the raw length and the length of one ``zlib`` stream
    of them at :data:`_LEVEL`, then the stream, as chunks to write in turn."""
    packer = zlib.compressobj(_LEVEL)
    chunks = [b""]
    size = 0
    for piece in pieces:
        size += memoryview(piece).nbytes
        chunks.append(packer.compress(piece))
    chunks.append(packer.flush())
    chunks[0] = _PACKED.pack(size, sum(map(len, chunks)))
    return chunks


def _unpack(data: bytes, offset: int, what: str) -> tuple[bytes, int]:
    """The raw bytes of the section packed at ``offset`` (:func:`_pack`),
    and the offset after it.  A stream that does not unpack to exactly its
    raw length, ending where its packed length says, raises
    :class:`SnapshotError` naming the section as ``what``."""
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


def _check_rows(columns: tuple[array, array, array], term_count: int, what: str) -> None:
    """Raise :class:`SnapshotError` unless the id columns of ``what`` name
    terms of the table and their rows are strictly ascending."""
    if columns[0] and max(map(max, columns)) >= term_count:
        raise SnapshotError(f"term id out of range in {what}")
    following = zip(*columns)
    next(following, None)
    if not all(map(lt, zip(*columns), following)):
        raise SnapshotError(f"{what} is not strictly ascending")


def _read_id_run(
    raw: bytes, offset: int, count: int, order: str, term_count: int, what: str
) -> tuple[tuple[array, array, array], int]:
    """The s, p and o columns of ``count`` id triples stored as rows at
    ``offset``, checked by :func:`_check_rows`, and the offset after them."""
    end = offset + count * 12
    if end > len(raw):
        raise SnapshotError(f"truncated {what}")
    run = _ids(raw, offset, 3 * count, order)
    columns = (run[0::3], run[1::3], run[2::3])
    del run
    _check_rows(columns, term_count, what)
    return columns, end


def _joined(column: array, pieces: list[slice]) -> array:
    """The items of ``column`` in ``pieces``, in order, as one column."""
    out = array(_ID)
    for piece in pieces:
        out += column[piece]
    return out


# -- the permutations -------------------------------------------------------------

# the columns and bounds of a key that has no rows
_NO_ROWS = (array(_ID), array(_ID), 0, 0)


class _Permutation:
    """The triples in one key order, as (first, second, third) rows.

    The base run is the second- and third-key columns of its rows, sorted
    together by (first, second, third); ``start`` holds dense offsets
    indexed by first-key id, so the base rows of key ``k`` are
    ``start[k]:start[k + 1]``, and ``keys`` lists the keys that have base
    rows, ascending.  A key outside the offsets has no base rows.  The
    overlay maps each key written since the base run was filled to its own
    (second, third) column pair, sorted; reads and writes of that key use
    the pair from then on, and a key emptied by writes keeps an empty pair,
    which hides its base rows.
    """

    __slots__ = ("second", "third", "start", "keys", "overlay")

    def __init__(self, counts: Sequence[int], second: Sequence[int], third: Sequence[int]) -> None:
        """The base run of distinct rows sorted by (first, second, third),
        given as each first key's row count, by key id, and the second and
        third columns (arrays, or lists), with an empty overlay."""
        self.keys = array(_ID, compress(range(len(counts)), counts))
        self.start = array(_ID, accumulate(counts, initial=0))
        self.second, self.third = (c if isinstance(c, array) else array(_ID, c) for c in (second, third))
        self.overlay: dict[int, tuple[array, array]] = {}

    def run(self, key: int) -> tuple[array, array, int, int]:
        """The second- and third-key columns that hold the rows of ``key``,
        and the bounds of those rows in them (equal when it has none)."""
        pair = self.overlay.get(key)
        if pair is not None:
            return pair[0], pair[1], 0, len(pair[0])
        start = self.start
        if 0 <= key < len(start) - 1:
            return self.second, self.third, start[key], start[key + 1]
        return _NO_ROWS

    def runs(self) -> Iterator[tuple[int, array, array, int, int]]:
        """Each key that has rows, ascending, with its columns and bounds
        as :meth:`run` gives them."""
        overlay, start, second, third = self.overlay, self.start, self.second, self.third
        for key in sorted(set(self.keys).union(overlay)) if overlay else self.keys:
            pair = overlay.get(key)
            if pair is None:
                yield key, second, third, start[key], start[key + 1]
            elif pair[0]:
                yield key, pair[0], pair[1], 0, len(pair[0])

    def counts(self) -> array:
        """Each first key's count of base rows, by key id."""
        return array(_ID, map(sub, islice(self.start, 1, None), self.start))

    def firsts(self) -> array:
        """The first key of each base row, in order."""
        return _repeated(self.counts())

    def _own(self, key: int) -> Optional[tuple[array, array]]:
        """The column pair a write to ``key`` starts from: its overlay pair,
        or a copy of its base rows (which the write then puts in the
        overlay), or None when it has no rows."""
        pair = self.overlay.get(key)
        if pair is not None:
            return pair
        second, third, lo, hi = self.run(key)
        return (second[lo:hi], third[lo:hi]) if lo < hi else None

    def merge(self, rows: list[IdTriple]) -> list[IdTriple]:
        """Put sorted, distinct (first, second, third) rows in; the rows
        that were not there, in order."""
        added: list[IdTriple] = []
        for first, run in groupby(rows, itemgetter(0)):
            columns = self._own(first)
            if columns is None:
                group = list(run)
                self.overlay[first] = (array(_ID, [row[1] for row in group]), array(_ID, [row[2] for row in group]))
                added += group
                continue
            second, third = columns
            size = len(second)
            cuts: list[int] = []
            fresh: list[IdTriple] = []
            for row in run:
                at, found = _seek(second, third, row[1], row[2], 0, size)
                if not found:
                    cuts.append(at)
                    fresh.append(row)
            if fresh:
                self.overlay[first] = _spliced(columns, cuts, fresh)
                added += fresh
        return added

    def cut(self, rows: list[IdTriple]) -> list[IdTriple]:
        """Take sorted, distinct (first, second, third) rows out; the rows
        that were there, in order."""
        removed: list[IdTriple] = []
        for first, run in groupby(rows, itemgetter(0)):
            columns = self._own(first)
            if columns is None:
                continue
            second, third = columns
            group = list(run)
            if (
                len(group) == len(second)
                and second == array(_ID, [row[1] for row in group])
                and third == array(_ID, [row[2] for row in group])
            ):
                # the whole key goes, as when a rule's predicate is retracted
                removed += group
                self.overlay[first] = (array(_ID), array(_ID))
                continue
            cuts: list[int] = []
            for row in group:
                at, found = _seek(second, third, row[1], row[2], 0, len(second))
                if found:
                    cuts.append(at)
                    removed.append(row)
            if cuts:
                self.overlay[first] = _spliced(columns, cuts)
        return removed


def _seek(second: array, third: array, b: int, c: int, lo: int, hi: int) -> tuple[int, bool]:
    """Where (b, c) sits, or would go, among the rows ``lo:hi`` of a column
    pair, and whether it is there."""
    lo = bisect_left(second, b, lo, hi)
    hi = bisect_right(second, b, lo, hi)
    at = bisect_left(third, c, lo, hi)
    return at, at < hi and third[at] == c


def _spliced(
    columns: tuple[array, array], cuts: list[int], rows: Optional[list[IdTriple]] = None
) -> tuple[array, array]:
    """A column pair with the second and third keys of ``rows[k]`` put
    before position ``cuts[k]`` (ascending), or, with no rows, without
    those positions.

    The columns are changed in place when the shifts that takes move fewer
    items than a copy would (one row into a long column, or rows near its
    end); otherwise each is copied once, in pieces between the cuts.
    """
    second, third = columns
    size = len(second)
    if len(cuts) * size - sum(cuts) <= size:
        if rows is None:
            for at in reversed(cuts):
                del second[at]
                del third[at]
        else:
            for at, row in zip(reversed(cuts), reversed(rows)):
                second.insert(at, row[1])
                third.insert(at, row[2])
        return columns
    out_second, out_third = array(_ID), array(_ID)
    start = 0
    for k, at in enumerate(cuts):
        out_second += second[start:at]
        out_third += third[start:at]
        if rows is None:
            at += 1
        else:
            out_second.append(rows[k][1])
            out_third.append(rows[k][2])
        start = at
    out_second += second[start:]
    out_third += third[start:]
    return out_second, out_third


def _repeated(counts: Sequence[int]) -> array:
    """Each id from 0 up, repeated by its count in ``counts``: the first-key
    column of a base run."""
    return array(_ID, chain.from_iterable(map(repeat, range(len(counts)), counts)))


def _counts(keys: Iterable[int]) -> array:
    """How many times each id occurs in ``keys``, by id, up to the largest."""
    counts = Counter(keys)
    return array(_ID, map(counts.get, range(max(counts) + 1 if counts else 0), repeat(0)))


def _gather(rows: list[int], *columns: Sequence[int]) -> Iterator[array]:
    """Each column's values at ``rows``, in that order."""
    return (array(_ID, map(column.__getitem__, rows)) for column in columns)


# The raw term section is one run per kind (0 IRI, 1 blank, 2 literal) and,
# for literals, per datatype: its head (the kind byte, and a literal's
# datatype byte), its term count, a column of each payload's UTF-8 length
# and the payloads as one blob; counts and lengths are u32.  Canonical order
# (term_sort_key) keeps each kind, and each datatype's literals, together,
# and the heads order the runs.
_DATATYPES = {int(datatype): datatype for datatype in Datatype}
_TEXT = {Iri: attrgetter("value"), Blank: attrgetter("label"), Literal: attrgetter("lexical")}


def _head(term: Term) -> bytes:
    if isinstance(term, Iri):
        return b"\0"
    if isinstance(term, Blank):
        return b"\1"
    return bytes((2, term.datatype))


def _term_section(terms: list[Term]) -> Iterator[Union[bytes, array]]:
    """The raw term section of ``terms``, which are in canonical order, as
    pieces: each run is encoded with one join and one length column."""
    start = 0
    while start < len(terms):
        head = _head(terms[start])
        end = bisect_right(terms, head, start, key=_head)
        texts = list(map(_TEXT[type(terms[start])], terms[start:end]))
        joined = "".join(texts)
        blob = joined.encode("utf-8")
        # an ASCII payload's length in bytes is its length in characters
        raws = texts if len(blob) == len(joined) else map(str.encode, texts)
        yield head + _U32.pack(end - start)
        yield array(_ID, map(len, raws))
        yield blob
        start = end


def _decode_terms(raw: bytes, count: int, order: str) -> tuple[list[Term], bool]:
    """The terms of a raw term section that the header says holds
    ``count``, and whether they are in canonical order.

    One pass splits the section into its runs and each run's payloads; each
    run is then checked by its constructor's rules and built as a whole.  A
    fault of the layout is raised only after the terms before it are
    checked, so the message is that of the first bad term in table order.
    """
    runs: list[tuple[int, list[str]]] = []  # (kind << 8 | datatype, payloads)
    count_at = struct.Struct(order + "I").unpack_from
    size = len(raw)
    offset = total = 0
    fault: Optional[SnapshotError] = None
    try:
        while offset < size:
            kind = raw[offset]
            if kind == 2:
                tag = raw[offset + 1]
                if tag not in _DATATYPES:
                    raise SnapshotError(f"bad term section: unknown datatype {tag}")
                offset += 2
            elif kind > 2:
                raise SnapshotError(f"unknown term kind: {kind}")
            else:
                tag = 0
                offset += 1
            (n,) = count_at(raw, offset)
            start = offset + 4 + 4 * n
            if start > size:
                raise SnapshotError("truncated term section")
            bounds = list(accumulate(_ids(raw, offset + 4, n, order), initial=0))
            whole = bisect_right(bounds, size - start) - 1  # the payloads that are all there
            texts: list[str] = []
            runs.append((kind << 8 | tag, texts))
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
    terms: list[Term] = []
    try:
        for key, texts in runs:
            kind, tag = divmod(key, 256)
            if kind == 0:
                terms += make_iris(texts)
            elif kind == 1:
                terms += make_blanks(texts)
            else:
                terms += make_literals(texts, _DATATYPES[tag])
    except TermError as exc:
        raise SnapshotError(f"bad term section: {exc}") from None
    if fault is not None:
        raise fault
    if total != count:
        raise SnapshotError(f"term section holds {total} terms, not the header's {count}")
    keys = [key for key, _ in runs]
    ordered = all(map(lt, keys, keys[1:])) and all(all(map(lt, texts, texts[1:])) for _, texts in runs)
    return terms, ordered


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
