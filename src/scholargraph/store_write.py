"""The write half of the store: batch writes, the ledger's writes, the
snapshot writer and the test hooks of the permutations.

:mod:`.store` opens a snapshot and answers every read.  Each :class:`Store`
method that changes the store or writes it out (:meth:`Store.add_rows`,
:meth:`Store.drop_rows`, :meth:`Store.retag`, :meth:`Store.save`,
:meth:`Store.canonical_run`) and the test hook :meth:`Store.verify_indexes`
is a one-line delegate to the function of the same name here, which takes
the store as its first argument and is imported on the first such call.  So
a command that only reads (``stats``, ``validate``, a SELECT-only ``query``)
never imports, and never compiles, this module.

Every write is one batch of id triples, in any order and with repeats:
:func:`add_rows` and :func:`drop_rows` sort the batch once per permutation
(a batch already sorted and distinct is only checked), seek each row within
the bounds where :meth:`_Permutation.run` finds its key's rows, and rebuild
once the columns of each key that gains or loses a row, with the batch's
rows spliced in at their places or cut out (:func:`merge`, :func:`cut`), so
a batch costs O(batch log batch + changed columns) rather than one array
shift per triple, and a key the batch leaves as it is is not copied.  A key
with no rows, or whose new rows all sort after its last one, takes them at
its end unsought, and a drop of every row of a predicate empties its POS run
whole.  A batch into an empty store becomes SPO's base run
(:meth:`Store._build`), so a store that was never loaded has the layout of
a loaded one: a counting sort on subject fills the dense offsets of
:class:`_Permutation` and puts each row at its subject's next free place,
then the rows of each subject found out of order by one pass in C are
sorted and de-duplicated (:func:`_base_run`, :func:`_ordered`), so no row
becomes a tuple.  Such a batch may come as three id columns
(:class:`IdColumns`), as ``map``'s does.

A snapshot numbers the live terms in canonical order (:func:`_numbering`),
sorting the fresh terms by text and then, stably, by head, so no key is
made per term.  A loaded store keeps the snapshot's numbering as its
lowest ids, so a save sorts only the terms interned since the load and
merges them into the loaded order.  That renumbering keeps the order of
loaded ids, and the base run holds loaded ids only, so a save takes each
subject's row count from SPO's offsets and overlay, maps the base columns
as they stand, and builds the run subject by subject (:func:`_spo_run`):
the base rows between two written subjects are one slice, and each
written subject's overlay columns go in at the offset the counts give,
sorted only when they hold a term interned since the load, so no list of
the written rows as tuples is built.
A store whose base run holds ids that were not loaded, as one that was
never loaded, takes each subject's rows as slices in the order of its new
id, renumbers them, and sorts only the subjects that the new numbering
puts out of order (:func:`_ordered`).  The live terms are
marked in one byte per term id from SPO alone, so a save builds no POS run
and no term.  ``export`` writes the same numbering and run
(:func:`canonical_run`), already in canonical triple order.  Each section
is packed as one ``zlib`` stream (:func:`_pack`), and each u32 column in it
goes in as four byte planes, least significant first (:func:`_planes`), each
a strided slice of the column's bytes fed straight to the stream, so no
section is concatenated and no id is byteswapped: a snapshot has one byte
order, whatever the host's.
"""

from __future__ import annotations

import os
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from operator import itemgetter, le, lt
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .store import (
    _COUNT,
    _HEADER,
    _ID,
    _LITERAL,
    _MAGIC,
    _MAX_RULES,
    _PACKED,
    _PLANES,
    _VERSION,
    Column,
    IdTriple,
    LedgerError,
    Store,
    _LazyPos,
    _out_of_order,
    _pair_keys,
    _Permutation,
    _repeated,
    _seek,
)
from .terms import Term

# the zlib level of every section: level 1 measured the best trade of save
# time for size
_LEVEL = 1


# -- batch writes ------------------------------------------------------------------


class IdColumns(NamedTuple):
    """A batch of id triples as three ``array('I')`` columns of one length:
    row k is (subjects[k], predicates[k], objects[k])."""

    subjects: array
    predicates: array
    objects: array


def add_rows(
    store: Store, rows: Union[Iterable[IdTriple], IdColumns], rule: Optional[str] = None
) -> Union[list[IdTriple], IdColumns]:
    """:meth:`Store.add_rows`: the batch is sorted once per permutation
    (:func:`_distinct`), and each key it adds a row to gets its columns
    rebuilt once, with the new rows spliced in at their bisected places.
    Into an empty store the batch becomes the base run instead
    (:func:`_base_run`, :meth:`Store._build`), which is what makes
    million-triple loads cheap.  The new rows come back in the form the
    batch came in: id triples, or :class:`IdColumns`."""
    tag = _tag(store, rule)
    if not store._size:
        batch = rows if isinstance(rows, IdColumns) else _columns(rows)
        counts, second, third = _base_run(batch)
        if second:
            if max(map(max, batch)) >= store._loaded:
                # the base run may hold loaded ids only (see _spo_run)
                store._loaded = 0
            store._build(counts, second, third, bytearray((tag,)) * len(second))
        if isinstance(rows, IdColumns):
            return IdColumns(_repeated(counts), second[:], third[:])
        return list(zip(_repeated(counts), second, third))
    added = merge(store._spo, _distinct(zip(*rows) if isinstance(rows, IdColumns) else rows), tag)
    if added:
        merge(store._pos, sorted([(p, o, s) for s, p, o in added]))
        store._size += len(added)
    return _columns(added) if isinstance(rows, IdColumns) else added


def drop_rows(store: Store, rows: Iterable[IdTriple]) -> list[IdTriple]:
    """:meth:`Store.drop_rows`: like :func:`add_rows`, each key that loses
    a row gets its columns rebuilt once, without the removed rows; a key
    left empty keeps empty overlay columns.  A predicate that loses every
    row, as when ``retract`` drops a rule's, has its POS run emptied whole,
    and only the rows of the other predicates are sorted into POS order."""
    removed = cut(store._spo, _distinct(rows))
    if removed:
        pos = store._pos
        emptied = {p for p, count in Counter(map(itemgetter(1), removed)).items() if count == _pos_size(pos, p)}
        for p in emptied:
            pos.overlay[p] = (array(_ID), array(_ID))
        cut(pos, sorted([(p, o, s) for s, p, o in removed if p not in emptied]))
        store._size -= len(removed)
    return removed


# -- the ledger's writes -------------------------------------------------------------


def _tag(store: Store, rule: Optional[str]) -> int:
    """The tag of ``rule`` (0 for None, a base fact), naming a new rule in
    the store's table on first use."""
    if rule is None:
        return 0
    rules = store._rules
    if rule in rules:
        return rules.index(rule) + 1
    if len(rules) == _MAX_RULES:
        raise LedgerError(f"a ledger names at most {_MAX_RULES} rules, so it cannot name {rule!r}")
    rules.append(rule)
    return len(rules)


def retag(store: Store, rows: Iterable[IdTriple], rule: Optional[str]) -> int:
    """:meth:`Store.retag`: each held row's tag is set in place, a key's
    whole run as one slice when the rows are all of it."""
    places_of, missing = places(store._spo, _distinct(rows))
    if missing is not None:
        from .ntriples import serialize_triple

        triple = serialize_triple(store.decode_triple(missing))
        raise LedgerError(f"ledger triple for rule {rule!r} is not in the store: {triple}")
    tag = _tag(store, rule)
    changed = 0
    for tags, lo, hi in places_of:
        changed += hi - lo - tags.count(tag, lo, hi)
        tags[lo:hi] = bytes((tag,)) * (hi - lo)
    return changed


# -- the permutations' writes -----------------------------------------------------------


def _own(index: _Permutation, key: int, lo: int, hi: int) -> tuple[Column, ...]:
    """The overlay columns of ``key``, which a write changes: on the first
    write, a copy of its base rows ``lo:hi`` (none or more, as
    :meth:`_Permutation.run` bounds them), whose base tags are then
    cleared, since the overlay hides those rows.  (POS's base run is empty,
    and its runs are built into its overlay when read.)"""
    columns = index.overlay.get(key)
    if columns is None:
        columns = index.overlay[key] = tuple(column[lo:hi] for column in index.base())
        index.tags[lo:hi] = bytes(hi - lo)
    return columns


def merge(index: _Permutation, rows: list[IdTriple], tag: int = 0) -> list[IdTriple]:
    """Put sorted, distinct (first, second, third) rows in, tagged ``tag``
    in SPO; the rows that were not there, in order.  Only a key that gets a
    new row is copied into the overlay.  A key's rows are sought one by one
    unless it has none, or they all sort after its last row, when they are
    all new and go at its end."""
    added: list[IdTriple] = []
    for first, run in groupby(rows, itemgetter(0)):
        second, third, lo, hi = index.run(first)
        group = list(run)
        if lo == hi or (second[hi - 1], third[hi - 1]) < group[0][1:]:
            # every row is new and goes after the key's last one, as a
            # rule's rows do under a predicate it mints: no seek
            for column, values in zip(_own(index, first, lo, hi), _row_columns(group, tag)):
                column += values
            added += group
            continue
        cuts: list[int] = []
        fresh: list[IdTriple] = []
        for row in group:
            at, found = _seek(second, third, row[1], row[2], lo, hi)
            if not found:
                cuts.append(at - lo)
                fresh.append(row)
        if fresh:
            index.overlay[first] = _spliced(_own(index, first, lo, hi), cuts, fresh, tag)
            added += fresh
    return added


def cut(index: _Permutation, rows: list[IdTriple]) -> list[IdTriple]:
    """Take sorted, distinct (first, second, third) rows out; the rows that
    were there, in order.  Only a key that loses a row is copied into the
    overlay."""
    removed: list[IdTriple] = []
    for first, run in groupby(rows, itemgetter(0)):
        second, third, lo, hi = index.run(first)
        group = list(run)
        if _all_of(group, second, third, lo, hi):
            # the whole key goes, as when a rule's predicate is retracted
            cuts, held = list(range(hi - lo)), group
        else:
            cuts, held = [], []
            for row in group:
                at, found = _seek(second, third, row[1], row[2], lo, hi)
                if found:
                    cuts.append(at - lo)
                    held.append(row)
        if cuts:
            index.overlay[first] = _spliced(_own(index, first, lo, hi), cuts)
            removed += held
    return removed


def places(index: _Permutation, rows: list[IdTriple]) -> tuple[list[tuple[bytearray, int, int]], Optional[IdTriple]]:
    """The tag column and bounds of the tags of the sorted, distinct rows,
    a key's whole run at once when they are all its rows, and the first row
    not held, or None (SPO only)."""
    out: list[tuple[bytearray, int, int]] = []
    for first, run in groupby(rows, itemgetter(0)):
        columns = index.overlay.get(first)
        tags = index.tags if columns is None else columns[2]
        second, third, lo, hi = index.run(first)
        group = list(run)
        if _all_of(group, second, third, lo, hi):
            out.append((tags, lo, hi))  # type: ignore[arg-type]
            continue
        for row in group:
            at, found = _seek(second, third, row[1], row[2], lo, hi)
            if not found:
                return out, row
            out.append((tags, at, at + 1))  # type: ignore[arg-type]
    return out, None


def _pos_size(pos: _LazyPos, key: int) -> int:
    """How many rows predicate ``key`` has, read from the offsets of one not
    yet cut, so that its run is not built."""
    columns = pos.overlay.get(key)
    if columns is not None:
        return len(columns[0])
    pos._sort()
    start = pos.start
    return start[key + 1] - start[key] if 0 <= key < len(start) - 1 else 0


def _all_of(group: list[IdTriple], second: array, third: array, lo: int, hi: int) -> bool:
    """Whether the sorted, distinct rows ``group`` of one key are all the
    rows ``lo:hi`` of a column pair."""
    return (
        len(group) == hi - lo
        and second[lo:hi] == array(_ID, [row[1] for row in group])
        and third[lo:hi] == array(_ID, [row[2] for row in group])
    )


def _distinct(rows: Iterable[IdTriple]) -> list[IdTriple]:
    """``rows`` as a strictly ascending list: a list that is one already
    (as what :meth:`Store.ledger_rows` returns) is returned as it is, found
    by one pass of tuple compares in C; anything else is sorted and
    de-duplicated."""
    if isinstance(rows, list) and _ascending(rows):
        return rows
    return sorted(set(rows))


def _ascending(rows: list) -> bool:
    """Whether ``rows`` is strictly ascending."""
    return all(map(lt, rows, islice(rows, 1, None)))


def _spliced(
    columns: tuple[Column, ...], cuts: list[int], rows: Optional[list[IdTriple]] = None, tag: int = 0
) -> tuple[Column, ...]:
    """Columns with the second and third keys of ``rows[k]``, and ``tag``
    in a tag column, put before position ``cuts[k]`` (ascending), or, with
    no rows, without those positions.

    The cuts are taken in runs, the rows put at one position or the
    positions next to each other (a key's new rows mostly go in at one
    place, and a rule's rows about a subject mostly sit together), each
    run one slice per column.  The columns are changed in place when the
    shifts that takes move fewer items than a copy would (one run into a
    long column, or runs near its end); otherwise each is copied once, in
    pieces between the runs.
    """
    step = 1 if rows is None else 0
    runs: list[list[int]] = []  # [position, count]
    for at in cuts:
        if runs and runs[-1][0] + runs[-1][1] * step == at:
            runs[-1][1] += 1
        else:
            runs.append([at, 1])
    size = len(columns[0])
    if len(runs) * size - sum(at for at, _ in runs) <= size:
        k = len(cuts)
        for at, count in reversed(runs):
            k -= count
            if rows is None:
                for column in columns:
                    del column[at : at + count]
            else:
                for column, values in zip(columns, _row_columns(rows[k : k + count], tag)):
                    column[at:at] = values
        return columns
    out = tuple(column[:0] for column in columns)
    start = k = 0
    for at, count in runs:
        for piece, column in zip(out, columns):
            piece += column[start:at]
        if rows is None:
            start = at + count
        else:
            for piece, values in zip(out, _row_columns(rows[k : k + count], tag)):
                piece += values
            k += count
            start = at
    for piece, column in zip(out, columns):
        piece += column[start:]
    return out


def _row_columns(rows: list[IdTriple], tag: int) -> tuple[array, array, bytearray]:
    """The second and third keys of ``rows`` as columns, and a column of
    ``tag`` as long; zipped with POS's two columns, the tags drop out."""
    return array(_ID, [row[1] for row in rows]), array(_ID, [row[2] for row in rows]), bytearray((tag,)) * len(rows)


def _counts(keys: Iterable[int]) -> array:
    """How many times each id occurs in ``keys``, by id, up to the largest."""
    counts = Counter(keys)
    return array(_ID, map(counts.get, range(max(counts) + 1 if counts else 0), repeat(0)))


def _columns(rows: Iterable[IdTriple]) -> IdColumns:
    """The id triples ``rows`` as columns."""
    rows = rows if isinstance(rows, list) else list(rows)
    return IdColumns(*(array(_ID, map(itemgetter(slot), rows)) for slot in range(3)))


def _base_run(batch: IdColumns) -> tuple[array, array, array]:
    """The distinct rows of ``batch`` in SPO order, as a base run: each
    subject's row count, by subject id, and the predicate and object
    columns.

    A counting sort on subject: the counts are the dense offsets of
    :class:`_Permutation`, and each row goes to the next free place of its
    subject, in batch order (a batch whose subjects never descend, as
    ``map``'s, is in place already and is only copied); then each subject's
    rows are put in (predicate, object) order and a repeated row dropped
    (:func:`_ordered`).  No row becomes a tuple.
    """
    subjects, predicates, objects = batch
    counts = _counts(subjects)
    if all(map(le, subjects, islice(subjects, 1, None))):
        second, third = predicates[:], objects[:]
    else:
        free = array(_ID, accumulate(counts, initial=0))
        second, third = array(_ID, bytes(4 * len(subjects))), array(_ID, bytes(4 * len(subjects)))
        for s, p, o in zip(subjects, predicates, objects):
            at = free[s]
            free[s] = at + 1
            second[at] = p
            third[at] = o
    second, third = _ordered(counts, [second, third])
    return counts, second, third


def _ordered(counts: array, columns: list[Column]) -> list[Column]:
    """``columns`` (second, third, then any carried with them, as tags)
    with the rows of each first key, which ``counts`` counts in key order,
    in (second, third) order and a repeated row dropped, the key's count
    lowered to match.

    Only a key that has a row out of order (:func:`_out_of_order`) is
    sorted, by one 64-bit key per row (:func:`_pair_keys`), and the columns
    are copied only when there is one.
    """
    start = array(_ID, accumulate(counts, initial=0))
    keys = _pair_keys(columns[0], columns[1])
    out = [column[:0] for column in columns]
    done = end = 0
    for at in compress(count(1), _out_of_order(counts, keys)):
        if at < end:
            continue  # a later row of a key already sorted
        key = bisect_right(start, at) - 1
        lo, end = start[key], start[key + 1]
        rows = sorted(range(lo, end), key=keys.__getitem__)
        # rows with equal keys are one row; the last of them is kept
        rows = list(dict(zip(map(keys.__getitem__, rows), rows)).values())
        for piece, column in zip(out, columns):
            piece += column[done:lo]
            piece.extend(map(column.__getitem__, rows))
        counts[key] = len(rows)
        done = end
    if not done:
        return columns
    for piece, column in zip(out, columns):
        piece += column[done:]
    return out


# -- snapshots -------------------------------------------------------------------------


def save(store: Store, target: Union[str, IO[bytes]]) -> None:
    """:meth:`Store.save`: a header, then the term table, the SPO run and
    the ledger, each a section packed by :func:`_pack`.

    Live terms, found in SPO alone, are written in one total order
    (:func:`term_sort_key`, which is (head, text) order) and numbered
    densely in it (:func:`_numbering`).  Each kind's terms, and each
    datatype's literals, are one run: a count, a column of UTF-8 lengths and
    the payloads as one blob, encoded from the texts with one join, so a
    save makes no :class:`Term` and builds no POS run.

    The SPO run is each subject's row count, for every term id, then the
    predicate and object columns of the rows in SPO order (:func:`_spo_run`;
    POS is not stored).  Each of those columns, and each term run's length
    column, is written as byte planes (:func:`_planes`); every other count
    is little-endian.  The ledger section is the count and the names of
    the rules that tag a row, in name order, then the tag count and the tag
    of each row of the SPO run, which one ``bytes.translate`` renumbers from
    the store's rule table to that order.  Two stores holding the same
    triples and the same ledger therefore produce byte-identical raw
    sections regardless of how they got there, and so byte-identical
    snapshots under one ``zlib`` build; an empty ledger encodes as one that
    never existed.

    A path is written as ``<path>.tmp``, synced to disk and renamed over
    ``path``, and then the directory is synced, so a crash or power loss
    leaves either the old snapshot or the new one.
    """
    order, renumber = _numbering(store)
    counts, predicates, objects, tags = _spo_run(store, order, renumber)
    used = sorted((name, tag) for tag, name in enumerate(store._rules, 1) if tags.count(tag))
    canonical = bytearray(256)  # store tag -> snapshot tag; 0 stays 0
    ledger = [_COUNT.pack(len(used))]
    for number, (name, tag) in enumerate(used, 1):
        canonical[tag] = number
        raw = name.encode("utf-8")
        ledger.append(_COUNT.pack(len(raw)) + raw)
    ledger += [_COUNT.pack(len(tags)), tags.translate(canonical)]
    # the sections are written chunk by chunk, so none is copied into another
    heads, texts = bytes(map(store._heads.__getitem__, order)), list(map(store._texts.__getitem__, order))
    body = [_MAGIC + _HEADER.pack(_VERSION, len(order), len(store))]
    body += _pack(_term_section(heads, texts))
    body += _pack(chain.from_iterable(map(_planes, (counts, predicates, objects))))
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


def canonical_run(store: Store) -> tuple[list[Term], array]:
    """:meth:`Store.canonical_run`: the numbering and the SPO run of
    :func:`save`, with the rows flattened and the live terms decoded."""
    order, renumber = _numbering(store)
    counts, predicates, objects, _ = _spo_run(store, order, renumber)
    run = array(_ID, bytes(12 * len(predicates)))
    run[0::3], run[1::3], run[2::3] = _repeated(counts), predicates, objects
    return list(map(store.decode, order)), run


def _numbering(store: Store) -> tuple[list[int], Optional[list[int]]]:
    """The old ids of the live terms in canonical term order, and the new id
    of each old id (None when every id keeps its own): the one numbering of
    :func:`save` and :func:`canonical_run`.

    The live terms are marked in one byte per term id, read from SPO alone:
    its keys that have rows, then its live columns
    (:meth:`_Permutation.live_columns`).  Canonical order is (head,
    text) order.  Loaded ids are in that order already; each term interned
    since the load is bisected into them, by head and then by text, in the
    order of its (head, text) key.
    """
    spo = store._spo
    heads, texts = store._heads, store._texts
    live = bytearray(len(texts))
    mark = live.__setitem__
    deque(map(mark, spo.keys, repeat(1)), 0)
    for key, columns in spo.overlay.items():
        live[key] = len(columns[0]) > 0  # an emptied key hides its base rows
    for column in chain.from_iterable(spo.live_columns()):
        # the ids are made distinct in C first, so a repeated id is marked
        # once; one column's set at a time is the only set
        deque(map(mark, set(column), repeat(1)), 0)
    ids = list(compress(range(len(live)), live))
    del live
    loaded_count = store._loaded
    split = bisect_left(ids, loaded_count)
    loaded = ids[:split]
    # the fresh terms in (head, text) order: sorted by text, then stably
    # by head, so no key is made per term
    fresh = sorted(ids[split:], key=texts.__getitem__)
    fresh.sort(key=heads.__getitem__)
    if not loaded:  # no loaded term to merge into, as in a store that was not loaded
        order = fresh
    else:
        order, start = [], 0
        for term_id in fresh:
            head = heads[term_id]
            # where the term falls among all loaded ids, then among the live ones
            lo = bisect_left(heads, head, 0, loaded_count)
            at = bisect_left(texts, texts[term_id], lo, bisect_right(heads, head, lo, loaded_count))
            at = bisect_left(loaded, at, start)
            order += loaded[start:at]
            order.append(term_id)
            start = at
        order += loaded[start:]
    if order == list(range(len(texts))):
        return order, None
    renumber = [0] * len(texts)  # dead ids keep 0; nothing reads them
    for new_id, old_id in enumerate(order):
        renumber[old_id] = new_id
    return order, renumber


def _spo_run(store: Store, order: list[int], renumber: Optional[list[int]]) -> tuple[array, array, array, bytearray]:
    """The SPO run under the new numbering (:func:`_numbering`): each live
    term's count of rows as subject, in the new order, and the predicate,
    object and tag columns of the rows in SPO order.

    The counts come from SPO's offsets and overlay.  The numbering keeps the
    order of loaded ids, and the base run holds loaded ids only, so the run
    is built subject by subject: the base columns are mapped through the
    new numbering whole, the base rows between two written subjects are one
    slice of each, and each written subject's overlay columns are mapped
    and put in, in the order of its new id, at the offset that the counts
    give it.  A subject's overlay rows keep their order, and make no object
    per row, unless they hold a term interned since the load; only then are
    they sorted, as tuples.  (In a store whose base run holds ids that were
    not loaded, as one that was never loaded, no order survives: each
    subject's rows, from the base run or its overlay, are taken as slices
    in the order of its new id and renumbered, and :func:`_ordered` sorts
    the subjects left out of order.)
    """
    spo = store._spo
    overlay = spo.overlay
    counts = spo.counts()
    counts.extend(repeat(0, len(store._texts) - len(counts)))
    for s, run in overlay.items():
        counts[s] = len(run[0])
    counts = array(_ID, map(counts.__getitem__, order))
    base = spo.base()
    if renumber is not None and not store._loaded:
        # every term is new, so no order survives: each subject's rows, base
        # or overlay, are taken as slices in the order of its new id, then
        # renumbered and put in (predicate, object) order
        start = spo.start
        base_predicates, base_objects, base_tags = base
        predicates, objects, tags = array(_ID), array(_ID), bytearray()
        for s in compress(order, counts):
            run = overlay.get(s)
            if run is None:
                lo, hi = start[s], start[s + 1]
                predicates += base_predicates[lo:hi]
                objects += base_objects[lo:hi]
                tags += base_tags[lo:hi]
            else:
                predicates += run[0]
                objects += run[1]
                tags += run[2]
        columns = [array(_ID, map(renumber.__getitem__, column)) for column in (predicates, objects)]
        del predicates, objects
        predicates, objects, tags = _ordered(counts, [*columns, tags])
        return counts, predicates, objects, tags
    renumbered = renumber.__getitem__ if renumber is not None else None
    if renumbered is not None:
        base = (*(array(_ID, map(renumbered, column)) for column in base[:2]), base[2])
    new_id = renumbered or int
    written = sorted((s for s, run in overlay.items() if run[0]), key=new_id)
    starts = array(_ID, accumulate(counts, initial=0))
    out = [column[:0] for column in base]
    k = spliced = seen = 0
    for piece in spo.visible():  # the base rows of the subjects not written
        start = piece.start
        while k < len(written):
            s = written[k]
            # where the subject goes in the base run: its offset in the new
            # run, less the overlay rows put in before it, is its place
            # among the visible base rows
            at = piece.start + starts[new_id(s)] - spliced - seen
            if at > piece.stop:
                break
            run = overlay[s]
            if renumbered is None:
                rows: Sequence[Iterable[int]] = run
            elif max(max(run[0]), max(run[1])) < store._loaded:
                rows = (map(renumbered, run[0]), map(renumbered, run[1]), run[2])
            else:
                # a term interned since the load may sort anywhere among them
                rows = list(zip(*sorted(zip(map(renumbered, run[0]), map(renumbered, run[1]), run[2]))))
            for column, base_column, values in zip(out, base, rows):
                column += base_column[start:at]
                column.extend(values)
            spliced += len(run[0])
            start = at
            k += 1
        for column, base_column in zip(out, base):
            column += base_column[start : piece.stop]
        seen += piece.stop - piece.start
    return counts, out[0], out[1], out[2]


def _pack(pieces: Iterable[bytes]) -> list[bytes]:
    """The section whose raw bytes are ``pieces``, concatenated, as a
    snapshot holds it: the raw length and the length of one ``zlib`` stream
    of them at :data:`_LEVEL`, then the stream, as chunks to write in turn
    (:func:`.store._unpack` reads it back).  Each piece, as each byte plane
    of a column (:func:`_planes`), is fed to the stream as it comes, so the
    raw section is never joined."""
    packer = zlib.compressobj(_LEVEL)
    chunks = [b""]
    size = 0
    for piece in pieces:
        size += len(piece)
        chunks.append(packer.compress(piece))
    chunks.append(packer.flush())
    chunks[0] = _PACKED.pack(size, sum(map(len, chunks)))
    return chunks


def _planes(column: array) -> Iterator[bytes]:
    """The u32 ``column`` as a snapshot stores it: four byte planes, least
    significant first, each one strided slice of the column's bytes at its
    offset in this host's byte order, so every host writes the same bytes
    (:func:`.store._ids` reads them back).  An id column's high bytes vary
    little, and a plane puts them next to each other, which ``zlib`` packs
    far better than the interleaved ids."""
    raw = column.tobytes()
    return (raw[at::4] for at in _PLANES)


def _term_section(heads: bytes, texts: list[str]) -> Iterator[bytes]:
    """The raw term section of the terms with ``heads`` and ``texts``, which
    are in canonical order, as pieces: each run is encoded with one join and
    one length column (the layout is in :mod:`.store`, beside its reader)."""
    start = 0
    while start < len(texts):
        head = heads[start]
        end = bisect_right(heads, head, start)
        run = texts[start:end]
        joined = "".join(run)
        blob = joined.encode("utf-8")
        # an ASCII payload's length in bytes is its length in characters
        raws = run if len(blob) == len(joined) else map(str.encode, run)
        yield bytes((head,) if head < _LITERAL else (_LITERAL, head - _LITERAL)) + _COUNT.pack(end - start)
        yield from _planes(array(_ID, map(len, raws)))
        yield blob
        start = end


# -- test hooks ------------------------------------------------------------------------


def verify_indexes(store: Store) -> bool:
    """:meth:`Store.verify_indexes`: both permutations describe the same
    triple set, read through :meth:`_Permutation.runs` (which builds every
    POS run); in each, the rows so read are strictly ascending and its
    layout is sound (:func:`_sound`, :func:`_pos_sound`); SPO's tags fit its
    columns and name rules of the table, and its base rows of overlay keys
    have tag 0."""

    def rows(index: _Permutation, sound: bool) -> Optional[list[IdTriple]]:
        out: list[IdTriple] = []
        for key, second, third, lo, hi in index.runs():
            out.extend(zip(repeat(key), second[lo:hi], third[lo:hi]))
        return out if sound and _ascending(out) else None

    spo, pos = rows(store._spo, _sound(store._spo)), rows(store._pos, _pos_sound(store._pos))
    if spo is None or pos is None:
        return False
    index = store._spo
    tags, start = index.tags, index.start
    hidden = (tags[start[k] : start[k + 1]] for k in index.overlay if k < len(start) - 1)
    overlay_tags = (columns[2] for columns in index.overlay.values())
    tagged = max(chain(tags, *overlay_tags), default=0) <= len(store._rules) and not any(map(any, hidden))
    return tagged and len(spo) == len(store) and set(spo) == {(s, p, o) for p, o, s in pos}


def _sound(index: _Permutation) -> bool:
    """The offsets and keys fit the base run, which is strictly ascending,
    and the overlay's columns are as many as the base run's and of equal
    length within each key."""
    base = index.base()
    return (
        _fits(index, len(index.second), len(base))
        and all(len(column) == len(index.second) for column in base)
        and _ascending(list(zip(index.firsts(), index.second, index.third)))
    )


def _pos_sound(pos: _LazyPos) -> bool:
    """``rows`` orders SPO's base rows stably by predicate, the offsets and
    keys index it, the subject column is SPO's, and the overlay's columns
    fit."""
    rows = pos._sort()
    predicates = pos.source.second
    return (
        _fits(pos, len(predicates), 2)
        and pos.subjects == pos.source.firsts()
        and sorted(rows) == list(range(len(predicates)))
        and _ascending(list(zip(map(predicates.__getitem__, rows), rows)))
        and array(_ID, map(predicates.__getitem__, rows)) == pos.firsts()
    )


def _fits(index: _Permutation, size: int, width: int) -> bool:
    """The offsets index ``size`` base rows and agree with the keys, and
    each overlay key has ``width`` columns of equal length."""
    start = index.start
    return (
        start[0] == 0
        and start[-1] == size
        and all(map(le, start, start[1:]))
        and list(index.keys) == [k for k in range(len(start) - 1) if start[k] < start[k + 1]]
        and all(len(columns) == width and len(set(map(len, columns))) == 1 for columns in index.overlay.values())
    )
