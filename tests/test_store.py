import gc
import io
import os
import random
import signal
import stat
import struct
import subprocess
import sys
import tracemalloc
import zlib
from array import array

import pytest

import scholargraph.store as store_module
import scholargraph.store_write as store_write
from scholargraph.ntriples import write_ntriples
from scholargraph.store import LedgerError, SnapshotError, Store
from scholargraph.store_write import IdColumns
from scholargraph.terms import (
    RDF_TYPE,
    Blank,
    Datatype,
    Iri,
    Literal,
    TermError,
    Triple,
    datetime_literal,
    decimal_literal,
    integer_literal,
    string_literal,
    year_literal,
)

from oracles import (
    encoded,
    from_planes,
    insert_all,
    isomorphic,
    ledger_ids,
    ledger_section,
    ledger_triples,
    oracle_export,
    oracle_load_terms,
    oracle_sections,
    oracle_snapshot,
    packed,
    planes,
    random_context_store,
    snapshot_header,
    spo_column,
    spo_section,
    term_table_snapshot,
)


def small_store():
    store = Store()
    triples = [
        Triple(Iri("urn:s1"), Iri("urn:p1"), Iri("urn:o1")),
        Triple(Iri("urn:s1"), Iri("urn:p1"), Iri("urn:o2")),
        Triple(Iri("urn:s1"), Iri("urn:p2"), string_literal("x")),
        Triple(Iri("urn:s2"), Iri("urn:p1"), Iri("urn:o1")),
        Triple(Blank("b"), Iri("urn:p2"), integer_literal(7)),
    ]
    for t in triples:
        store.insert(t)
    return store, triples


def test_insert_semantics():
    store = Store()
    t = Triple(Iri("urn:s"), Iri("urn:p"), Iri("urn:o"))
    assert store.insert(t) is True
    assert store.insert(t) is False
    assert len(store) == 1
    assert t in store


def test_remove_semantics():
    store, triples = small_store()
    assert store.remove(triples[0]) is True
    assert store.remove(triples[0]) is False
    assert triples[0] not in store
    assert len(store) == len(triples) - 1
    assert store.verify_indexes()


def test_add_rows_bulk_equals_incremental():
    rng = random.Random(11)
    reference = random_context_store(rng, 120)
    triples = list(reference.triples())
    rng.shuffle(triples)

    bulk = Store()
    added = insert_all(bulk, triples + triples[:50])  # duplicates collapse
    one_by_one = Store()
    for t in triples:
        one_by_one.insert(t)

    assert added == len(triples)
    assert set(bulk.triples()) == set(one_by_one.triples())
    assert bulk.verify_indexes() and one_by_one.verify_indexes()


def test_add_rows_into_nonempty_store():
    store, triples = small_store()
    extra = [Triple(Iri("urn:s9"), Iri("urn:p1"), Iri("urn:o9"))]
    assert insert_all(store, extra + triples) == 1
    assert len(store) == len(triples) + 1


def test_batch_writes_against_a_set():
    """add_rows, drop_rows and retag agree with a Python set of rows, and
    a dict of each row's rule, over random batches that repeat rows, hold
    rows already there or absent, and empty keys, on a store built in
    memory and on the same store loaded from its snapshot; either one's
    save then writes what the reference encoder writes."""
    built = random_context_store(random.Random(17), 60)
    rows = sorted(built.match_ids(None, None, None))
    built.retag(rows[::5], "rule_a")
    built.retag(rows[1::7], "used_by")
    rules = (None, "metric", "rule_a", "used_by")  # the rules in name order
    for store in (built, Store.load(io.BytesIO(saved(built)))):
        rng = random.Random(17)
        # ids of a few terms no triple uses yet, so batches also open new keys
        fresh = [store.intern(Iri(f"urn:x:fresh{k}")) for k in range(6)]
        model = set(store.match_ids(None, None, None))
        rule_of = dict.fromkeys(model)
        rule_of.update((row, rule) for rule in rules[1:] for row in store.ledger_rows(rule))
        assert sum(rule is not None for rule in rule_of.values()) == len(set(rows[::5]) | set(rows[1::7]))
        subjects = sorted({s for s, _, _ in model}) + fresh
        predicates = sorted({p for _, p, _ in model}) + fresh[:2]
        objects = sorted({o for _, _, o in model}) + fresh
        for step in range(40):
            if rng.random() < 0.2 and model:
                # every row of a few subjects: their SPO keys empty out
                gone = set(rng.sample(sorted({s for s, _, _ in model}), 3))
                batch = [row for row in model if row[0] in gone]
            else:
                batch = [
                    rng.choice(sorted(model)) if model and rng.random() < 0.5
                    else (rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
                    for _ in range(rng.randrange(1, 40))
                ]
            batch += rng.sample(batch, len(batch) // 3)  # repeats
            rng.shuffle(batch)
            roll, rule = rng.random(), rng.choice(rules)
            if roll < 0.4:
                added = store.add_rows(batch, rule)
                assert added == sorted(set(batch) - model), step
                model |= set(batch)
                rule_of.update(dict.fromkeys(added, rule))
            elif roll < 0.8:
                removed = store.drop_rows(batch)
                assert removed == sorted(set(batch) & model), step
                model -= set(batch)
                for row in removed:
                    del rule_of[row]
            elif set(batch) <= model:
                assert store.retag(batch, rule) == sum(rule_of[row] != rule for row in set(batch)), step
                rule_of.update(dict.fromkeys(batch, rule))
            else:
                with pytest.raises(LedgerError, match="not in the store"):
                    store.retag(batch, rule)
            assert store.verify_indexes(), step
            assert set(store.match_ids(None, None, None)) == model and len(store) == len(model)
            ledger = {rule: sorted(row for row in model if rule_of[row] == rule) for rule in rules[1:]}
            assert {rule: store.ledger_rows(rule) for rule in rules[1:]} == ledger, step
            counts = store.ledger_counts()
            assert list(counts) == sorted(counts), step
            assert {rule: count for rule, count in counts.items() if count} == {
                rule: len(rows) for rule, rows in ledger.items() if rows
            }, step
        assert saved(store) == oracle_snapshot(store)


def test_a_loaded_store_emptied_and_refilled_with_fresh_terms_saves_canonically():
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(18), 40))))
    rows = list(store.match_ids(None, None, None))
    assert store.drop_rows(rows) == rows and len(store) == 0
    # fresh subjects and objects, sorting before, among and after the loaded terms
    refill = [
        Triple(Iri(f"urn:{prefix}:{k}"), store.decode(p), integer_literal(k))
        for k, (prefix, (_, p, _)) in enumerate(zip("amzamz", rows))
    ] + [store.decode_triple(row) for row in rows[::3]]
    assert insert_all(store, refill) == len(refill)
    assert store.verify_indexes()
    data = saved(store)
    assert data == oracle_snapshot(store)
    assert saved(Store.load(io.BytesIO(data))) == data


@pytest.mark.parametrize("seed", range(4))
def test_appears_probes_a_subject_without_building_pos(seed):
    """On a loaded store, appears of a term that has subject rows answers
    from SPO and leaves POS unsorted; over every term of the table, and a
    term of none, it answers as a scan of the triples does."""
    rng = random.Random(seed)
    data = saved(random_context_store(rng, rng.randrange(20, 80)))
    store = Store.load(io.BytesIO(data))
    subject = store.decode(rng.choice(list(store.match_ids(None, None, None)))[0])
    assert store.appears(subject) and store._pos.rows is None
    store = Store.load(io.BytesIO(data))
    for write in range(2):
        live = {term for triple in store.triples() for term in (triple.subject, triple.predicate, triple.object)}
        terms = [store.decode(k) for k in range(store.term_count())] + [Iri("urn:nowhere")]
        for term in rng.sample(terms, len(terms)):
            assert store.appears(term) == (term in live), (write, term)
        # then a subject's rows go, and a term no triple holds is interned
        s = rng.choice(list(store.match_ids(None, None, None)))[0]
        store.drop_rows(list(store.match_ids(s, None, None)))
        store.intern(Iri("urn:interned:only"))


def test_a_load_gives_no_subject_columns_of_its_own_until_it_is_written():
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(19), 40))))
    assert store._spo.overlay == {}
    s, p, o = next(store.match_ids(None, None, None))
    list(store.match_ids(s, None, None))
    assert store.contains_ids(s, p, o) and store._spo.overlay == {}
    store.drop_rows([(s, p, o)])
    assert list(store._spo.overlay) == [s] and store.verify_indexes()


def test_a_loaded_subject_is_found_whatever_its_row_count():
    store = Store()
    for rows in (1, 31, 32, 33, 100):
        insert_all(store, (Triple(Iri(f"urn:s{rows}"), Iri("urn:p"), integer_literal(k)) for k in range(rows)))
    back = Store.load(io.BytesIO(saved(store)))
    for rows in (1, 31, 32, 33, 100):
        s = back.lookup(Iri(f"urn:s{rows}"))
        assert back.match_count(s, None, None) == len(list(back.match_ids(s, None, None))) == rows


@pytest.mark.parametrize("layout", ["inserted", "bulk", "loaded"])
def test_ids_outside_the_offsets_read_as_no_rows(layout):
    """-1 (the id of an absent term in a probe), a term interned after the
    base run was made and ids at or above term_count() match nothing in
    either permutation, with any other slot bound to a live id."""
    store = random_context_store(random.Random(20), 40)
    if layout == "bulk":
        store = bulk_copy(store)
    elif layout == "loaded":
        store = Store.load(io.BytesIO(saved(store)))
    live = next(store.match_ids(None, None, None))
    fresh = store.intern(Iri("urn:x:never-written"))
    assert not store.appears(store.decode(fresh))
    for outside in (-1, fresh, store.term_count(), store.term_count() + 1000):
        for mask in range(1, 8):
            for inside in range(8):  # the bound slots that take the live id; one at least does not
                if inside & ~mask or inside == mask:
                    continue
                bound = tuple(
                    (live[i] if inside & (4 >> i) else outside) if mask & (4 >> i) else None for i in range(3)
                )
                assert list(store.match_ids(*bound)) == [] and store.match_count(*bound) == 0, bound
                for slot in range(3):
                    if bound[slot] is None:
                        assert store.distinct_count(*bound, slot) == 0, (bound, slot)
                if mask == 7:
                    assert not store.contains_ids(*bound), bound
    assert store.verify_indexes()


def test_a_predicate_and_a_subject_emptied_after_a_load_vanish_and_come_back():
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(21), 40))))
    rows = list(store.match_ids(None, None, None))
    objects = {o for _, _, o in rows}
    p = min({p for _, p, _ in rows}, key=lambda p: sum(row[1] == p for row in rows))
    s = next(s for s, _, _ in rows if s not in objects and sum(row[0] == s for row in rows) > 2)
    gone = [row for row in rows if row[1] == p or row[0] == s]
    assert store.drop_rows(gone) == gone
    model = set(rows) - set(gone)
    assert p not in store.predicate_ids()
    assert store.predicate_ids() == sorted({row[1] for row in model})
    assert store.distinct_count(None, None, None, 1) == store.stats()["predicates"] == len(store.predicate_ids())
    assert not store.appears(store.decode(p)) and not store.appears(store.decode(s))
    assert list(store.match_ids(None, p, None)) == [] and list(store.match_ids(s, None, None)) == []
    check_against_model(store, model, [(s, p, o) for o in list(objects)[:3]])
    assert saved(store) == oracle_snapshot(store)
    back = [next(row for row in gone if row[1] == p), next(row for row in gone if row[0] == s and row[1] != p)]
    assert store.add_rows(back) == sorted(back)
    model.update(back)
    assert store.predicate_ids() == sorted({row[1] for row in model}) and p in store.predicate_ids()
    assert store.appears(store.decode(p)) and store.appears(store.decode(s))
    assert list(store.match_ids(None, p, None)) == [row for row in back if row[1] == p]
    check_against_model(store, model, back)
    assert saved(store) == oracle_snapshot(store)


def test_batch_writes_into_an_emptied_store_cut_columns():
    store, triples = small_store()
    rows = list(store.match_ids(None, None, None))
    assert store.drop_rows(rows + rows) == sorted(rows)
    stats = store.stats()
    assert len(store) == 0 and stats["subjects"] == stats["predicates"] == 0
    assert store.add_rows(reversed(rows)) == sorted(rows)
    assert store.verify_indexes() and set(store.triples()) == set(triples)


def test_match_all_shapes_against_scan():
    rng = random.Random(12)
    store = random_context_store(rng, 150)
    universe = list(store.triples())
    probes = rng.sample(universe, 20)
    for t in probes:
        for mask in range(8):
            s = t.subject if mask & 4 else None
            p = t.predicate if mask & 2 else None
            o = t.object if mask & 1 else None
            got = set(store.match_terms(s, p, o))
            want = {
                u
                for u in universe
                if (s is None or u.subject == s)
                and (p is None or u.predicate == p)
                and (o is None or u.object == o)
            }
            assert got == want, (s, p, o)


def shape_order(bound):
    """Sort key, over (s, p, o), of the order a shape comes in: POS order
    when p is bound without s; (s, p) order when o is bound without p;
    else SPO order."""
    s, p, o = (key is not None for key in bound)
    if p and not s:
        return lambda t: (t[1], t[2], t[0])
    if o and not p:
        return lambda t: (t[2], t[0], t[1])
    return lambda t: t


def check_against_model(store, model, probes):
    """Every read of ``store`` agrees with the id-triple set ``model``;
    ``match_ids`` yields in the serving permutation's order."""
    assert len(store) == len(model)
    assert store.verify_indexes()
    for slot, name in enumerate(("subjects", "predicates", "objects")):
        assert store.stats()[name] == len({t[slot] for t in model})
    assert store.stats()["triples"] == len(model)
    check_shapes(store, model, probes)


def check_shapes(store, model, probes):
    """Every shape of every probe reads from ``store`` what it reads from
    the id-triple set ``model``, in the serving permutation's order."""
    for probe in probes:
        for mask in range(8):
            bound = tuple(probe[i] if mask & (4 >> i) else None for i in range(3))
            want = sorted(
                (t for t in model if all(b is None or t[i] == b for i, b in enumerate(bound))),
                key=shape_order(bound),
            )
            assert list(store.match_ids(*bound)) == want, bound
            assert store.match_count(*bound) == len(want), bound
            if mask == 7:
                continue
            for slot in range(3):
                if bound[slot] is None:
                    assert store.distinct_count(*bound, slot) == len({t[slot] for t in want}), (bound, slot)
        if probe[1] is not None:
            # a scan of SPO finds the objects a probe of POS finds
            objects = sorted(store.predicate_objects(probe[1]))
            assert objects == sorted(o for _, p, o in model if p == probe[1]), probe
        for term_id in (key for key in probe if key is not None):
            term = store.decode(term_id)
            assert store.appears(term) == any(term_id in t for t in model)


def test_random_updates_keep_every_shape_in_permutation_order():
    rng = random.Random(15)
    store = random_context_store(rng, 120)

    def ids(t):
        return (store.lookup(t.subject), store.lookup(t.predicate), store.lookup(t.object))

    model = {ids(t) for t in store.triples()}
    subjects = sorted({t.subject for t in store.triples()}, key=repr)
    predicates = sorted({t.predicate for t in store.triples()}, key=repr)
    objects = sorted({t.object for t in store.triples()}, key=repr) + [Iri("urn:x:fresh")]
    store.intern(objects[-1])  # every candidate term has an id from here on
    for _ in range(12):
        for _ in range(60):
            if model and rng.random() < 0.45:
                s, p, o = rng.choice(sorted(model))
                triple = Triple(store.decode(s), store.decode(p), store.decode(o))
            else:
                triple = Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
            key = ids(triple)
            if rng.random() < 0.5:
                assert store.insert(triple) is (key not in model)
                model.add(key)
            else:
                assert store.remove(triple) is (key in model)
                model.discard(key)
        probes = rng.sample(sorted(model), 8) + [
            (rng.randrange(store.term_count()), rng.randrange(store.term_count()), rng.randrange(store.term_count()))
            for _ in range(4)
        ]
        check_against_model(store, model, probes)
    # a bulk build, from a snapshot or from one batch of rows, lays out the same
    for rebuilt in (Store.load(io.BytesIO(saved(store))), bulk_copy(store)):
        rebuilt_model = {
            (rebuilt.lookup(t.subject), rebuilt.lookup(t.predicate), rebuilt.lookup(t.object))
            for t in store.triples()
        }
        probes = rng.sample(sorted(rebuilt_model), 12)
        check_against_model(rebuilt, rebuilt_model, probes)


def test_updates_to_a_loaded_store():
    """Inserts and removes on a loaded store keep what it holds, what each
    shape yields and what a save writes in step with a set of its triples
    and with a store built by inserting them."""
    rng = random.Random(16)
    source = random_context_store(rng, 120)
    store = Store.load(io.BytesIO(saved(source)))
    held = set(store.triples())
    terms = sorted({term for t in source.triples() for term in (t.subject, t.object)}, key=repr)
    predicates = sorted({t.predicate for t in source.triples()}, key=repr)
    subjects = [term for term in terms if not isinstance(term, Literal)]
    for _ in range(300):
        if rng.random() < 0.5:
            triple = store.decode_triple(rng.choice(sorted(store.match_ids(None, None, None))))
            assert store.remove(triple)
            held.remove(triple)
        else:
            triple = Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(terms))
            assert store.insert(triple) == (triple not in held)
            held.add(triple)
    model = set(map(store.lookup_triple, held))
    probes = rng.sample(sorted(model), 12) + [
        (rng.randrange(store.term_count()), rng.randrange(store.term_count()), rng.randrange(store.term_count()))
        for _ in range(4)
    ]
    check_against_model(store, model, probes)
    assert saved(store) == saved(bulk_copy(store))


# -- a lazy open -------------------------------------------------------------------


def test_a_load_builds_no_pos_run_and_no_term():
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(23), 60))))
    assert store._pos.rows is None and store._pos.overlay == {}
    assert store._terms == [None] * store.term_count()
    rdf_type = store.lookup(RDF_TYPE)
    rows = list(store.match_ids(None, rdf_type, None))
    # a predicate's run is built into POS's overlay, on its first read only
    assert rows and list(store._pos.overlay) == [rdf_type]
    assert store._terms == [None] * store.term_count()
    # a term is made when it is first decoded, and kept
    term = store.decode(rows[0][2])
    assert store.decode(rows[0][2]) is term and store._terms.count(None) == store.term_count() - 1


@pytest.mark.parametrize("seed", range(4))
def test_interning_texts_numbers_as_interning_each_term_does(seed):
    """intern_texts gives each text the id that intern of its term, one at
    a time in list order, gives on a twin store, held and repeated texts
    included, and between batches intern of single terms of every kind
    numbers alike on both, so both leave one term table (texts, heads, each
    head's text-to-id dict, decoded terms); a bad new text raises the
    constructor's error and numbers nothing."""
    rng = random.Random(seed)
    lists = [
        (None, [f"urn:{rng.choice('amz')}:{rng.randrange(40)}" for _ in range(60)]),
        (Datatype.DATETIME, [f"{rng.randrange(1990, 2010)}" for _ in range(30)]),
        (Datatype.STRING, [rng.choice(["", "a", "b c", "é"]) for _ in range(20)]),
    ]
    store, twin = Store(), Store()
    for _ in range(2):
        for datatype, texts in rng.sample(lists, len(lists)):
            make = Iri if datatype is None else (lambda text, datatype=datatype: Literal(text, datatype))
            assert list(store.intern_texts(texts, datatype)) == [twin.intern(make(text)) for text in texts]
            assert store.term_count() == twin.term_count()
            single = rng.choice([Iri(f"urn:a:{rng.randrange(50)}"), Blank(f"b{rng.randrange(5)}"), integer_literal(7)])
            assert store.intern(single) == twin.intern(single)
    assert (store._texts, store._heads, store._ids) == (twin._texts, twin._heads, twin._ids)
    assert list(map(store.decode, range(store.term_count()))) == list(map(twin.decode, range(twin.term_count())))
    for datatype, bad, message in ((None, "urn:a b", "whitespace"), (Datatype.DATETIME, "20x6", "normalized")):
        with pytest.raises(TermError, match=message):
            store.intern_texts(["urn:held:0", bad], datatype)
        assert store.term_count() == twin.term_count() and store.lookup(Iri("urn:held:0")) is None


def test_decoded_terms_are_the_constructors_terms():
    terms = [
        Iri("urn:a"),
        Blank("x.y"),
        integer_literal(-2),
        decimal_literal("1.5"),
        year_literal(2007),
        datetime_literal("2007-05-01"),
        string_literal("a b"),
    ]
    store = Store()
    insert_all(store, (Triple(Iri("urn:s"), Iri("urn:p"), term) for term in terms))
    back = Store.load(io.BytesIO(saved(store)))
    for built in terms:
        made = back.decode(back.lookup(built))
        assert made == built and type(made) is type(built)
        assert hash(made) == hash(built) and repr(made) == repr(built)
        for field in type(made).__slots__:
            with pytest.raises(AttributeError):
                setattr(made, field, getattr(made, field))


def test_random_histories_over_a_loaded_store():
    """A loaded store, some of its predicates probed, then batches of
    adds, drops and retags under predicates probed and not (and a new one),
    then probes again: every shape, ``predicate_ids``, the ledger and the
    indexes agree with a set of triples, a save writes what the reference
    encoder writes and builds no POS run, and the saved bytes load into the
    next round."""
    rules = ("metric", "rule_a", "used_by")
    for seed in range(4):
        rng = random.Random(seed)
        store = random_context_store(rng, 50)
        rows = sorted(store.match_ids(None, None, None))
        store.retag(rows[::6], "rule_a")
        held = set(store.triples())
        rule_of = dict.fromkeys(held)
        rule_of.update(dict.fromkeys(map(store.decode_triple, rows[::6]), "rule_a"))
        data = saved(store)
        for cycle in range(4):
            store = Store.load(io.BytesIO(data))
            model = {store.lookup_triple(t) for t in held}
            assert set(store.match_ids(None, None, None)) == model
            predicates = sorted({p for _, p, _ in model})
            new = [store.intern(Iri(f"urn:x:new{cycle}:{k}")) for k in range(3)]
            probed = rng.sample(predicates, len(predicates) // 3)
            unprobed = [p for p in predicates if p not in probed]
            check_shapes(store, model, [(None, p, None) for p in probed])
            assert sorted(store._pos.overlay) == sorted(probed)
            subjects = sorted({s for s, _, _ in model}) + new
            objects = sorted({o for _, _, o in model}) + new
            for step in range(8):
                pool = rng.choice((probed, unprobed, new[:1], predicates))
                if rng.random() < 0.15:
                    # every row of one predicate, which empties it
                    p = rng.choice(pool)
                    batch = [row for row in model if row[1] == p]
                else:
                    batch = [
                        rng.choice(sorted(model)) if model and rng.random() < 0.4
                        else (rng.choice(subjects), rng.choice(pool), rng.choice(objects))
                        for _ in range(rng.randrange(1, 25))
                    ]
                if rng.random() < 0.5:
                    batch = sorted(set(batch))  # as a caller that holds it sorted passes it
                else:
                    batch += rng.sample(batch, len(batch) // 3)
                    rng.shuffle(batch)
                roll, rule = rng.random(), rng.choice((None,) + rules)
                if roll < 0.45:
                    assert store.add_rows(batch, rule) == sorted(set(batch) - model), (seed, cycle, step)
                    for row in set(batch) - model:
                        rule_of[store.decode_triple(row)] = rule
                    model |= set(batch)
                elif roll < 0.85:
                    assert store.drop_rows(batch) == sorted(set(batch) & model), (seed, cycle, step)
                    for row in set(batch) & model:
                        del rule_of[store.decode_triple(row)]
                    model -= set(batch)
                elif set(batch) <= model:
                    triples = set(map(store.decode_triple, batch))
                    assert store.retag(batch, rule) == sum(rule_of[t] != rule for t in triples)
                    rule_of.update(dict.fromkeys(triples, rule))
            held = set(rule_of)
            # probes again, of predicates probed, written or neither
            again = rng.sample(predicates + new[:1], 4)
            check_shapes(store, model, [(None, p, None) for p in again])
            built = dict(store._pos.overlay)
            assert store.predicate_ids() == sorted({p for _, p, _ in model})
            written = saved(store)
            assert store._pos.overlay == built
            assert written == oracle_snapshot(store)
            probes = rng.sample(sorted(model), 6) + [(rng.choice(subjects), p, rng.choice(objects)) for p in again]
            # an object-bound, predicate-free shape reads every POS run
            check_against_model(store, model, probes)
            ledger = {rule: sorted(row for row in model if rule_of[store.decode_triple(row)] == rule) for rule in rules}
            assert {rule: store.ledger_rows(rule) for rule in rules} == ledger
            data = written


def test_batches_in_any_order_give_the_same_rows_and_store():
    """add_rows, drop_rows and retag return the same rows and leave the
    same store for a batch that is sorted and distinct (used as it is),
    shuffled, repeated, or any other iterable."""
    data = saved(random_context_store(random.Random(24), 40))
    store = Store.load(io.BytesIO(data))
    rows = sorted(store.match_ids(None, None, None))
    held = set(rows)
    new = sorted({(s, p, o) for (s, _, _), (_, p, _), (_, _, o) in zip(rows, rows[1:], rows[2:])} - held)
    rng = random.Random(24)

    def forms(batch):
        shuffled = rng.sample(batch, len(batch))
        return [list(batch), shuffled, shuffled + batch[::2], tuple(shuffled), iter(shuffled)]

    batches = [forms(new), forms(rows[::3]), forms(rows[1::4] + new[::5])]
    results = set()
    for form in range(5):
        store = Store.load(io.BytesIO(data))
        added = store.add_rows(batches[0][form], "rule_a")
        retagged = store.retag(batches[1][form], "rule_b")
        dropped = store.drop_rows(batches[2][form])
        assert store.verify_indexes()
        results.add((tuple(added), retagged, tuple(dropped), saved(store)))
    assert len(results) == 1
    added, retagged, dropped, _ = results.pop()
    assert list(added) == new and retagged == len(rows[::3])
    assert list(dropped) == sorted(rows[1::4] + new[::5])


def test_a_write_to_a_built_pos_run_keeps_no_copy_of_it():
    """What one written row per predicate keeps, under tracemalloc, in a
    loaded store of about 30k triples whose POS runs are all built: a
    predicate's built run is its overlay entry, which a write splices, where
    a copy would keep 8 B per triple more."""
    data = saved(random_context_store(random.Random(1), 5000))
    gc.collect()
    tracemalloc.start()
    try:
        store = Store.load(io.BytesIO(data))
        predicates = store.predicate_ids()
        assert all(store.match_count(None, p, None) for p in predicates)
        written = store.intern(Iri("urn:x:written"))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        store.add_rows([(written, p, written) for p in predicates])
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) > 25_000 and store.verify_indexes()
    assert kept / len(store) < 1


def test_a_save_after_a_rule_like_write_makes_no_object_per_row():
    """The peak that a save allocates, under tracemalloc, after a write that
    gives each of the 8,635 subjects of a loaded store of about 30k triples
    three rows of a predicate and objects interned since the load, as a
    rule's do: 44.8 B per triple of the 54,880 when each subject's rows are
    built from its columns, against 118.8 B when the written rows were
    sorted and spliced in as one list of tuples."""
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(1), 5000))))
    subjects = sorted({s for s, _, _ in store.match_ids(None, None, None)})
    used_by = store.intern(Iri("urn:x:usedBy"))
    agents = [store.intern(Iri(f"urn:x:agent{k}")) for k in range(50)]
    store.add_rows([(s, used_by, agents[s * k % 50]) for s in subjects for k in range(1, 4)])
    gc.collect()
    tracemalloc.start()
    try:
        data = saved(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subjects) >= 1000 and len(store) > 50_000
    assert data == oracle_snapshot(store)
    assert peak / len(store) < 70


def test_dropping_every_row_of_a_predicate_empties_its_pos_run_whole(monkeypatch):
    """A batch that holds every row of a predicate, as ``retract`` drops a
    rule's, leaves that predicate's POS run empty without sorting its rows
    into POS order: no row of it reaches the cut of ``_pos``."""
    store = Store.load(io.BytesIO(saved(random_context_store(random.Random(3), 300))))
    model = set(store.match_ids(None, None, None))
    gone, kept = store.predicate_ids()[:2]
    cut_rows = []
    cut = store_write.cut

    def recorded_cut(index, rows):
        if index is store._pos:
            cut_rows.extend(rows)
        return cut(index, rows)

    monkeypatch.setattr(store_write, "cut", recorded_cut)
    batch = [row for row in model if row[1] == gone] + [row for row in model if row[1] == kept][::2]
    assert store.drop_rows(batch) == sorted(batch)
    assert cut_rows and not [row for row in cut_rows if row[0] == gone]
    assert list(store.match_ids(None, gone, None)) == [] and store.match_count(None, gone, None) == 0
    assert store.verify_indexes() and set(store.match_ids(None, None, None)) == model - set(batch)
    assert saved(store) == oracle_snapshot(store)


def bulk_copy(store):
    copy = Store()
    insert_all(copy, store.triples())
    return copy


def test_distinct_count_against_scan():
    rng = random.Random(13)
    store = random_context_store(rng, 150)
    universe = list(store.match_ids(None, None, None))
    for t in rng.sample(universe, 20):
        for mask in range(7):
            bound = tuple(t[i] if mask & (4 >> i) else None for i in range(3))
            for slot in range(3):
                if bound[slot] is not None:
                    continue
                want = {
                    u[slot]
                    for u in universe
                    if all(b is None or u[i] == b for i, b in enumerate(bound))
                }
                assert store.distinct_count(*bound, slot) == len(want), (bound, slot)


def test_match_unknown_constant_is_empty():
    store, _ = small_store()
    assert list(store.match_terms(Iri("urn:never"), None, None)) == []
    assert list(store.match_terms(None, None, string_literal("never"))) == []


def test_fresh_blank_skips_taken_labels():
    store = Store()
    store.insert(Triple(Blank("genid0"), Iri("urn:p"), Iri("urn:o")))
    blank = store.fresh_blank()
    assert blank != Blank("genid0")
    assert not store.appears(blank)


def test_objects_subjects_helpers():
    store, _ = small_store()
    assert set(store.objects(Iri("urn:s1"), Iri("urn:p1"))) == {Iri("urn:o1"), Iri("urn:o2")}
    assert set(store.subjects(Iri("urn:p1"), Iri("urn:o1"))) == {Iri("urn:s1"), Iri("urn:s2")}


def test_snapshot_round_trip_file(tmp_path):
    store, triples = small_store()
    path = str(tmp_path / "store.bin")
    store.save(path)
    back = Store.load(path)
    assert set(back.triples()) == set(triples)
    assert back.verify_indexes()


def test_snapshot_is_canonical_across_histories():
    rng = random.Random(13)
    store_a = random_context_store(rng, 80)
    triples = list(store_a.triples())

    # different insertion order plus insert/remove churn
    store_b = Store()
    shuffled = triples[:]
    rng.shuffle(shuffled)
    noise = [Triple(Iri(f"urn:noise:{i}"), Iri("urn:p"), integer_literal(i)) for i in range(40)]
    for t in noise:
        store_b.insert(t)
    for t in shuffled:
        store_b.insert(t)
    for t in noise:
        store_b.remove(t)

    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    store_a.save(buf_a)
    store_b.save(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_snapshot_load_rejects_garbage():
    with pytest.raises(SnapshotError):
        Store.load(io.BytesIO(b"not a snapshot at all"))
    store, _ = small_store()
    buf = io.BytesIO()
    store.save(buf)
    data = buf.getvalue()
    with pytest.raises(SnapshotError):
        Store.load(io.BytesIO(data[: len(data) - 3]))
    with pytest.raises(SnapshotError):
        Store.load(io.BytesIO(data + b"trailing"))


# -- the ledger section of a snapshot ---------------------------------------------


def ledgered_store():
    store, triples = small_store()
    store.retag(ledger_ids(store, [triples[0], triples[3]]), "rule_b")
    store.retag(ledger_ids(store, [triples[4]]), "rule_a")
    return store, triples


def saved(store) -> bytes:
    buf = io.BytesIO()
    store.save(buf)
    return buf.getvalue()


def test_snapshot_carries_the_ledger():
    store, _ = ledgered_store()
    back = Store.load(io.BytesIO(saved(store)))
    assert ledger_triples(back) == ledger_triples(store)
    assert saved(back) == saved(store)


def test_snapshot_with_ledger_is_canonical_across_histories():
    store_a, triples = ledgered_store()
    store_b = Store()
    noise = Triple(Iri("urn:noise"), Iri("urn:p9"), integer_literal(1))
    store_b.insert(noise)
    for t in reversed(triples):
        store_b.insert(t)
    # the rules take other tags than in store_a, and rule_c tags no row
    store_b.retag(ledger_ids(store_b, [noise, triples[4]]), "rule_a")
    store_b.retag(ledger_ids(store_b, [triples[3], triples[0]]), "rule_b")
    store_b.retag((), "rule_c")
    store_b.remove(noise)
    assert saved(store_a) == saved(store_b)


def test_empty_ledger_encodes_as_none():
    store, triples = small_store()
    plain = saved(store)
    store.retag((), "rule")
    assert saved(store) == plain
    rows = ledger_ids(store, triples[:2])
    assert store.retag(rows, "rule") == 2 and store.retag(rows, None) == 2
    assert saved(store) == plain


def test_retag_refuses_a_row_the_store_lacks():
    """Every ledger row is a stored row: a retag that names a row the
    store does not hold is refused and changes nothing, so no snapshot can
    carry a ledger triple the store lacks."""
    store, triples = ledgered_store()
    before = saved(store)
    ledger = ledger_triples(store)
    # a term no triple uses, and used terms in a triple the store does not hold
    store.intern(Iri("urn:s9"))
    for stray in (
        Triple(Iri("urn:s9"), Iri("urn:p1"), Iri("urn:o1")),
        Triple(Iri("urn:s2"), Iri("urn:p2"), string_literal("x")),
    ):
        rows = ledger_ids(store, [triples[1], stray])
        for rule in ("rule", "rule_a", None):
            with pytest.raises(LedgerError, match="not in the store"):
                store.retag(rows, rule)
        assert ledger_triples(store) == ledger and saved(store) == before


def test_a_ledger_names_at_most_255_rules():
    store = Store()
    triples = [Triple(Iri(f"urn:s{k:03}"), Iri("urn:p"), integer_literal(k)) for k in range(256)]
    insert_all(store, triples)
    for k, triple in enumerate(triples[:255]):
        store.retag(ledger_ids(store, [triple]), f"rule{k:03}")
    # the 256th name would need tag 256, which no byte holds
    with pytest.raises(LedgerError, match="at most 255 rules"):
        store.retag(ledger_ids(store, triples[255:]), "one too many")
    with pytest.raises(LedgerError, match="at most 255 rules"):
        store.add_rows([(0, 0, 0)], "one too many")
    assert len(store) == 256 and len(store.ledger_counts()) == 255
    data = saved(store)
    assert data == oracle_snapshot(store)
    back = Store.load(io.BytesIO(data))
    assert ledger_triples(back) == ledger_triples(store) and saved(back) == data


def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    store, _ = small_store()
    path = str(tmp_path / "store.bin")
    calls = []
    replace, fsync = os.replace, os.fsync

    def record_replace(src, dst):
        replace(src, dst)
        calls.append(("replace", dst))

    def record_fsync(fd):
        fsync(fd)
        calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))

    monkeypatch.setattr(os, "replace", record_replace)
    monkeypatch.setattr(os, "fsync", record_fsync)
    store.save(path)
    # the temporary file is synced before the rename, its directory after
    assert calls == [("fsync", False), ("replace", path), ("fsync", True)]
    assert Store.load(path).stats() == store.stats()


def test_corrupt_ledger_sections_are_rejected():
    store, _ = ledgered_store()
    data = saved(store)
    assert data == oracle_snapshot(store)
    assert ledger_triples(Store.load(io.BytesIO(data))) == ledger_triples(store)
    header, (terms, spo, ledger) = oracle_sections(store)
    rules, tags = ["rule_a", "rule_b"], list(ledger[-len(store) :])
    assert ledger == ledger_section(rules, tags) and sorted(tags) == [0, 0, 1, 2, 2]

    def with_ledger(raw: bytes) -> bytes:
        return header + packed(terms) + packed(spo) + packed(raw)

    corrupt = [
        ("out of range \\(2 rules\\)", ledger_section(rules, tags[:-1] + [3])),
        ("out of range \\(2 rules\\)", ledger_section(rules, [255] + tags[1:])),
        ("holds 4 tags, not one per triple \\(5\\)", ledger_section(rules, tags[:-1])),
        ("holds 6 tags, not one per triple \\(5\\)", ledger_section(rules, tags + [0])),
        ("rule 'rule_c' of the ledger section tags no row", ledger_section(rules + ["rule_c"], tags)),
        ("not distinct and in name order", ledger_section(rules[::-1], [(3 - t) % 3 for t in tags])),
        ("not distinct and in name order", ledger_section(["rule_a", "rule_a"], tags)),
        ("rule name in the ledger section is not UTF-8", ledger.replace(b"rule_b", b"rule_\xff")),
        ("trailing bytes in ledger section", ledger + b"\0"),
        ("truncated ledger section", ledger[:-1]),  # in the tag column
        ("truncated ledger section", ledger[:10]),  # in the rule table
        ("truncated ledger section", b""),  # before the rule count
    ]
    for reason, raw in corrupt:
        with pytest.raises(SnapshotError, match=reason):
            Store.load(io.BytesIO(with_ledger(raw)))
    for reason, bad in (("truncated ledger section", data[:-5]), ("trailing bytes after snapshot", data + b"\0")):
        with pytest.raises(SnapshotError, match=reason):
            Store.load(io.BytesIO(bad))


def test_corrupt_packed_sections_name_the_section():
    store, _ = ledgered_store()
    header, sections = oracle_sections(store)
    names = ("term section", "SPO run", "ledger section")
    for k, (name, raw) in enumerate(zip(names, sections)):
        stream = zlib.compress(raw, 1)
        garbled = bytearray(stream)
        garbled[len(garbled) // 2] ^= 0xFF
        wrong = {
            "garbled": struct.pack("<QQ", len(raw), len(garbled)) + garbled,
            "shorter than its raw length": struct.pack("<QQ", len(raw) + 1, len(stream)) + stream,
            "longer than its raw length": struct.pack("<QQ", len(raw) - 1, len(stream)) + stream,
            "followed by extra bytes": struct.pack("<QQ", len(raw), len(stream) + 2) + stream + b"\0\0",
            "cut short": struct.pack("<QQ", len(raw), len(stream) + 1) + stream,
            "without its checksum": struct.pack("<QQ", len(raw), len(stream) - 4) + stream[:-4],
            "of a raw length no buffer holds": struct.pack("<QQ", (1 << 64) - 1, len(stream)) + stream,
        }
        for how, section in wrong.items():
            data = header + b"".join(section if j == k else packed(other) for j, other in enumerate(sections))
            with pytest.raises(SnapshotError, match=f"(corrupt|truncated) {name}"):
                Store.load(io.BytesIO(data))
    assert saved(Store.load(io.BytesIO(oracle_snapshot(store)))) == saved(store)


def test_corrupt_spo_runs_are_rejected():
    store, _ = small_store()
    header, (terms, spo, ledger) = oracle_sections(store)
    term_count, triple_count = struct.unpack_from("<II", header, len(b"SGRAPH") + 2)
    rows = list(Store.load(io.BytesIO(saved(store))).match_ids(None, None, None))
    counts, p, o = (spo_column(term_count, rows, slot) for slot in range(3))
    first = counts.index(max(counts))  # a subject with two rows or more

    def with_spo(counts: list[int], p: list[int], o: list[int]) -> bytes:
        return header + packed(terms) + packed(planes(counts) + planes(p) + planes(o)) + packed(ledger)

    assert with_spo(counts, p, o) == saved(store)
    more = counts[:first] + [counts[first] + 1] + counts[first + 1 :]
    at = sum(counts[:first])  # that subject's first two rows, swapped

    def swapped(column: list[int]) -> list[int]:
        return column[:at] + [column[at + 1], column[at]] + column[at + 2 :]

    corrupt = {
        "does not match the header's counts": with_spo(counts, p, o + [0]),
        "counts do not sum to the triple count": with_spo(more, p, o),
        "term id out of range in SPO run": with_spo(counts, p, [term_count] + o[1:]),
        "SPO run is not strictly ascending": with_spo(counts, swapped(p), swapped(o)),
    }
    for reason, bad in corrupt.items():
        with pytest.raises(SnapshotError, match=reason):
            Store.load(io.BytesIO(bad))


@pytest.mark.parametrize("seed", range(6))
def test_random_spo_run_faults_are_found_column_wise(seed):
    """The load checks a subject's rows for strict (predicate, object) order
    and the predicate and object ids for range, whichever byte plane holds
    the fault; the rows of two subjects need not be in (predicate, object)
    order, and a range fault is named before an order fault."""
    rng = random.Random(seed)
    store = random_context_store(rng, rng.randrange(20, 120))
    data = saved(store)
    rows = list(Store.load(io.BytesIO(data)).match_ids(None, None, None))
    header, (terms, _, _) = oracle_sections(store)
    term_count = struct.unpack_from("<I", header, len(b"SGRAPH") + 2)[0]

    def snapshot(rows):
        spo = spo_section(term_count, rows)
        ledger = ledger_section([], [0] * len(rows))
        return snapshot_header(term_count, len(rows)) + packed(terms) + packed(spo) + packed(ledger)

    def fault(rows):
        with pytest.raises(SnapshotError) as raised:
            Store.load(io.BytesIO(snapshot(rows)))
        return str(raised.value)

    def changed(k, p=None, o=None):
        s, p0, o0 = rows[k]
        return rows[:k] + [(s, p0 if p is None else p, o0 if o is None else o)] + rows[k + 1 :]

    assert saved(Store.load(io.BytesIO(snapshot(rows)))) == data
    within = [k for k in range(len(rows) - 1) if rows[k][0] == rows[k + 1][0]]
    # a subject's last (p, o) above the next subject's first: the store loads
    assert [k for k in range(len(rows) - 1) if rows[k][0] != rows[k + 1][0] and rows[k][1:] > rows[k + 1][1:]]
    last = [k for k in range(len(rows)) if k + 1 == len(rows) or rows[k][0] != rows[k + 1][0]]
    ascending = "SPO run is not strictly ascending"
    out_of_range = "term id out of range in SPO run"
    for _ in range(4):
        k = rng.choice(within)
        assert fault(rows[:k] + [rows[k + 1], rows[k]] + rows[k + 2 :]) == ascending
        k = rng.randrange(len(rows))
        assert fault(rows[: k + 1] + rows[k:]) == ascending
        # a subject's last row may take the largest predicate or object, so
        # its order holds; an id out of range by a high byte alone is found
        k = rng.choice(last)
        assert fault(changed(k, p=term_count)) == out_of_range
        assert fault(changed(k, o=term_count + rng.randrange(3))) == out_of_range
        assert fault(changed(k, o=rows[k][2] + (1 << rng.choice((16, 24, 31))))) == out_of_range
        assert fault(changed(k, p=2**32 - 1)) == out_of_range
        # both faults: the range's is named
        j = rng.choice([j for j in within if j + 1 != k])
        both = changed(k, o=term_count)
        assert fault(both[:j] + [both[j + 1], both[j]] + both[j + 2 :]) == out_of_range


def test_id_columns_are_stored_as_byte_planes_least_significant_first():
    """Every byte of a u32 id goes to its plane and back, up to 2**32 - 1,
    as the oracle's value-by-value encoding puts it; the snapshots of real
    stores use the two low planes alone."""
    rng = random.Random(29)
    values = [0, 1, 255, 256, 65_535, 65_536, 2**24 - 1, 2**24, 2**31, 2**32 - 2, 2**32 - 1]
    values += [rng.randrange(2**32) for _ in range(300)] + [rng.randrange(256) << 8 * rng.randrange(4) for _ in range(300)]
    for column in (values, values[:1], []):
        raw = b"".join(store_write._planes(array("I", column)))
        assert raw == planes(column)
        assert from_planes(raw, 0, len(column)) == column
        assert store_module._ids(b"pad" + raw + b"more", 3, len(column)).tolist() == column


def test_a_host_of_the_other_byte_order_writes_the_same_bytes_and_loads_the_same_store(monkeypatch):
    """A host of the other byte order holds each id byteswapped in memory and
    takes each plane from the other end of an id.  Simulated at the codec's
    edge (the writer is handed each column byteswapped, and the reader's
    column is byteswapped back), such a host writes this host's bytes and
    loads the same store from them."""
    other = tuple(reversed(store_module._PLANES))
    planes_of, ids = store_write._planes, store_module._ids

    def swapped(column: array) -> array:
        column = array("I", column)
        column.byteswap()
        return column

    def write(column: array):
        with monkeypatch.context() as patched:
            patched.setattr(store_write, "_PLANES", other)
            return list(planes_of(swapped(column)))

    def read(raw: bytes, start: int, count: int) -> array:
        with monkeypatch.context() as patched:
            patched.setattr(store_module, "_PLANES", other)
            return swapped(ids(raw, start, count))

    for store in (ledgered_store()[0], random_context_store(random.Random(22), 60)):
        data = saved(store)
        with monkeypatch.context() as host:
            host.setattr(store_write, "_planes", write)
            host.setattr(store_module, "_ids", read)
            assert saved(store) == data
            back = Store.load(io.BytesIO(data))
        assert back.verify_indexes()
        assert exported(back) == exported(store) == oracle_export(store)
        assert ledger_triples(back) == ledger_triples(store)
        assert saved(back) == data


def test_a_snapshot_stays_within_its_size_budget():
    """The bytes per triple of a snapshot of about 30k triples: 2.91 with
    its id columns stored as byte planes, against 3.56 as whole ids and
    18.24 unpacked, with a subject column and a header per term."""
    store = random_context_store(random.Random(1), 5000)
    assert len(store) == 29_496
    assert len(saved(store)) / len(store) < 3.0


def test_corrupt_term_sections_are_rejected():
    good = encoded(0, b"urn:ok")
    assert Store.load(io.BytesIO(term_table_snapshot(good))).decode(0) == Iri("urn:ok")
    corrupt = {
        "IRI contains whitespace": encoded(0, b"urn:a b"),
        "not a normalized ISO-8601": encoded(2, b"20x7", datatype=3),
        "bad blank node label": encoded(1, b"a!b"),
        "unknown term kind: 7": encoded(7, b"urn:x"),
        "unknown datatype 9": encoded(2, b"7", datatype=9),
        "codec can't decode": encoded(0, b"urn:\xff\xfe"),
    }
    for reason, bad in corrupt.items():
        with pytest.raises(SnapshotError, match=reason):
            Store.load(io.BytesIO(term_table_snapshot(good, bad)))
    # cut inside the last term's payload, inside the run's length column
    # (one length and both payloads), and before a whole run
    with pytest.raises(SnapshotError, match="truncated term payload"):
        Store.load(io.BytesIO(term_table_snapshot(good, encoded(0, b"urn:xyzzy"), cut=6)))
    with pytest.raises(SnapshotError, match="truncated term section"):
        Store.load(io.BytesIO(term_table_snapshot(good, encoded(0, b"urn:xyzzy"), cut=4 + 6 + 9)))
    with pytest.raises(SnapshotError, match="holds 1 terms, not the header's 2"):
        Store.load(io.BytesIO(term_table_snapshot(good, encoded(1, b"b0"), cut=1 + 4 + 4 + 2)))
    with pytest.raises(SnapshotError, match="duplicate terms"):
        Store.load(io.BytesIO(term_table_snapshot(good, encoded(0, b"urn:x"), good)))


def load_error(data: bytes) -> str:
    with pytest.raises(SnapshotError) as raised:
        Store.load(io.BytesIO(data))
    return str(raised.value)


def test_term_checks_reject_as_the_per_term_decode_does():
    good = [
        encoded(0, b"urn:a"),
        encoded(0, b"urn:b"),
        encoded(1, b"b0"),
        encoded(2, b"line one\nline two", datatype=0),
        encoded(2, b"-7", datatype=1),
        encoded(2, b".5", datatype=2),
        encoded(2, b"2007", datatype=3),
        encoded(2, b"2008-02-29", datatype=3),
        encoded(2, b"2007-05-01T10:30:00+00:00", datatype=3),
    ]
    assert Store.load(io.BytesIO(term_table_snapshot(*good))).term_count() == len(good)
    bad = {
        "empty IRI": encoded(0, b""),
        "no-break space in an IRI": encoded(0, "urn:a\u00a0b".encode()),
        "line separator in an IRI": encoded(0, "urn:a\u2028b".encode()),
        "bad integer": encoded(2, b"7.5", datatype=1),
        "two integers on two lines": encoded(2, b"7\n8", datatype=1),
        "bad decimal": encoded(2, b"1.2.3", datatype=2),
        "no such date": encoded(2, b"2007-02-30", datatype=3),
        "malformed timestamp": encoded(2, b"2007-05-01T25:61:00", datatype=3),
        "two years on two lines": encoded(2, b"2007\n2008", datatype=3),
        "bad blank label": encoded(1, b"a!b"),
        "blank label ending in a dot": encoded(1, b"ab."),
        "two blank labels on two lines": encoded(1, b"a\nb"),
        "unknown datatype": encoded(2, b"7", datatype=9),
        "unknown kind": encoded(7, b"urn:x"),
        "bad UTF-8": encoded(0, b"urn:\xff"),
        "duplicate term": good[1],
    }
    for name, term in bad.items():
        for table in (good[:4] + [term] + good[4:], good + [term], [term] + good):
            data = term_table_snapshot(*table)
            with pytest.raises(SnapshotError) as expected:
                oracle_load_terms(data)
            assert load_error(data) == str(expected.value), name
    # a run cut in its payload, its length column or its count, or cut away,
    # alone and after a bad term: the first fault in table order wins
    for table in (good, [bad["bad decimal"]] + good, good[:3] + [bad["bad blank label"]] + good[3:]):
        for cut in (6, 12, 16, 18):
            data = term_table_snapshot(*table, encoded(0, b"urn:xyzzy"), cut=cut)
            with pytest.raises(SnapshotError) as expected:
                oracle_load_terms(data)
            assert load_error(data) == str(expected.value), cut
    # two bad terms of different kinds, in either order
    for first, second in (("bad integer", "empty IRI"), ("empty IRI", "bad integer"), ("no such date", "unknown kind")):
        data = term_table_snapshot(good[0], bad[first], good[2], bad[second])
        with pytest.raises(SnapshotError) as expected:
            oracle_load_terms(data)
        assert load_error(data) == str(expected.value), (first, second)


def random_term(rng: random.Random):
    """An IRI, blank or literal whose sort key falls before, between or
    after those of earlier draws."""
    k = rng.randrange(300)
    kind = rng.randrange(8)
    if kind < 3:
        return Iri(f"urn:{rng.choice('amz')}:{k}")
    if kind == 3:
        return Blank(f"b{k}")
    if kind == 4:
        return integer_literal(k - 150)
    if kind == 5:
        return decimal_literal(f"{k}.{rng.randrange(10)}")
    if kind == 6:
        return rng.choice((year_literal(1900 + k), datetime_literal(f"{1900 + k}-0{1 + k % 9}-1{k % 10}T10:00:00")))
    return string_literal(f"s{k}")


def random_writes(rng: random.Random, store: Store, held: list[Triple]) -> None:
    """Some inserts of random (often fresh) terms, some with ledger
    entries, drops of every triple of a subject, and interned terms that no
    triple uses; ``held`` tracks the store's triples."""
    for _ in range(rng.randrange(10, 90)):
        roll = rng.random()
        if roll < 0.55 or not held:
            subject = random_term(rng)
            if isinstance(subject, Literal):
                subject = Iri(f"urn:s:{subject.lexical}")
            triple = Triple(subject, Iri(f"urn:p:{rng.randrange(6)}"), random_term(rng))
            if store.insert(triple):
                held.append(triple)
                if rng.random() < 0.3:
                    store.retag([store.lookup_triple(triple)], rng.choice(("metric", "rule_a", "used_by")))
        elif roll < 0.85:
            # drop every triple of one subject, so its terms may die
            subject = rng.choice(held).subject
            for triple in [t for t in held if t.subject == subject]:
                assert store.remove(triple)
                held.remove(triple)
        else:
            store.intern(random_term(rng))  # a term no triple uses


def test_save_writes_what_the_reference_encoder_writes_over_random_histories():
    for seed in range(12):
        rng = random.Random(seed)
        store = Store()
        held: list[Triple] = []
        for _cycle in range(5):
            random_writes(rng, store, held)
            data = saved(store)
            assert data == oracle_snapshot(store), seed
            store = Store.load(io.BytesIO(data))
            assert saved(store) == data, seed


@pytest.mark.parametrize("seed", range(8))
def test_a_batch_into_an_empty_store_saves_as_the_triples_inserted_one_by_one(seed):
    """add_rows of a random batch with repeated rows into an empty store,
    given as id columns or as id triples, with subjects in any order or
    never descending (as map hands them), leaves the store, and the bytes
    of its save, that inserting the same triples one at a time gives; it
    returns the distinct rows in SPO order, in the form it was given."""
    rng = random.Random(seed)
    terms = [random_term(rng) for _ in range(80)]
    nodes = [term for term in terms if not isinstance(term, Literal)]
    predicates = [Iri(f"urn:p:{k}") for k in range(5)]
    triples = [Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(terms)) for _ in range(rng.randrange(1, 300))]
    triples += rng.choices(triples, k=len(triples) // 2)
    rule = rng.choice((None, "rule_a"))
    one_by_one = Store()
    for triple in triples:
        one_by_one.insert(triple)
    if rule is not None:
        one_by_one.retag(list(one_by_one.match_ids(None, None, None)), rule)
    expected = saved(one_by_one)
    for form in ("columns", "triples"):
        store = Store()
        store.intern(random_term(rng))  # a term no triple uses
        rows = [(store.intern(t.subject), store.intern(t.predicate), store.intern(t.object)) for t in triples]
        if seed % 2:
            rows.sort(key=lambda row: row[0])
        if form == "columns":
            added = store.add_rows(IdColumns(*(array("I", column) for column in zip(*rows))), rule)
            assert isinstance(added, IdColumns) and list(zip(*added)) == sorted(set(rows)), form
        else:
            assert store.add_rows(iter(rows), rule) == sorted(set(rows)), form
        assert store.verify_indexes() and set(store.triples()) == set(triples), form
        assert saved(store) == expected == oracle_snapshot(one_by_one), form


def exported(store: Store) -> bytes:
    buf = io.BytesIO()
    assert write_ntriples(*store.canonical_run(), buf) == len(store)
    return buf.getvalue()


def test_export_writes_what_the_sorted_oracle_writes_over_random_histories():
    for seed in range(12):
        rng = random.Random(seed)
        store = Store()
        held: list[Triple] = []
        for cycle in range(5):
            # the first cycle writes into a store that was never loaded
            random_writes(rng, store, held)
            assert exported(store) == oracle_export(store), (seed, cycle)
            store = Store.load(io.BytesIO(saved(store)))
            assert exported(store) == oracle_export(store), (seed, cycle)


def test_a_term_table_out_of_canonical_order_loads_and_saves_canonically():
    store, _ = small_store()
    canonical = saved(store)
    terms = [encoded(0, b"urn:z"), encoded(2, b"7", datatype=1), encoded(0, b"urn:a")]
    back = Store.load(io.BytesIO(term_table_snapshot(*terms)))
    assert [back.decode(i) for i in range(3)] == [Iri("urn:z"), integer_literal(7), Iri("urn:a")]
    for triple in small_store()[1]:
        back.insert(triple)
    assert saved(back) == canonical
    assert exported(back) == oracle_export(back)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_the_garbage_collector_and_restores_it(enabled, monkeypatch):
    data = saved(small_store()[0])
    during = []
    decode_terms = store_module._decode_terms

    def spy(*args):
        during.append(gc.isenabled())
        return decode_terms(*args)

    monkeypatch.setattr(store_module, "_decode_terms", spy)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        Store.load(io.BytesIO(data))
        assert gc.isenabled() is enabled
        with pytest.raises(SnapshotError):
            Store.load(io.BytesIO(data + b"\0"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


def test_version_one_snapshot_is_rejected():
    data = bytearray(saved(small_store()[0]))
    for version in (1, 2, 3, 4):
        struct.pack_into("<H", data, len(b"SGRAPH"), version)
        with pytest.raises(SnapshotError, match=f"version {version}.*`map` and then `infer`"):
            Store.load(io.BytesIO(bytes(data)))


def test_isomorphic_identity_and_ground_difference():
    store_a, _ = small_store()
    store_b, _ = small_store()
    assert isomorphic(store_a, store_b)
    store_b.insert(Triple(Iri("urn:extra"), Iri("urn:p"), Iri("urn:o")))
    assert not isomorphic(store_a, store_b)


def test_isomorphic_under_blank_renaming():
    def build(label_one, label_two):
        store = Store()
        store.insert(Triple(Blank(label_one), Iri("urn:p"), Iri("urn:o1")))
        store.insert(Triple(Blank(label_one), Iri("urn:p"), Blank(label_two)))
        store.insert(Triple(Blank(label_two), Iri("urn:q"), decimal_literal("1.0")))
        return store

    assert isomorphic(build("a", "b"), build("x", "y"))
    # same shape but a swapped edge is not isomorphic
    other = Store()
    other.insert(Triple(Blank("x"), Iri("urn:p"), Iri("urn:o1")))
    other.insert(Triple(Blank("y"), Iri("urn:p"), Blank("x")))
    other.insert(Triple(Blank("y"), Iri("urn:q"), decimal_literal("1.0")))
    assert not isomorphic(build("a", "b"), other)


def test_isomorphic_symmetric_blanks():
    def pair_store(n):
        store = Store()
        for i in range(n):
            store.insert(Triple(Blank(f"n{i}"), Iri("urn:p"), year_literal(2007)))
        return store

    assert isomorphic(pair_store(4), pair_store(4))
    assert not isomorphic(pair_store(4), pair_store(5))


def test_stats_reconcile():
    store, triples = small_store()
    stats = store.stats()
    assert stats["triples"] == len(triples)
    assert stats["terms"] == store.term_count()


def test_large_random_round_trip_via_snapshot():
    rng = random.Random(14)
    store = random_context_store(rng, 400)
    buf = io.BytesIO()
    store.save(buf)
    buf.seek(0)
    back = Store.load(buf)
    assert set(back.triples()) == set(store.triples())


# -- a save killed part-way -------------------------------------------------------

# Loads the snapshot at argv[1], changes it, and saves it over itself.  The
# kill named by argv[2] is injected by wrapping the calls the save makes:
# "bytes:K" after K bytes of <store>.tmp, "fsync" before the file is
# synced, "replace" before the rename, "renamed" after it, "none" not at all.
SAVE_CHILD = """
import os, signal, sys
import scholargraph.store_write as store_write
from scholargraph.store import Store
from scholargraph.terms import Iri, Triple, integer_literal

path, point = sys.argv[1], sys.argv[2]


def die():
    os.kill(os.getpid(), signal.SIGKILL)


class KilledAfter:
    def __init__(self, fp, limit):
        self.fp, self.room = fp, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fp.__exit__(*exc)

    def writelines(self, chunks):
        for chunk in chunks:
            data = memoryview(chunk).cast("B")
            if len(data) >= self.room:
                self.fp.write(data[: self.room])
                self.fp.flush()
                die()
            self.fp.write(data)
            self.room -= len(data)

    def __getattr__(self, name):
        return getattr(self.fp, name)


if point.startswith("bytes:"):
    limit = int(point[6:])
    store_write.open = lambda name, mode: KilledAfter(open(name, mode), limit)
elif point == "fsync":
    store_write.os.fsync = lambda fd: die()
elif point in ("replace", "renamed"):
    replace = os.replace

    def killing_replace(src, dst):
        if point == "renamed":
            replace(src, dst)
        die()

    store_write.os.replace = killing_replace

store = Store.load(path)
rows = list(store.match_ids(None, None, None))
store.drop_rows(rows[::4])
store.add_rows([(store.intern(Iri(f"urn:{c}:new")), rows[0][1], store.intern(integer_literal(7))) for c in "amz"])
store.save(path)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_save_killed_at_any_point_leaves_the_old_or_the_new_snapshot(tmp_path):
    old = saved(random_context_store(random.Random(20), 60))
    path = str(tmp_path / "graph.store")
    script = tmp_path / "save_child.py"
    script.write_text(SAVE_CHILD, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(store_module.__file__)))

    def run(point):
        with open(path, "wb") as fp:
            fp.write(old)
        if os.path.exists(path + ".tmp"):
            os.unlink(path + ".tmp")
        return subprocess.run([sys.executable, str(script), path, point], env=env, capture_output=True, timeout=120)

    assert run("none").returncode == 0
    with open(path, "rb") as fp:
        new = fp.read()
    assert new != old
    sizes = (0, 1, 17, len(new) // 2, len(new) - 1, len(new))
    for point in [f"bytes:{k}" for k in sizes] + ["fsync", "replace", "renamed"]:
        done = run(point)
        assert done.returncode == -signal.SIGKILL, (point, done.stderr[-500:])
        with open(path, "rb") as fp:
            data = fp.read()
        assert data == (new if point == "renamed" else old), point
        if point.startswith("bytes:"):  # killed where it was meant to be
            assert os.path.getsize(path + ".tmp") == int(point[6:]), point
        assert saved(Store.load(path)) == data, point


def test_a_load_stays_within_its_memory_budget():
    """The peak that a load of a snapshot of about 30k triples allocates, under
    tracemalloc: 69.5 B per triple (65.3 B kept) with no POS run and no term
    object built, against 149.8 B (80.9 B kept) when a load built both
    permutations and every term; that was 148.8 B per triple (79.9 B kept)
    from packed sections, with the subject counts and the raw sections held
    for a while, against 146.7 B (79.1 B kept) unpacked, and 268 B with a
    column pair per subject."""
    data = saved(random_context_store(random.Random(1), 5000))
    gc.collect()
    tracemalloc.start()
    try:
        store = Store.load(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(store) > 25_000
    assert peak / len(store) < 100


def test_a_loaded_ledger_stays_within_its_memory_budget():
    """What a loaded store of about 30k triples keeps, under tracemalloc,
    for a ledger of 10k rows beyond what it keeps for the same triples with
    no ledger: 0.8 B per ledger row, since a row's rule is the tag byte
    every SPO row has, against 150.6 B with a set of id tuples per rule."""
    store = random_context_store(random.Random(1), 5000)
    plain = saved(store)
    rows = random.Random(2).sample(sorted(store.match_ids(None, None, None)), 10_000)
    for k, rule in enumerate(("metric", "rule_a", "used_by")):
        store.retag(rows[k::3], rule)
    ledgered = saved(store)

    def kept(data: bytes) -> tuple[Store, int]:
        gc.collect()
        tracemalloc.start()
        try:
            loaded = Store.load(io.BytesIO(data))
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return loaded, size

    back, with_ledger = kept(ledgered)
    assert sum(back.ledger_counts().values()) == 10_000
    _, without = kept(plain)
    assert (with_ledger - without) / 10_000 < 8
