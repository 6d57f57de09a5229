"""Condensation: the four relations against definitional and brute-force oracles."""

import importlib
import random
import zlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    DominanceRelation,
    InputError,
    Itemset,
    KindMismatchError,
    LabeledGraph,
    MinSupport,
    PatternRecord,
    Sequence,
    SymbolTable,
    brute_force_condense,
    condense,
    dominates,
    mine_frequent_itemsets,
)
from siftmine.errors import BoundExceededError

from helpers import DEFINITIONAL, included, random_records

# The package re-exports the function condense, which hides the module of that name.
condense_module = importlib.import_module("siftmine.condense")


class TestParse:
    def test_names(self):
        for name in ("maximal", "closed", "free", "skyline"):
            assert DominanceRelation.parse(name).value == name
        assert DominanceRelation.parse(" Closed ") is DominanceRelation.CLOSED
        with pytest.raises(InputError):
            DominanceRelation.parse("bogus")


class TestDominates:
    def test_closed_equal_support_inclusion(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(2))
        by = {toy_items.labels_of(r.pattern): r for r in recs}
        a, ae, e = by[("a",)], by[("a", "e")], by[("e",)]
        assert dominates(a, ae, DominanceRelation.CLOSED)  # sup 2 == sup 2, a < ae
        assert not dominates(e, ae, DominanceRelation.CLOSED)  # sup 3 != 2
        assert dominates(a, ae, DominanceRelation.MAXIMAL)
        assert dominates(e, ae, DominanceRelation.MAXIMAL)
        assert dominates(ae, a, DominanceRelation.FREE)
        assert not dominates(a, e, DominanceRelation.FREE)

    def test_skyline_axes(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(2))
        by = {toy_items.labels_of(r.pattern): r for r in recs}
        a, ae, e = by[("a",)], by[("a", "e")], by[("e",)]
        # {a}: sup 2 size 1; {a,e}: sup 2 size 2 -> {a,e} dominates {a}
        assert dominates(a, ae, DominanceRelation.SKYLINE)
        # {e}: sup 3 size 1 vs {a,e}: sup 2 size 2 -> incomparable
        assert not dominates(e, ae, DominanceRelation.SKYLINE)
        assert not dominates(ae, e, DominanceRelation.SKYLINE)

    def test_kind_mismatch(self):
        symbols = SymbolTable()
        x = symbols.intern("x")
        it = PatternRecord(pid=1, pattern=Itemset.of((x,)), support=1, cover=frozenset({1}), size=1)
        sq = PatternRecord(pid=2, pattern=Sequence.of((x,)), support=1, cover=frozenset({1}), size=1)
        with pytest.raises(KindMismatchError):
            dominates(it, sq, DominanceRelation.MAXIMAL)
        with pytest.raises(KindMismatchError):
            condense([it, sq], DominanceRelation.MAXIMAL)

    def test_sequence_dominance_uses_full_embedding(self):
        # <a b> embeds into <a b a>; a pairwise-order check alone can miss
        # the repeat structure, the embedding test cannot
        symbols = SymbolTable()
        a, b = symbols.intern("a"), symbols.intern("b")
        small = PatternRecord(pid=1, pattern=Sequence.of((a, b)), support=2,
                              cover=frozenset({1, 2}), size=2)
        large = PatternRecord(pid=2, pattern=Sequence.of((a, b, a)), support=2,
                              cover=frozenset({1, 2}), size=3)
        assert dominates(small, large, DominanceRelation.CLOSED)
        assert not dominates(large, small, DominanceRelation.CLOSED)
        # equal sequences never dominate each other
        twin = PatternRecord(pid=3, pattern=Sequence.of((a, b)), support=2,
                             cover=frozenset({1, 2}), size=2)
        assert not dominates(small, twin, DominanceRelation.MAXIMAL)


class TestWorkedExample:
    WANT = {
        "closed": {("e",), ("a", "e"), ("b", "e")},
        "maximal": {("a", "e"), ("b", "e")},
        "free": {("a",), ("b",), ("e",)},
        "skyline": {("e",), ("a", "e"), ("b", "e")},
    }

    @pytest.mark.parametrize("rel", ["closed", "maximal", "free", "skyline"])
    def test_table_values(self, toy_items, rel):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(2))
        kept = condense(recs, DominanceRelation.parse(rel))
        assert {toy_items.labels_of(r.pattern) for r in kept} == self.WANT[rel]

    def test_order_preserved(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(2))
        for rel in DominanceRelation:
            kept = condense(recs, rel)
            pids = [r.pid for r in kept]
            assert pids == sorted(pids)


class TestStructuralProperties:
    def test_maximal_subset_of_closed(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        maximal = {r.pid for r in condense(recs, DominanceRelation.MAXIMAL)}
        closed = {r.pid for r in condense(recs, DominanceRelation.CLOSED)}
        assert maximal <= closed

    def test_skyline_antichain(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        sky = condense(recs, DominanceRelation.SKYLINE)
        for p in sky:
            for q in sky:
                if p is not q:
                    assert not dominates(p, q, DominanceRelation.SKYLINE)

    def test_closed_support_reconstruction(self, toy_items):
        # every frequent itemset's support equals the max support of a closed
        # superset (with equal support), so the closed set is lossless
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        closed = condense(recs, DominanceRelation.CLOSED)
        for r in recs:
            matches = [
                c.support
                for c in closed
                if r.pattern.as_set() <= c.pattern.as_set() and c.support == r.support
            ]
            assert matches, f"{r.pattern} lost by closed set"

    def test_idempotent(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        for rel in DominanceRelation:
            once = condense(recs, rel)
            assert condense(once, rel) == once


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ["itemset", "sequence", "graph"])
    def test_three_way_agreement_seeded(self, kind):
        rng = random.Random(zlib.crc32(kind.encode()))
        trials = 40 if kind == "graph" else 110
        for trial in range(trials):
            records = random_records(rng, kind)
            for rel in DominanceRelation:
                fast = condense(records, rel)
                slow = brute_force_condense(records, rel)
                assert [r.pid for r in fast] == [r.pid for r in slow], (trial, rel)
                defn = DEFINITIONAL[rel.value](records)
                assert [r.pid for r in fast] == [r.pid for r in defn], (trial, rel)

    def test_brute_force_bound(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        with pytest.raises(BoundExceededError):
            brute_force_condense(recs, DominanceRelation.CLOSED, bound=3)


@st.composite
def graphs(draw):
    # possibly edgeless; two or three edge labels, and labels 3 and 5 keep some graphs off the
    # unique-labeled path
    n = draw(st.integers(1, 4))
    vertices = list(enumerate(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edge_labels = draw(st.sampled_from([[0, 3], [0, 3, 5]]))
    edges = [(u, v, draw(st.sampled_from(edge_labels))) for u, v in chosen]
    return LabeledGraph.of(vertices, edges)


def edge_types(g: LabeledGraph) -> Counter:
    """The multiset of ({endpoint labels}, edge label) over g's edges."""
    lbl = dict(g.vertices)
    return Counter((frozenset((lbl[u], lbl[v])), el) for u, v, el in g.edges)


@st.composite
def file_like_records(draw, kind):
    """Records the miners never produce but a pattern file can hold."""
    if kind == "itemset":
        itemsets = st.sets(st.integers(0, 4), min_size=1, max_size=4).map(Itemset.of)
        patterns = draw(st.lists(itemsets, max_size=12))
    elif kind == "sequence":
        # three symbols, up to five long: repeats are common
        sequences = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(Sequence.of)
        patterns = draw(st.lists(sequences, max_size=12))
    else:
        patterns = draw(st.lists(graphs(), max_size=10))
        # same edges plus an isolated vertex: a proper container of equal size
        for g in draw(st.lists(st.sampled_from(patterns), max_size=3)) if patterns else []:
            vid = g.vertices[-1][0] + 1
            patterns.append(LabeledGraph(g.vertices + ((vid, draw(st.integers(1, 2))),), g.edges))
        # plus a new vertex that copies one edge's type: a container that repeats an edge type
        with_edges = [g for g in patterns if g.edges]
        for g in draw(st.lists(st.sampled_from(with_edges), max_size=3)) if with_edges else []:
            u, v, el = draw(st.sampled_from(g.edges))
            vid = g.vertices[-1][0] + 1
            patterns.append(LabeledGraph.of(g.vertices + ((vid, g.label_map[v]),), g.edges + ((u, vid, el),)))
    if patterns:
        patterns += draw(st.lists(st.sampled_from(patterns), max_size=3))  # duplicates, new pids
    records = []
    for pid, pattern in enumerate(draw(st.permutations(patterns)), start=1):
        support = draw(st.integers(0, 3))
        # covers are never checked against data, and may be absent
        covers = st.frozensets(st.integers(1, 6), min_size=support, max_size=support)
        cover = draw(st.none() | covers)
        records.append(PatternRecord(pid, pattern, support, cover, pattern.size))
    return records


INCLUSION_RELATIONS = (DominanceRelation.MAXIMAL, DominanceRelation.CLOSED, DominanceRelation.FREE)


def dominance_pairs(records, rel):
    """(included side, container) of every pair condense hands dominates() under rel."""
    tested = []
    original = condense_module.dominates

    def recording(p, q, relation):
        tested.append((q, p) if relation is DominanceRelation.FREE else (p, q))
        return original(p, q, relation)

    with mock.patch.object(condense_module, "dominates", recording):
        condense(records, rel)
    return tested


class TestIndexExactness:
    @pytest.mark.parametrize("kind", ["itemset", "sequence", "graph"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_file_like_records_agree_with_references(self, kind, data):
        records = data.draw(file_like_records(kind))
        for rel in DominanceRelation:
            fast = [r.pid for r in condense(records, rel)]
            assert fast == [r.pid for r in brute_force_condense(records, rel)], rel
            assert fast == [r.pid for r in DEFINITIONAL[rel.value](records)], rel

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_graph_candidates_hold_every_edge_type(self, data):
        # dominates() runs only on pairs whose included side's edge types,
        # with multiplicity, all occur in the other side
        records = data.draw(file_like_records("graph"))
        for rel in INCLUSION_RELATIONS:
            for small, large in dominance_pairs(records, rel):
                assert edge_types(small.pattern) <= edge_types(large.pattern), (rel, small.pid, large.pid)

    @pytest.mark.parametrize("kind", ["itemset", "sequence", "graph"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_candidates_have_higher_rank(self, kind, data):
        # dominates() never sees a pair whose container's (size, element count) is not above the included side's
        records = data.draw(file_like_records(kind))
        for rel in INCLUSION_RELATIONS:
            for small, large in dominance_pairs(records, rel):
                rank = (small.size, len(small.pattern.elements)), (large.size, len(large.pattern.elements))
                assert rank[0] < rank[1], (rel, small.pid, large.pid)


class TestDominatesPairwise:
    @pytest.mark.parametrize("kind", ["itemset", "sequence", "graph"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_pair_agrees_with_literal_inclusion(self, kind, data):
        # Pairs include a record with itself, duplicates under new pids, and
        # graph containers that add an isolated vertex or repeat an edge type.
        records = data.draw(file_like_records(kind))
        for p in records:
            for q in records:
                tie = p.support == q.support
                want = {
                    DominanceRelation.MAXIMAL: included(p, q),
                    DominanceRelation.CLOSED: tie and included(p, q),
                    DominanceRelation.FREE: tie and included(q, p),
                    DominanceRelation.SKYLINE: (q.support >= p.support and q.size > p.size)
                    or (q.support > p.support and q.size >= p.size),
                }
                for rel, expected in want.items():
                    assert dominates(p, q, rel) == expected, (rel, p.pid, q.pid)
