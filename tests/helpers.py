"""Test-side reference implementations and random-input generators.

The condensation oracles here work straight from the definitions (set
comprehensions over the record list), independent of both condense() and
brute_force_condense(), so the three agreeing is meaningful.
"""

import random
import sys

import pytest

from siftmine import (
    GraphDB,
    Itemset,
    LabeledGraph,
    Sequence,
    SequenceDB,
    SymbolTable,
    TransactionDB,
    find_embedding,
    graph_included,
)


def included(p, q) -> bool:
    """Proper pattern inclusion p < q, by definition per kind."""
    a, b = p.pattern, q.pattern
    if isinstance(a, Itemset):
        return a.as_set() < b.as_set()
    if isinstance(a, Sequence):
        return a.symbols != b.symbols and find_embedding(a, b) is not None
    assert isinstance(a, LabeledGraph)
    return graph_included(a, b) and not graph_included(b, a)


def maximal_set(records):
    return [p for p in records if not any(q is not p and included(p, q) for q in records)]


def closed_set(records):
    return [
        p
        for p in records
        if not any(q is not p and included(p, q) and q.support == p.support for q in records)
    ]


def free_set(records):
    return [
        p
        for p in records
        if not any(q is not p and included(q, p) and q.support == p.support for q in records)
    ]


def skyline_set(records):
    # q dominates p when q is at least as good on both axes and better on one,
    # with "good" = higher support, larger size.
    def dom(q, p):
        return (q.support >= p.support and q.size > p.size) or (
            q.support > p.support and q.size >= p.size
        )

    return [p for p in records if not any(q is not p and dom(q, p) for q in records)]


DEFINITIONAL = {
    "maximal": maximal_set,
    "closed": closed_set,
    "free": free_set,
    "skyline": skyline_set,
}


def canonical_records(found):
    """An oracle's {pattern: cover} as (pid, pattern, support, cover) in canonical order."""
    ordered = sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [(pid, pat, len(cov), cov) for pid, (pat, cov) in enumerate(ordered, start=1)]


def random_transactions(rng: random.Random, max_items=8, max_rows=8) -> TransactionDB:
    symbols = SymbolTable()
    n_items = rng.randint(1, max_items)
    ids = [symbols.intern(f"i{k}") for k in range(n_items)]
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        size = rng.randint(1, n_items)
        rows.append(tuple(sorted(rng.sample(ids, size))))
    return TransactionDB(tuple(rows), symbols)


def random_sequences(rng: random.Random, max_symbols=4, max_rows=5, max_len=8) -> SequenceDB:
    symbols = SymbolTable()
    ids = [symbols.intern(f"s{k}") for k in range(rng.randint(1, max_symbols))]
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        rows.append(tuple(rng.choice(ids) for _ in range(rng.randint(1, max_len))))
    return SequenceDB(tuple(rows), symbols)


def random_graph(
    rng: random.Random, labels, max_vertices=7, max_extra_edges=4, edge_labels=None
) -> LabeledGraph:
    """A random labeled graph, mostly connected; edges draw from edge_labels when given."""
    n = rng.randint(1, max_vertices)
    vertices = [(v, rng.choice(labels)) for v in range(n)]
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    # spanning-tree edges first so most graphs are connected
    for k in range(1, n):
        u = order[rng.randint(0, k - 1)]
        v = order[k]
        edges.add((min(u, v), max(u, v)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pairs)
    for pair in pairs[: rng.randint(0, max_extra_edges)]:
        edges.add(pair)
    if edge_labels is None:
        return LabeledGraph.of(vertices, sorted(edges))
    return LabeledGraph.of(vertices, [(u, v, rng.choice(edge_labels)) for u, v in sorted(edges)])


def random_graph_db(rng: random.Random, max_graphs=4, n_labels=3, max_vertices=7) -> GraphDB:
    symbols = SymbolTable()
    symbols.intern("0")
    labels = [symbols.intern(f"L{k}") for k in range(n_labels)]
    graphs = tuple(
        random_graph(rng, labels, max_vertices) for _ in range(rng.randint(1, max_graphs))
    )
    return GraphDB(graphs, symbols)


def random_unique_graph_db(rng: random.Random, max_graphs=4, n_labels=5) -> GraphDB:
    symbols = SymbolTable()
    symbols.intern("0")
    labels = [symbols.intern(f"U{k}") for k in range(n_labels)]
    graphs = []
    for _ in range(rng.randint(1, max_graphs)):
        n = rng.randint(1, n_labels)
        chosen = rng.sample(labels, n)
        vertices = [(v, chosen[v]) for v in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = sorted(pairs[: rng.randint(0, len(pairs))])
        graphs.append(LabeledGraph.of(vertices, edges))
    return GraphDB(tuple(graphs), symbols)


def random_records(rng: random.Random, kind="itemset", max_patterns=15):
    """A coherent record list over one universe: covers drive supports."""
    symbols = SymbolTable()
    if kind == "itemset":
        db = random_transactions(rng, max_items=6, max_rows=8)
        from siftmine import MinSupport, mine_frequent_itemsets

        records = mine_frequent_itemsets(db, MinSupport.absolute(1))
    elif kind == "sequence":
        db = random_sequences(rng, max_symbols=3, max_rows=4, max_len=6)
        from siftmine import MinSupport, mine_frequent_sequences

        records = mine_frequent_sequences(db, MinSupport.absolute(1), 5)
    else:
        db = random_graph_db(rng, max_graphs=3, n_labels=2, max_vertices=5)
        from siftmine import MinSupport, mine_frequent_graphs_general

        records = mine_frequent_graphs_general(db, MinSupport.absolute(1), 4)
    if len(records) > max_patterns:
        keep = sorted(rng.sample(range(len(records)), max_patterns))
        records = [records[k] for k in keep]
    return records


LONG_NUMBER = "9" * 5000
# int() refuses a decimal this long where the interpreter limits its digits (3.11, and 3.10 from 3.10.7).
long_numbers = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any length")
# A canonical itemset line, one with a %-quoted label, and a graph line, each with one long number field.
LONG_NUMBER_LINES = [
    line.replace(f"{key}=1", f"{key}={LONG_NUMBER}", 1)
    for line in (
        "pid=1 kind=itemset support=1 size=1 elements=a cover=1",
        "pid=1 kind=itemset support=1 size=1 elements=%61 cover=1",
        "pid=1 kind=graph support=1 size=1 vertices=0:a,1:b edges=0-1:x cover=1",
    )
    for key in ("pid", "support", "size")
]
