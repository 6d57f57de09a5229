"""End-to-end acceptance checks.

Eleven criteria, each printed as its own PASS/FAIL line (run with `pytest -s`
to see them). Every expected value below is a literal: worked examples first,
then randomized equivalence against the brute-force oracles, structural
invariants, and a mid-scale timing check on a synthetic 435x48 dataset.
"""

import random
import time
from itertools import combinations

from siftmine import (
    BinaryMatrix,
    DominanceRelation,
    Embedding,
    Itemset,
    MinSupport,
    Sequence,
    SymbolTable,
    Tile,
    TransactionDB,
    area,
    condense,
    cover_itemset,
    edge_itemize,
    error,
    exact_select,
    find_embedding,
    greedy_select,
    mine_frequent_graphs_general,
    mine_frequent_graphs_unique,
    mine_frequent_itemsets,
    mine_frequent_sequences,
    parse_constraints,
    partition_valid,
    subgraph_isomorphic,
    tile_of,
)
from siftmine.graphs import canonical_code
from siftmine.oracle import (
    brute_force_condense,
    exact_selections_bruteforce,
    frequent_graphs_general_bruteforce,
    frequent_graphs_unique_bruteforce,
    frequent_itemsets_bruteforce,
    frequent_sequences_bruteforce,
)

from helpers import (
    random_graph_db,
    random_records,
    random_sequences,
    random_transactions,
    random_unique_graph_db,
)


def report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {title}")
    assert ok, f"criterion {number} failed: {title}"


def labels_of(rec, symbols):
    return frozenset(symbols.label_of(i) for i in rec.pattern.items)


def test_criterion_01_itemset_worked_example(toy_items):
    f = toy_items
    t0 = time.perf_counter()
    records = mine_frequent_itemsets(f.db, MinSupport.absolute(2))
    elapsed = time.perf_counter() - t0
    got = {labels_of(r, f.db.symbols): r.cover for r in records}
    expected = {
        frozenset("a"): frozenset({1, 3}),
        frozenset("b"): frozenset({1, 2}),
        frozenset("e"): frozenset({1, 2, 3}),
        frozenset("ae"): frozenset({1, 3}),
        frozenset("be"): frozenset({1, 2}),
    }
    report(1, "frequent itemsets on the 3-transaction example", got == expected and elapsed < 1.0)


def test_criterion_02_condense_under_constraints(toy_items):
    f = toy_items
    records = mine_frequent_itemsets(f.db, MinSupport.absolute(2))
    expr = parse_constraints("size >= 2\nsupport >= 2")
    valid, _ = partition_valid(records, expr, symbols=f.db.symbols)
    kept = condense(valid, DominanceRelation.MAXIMAL)
    got = {labels_of(r, f.db.symbols) for r in kept}
    report(2, "maximal condensation under size/support constraints", got == {frozenset("ae"), frozenset("be")})


def test_criterion_03_sequence_worked_example(toy_seqs):
    f = toy_seqs
    records = mine_frequent_sequences(f.db, MinSupport.absolute(2))
    mined = {r.pattern.symbols for r in records}
    ok = (
        f.seq_ids("bceb") in mined
        and f.seq_ids("aae") in mined
        and f.seq_ids("bdb") not in mined
    )
    host = Sequence.of(f.db.sequences[0])
    e1 = find_embedding(Sequence.of(f.seq_ids("bceb")), host)
    e2 = find_embedding(Sequence.of(f.seq_ids("aae")), host)
    ok = ok and e1 == Embedding((2, 3, 6, 7)) and e2 == Embedding((1, 5, 6))
    report(3, "frequent sequences and their first embeddings", ok)


def test_criterion_04_subgraph_relations(demo_graphs):
    f = demo_graphs
    checks = [
        (f.probe_path, f.g1, True),
        (f.probe_path, f.g2, True),
        (f.probe_path, f.g3, False),
        (f.probe_triangle, f.g2, True),
        (f.probe_triangle, f.g3, True),
        (f.probe_triangle, f.g1, False),
    ]
    ok = all((subgraph_isomorphic(p, host) is not None) == want for p, host, want in checks)
    report(4, "all six subgraph containment relations", ok)


def test_criterion_05_unique_labeled_maximal(demo_graphs):
    f = demo_graphs
    records = mine_frequent_graphs_unique(f.db12, MinSupport.absolute(2))
    kept = condense(records, DominanceRelation.MAXIMAL)
    ok = len(kept) == 1
    if ok:
        pairs = {
            tuple(sorted((f.symbols.label_of(a), f.symbols.label_of(b))))
            for a, b in edge_itemize(kept[0].pattern)
        }
        ok = pairs == {("c", "e"), ("a", "c"), ("a", "b")}
    report(5, "sole maximal unique-labeled graph pattern", ok)


def test_criterion_06_constraint_scenario(relocations):
    f = relocations
    expr = parse_constraints(f.CONSTRAINTS)
    verdicts = [
        rec.pid
        for rec in partition_valid(f.records, expr, symbols=f.db.symbols)[0]
    ]
    report(6, "constraint file accepts S1 and rejects S2, S3", verdicts == [1])


def test_criterion_07_tile_worked_example(toy_items):
    f = toy_items
    t = tile_of(f.db, Itemset.of(f.itemset_ids("be")))
    b, e = f.ids["b"], f.ids["e"]
    ok = t.ones == frozenset({(1, b), (2, b), (1, e), (2, e)}) and area([t]) == 4
    report(7, "tile of {b, e} and its area", ok)


def test_criterion_08_oracle_suites():
    t0 = time.perf_counter()
    ok = True

    # (a) each miner against brute-force enumeration on random databases
    rng = random.Random(881)
    for _ in range(100):
        db = random_transactions(rng)
        sigma = rng.randint(1, max(1, len(db)))
        mined = {
            r.pattern.items: r.cover
            for r in mine_frequent_itemsets(db, MinSupport.absolute(sigma))
        }
        ok = ok and mined == frequent_itemsets_bruteforce(db, sigma)
    for _ in range(100):
        db = random_sequences(rng)
        sigma = rng.randint(1, max(1, len(db)))
        max_len = rng.choice([None, 3, 5])
        mined = {
            r.pattern.symbols: r.cover
            for r in mine_frequent_sequences(db, MinSupport.absolute(sigma), max_len)
        }
        ok = ok and mined == frequent_sequences_bruteforce(db, sigma, max_len)
    for _ in range(60):
        db = random_unique_graph_db(rng)
        sigma = rng.randint(1, max(1, len(db)))
        mined = {
            (edge_itemize(r.pattern) if r.pattern.edges else ()): r.cover
            for r in mine_frequent_graphs_unique(db, MinSupport.absolute(sigma))
        }
        ok = ok and mined == frequent_graphs_unique_bruteforce(db, sigma)
    for _ in range(40):
        db = random_graph_db(rng)
        sigma = rng.randint(1, max(1, len(db)))
        mined = {
            canonical_code(r.pattern): r.cover
            for r in mine_frequent_graphs_general(db, MinSupport.absolute(sigma))
        }
        oracle = {
            canonical_code(rep): cover
            for rep, cover in frequent_graphs_general_bruteforce(db, sigma)
        }
        ok = ok and mined == oracle

    # (b) condensation against pairwise brute force, all four relations
    rng = random.Random(882)
    relations = [DominanceRelation.MAXIMAL, DominanceRelation.CLOSED,
                 DominanceRelation.FREE, DominanceRelation.SKYLINE]
    for trial in range(100):
        kind = ("itemset", "sequence", "graph")[trial % 3]
        records = random_records(rng, kind)
        for rel in relations:
            fast = [r.pid for r in condense(records, rel)]
            slow = [r.pid for r in brute_force_condense(records, rel)]
            ok = ok and fast == slow

    # (c) exact selection against subset enumeration; (d) greedy never better
    rng = random.Random(883)
    for _ in range(30):
        n_rows, n_cols = rng.randint(2, 5), rng.randint(2, 5)
        matrix = BinaryMatrix(
            tuple(tuple(rng.randint(0, 1) for _ in range(n_cols)) for _ in range(n_rows))
        )
        cands = []
        for tid in range(1, rng.randint(1, 8) + 1):
            rs = frozenset(rng.sample(range(1, n_rows + 1), rng.randint(1, n_rows)))
            cs = frozenset(rng.sample(range(1, n_cols + 1), rng.randint(1, n_cols)))
            rect = {(r, c) for r in rs for c in cs}
            cands.append(Tile(tid, rs, cs, frozenset(rect & matrix.ones)))
        budget = rng.randint(0, n_rows * n_cols)
        emode = rng.choice(["full", "coverable"])
        result = exact_select(matrix, cands, budget, mode="all", error_mode=emode)
        want = exact_selections_bruteforce(matrix, cands, budget, emode)
        got = {(s.tile_ids, s.error) for s in result.selections}
        ok = ok and got == {(tuple(sorted(ids)), e) for ids, e in want}
        if want:
            best = min(e for _, e in want)
            opt = exact_select(matrix, cands, budget, mode="optimal", error_mode=emode)
            ok = ok and opt.selections[0].error == best
            g = greedy_select(matrix, cands, budget, error_mode=emode)
            if g is not None and g.tile_ids:
                ok = ok and g.error >= best

    elapsed = time.perf_counter() - t0
    report(8, f"oracle equivalence suites ({elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_09_structural_properties():
    ok = True

    # downward closure + closed-superset support reconstruction + antichain
    rng = random.Random(990)
    for _ in range(40):
        db = random_transactions(rng)
        records = mine_frequent_itemsets(db, MinSupport.absolute(2))
        frequent = {r.pattern.items: r.support for r in records}
        for items in frequent:
            for k in range(1, len(items)):
                ok = ok and all(sub in frequent for sub in combinations(items, k))
        closed = condense(records, DominanceRelation.CLOSED)
        for rec in records:
            sups = [
                c.support
                for c in closed
                if set(rec.pattern.items) <= set(c.pattern.items)
            ]
            ok = ok and sups and max(sups) == rec.support
        maximal = {r.pattern.items for r in condense(records, DominanceRelation.MAXIMAL)}
        ok = ok and maximal <= {r.pattern.items for r in closed}
        sky = condense(records, DominanceRelation.SKYLINE)
        for p in sky:
            for q in sky:
                if p.pid == q.pid:
                    continue
                strictly_better = (
                    q.support >= p.support
                    and q.size >= p.size
                    and (q.support > p.support or q.size > p.size)
                )
                ok = ok and not strictly_better

    # error in full mode is the Hamming distance, checked cell by cell
    rng = random.Random(991)
    for _ in range(40):
        n = rng.randint(3, 6)
        m = rng.randint(3, 6)
        matrix = BinaryMatrix(tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n)))
        tiles = []
        for tid in range(1, rng.randint(0, 3) + 1):
            rs = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            cs = frozenset(rng.sample(range(1, m + 1), rng.randint(1, m)))
            rect = {(r, c) for r in rs for c in cs}
            tiles.append(Tile(tid, rs, cs, frozenset(rect & matrix.ones)))
        covered = set()
        for t in tiles:
            covered |= t.rectangle
        hamming = sum(
            1
            for r in range(1, n + 1)
            for c in range(1, m + 1)
            if ((r, c) in covered) != (matrix.cell(r, c) == 1)
        )
        ok = ok and error(matrix, tiles, mode="full") == hamming

    report(9, "structural invariants of miners, condensations, and error", ok)


def test_criterion_10_local_before_global():
    symbols = SymbolTable()
    ids = tuple(symbols.intern(x) for x in "abc")
    db = TransactionDB((ids, ids), symbols)
    records = mine_frequent_itemsets(db, MinSupport.absolute(2))
    ok = len(records) == 7  # every nonempty subset of {a, b, c}

    unconstrained = condense(records, DominanceRelation.MAXIMAL)
    ok = ok and [set(r.pattern.items) for r in unconstrained] == [set(ids)]

    expr = parse_constraints("size <= 2")
    valid, _ = partition_valid(records, expr, symbols=symbols)
    bounded = condense(valid, DominanceRelation.MAXIMAL)
    got = {r.pattern.items for r in bounded}
    want = {ids[:2], (ids[0], ids[2]), ids[1:]}
    # constraining first, condensing after: the size-2 frontier, not the empty set
    ok = ok and got == want
    report(10, "size cap shifts the maximal frontier instead of emptying it", ok)


def synthetic_votes(seed=20260819) -> TransactionDB:
    """435 rows, 16 three-way attributes (48 items), one latent block split.

    Rows draw one option per attribute with block-dependent odds; the last
    attribute always copies the previous one, so equal-support supersets
    exist and the closed condensation is a strict subset.
    """
    rng = random.Random(seed)
    symbols = SymbolTable()
    ids = [[symbols.intern(f"q{g:02d}_{o}") for o in "ynu"] for g in range(16)]
    rows = []
    for _ in range(435):
        left = rng.random() < 0.6
        opts = []
        for _g in range(15):
            r = rng.random()
            if left:
                opts.append(0 if r < 0.85 else (1 if r < 0.95 else 2))
            else:
                opts.append(1 if r < 0.75 else (0 if r < 0.85 else 2))
        opts.append(opts[14])
        rows.append(tuple(sorted(ids[g][o] for g, o in enumerate(opts))))
    return TransactionDB(tuple(rows), symbols)


def test_criterion_11_mid_scale_smoke():
    db = synthetic_votes()
    minsup = MinSupport.relative(0.3)
    ok = minsup.effective(len(db)) == 131  # ceil(0.3 * 435), computed exactly

    t0 = time.perf_counter()
    records = mine_frequent_itemsets(db, minsup)
    closed = condense(records, DominanceRelation.CLOSED)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0 and 0 < len(closed) < len(records)

    sample = random.Random(7).sample(records, 10)
    ok = ok and all(cover_itemset(db, rec.pattern) == rec.cover for rec in sample)
    report(11, f"closed itemsets on 435x48 synthetic data ({elapsed:.1f}s)", ok)
