"""Graph miners: canonical codes, both mining modes, oracle equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    GraphDB,
    InputError,
    LabeledGraph,
    MinSupport,
    SymbolTable,
    canonical_code,
    mine_frequent_graphs_general,
    mine_frequent_graphs_unique,
    subgraph_isomorphic,
)
from siftmine.core import Cover
from siftmine.errors import BoundExceededError
from siftmine.formats import pattern_lines
from siftmine import graphs
from siftmine.graphs import _is_min_code, _rightmost_extensions
from siftmine.oracle import (
    _dfs_codes,
    frequent_graphs_general_bruteforce,
    frequent_graphs_unique_bruteforce,
    min_dfs_code_bruteforce,
    min_dfs_code_gspan_bruteforce,
)

from helpers import random_graph, random_graph_db, random_unique_graph_db


def relabel(g: LabeledGraph, perm: dict[int, int]) -> LabeledGraph:
    """Same graph, vertex ids renamed by perm."""
    return LabeledGraph.of(
        [(perm[v], lbl) for v, lbl in g.vertices],
        [(perm[u], perm[v], lbl) for u, v, lbl in g.edges],
    )


@st.composite
def small_graphs(draw):
    """Graphs of 1-7 vertices with scattered ids: random ones over 1-3 vertex and 1-2 edge labels,
    often disconnected or with isolated vertices, and one-label cycles, stars and cliques."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(["random", "cycle", "star", "clique"]))
    if shape == "random":
        labels = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        edges = [(u, v, draw(st.integers(0, 1))) for u, v in chosen]
    else:
        labels = [1] * n
        if shape == "cycle":
            chosen = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
        elif shape == "star":
            chosen = [(0, v) for v in range(1, n)]
        else:
            chosen = pairs
        edges = [(u, v, 0) for u, v in chosen]
    vids = draw(st.permutations(range(0, 3 * n, 3)))
    return LabeledGraph.of(
        [(vids[v], lbl) for v, lbl in enumerate(labels)], [(vids[u], vids[v], el) for u, v, el in edges]
    )


class TestCanonicalCode:
    @settings(max_examples=300, deadline=None)
    @given(g=small_graphs())
    def test_equals_exhaustive_minimum(self, g):
        # exact equality, not just invariance: a different canonical code
        # would reorder pattern files and renumber pids
        assert canonical_code(g) == min_dfs_code_bruteforce(g)

    def test_exhaustive_minimum_is_bounded(self):
        path = LabeledGraph.of([(v, 1) for v in range(9)], [(v, v + 1) for v in range(8)])
        with pytest.raises(BoundExceededError):
            min_dfs_code_bruteforce(path)

    def test_permutation_invariance(self, demo_graphs):
        rng = random.Random(99)
        for g in (demo_graphs.g1, demo_graphs.g2, demo_graphs.g3):
            base = canonical_code(g)
            vids = [v for v, _ in g.vertices]
            for _ in range(12):
                shuffled = vids[:]
                rng.shuffle(shuffled)
                assert canonical_code(relabel(g, dict(zip(vids, shuffled)))) == base

    def test_distinguishes_nonisomorphic(self, demo_graphs):
        f = demo_graphs
        # path a-b vs path a-c vs triangle: all different codes
        e_ab = f.graph("ab", [(0, 1)])
        e_ac = f.graph("ac", [(0, 1)])
        codes = {canonical_code(g) for g in (e_ab, e_ac, f.probe_triangle)}
        assert len(codes) == 3

    def test_randomized_invariance(self):
        rng = random.Random(424242)
        from helpers import random_graph

        symbols = SymbolTable()
        labels = [symbols.intern(f"L{k}") for k in range(2)]
        for _ in range(80):
            g = random_graph(rng, labels, max_vertices=6, max_extra_edges=3)
            vids = [v for v, _ in g.vertices]
            shuffled = vids[:]
            rng.shuffle(shuffled)
            h = relabel(g, dict(zip(vids, shuffled)))
            assert canonical_code(h) == canonical_code(g)

    def test_agrees_with_isomorphism(self):
        # same code <=> mutual containment, on small random pairs
        rng = random.Random(5150)
        from helpers import random_graph

        symbols = SymbolTable()
        labels = [symbols.intern(f"L{k}") for k in range(2)]
        for _ in range(120):
            a = random_graph(rng, labels, max_vertices=5, max_extra_edges=2)
            b = random_graph(rng, labels, max_vertices=5, max_extra_edges=2)
            same_code = canonical_code(a) == canonical_code(b)
            iso = (
                a.vertex_count == b.vertex_count
                and a.edge_count == b.edge_count
                and subgraph_isomorphic(a, b) is not None
            )
            assert same_code == iso

    def test_disconnected_and_isolated(self):
        symbols = SymbolTable()
        x, y = symbols.intern("x"), symbols.intern("y")
        two_parts = LabeledGraph.of([(0, x), (1, x), (2, y), (3, y)], [(0, 1), (2, 3)])
        reordered = LabeledGraph.of([(0, y), (1, y), (2, x), (3, x)], [(0, 1), (2, 3)])
        assert canonical_code(two_parts) == canonical_code(reordered)
        lonely = LabeledGraph.of([(0, x)], [])
        paired = LabeledGraph.of([(5, x)], [])
        assert canonical_code(lonely) == canonical_code(paired)

    def test_path_longer_than_recursion_limit(self):
        # one DFS step per path edge: 1199 steps from every label-1 start
        n = 1200
        path = LabeledGraph.of([(v, 1 + v % 2) for v in range(n)], [(v, v + 1) for v in range(n - 1)])
        backwards = relabel(path, {v: n - 1 - v for v in range(n)})
        (code,) = canonical_code(path)
        assert len(code) == n - 1
        assert code[0] == (0, 1, 1, 0, 2)
        assert canonical_code(backwards) == (code,)


@st.composite
def connected_graphs(draw):
    """Connected graphs of 2-6 vertices over 1-3 vertex and 1-2 edge labels: a random tree plus extra edges."""
    n = draw(st.integers(2, 6))
    n_labels, n_edge_labels = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    labels = draw(st.lists(st.integers(1, n_labels), min_size=n, max_size=n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.sampled_from([(u, v) for v in range(n) for u in range(v)]), max_size=6)))
    return LabeledGraph.of(
        list(enumerate(labels)), [(u, v, draw(st.integers(0, n_edge_labels - 1))) for u, v in sorted(pairs)]
    )


def graph_of_code(code) -> LabeledGraph:
    """The graph a connected DFS code writes, vertex i being the i-th vertex it discovers."""
    labels = {}
    for i, j, li, _, lj in code:
        labels[i], labels[j] = li, lj
    return LabeledGraph.of(sorted(labels.items()), [(i, j, el) for i, j, _, el, _ in code])


def all_rightmost_extensions(code) -> list:
    """Every rightmost extension of a DFS code over vertex labels 1-3 and edge labels 0-1, none pruned.

    Backward edges go from the rightmost vertex to a rightmost-path vertex
    other than its parent, above its last backward target; forward edges go
    from any rightmost-path vertex to a new vertex.
    """
    labels, parent = {}, {}
    for i, j, li, _, lj in code:
        labels[i], labels[j] = li, lj
        if i < j:
            parent[j] = i
    rm = max(labels)
    path = [rm]
    while path[-1]:
        path.append(parent[path[-1]])
    low = max((j for i, j, *_ in code if i == rm and j < i), default=-1)
    backward = [(rm, t, labels[rm], el, labels[t]) for t in path[2:] if t > low for el in (0, 1)]
    return backward + [(s, rm + 1, labels[s], el, lw) for s in path for el in (0, 1) for lw in (1, 2, 3)]


class TestMinimumCode:
    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(), rng=st.randoms(use_true_random=False))
    def test_accepts_exactly_the_gspan_minimum(self, g, rng):
        # Every DFS code of g comes from the oracle's own traversals; the
        # miner's test must accept the exhaustive gSpan-order minimum and
        # reject every other code. Symmetric graphs have hundreds of codes,
        # so at most 30 of the others are tried.
        best = min_dfs_code_gspan_bruteforce(g)
        others = sorted({code for v, _ in g.vertices for code in _dfs_codes(g, v)} - {best})
        assert _is_min_code(best)
        for code in rng.sample(others, min(30, len(others))):
            assert not _is_min_code(code), code

    def test_order_is_gspan_not_plain_tuples(self):
        # A triangle with a pendant edge, one label: after the triangle
        # (0,1), (1,2), (2,0), gSpan's order steps forward from the deepest
        # path vertex, (2,3), where the smallest tuple is (1,3).
        g = LabeledGraph.of([(v, 1) for v in range(4)], [(0, 1), (1, 2), (0, 2), (1, 3)])
        best = min_dfs_code_gspan_bruteforce(g)
        assert best == ((0, 1, 1, 0, 1), (1, 2, 1, 0, 1), (2, 0, 1, 0, 1), (2, 3, 1, 0, 1))
        (plain,) = min_dfs_code_bruteforce(g)
        assert plain != best and _is_min_code(best) and not _is_min_code(plain)

    def test_gspan_minimum_is_bounded_and_connected(self):
        path = LabeledGraph.of([(v, 1) for v in range(9)], [(v, v + 1) for v in range(8)])
        with pytest.raises(BoundExceededError):
            min_dfs_code_gspan_bruteforce(path)
        for g in (LabeledGraph.of([(0, 1)]), LabeledGraph.of([(0, 1), (1, 1), (2, 1)], [(0, 1)])):
            with pytest.raises(InputError):
                min_dfs_code_gspan_bruteforce(g)

    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs())
    def test_pre_probe_rules_drop_only_codes_the_exact_test_rejects(self, g):
        # Over every edge type the strategy draws, the miner's candidates of
        # each prefix of the gSpan minimum must hold that minimum's next
        # edge, and every rightmost extension they leave out must give a code
        # _is_min_code rejects.
        every_type = [(el, lw) for el in (0, 1) for lw in (1, 2, 3)]
        steps = {label: every_type for label in (1, 2, 3)}
        best = min_dfs_code_gspan_bruteforce(g)
        for k in range(1, len(best)):
            prefix = best[:k]
            kept = _rightmost_extensions(prefix, steps)
            assert best[k] in kept
            for ext in all_rightmost_extensions(prefix):
                assert ext in kept or not _is_min_code(prefix + (ext,)), (prefix, ext)

    def test_mined_vertex_i_is_the_minimum_codes_ith_vertex(self):
        # The vertex-numbering rule of mined general patterns.
        rng = random.Random(2002)
        for _ in range(30):
            db = random_graph_db(rng, max_graphs=3, n_labels=2, max_vertices=6)
            for rec in mine_frequent_graphs_general(db, MinSupport.absolute(1), 5):
                assert rec.pattern == graph_of_code(min_dfs_code_gspan_bruteforce(rec.pattern))


class TestUniqueMiner:
    def test_two_graph_example(self, demo_graphs):
        f = demo_graphs
        recs = mine_frequent_graphs_unique(f.db12, MinSupport.absolute(2))
        got = {frozenset(f.edge_labels(r.pattern)) for r in recs}
        common = [("a", "b"), ("a", "c"), ("c", "e")]
        want = set()
        for mask in range(1, 8):
            want.add(frozenset(p for k, p in enumerate(common) if mask >> k & 1))
        assert got == want
        assert len(recs) == 7
        assert all(r.support == 2 and r.cover == frozenset({1, 2}) for r in recs)

    def test_sigma_above_db(self, demo_graphs):
        assert mine_frequent_graphs_unique(demo_graphs.db12, MinSupport.absolute(3)) == []

    def test_single_graph_all_subsets(self, demo_graphs):
        db = GraphDB((demo_graphs.g1,), demo_graphs.symbols)
        recs = mine_frequent_graphs_unique(db, MinSupport.absolute(1))
        assert len(recs) == 15  # nonempty subsets of 4 edges

    def test_covers_stay_packed(self, demo_graphs, monkeypatch):
        db = GraphDB((demo_graphs.g1, demo_graphs.g2, demo_graphs.g1), demo_graphs.symbols)
        want = list(pattern_lines(mine_frequent_graphs_unique(db, MinSupport.absolute(2)), db.symbols))

        def refuse(self):
            raise AssertionError("a cover was materialised")

        monkeypatch.setattr(Cover, "as_set", refuse)
        assert list(pattern_lines(mine_frequent_graphs_unique(db, MinSupport.absolute(2)), db.symbols)) == want

    def test_rejects_non_unique_labeled(self, demo_graphs):
        db = GraphDB((demo_graphs.g1, demo_graphs.g3), demo_graphs.symbols)
        with pytest.raises(InputError, match="2"):
            mine_frequent_graphs_unique(db, MinSupport.absolute(1))

    def test_oracle_equivalence_seeded(self):
        from siftmine import edge_itemize

        rng = random.Random(31337)
        for trial in range(60):
            db = random_unique_graph_db(rng)
            sigma = rng.randint(1, len(db) + 1)
            mined = mine_frequent_graphs_unique(db, MinSupport.absolute(sigma))
            got = {
                (edge_itemize(r.pattern) if r.pattern.edges else ()): r.cover for r in mined
            }
            want = frequent_graphs_unique_bruteforce(db, sigma)
            assert got == want, f"trial {trial} sigma {sigma}"


def symmetric_hosts(rng: random.Random, shapes, two_edge_labels: bool) -> GraphDB:
    """One host per (shape, k), all of one vertex label, vertices shuffled and edge labels drawn by rng.

    Shapes: "cycle" C3..C7, "clique" K2..K4, "star" with one to five leaves
    around vertex 0, "wheel" a hub joined to every vertex of a 3- or 4-cycle.
    """
    symbols = SymbolTable()
    symbols.intern("0")
    label = symbols.intern("A")
    edge_labels = [0, symbols.intern("x")] if two_edge_labels else [0]
    hosts = []
    for shape, k in shapes:
        if shape == "cycle":
            edges = [(i, (i + 1) % (k + 3)) for i in range(k + 3)]
        elif shape == "clique":
            edges = [(i, j) for j in range(k % 3 + 2) for i in range(j)]
        elif shape == "star":
            edges = [(0, i) for i in range(1, k + 2)]
        else:
            rim = k % 2 + 3
            edges = [(0, i) for i in range(1, rim + 1)] + [(i, i % rim + 1) for i in range(1, rim + 1)]
        n = max(max(e) for e in edges) + 1
        perm = list(range(n))
        rng.shuffle(perm)
        hosts.append(LabeledGraph.of(
            [(v, label) for v in range(n)], [(perm[u], perm[v], rng.choice(edge_labels)) for u, v in edges]
        ))
    return GraphDB(tuple(hosts), symbols)


class TestGeneralMiner:
    def test_triangle_found(self, demo_graphs):
        f = demo_graphs
        recs = mine_frequent_graphs_general(f.db23, MinSupport.absolute(2))
        codes = {canonical_code(r.pattern) for r in recs}
        assert canonical_code(f.probe_triangle) in codes
        assert len(recs) == 14

    def test_sigma_3_patterns(self, demo_graphs):
        f = demo_graphs
        recs = mine_frequent_graphs_general(f.db123, MinSupport.absolute(3))
        got = sorted((sorted(f.edge_labels(r.pattern)), r.support) for r in recs)
        assert got == [
            ([("a", "b")], 3),
            ([("a", "b"), ("a", "c")], 3),
            ([("a", "c")], 3),
        ]

    def test_max_edges_one(self, demo_graphs):
        f = demo_graphs
        recs = mine_frequent_graphs_general(f.db123, MinSupport.absolute(1), 1)
        assert all(r.pattern.edge_count == 1 for r in recs)
        # distinct labeled edges present anywhere in the db
        present = set()
        for g in f.db123.graphs:
            lm = g.label_map
            for u, v, lbl in g.edges:
                present.add((tuple(sorted((lm[u], lm[v]))), lbl))
        assert len(recs) == len(present)

    def test_no_two_patterns_isomorphic(self, demo_graphs):
        recs = mine_frequent_graphs_general(demo_graphs.db123, MinSupport.absolute(2))
        codes = [canonical_code(r.pattern) for r in recs]
        assert len(codes) == len(set(codes))

    def test_edge_removal_anti_monotonicity(self, demo_graphs):
        recs = mine_frequent_graphs_general(demo_graphs.db123, MinSupport.absolute(2))
        by_code = {canonical_code(r.pattern): r.support for r in recs}
        for r in recs:
            g = r.pattern
            for drop in range(g.edge_count):
                edges = [e for k, e in enumerate(g.edges) if k != drop]
                kept = {u for u, v, _ in edges} | {v for u, v, _ in edges}
                vertices = [(v, l) for v, l in g.vertices if v in kept]
                if not edges or len(kept) < g.vertex_count - 1:
                    continue
                try:
                    sub = LabeledGraph.of(vertices, edges)
                except InputError:
                    continue
                code = canonical_code(sub)
                if code in by_code:  # connected remainder stays mined
                    assert by_code[code] >= r.support

    def test_canonical_order_and_pids(self, demo_graphs):
        recs = mine_frequent_graphs_general(demo_graphs.db123, MinSupport.absolute(2))
        assert [r.pid for r in recs] == list(range(1, len(recs) + 1))
        keys = [(r.pattern.edge_count, canonical_code(r.pattern)) for r in recs]
        assert keys == sorted(keys)

    def test_oracle_equivalence_seeded(self):
        rng = random.Random(60601)
        for trial in range(40):
            db = random_graph_db(rng, max_graphs=3, n_labels=2, max_vertices=6)
            sigma = rng.randint(1, len(db) + 1)
            max_edges = rng.choice([None, 3, 5])
            mined = mine_frequent_graphs_general(db, MinSupport.absolute(sigma), max_edges)
            got = {canonical_code(r.pattern): r.cover for r in mined}
            want = {
                canonical_code(rep): cov
                for rep, cov in frequent_graphs_general_bruteforce(db, sigma, max_edges)
            }
            assert got == want, f"trial {trial} sigma {sigma} max_edges {max_edges}"

    @settings(max_examples=200, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        n_graphs=st.integers(1, 4),
        max_vertices=st.integers(1, 6),
        edgeless=st.lists(st.booleans(), min_size=4, max_size=4),
        sigma_pick=st.integers(0, 3),
        max_edges=st.sampled_from([None, 1, 2, 3, 4]),
    )
    def test_equals_bruteforce_with_edge_labels(self, rng, n_graphs, max_vertices, edgeless, sigma_pick, max_edges):
        # Two vertex labels over up to six vertices repeat, so patterns have
        # automorphic embeddings; two edge labels exercise the edge-label
        # check of both the new-vertex and the closing step; some graphs are
        # single vertices or lose their edges.
        symbols = SymbolTable()
        symbols.intern("0")
        labels = [symbols.intern("A"), symbols.intern("B")]
        edge_labels = [0, symbols.intern("x")]
        graphs = []
        for k in range(n_graphs):
            g = random_graph(rng, labels, max_vertices, max_extra_edges=3, edge_labels=edge_labels)
            graphs.append(LabeledGraph(g.vertices) if edgeless[k] else g)
        db = GraphDB(tuple(graphs), symbols)
        sigma = sigma_pick % len(db) + 1
        mined = mine_frequent_graphs_general(db, MinSupport.absolute(sigma), max_edges)
        got = {canonical_code(r.pattern): r.cover for r in mined}
        want = {
            canonical_code(rep): cov
            for rep, cov in frequent_graphs_general_bruteforce(db, sigma, max_edges)
        }
        assert got == want
        assert len(got) == len(mined)

    @settings(max_examples=150, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        shapes=st.lists(
            st.tuples(st.sampled_from(["cycle", "clique", "star", "wheel"]), st.integers(0, 4)), min_size=1, max_size=3
        ),
        two_edge_labels=st.booleans(),
        sigma_pick=st.integers(0, 2),
        max_edges=st.sampled_from([None, 2, 3, 4]),
    )
    def test_equals_bruteforce_on_symmetric_hosts(self, rng, shapes, two_edge_labels, sigma_pick, max_edges):
        # One vertex label on cycles, cliques up to K4, stars and wheels: every
        # pattern has many automorphic embeddings, so most frequent candidates
        # duplicate a class already found.
        db = symmetric_hosts(rng, shapes, two_edge_labels)
        sigma = sigma_pick % len(db) + 1
        mined = mine_frequent_graphs_general(db, MinSupport.absolute(sigma), max_edges)
        got = {canonical_code(r.pattern): r.cover for r in mined}
        want = {
            canonical_code(rep): cov
            for rep, cov in frequent_graphs_general_bruteforce(db, sigma, max_edges)
        }
        assert got == want
        assert len(got) == len(mined)

    def test_probe_counts_on_symmetric_hosts(self, monkeypatch):
        # One fixed database of symmetric hosts over two edge labels: a
        # 4-wheel, K4, C6, a 3-wheel and a 4-leaf star. Without gSpan's
        # rightmost-path rules and the inherited infrequent extensions, the
        # miner probes a candidate in one host (_extend) 504 times here and
        # runs 53 minimum-code tests; the exact counts guard both savings.
        db = symmetric_hosts(random.Random(2002), [("wheel", 1), ("clique", 2), ("cycle", 3), ("wheel", 0),
                                                   ("star", 3)], True)
        extend, is_min_code = graphs._extend, graphs._is_min_code
        calls = {"_extend": 0, "_is_min_code": 0}

        def counted_extend(*args):
            calls["_extend"] += 1
            return extend(*args)

        def counted_is_min_code(code):
            calls["_is_min_code"] += 1
            return is_min_code(code)

        monkeypatch.setattr(graphs, "_extend", counted_extend)
        monkeypatch.setattr(graphs, "_is_min_code", counted_is_min_code)
        mined = mine_frequent_graphs_general(db, MinSupport.absolute(2))
        assert calls == {"_extend": 378, "_is_min_code": 49}
        got = {canonical_code(r.pattern): r.cover for r in mined}
        assert got == {canonical_code(rep): cov for rep, cov in frequent_graphs_general_bruteforce(db, 2)}
        assert len(got) == len(mined) == 27

    def test_unique_equals_general_on_connected(self, demo_graphs):
        f = demo_graphs

        def is_connected(g):
            if len(g.vertices) <= 1:
                return True
            seen, stack = set(), [g.vertices[0][0]]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(n for n, _ in g.neighbors[x])
            return len(seen) == g.vertex_count

        uniq = mine_frequent_graphs_unique(f.db12, MinSupport.absolute(2))
        gen = mine_frequent_graphs_general(f.db12, MinSupport.absolute(2))
        uc = {canonical_code(r.pattern) for r in uniq if is_connected(r.pattern)}
        gc = {canonical_code(r.pattern) for r in gen}
        assert uc == gc


class TestSupportSemantics:
    def test_per_graph_not_per_embedding(self):
        # pattern x-y occurs twice inside one graph but counts it once
        symbols = SymbolTable()
        symbols.intern("0")
        x, y = symbols.intern("x"), symbols.intern("y")
        host = LabeledGraph.of([(0, x), (1, y), (2, x), (3, y)], [(0, 1), (2, 3)])
        db = GraphDB((host,), symbols)
        recs = mine_frequent_graphs_general(db, MinSupport.absolute(1), 1)
        assert len(recs) == 1
        assert recs[0].support == 1

    def test_covers_match_containment(self, demo_graphs):
        recs = mine_frequent_graphs_general(demo_graphs.db123, MinSupport.absolute(2))
        for r in recs:
            want = frozenset(
                gid
                for gid, g in demo_graphs.db123.records()
                if subgraph_isomorphic(r.pattern, g) is not None
            )
            assert r.cover == want
