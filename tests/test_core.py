"""Core types: symbol interning, pattern validation, containment operations."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    Embedding,
    GraphDB,
    InputError,
    Itemset,
    LabeledGraph,
    MinSupport,
    PatternRecord,
    Sequence,
    SymbolTable,
    TransactionDB,
    cover_itemset,
    edge_itemize,
    find_embedding,
    graph_included,
    mine_frequent_graphs_general,
    mine_frequent_graphs_unique,
    mine_frequent_itemsets,
    mine_frequent_sequences,
    subgraph_isomorphic,
)
from siftmine.core import Cover, TidTable, mine_patterns
from siftmine.oracle import (
    all_embeddings,
    embedding_exists,
    frequent_graphs_unique_bruteforce,
    injective_map_exists,
    min_dfs_code_gspan_bruteforce,
)


class TestSymbolTable:
    def test_first_appearance_order(self):
        t = SymbolTable()
        assert [t.intern(s) for s in ("b", "a", "b", "c")] == [0, 1, 0, 2]
        assert t.labels == ("b", "a", "c")
        assert len(t) == 3

    def test_lookup(self):
        t = SymbolTable()
        t.intern("x")
        assert t.id_of("x") == 0
        assert t.label_of(0) == "x"
        assert "x" in t and "y" not in t
        assert t.get("y") is None
        with pytest.raises(InputError):
            t.id_of("y")
        with pytest.raises(InputError):
            t.label_of(5)

    def test_get_and_in_never_intern(self):
        t = SymbolTable(["x"])
        assert t.get("y") is None and "y" not in t
        assert len(t) == 1 and t.labels == ("x",)
        assert t.intern("y") == 1 and t.get("y") == 1 and "y" in t

    @given(st.lists(st.sampled_from("abcde"), max_size=12), st.lists(st.sampled_from("cdefg"), max_size=12))
    def test_intern_all_equals_interning_one_by_one(self, first, second):
        one, many = SymbolTable(), SymbolTable()
        for labels in (first, second):
            assert many.intern_all(labels) == tuple(map(one.intern, labels))
        assert many.labels == one.labels == tuple(dict.fromkeys(first + second))


class TestItemset:
    def test_normalization_and_validation(self):
        assert Itemset.of((3, 1, 2)).items == (1, 2, 3)
        assert Itemset.of([5]).size == 1
        assert Itemset.of((1, 1)).items == (1,)  # .of collapses duplicates
        with pytest.raises(InputError):
            Itemset.of(())
        with pytest.raises(InputError):
            Itemset(items=(2, 1))
        with pytest.raises(InputError):
            Itemset(items=(1, 1))

    def test_as_set(self):
        assert Itemset.of((2, 0)).as_set() == frozenset({0, 2})


class TestSequence:
    def test_repeats_kept(self):
        s = Sequence.of((1, 1, 0))
        assert s.symbols == (1, 1, 0)
        assert s.size == 3
        with pytest.raises(InputError):
            Sequence.of(())


class TestEmbedding:
    def test_positions_strictly_increasing(self):
        assert Embedding((1, 3, 4)).positions == (1, 3, 4)
        with pytest.raises(InputError):
            Embedding((1, 1))
        with pytest.raises(InputError):
            Embedding((0, 1))
        with pytest.raises(InputError):
            Embedding(())


class TestLabeledGraph:
    def test_normalization(self):
        g = LabeledGraph.of([(1, 7), (0, 5)], [(1, 0)])
        assert g.vertices == ((0, 5), (1, 7))
        assert g.edges == ((0, 1, 0),)

    def test_rejections(self):
        with pytest.raises(InputError):
            LabeledGraph.of([], [])
        with pytest.raises(InputError):
            LabeledGraph.of([(0, 1), (0, 2)], [])
        with pytest.raises(InputError):
            LabeledGraph.of([(0, 1)], [(0, 0)])
        with pytest.raises(InputError):
            LabeledGraph.of([(0, 1), (1, 1)], [(0, 1), (1, 0)])
        with pytest.raises(InputError):
            LabeledGraph.of([(0, 1)], [(0, 3)])

    def test_degree_and_neighbors(self, demo_graphs):
        g1 = demo_graphs.g1
        assert g1.degree(0) == 3
        assert g1.degree(4) == 1
        assert g1.neighbors[2] == ((0, 0), (4, 0))


class TestPatternHelpers:
    def test_kind_and_size(self, demo_graphs):
        assert Itemset.of((1,)).kind == "itemset"
        assert Sequence.of((1, 1)).kind == "sequence"
        assert demo_graphs.g1.kind == "graph"
        assert Itemset.of((1, 2)).size == 2
        assert Sequence.of((1, 1, 1)).size == 3
        assert demo_graphs.g1.size == 4  # edge count

    def test_record_validation(self):
        pat = Itemset.of((0, 1))
        PatternRecord(pid=1, pattern=pat, support=2, cover=frozenset({1, 2}), size=2)
        with pytest.raises(InputError):
            PatternRecord(pid=1, pattern=pat, support=1, cover=frozenset({1, 2}), size=2)
        with pytest.raises(InputError):
            PatternRecord(pid=1, pattern=pat, support=2, cover=frozenset({1, 2}), size=3)
        with pytest.raises(InputError):
            PatternRecord(pid=0, pattern=pat, support=2, cover=frozenset({1, 2}), size=2)


class TestPatternRecordContract:
    """The hand-written constructor keeps the generated one's checks, messages and dataclass behaviour."""

    PAT = Itemset.of((0, 1))
    GOOD = dict(pid=1, pattern=PAT, support=2, cover=frozenset({1, 2}), size=2)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(pid=0), "pattern ids are 1-based"),
            (dict(support=-1, cover=None), "support must be nonnegative"),
            (dict(support=3), "support must equal the cover cardinality"),
            (dict(cover=Cover(0b001, TidTable((1, 2, 3)))), "support must equal the cover cardinality"),
            (dict(size=3), "size must match the pattern"),
        ],
    )
    def test_rejections(self, change, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            PatternRecord(**{**self.GOOD, **change})

    def test_dataclass_behaviour(self):
        rec = PatternRecord(**self.GOOD)
        assert rec == PatternRecord(1, self.PAT, 2, frozenset({1, 2}), 2)
        assert [f.name for f in dataclasses.fields(rec)] == ["pid", "pattern", "support", "cover", "size"]
        assert dataclasses.replace(rec, pid=7) == PatternRecord(**{**self.GOOD, "pid": 7})
        with pytest.raises(InputError, match="size must match"):
            dataclasses.replace(rec, size=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.support = 3
        twin = PatternRecord(**{**self.GOOD, "cover": Cover(0b110, TidTable((0, 1, 2)))})
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == repr(rec)

    def test_instance_dict_stays_key_shared(self):
        # A dict filled in some other key order, or by update(), stops
        # sharing its keys with the class and is larger.
        @dataclasses.dataclass(frozen=True)
        class Generated:
            pid: int
            pattern: Itemset
            support: int
            _cover: frozenset
            size: int

        # Enough live instances of each that the size is the steady one.
        recs = [PatternRecord(pid, self.PAT, 2, frozenset({1, 2}), 2) for pid in range(1, 101)]
        twins = [Generated(pid, self.PAT, 2, frozenset({1, 2}), 2) for pid in range(1, 101)]
        assert list(recs[-1].__dict__) == list(twins[-1].__dict__)
        assert sys.getsizeof(recs[-1].__dict__) == sys.getsizeof(twins[-1].__dict__)


class TestCover:
    """A bitmap cover is rendered a byte (eight tids) at a time from its table's lazily filled rows."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mask_forms_agree(self, data):
        table = TidTable(data.draw(st.lists(st.integers(0, 10**20), min_size=1, max_size=70)))
        top = 1 << len(table) - 1
        # Several masks share one table, so later ones render from rows the earlier ones filled.
        masks = data.draw(st.lists(st.integers(0, 2 * top - 1) | st.sampled_from([0, top]), min_size=1, max_size=4))
        for mask in masks + masks[:1]:
            cover, listed = Cover(mask, table), [t for k, t in enumerate(table) if mask >> k & 1]
            assert cover.as_text() == ",".join(str(t) for t in listed)
            assert len(cover) == mask.bit_count()
            assert cover.as_set() == frozenset(listed)

    def test_rows_fill_only_the_bytes_rendered(self):
        table = TidTable(range(100, 120))
        assert Cover(0b101 << 8, table).as_text() == "108,110"
        assert [dict(row) for row in table.rows] == [{0: ""}, {0: "", 0b100: "110,", 0b101: "108,110,"}, {0: ""}]


# Each miner that runs in mine_patterns: its size-limit option, the fixture
# and attribute holding a small database, and the key it orders finds by.
MINERS = [
    pytest.param(mine_frequent_itemsets, None, "toy_items", "db", lambda p: p.items, id="itemset"),
    pytest.param(mine_frequent_sequences, "max_len", "toy_seqs", "db", lambda p: p.symbols, id="sequence"),
    pytest.param(
        mine_frequent_graphs_general, "max_edges", "demo_graphs", "db123", min_dfs_code_gspan_bruteforce, id="graph"
    ),
]
LIMITED = [param for param in MINERS if param.values[1] is not None]


class TestMinerFrame:
    @pytest.mark.parametrize("mine, option, fixture, attr, key", MINERS)
    def test_empty_db(self, mine, option, fixture, attr, key, request):
        db = getattr(request.getfixturevalue(fixture), attr)
        with pytest.raises(InputError, match="^database must be nonempty$"):
            mine(type(db)((), db.symbols), MinSupport.absolute(1))

    @pytest.mark.parametrize("mine, option, fixture, attr, key", LIMITED)
    def test_limit_must_be_positive(self, mine, option, fixture, attr, key, request):
        db = getattr(request.getfixturevalue(fixture), attr)
        with pytest.raises(InputError, match=f"^{option} must be positive$"):
            mine(db, MinSupport.absolute(1), **{option: 0})
        # The empty database is named first.
        with pytest.raises(InputError, match="^database must be nonempty$"):
            mine(type(db)((), db.symbols), MinSupport.absolute(1), **{option: 0})

    @pytest.mark.parametrize("mine, option, fixture, attr, key", MINERS)
    def test_threshold_above_db_size(self, mine, option, fixture, attr, key, request):
        db = getattr(request.getfixturevalue(fixture), attr)
        assert mine(db, MinSupport.absolute(len(db) + 1)) == []

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), kind=st.sampled_from(["itemset", "sequence", "graph", "graph-unique"]))
    def test_records_equal_checked_rebuilds(self, rng, kind):
        """The frame and Eclat/SPAM store what they proved unchecked; every check passes on what they store."""
        from helpers import random_graph_db, random_sequences, random_transactions, random_unique_graph_db

        if kind == "itemset":
            records = mine_frequent_itemsets(random_transactions(rng), MinSupport.absolute(1))
        elif kind == "sequence":
            records = mine_frequent_sequences(random_sequences(rng), MinSupport.absolute(1), 4)
        elif kind == "graph":
            records = mine_frequent_graphs_general(random_graph_db(rng, max_graphs=3, max_vertices=5), MinSupport.absolute(1), 3)
        else:
            records = mine_frequent_graphs_unique(random_unique_graph_db(rng), MinSupport.absolute(1))
        checked_pattern = {
            "itemset": lambda p: Itemset(p.items),
            "sequence": lambda p: Sequence(p.symbols),
            "graph": lambda p: LabeledGraph(p.vertices, p.edges),
        }
        for pid, rec in enumerate(records, start=1):
            text = rec.cover_text()
            twin = PatternRecord(rec.pid, checked_pattern[rec.kind](rec.pattern), rec.support, rec.cover, rec.size)
            assert rec.pid == pid and rec == twin and text == twin.cover_text()
            assert list(rec.__dict__) == list(twin.__dict__) == ["pid", "pattern", "support", "_cover", "size"]

    @pytest.mark.parametrize("mine, option, fixture, attr, key", MINERS)
    def test_pids_in_size_then_key_order(self, mine, option, fixture, attr, key, request):
        db = getattr(request.getfixturevalue(fixture), attr)
        records = mine(db, MinSupport.absolute(1))
        order = [(rec.size, key(rec.pattern)) for rec in records]
        assert len(records) > 1 and order == sorted(set(order))
        assert [rec.pid for rec in records] == list(range(1, len(records) + 1))


class TestFrameContract:
    """mine_patterns runs a search that yields (size, key, pattern, support, mask) entries, bit t for tid t."""

    DB = TransactionDB(tuple((t % 3,) for t in range(1, 13)), SymbolTable())
    # Out of order, with masks that reach past the first byte of tids.
    FINDS = [
        (2, (0, 2), Itemset((0, 2)), 2, 1 << 3 | 1 << 12),
        (1, (2,), Itemset((2,)), 4, 1 << 2 | 1 << 5 | 1 << 8 | 1 << 11),
        (1, (0,), Itemset((0,)), 1, 1 << 9),
        (2, (0, 1), Itemset((0, 1)), 3, 0b111 << 7),
        (1, (1,), Itemset((1,)), 2, 1 << 1 | 1 << 4),
    ]

    def search(self, db, sigma, **limit):
        self.started.append((sigma, limit))
        yield from self.FINDS

    def setup_method(self):
        self.started = []

    def test_entries_sorted_numbered_and_wrapped(self):
        records = mine_patterns(self.DB, MinSupport.absolute(1), self.search, max_len=2)
        assert self.started == [(1, {"max_len": 2})]
        want = sorted(self.FINDS, key=lambda find: find[:2])
        assert [(r.pid, r.size, r.pattern, r.support) for r in records] == [
            (pid, size, pattern, support) for pid, (size, _, pattern, support, _) in enumerate(want, start=1)
        ]
        for rec, (*_, mask) in zip(records, want):
            tids = [t for t in range(len(self.DB) + 1) if mask >> t & 1]
            assert rec.cover_text() == ",".join(map(str, tids))
            assert rec.cover == frozenset(tids)

    def test_threshold_above_db_size_never_starts_search(self):
        assert mine_patterns(self.DB, MinSupport.absolute(len(self.DB) + 1), self.search) == []
        assert self.started == []


class TestCoverItemset:
    def test_table_values(self, toy_items):
        f = toy_items
        assert cover_itemset(f.db, Itemset.of(f.itemset_ids("ae"))) == frozenset({1, 3})
        assert cover_itemset(f.db, Itemset.of(f.itemset_ids("be"))) == frozenset({1, 2})
        assert cover_itemset(f.db, Itemset.of(f.itemset_ids("e"))) == frozenset({1, 2, 3})

    def test_unknown_item_id(self, toy_items):
        with pytest.raises(InputError):
            cover_itemset(toy_items.db, Itemset.of((99,)))


class TestFindEmbedding:
    def test_worked_examples(self, toy_seqs):
        host = Sequence.of(toy_seqs.seq_ids("abcdaeb"))
        assert find_embedding(Sequence.of(toy_seqs.seq_ids("bceb")), host).positions == (2, 3, 6, 7)
        assert find_embedding(Sequence.of(toy_seqs.seq_ids("aae")), host).positions == (1, 5, 6)
        short = Sequence.of(toy_seqs.seq_ids("bceb"))
        assert find_embedding(Sequence.of(toy_seqs.seq_ids("bdb")), short) is None

    def test_identity_embedding(self):
        s = Sequence.of((4, 2, 4))
        assert find_embedding(s, s).positions == (1, 2, 3)

    @given(
        pattern=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        host=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_existence(self, pattern, host):
        p, h = Sequence.of(tuple(pattern)), Sequence.of(tuple(host))
        got = find_embedding(p, h)
        assert (got is not None) == embedding_exists(p.symbols, h.symbols)
        if got is not None:
            # a genuine witness, and the leftmost one
            assert all(h.symbols[pos - 1] == p.symbols[k] for k, pos in enumerate(got.positions))
            assert got.positions == min(all_embeddings(p.symbols, h.symbols))


class TestSubgraphIsomorphic:
    def test_probe_graphs(self, demo_graphs):
        f = demo_graphs
        checks = [
            (f.probe_path, f.g1, True),
            (f.probe_path, f.g2, True),
            (f.probe_path, f.g3, False),
            (f.probe_triangle, f.g1, False),
            (f.probe_triangle, f.g2, True),
            (f.probe_triangle, f.g3, True),
        ]
        for pat, host, want in checks:
            assert (subgraph_isomorphic(pat, host) is not None) == want
            assert graph_included(pat, host) == want

    def test_mapping_is_a_witness(self, demo_graphs):
        f = demo_graphs
        mapping = subgraph_isomorphic(f.probe_triangle, f.g2)
        lm_p, lm_h = f.probe_triangle.label_map, f.g2.label_map
        assert len(set(mapping.values())) == len(mapping)
        for v, lbl in f.probe_triangle.vertices:
            assert lm_h[mapping[v]] == lbl
        host_pairs = {(u, v): l for u, v, l in f.g2.edges}
        for u, v, l in f.probe_triangle.edges:
            a, b = sorted((mapping[u], mapping[v]))
            assert host_pairs[(a, b)] == l

    def test_randomized_against_permutation_oracle(self):
        rng = random.Random(20260819)
        from helpers import random_graph

        symbols = SymbolTable()
        labels = [symbols.intern(f"L{k}") for k in range(2)]
        for _ in range(150):
            pat = random_graph(rng, labels, max_vertices=4, max_extra_edges=2)
            host = random_graph(rng, labels, max_vertices=6, max_extra_edges=4)
            assert (subgraph_isomorphic(pat, host) is not None) == injective_map_exists(pat, host)

    def test_path_longer_than_recursion_limit(self):
        # one search level per pattern vertex: 1200 levels
        n = 1200
        path = LabeledGraph.of([(v, 1 + v % 2) for v in range(n)], [(v, v + 1) for v in range(n - 1)])
        longer = LabeledGraph(path.vertices + ((n, 2),), path.edges + ((n - 1, n, 0),))
        # alternating labels on an even path leave the identity as the only map
        assert subgraph_isomorphic(path, path) == {v: v for v in range(n)}
        assert graph_included(path, longer)
        assert not graph_included(longer, path)

    def test_edge_labels_must_match(self):
        pat = LabeledGraph.of([(0, 1), (1, 2)], [(0, 1, 5)])
        host = LabeledGraph.of([(0, 1), (1, 2)], [(0, 1, 6)])
        assert subgraph_isomorphic(pat, host) is None


class TestUniqueLabeled:
    def test_examples(self, demo_graphs):
        assert demo_graphs.g1.unique_labeled
        assert demo_graphs.g2.unique_labeled
        assert not demo_graphs.g3.unique_labeled

    def test_edge_itemize(self, demo_graphs):
        f = demo_graphs
        pairs = edge_itemize(f.g1)
        want = {
            tuple(sorted((f.L["a"], f.L["b"]))),
            tuple(sorted((f.L["a"], f.L["c"]))),
            tuple(sorted((f.L["a"], f.L["d"]))),
            tuple(sorted((f.L["c"], f.L["e"]))),
        }
        assert set(pairs) == want
        assert list(pairs) == sorted(pairs)

    def test_edge_itemize_rejects(self, demo_graphs):
        with pytest.raises(InputError):
            edge_itemize(demo_graphs.g3)
        lonely = LabeledGraph.of([(0, 1)], [])
        with pytest.raises(InputError):
            edge_itemize(lonely)

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), unique=st.booleans())
    def test_inclusion_fast_path_equals_general(self, rng, unique):
        """graph_included equals the general search, and each pattern class's attributes their per-kind definitions.

        Graphs come unique-labeled or not (repeated vertex labels, edge labels
        other than the default), and may be edgeless.
        """
        from helpers import random_graph, random_unique_graph_db

        if unique:
            db = random_unique_graph_db(rng, max_graphs=3, n_labels=5)
        else:
            symbols = SymbolTable(["0", "a", "b", "x"])
            graphs = tuple(random_graph(rng, [1, 2], 5, edge_labels=[0, 0, 3]) for _ in range(rng.randint(1, 3)))
            db = GraphDB(graphs, symbols)
        items = Itemset.of(rng.sample(range(8), rng.randint(1, 5)))
        seq = Sequence.of(rng.choice(range(4)) for _ in range(rng.randint(1, 6)))
        cases = [(items, "itemset", len(items.items), items.items), (seq, "sequence", len(seq.symbols), seq.symbols)]
        cases += [(g, "graph", g.edge_count, tuple(lbl for _, lbl in g.vertices)) for g in db.graphs]
        for p, kind, size, elements in cases:
            assert p.kind == kind
            assert p.size == size
            assert p.elements == elements
        for g in db.graphs:
            if g.unique_labeled:
                # The oracle's largest frequent pair set in a one-graph database is the graph's own.
                found = frequent_graphs_unique_bruteforce(GraphDB((g,), db.symbols), 1)
                assert g.label_pairs == frozenset(max(found, key=len, default=()))
            for host in db.graphs:
                assert graph_included(g, host) == (subgraph_isomorphic(g, host) is not None)
