"""File formats: loaders, the pattern-line codec, and the tiling report."""

import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    BinaryMatrix,
    InputError,
    Itemset,
    LabeledGraph,
    PatternRecord,
    Sequence,
    SequenceDB,
    SymbolTable,
    Tile,
    TileSelection,
    TransactionDB,
    error,
    load_graphs,
    load_matrix,
    load_patterns,
    load_sequences,
    load_tiles,
    load_transactions,
    load_weights,
    mine_frequent_itemsets,
    mine_frequent_sequences,
    MinSupport,
    write_patterns,
    write_tiling,
)
from siftmine.formats import _is_int_list, pattern_lines


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def load_line(directory, line):
    """load_patterns on a file p.pat holding line."""
    return load_patterns(write(Path(directory), "p.pat", line + "\n"))


def write_and_load(records, symbols, directory, name, **flags):
    """The bytes write_patterns gives records, and load_patterns of them."""
    path = Path(directory) / name
    write_patterns(records, path, symbols, **flags)
    return path.read_bytes(), load_patterns(path)


class TestLoadTransactions:
    def test_happy_path(self, tmp_path):
        db = load_transactions(write(tmp_path, "t.txt", "a b d e\nb c e\na e\n"))
        assert len(db) == 3
        labels = db.symbols.labels
        assert labels == ("a", "b", "d", "e", "c")  # first-appearance interning
        assert db.transactions[2] == (0, 3)  # a, e

    def test_duplicates_collapse(self, tmp_path):
        db = load_transactions(write(tmp_path, "t.txt", "a a b\n"))
        assert db.transactions[0] == (0, 1)

    def test_deterministic_interning(self, tmp_path):
        p = write(tmp_path, "t.txt", "z y\nx z\n")
        assert load_transactions(p).symbols.labels == load_transactions(p).symbols.labels

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="empty file"):
            load_transactions(write(tmp_path, "t.txt", ""))

    def test_blank_line(self, tmp_path):
        with pytest.raises(InputError, match="line 2"):
            load_transactions(write(tmp_path, "t.txt", "a b\n\nc\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_transactions(tmp_path / "nope.txt")


class TestLoadSequences:
    def test_repeats_preserved(self, tmp_path):
        db = load_sequences(write(tmp_path, "s.txt", "a a e\nb a\n"))
        assert db.sequences[0] == (0, 0, 1)
        assert db.sequences[1] == (2, 0)

    def test_empty_and_blank(self, tmp_path):
        with pytest.raises(InputError, match="empty file"):
            load_sequences(write(tmp_path, "s.txt", ""))
        with pytest.raises(InputError, match="line 1"):
            load_sequences(write(tmp_path, "s.txt", "\na\n"))


GRAPH_TEXT = """t # 1
v 0 a
v 1 b
v 2 c
e 0 1
e 0 2 x
t # 2
v 0 a
v 5 b
e 0 5
"""


class TestLoadGraphs:
    def test_happy_path(self, tmp_path):
        db = load_graphs(write(tmp_path, "g.txt", GRAPH_TEXT))
        assert len(db) == 2
        # default edge label "0" interned first, at id 0
        assert db.symbols.label_of(0) == "0"
        g1 = db.graphs[0]
        assert [lbl for _, lbl in g1.vertices] == [
            db.symbols.intern(x) for x in "abc"
        ]
        labels = {(u, v): db.symbols.label_of(el) for u, v, el in g1.edges}
        assert labels == {(0, 1): "0", (0, 2): "x"}
        # vertex ids are local; 5 is fine
        assert {vid for vid, _ in db.graphs[1].vertices} == {0, 5}

    def test_gid_out_of_order(self, tmp_path):
        text = GRAPH_TEXT.replace("t # 2", "t # 3")
        with pytest.raises(InputError, match="out of order"):
            load_graphs(write(tmp_path, "g.txt", text))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(InputError, match="graph header"):
            load_graphs(write(tmp_path, "g.txt", "t 1\nv 0 a\n"))

    def test_duplicate_vertex(self, tmp_path):
        with pytest.raises(InputError, match="duplicate vertex"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv 0 a\nv 0 b\n"))

    def test_self_loop(self, tmp_path):
        with pytest.raises(InputError, match="self-loop"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv 0 a\ne 0 0\n"))

    def test_undeclared_vertex(self, tmp_path):
        with pytest.raises(InputError, match="undeclared vertex"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv 0 a\ne 0 1\n"))

    def test_duplicate_edge_either_direction(self, tmp_path):
        text = "t # 1\nv 0 a\nv 1 b\ne 0 1\ne 1 0\n"
        with pytest.raises(InputError, match="duplicate edge"):
            load_graphs(write(tmp_path, "g.txt", text))

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(InputError, match="unknown record tag"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv 0 a\nq 1\n"))

    def test_vertex_before_header(self, tmp_path):
        with pytest.raises(InputError, match="before any graph header"):
            load_graphs(write(tmp_path, "g.txt", "v 0 a\n"))

    def test_empty_graph_record(self, tmp_path):
        with pytest.raises(InputError, match="no vertices"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nt # 2\nv 0 a\n"))


class TestLoadMatrix:
    def test_happy_path(self, tmp_path):
        m = load_matrix(write(tmp_path, "m.txt", "1 1 0\n1 0 1\n0 1 1\n"))
        assert m.cells == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_non_binary_cell(self, tmp_path):
        with pytest.raises(InputError, match="non-binary cell"):
            load_matrix(write(tmp_path, "m.txt", "1 2\n"))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(InputError, match="ragged row"):
            load_matrix(write(tmp_path, "m.txt", "1 0\n1\n"))


class TestLoadWeights:
    def test_happy_path_and_default(self, tmp_path):
        symbols = SymbolTable()
        a = symbols.intern("a")
        w = load_weights(write(tmp_path, "w.txt", "a 3\nb 1\n"), symbols)
        assert w.cost_of(a) == 3
        assert w.cost_of(symbols.intern("b")) == 1
        assert w.cost_of(symbols.intern("zzz")) == 0  # unlisted symbols cost 0

    def test_errors(self, tmp_path):
        symbols = SymbolTable()
        with pytest.raises(InputError, match="expected"):
            load_weights(write(tmp_path, "w.txt", "a 1 2\n"), symbols)
        with pytest.raises(InputError, match="not an integer"):
            load_weights(write(tmp_path, "w.txt", "a x\n"), symbols)
        with pytest.raises(InputError, match="negative weight"):
            load_weights(write(tmp_path, "w.txt", "a -1\n"), symbols)
        with pytest.raises(InputError, match="duplicate weight"):
            load_weights(write(tmp_path, "w.txt", "a 1\na 2\n"), symbols)

    @pytest.mark.parametrize("text", ["1_0", "+3", "\u0661", "\u00b2", "-1_0", "3.0", "-"])
    def test_only_plain_decimals(self, tmp_path, text):
        with pytest.raises(InputError, match=re.escape(f"line 1: weight {text!r} is not an integer")):
            load_weights(write(tmp_path, "w.txt", f"a {text}\n"), SymbolTable())

    @pytest.mark.parametrize("text", ["-1", "-0", "-007"])
    def test_minus_then_digits_is_negative(self, tmp_path, text):
        with pytest.raises(InputError, match="line 1: negative weight"):
            load_weights(write(tmp_path, "w.txt", f"a {text}\n"), SymbolTable())

    def test_leading_zeros(self, tmp_path):
        symbols = SymbolTable()
        assert load_weights(write(tmp_path, "w.txt", "a 007\n"), symbols).cost_of(symbols.id_of("a")) == 7


class TestLoadTiles:
    def test_ones_are_rectangle_intersect_data(self, tiling, tmp_path):
        p = write(tmp_path, "tiles.txt", "rows=1,2 cols=1,2,3\nrows=2,3 cols=1,2\n")
        tiles = load_tiles(p, tiling.matrix)
        assert [t.tile_id for t in tiles] == [1, 2]
        assert tiles[0].ones == tiling.tiles[0].ones
        assert tiles[0].ones == frozenset({(1, 1), (1, 2), (2, 1), (2, 3)})

    def test_range_checks(self, tiling, tmp_path):
        with pytest.raises(InputError, match="row index out of range"):
            load_tiles(write(tmp_path, "t.txt", "rows=0 cols=1\n"), tiling.matrix)
        with pytest.raises(InputError, match="column index out of range"):
            load_tiles(write(tmp_path, "t.txt", "rows=1 cols=4\n"), tiling.matrix)

    def test_key_checks(self, tiling, tmp_path):
        with pytest.raises(InputError, match="expected"):
            load_tiles(write(tmp_path, "t.txt", "rows=1\n"), tiling.matrix)
        with pytest.raises(InputError, match="malformed integer list"):
            load_tiles(write(tmp_path, "t.txt", "rows=1,x cols=1\n"), tiling.matrix)


class TestPatternLineCodec:
    def test_itemset_elements_in_label_order(self, toy_items):
        f = toy_items
        rec = PatternRecord(
            pid=1,
            pattern=Itemset.of(f.itemset_ids("eb")),
            support=2,
            cover=frozenset({2, 1}),
            size=2,
        )
        # elements lexicographic, not in id order; the cover's tids ascending
        assert list(pattern_lines([rec], f.db.symbols)) == [
            "pid=1 kind=itemset support=2 size=2 elements=b,e cover=1,2"
        ]

    def test_sequence_elements_in_sequence_order(self, toy_seqs):
        f = toy_seqs
        rec = PatternRecord(
            pid=4,
            pattern=Sequence.of(f.seq_ids("ba")),
            support=2,
            cover=frozenset({1, 2}),
            size=2,
        )
        assert list(pattern_lines([rec], f.db.symbols)) == [
            "pid=4 kind=sequence support=2 size=2 elements=b,a cover=1,2"
        ]

    def test_graph_line_roundtrip(self, tmp_path):
        db = load_graphs(write(tmp_path, "g.txt", "t # 1\nv 0 a\nv 1 b\ne 0 1\n"))
        rec = PatternRecord(
            pid=2, pattern=db.graphs[0], support=3, cover=frozenset({1, 2, 3}), size=1
        )
        data, loaded = write_and_load([rec], db.symbols, tmp_path, "g.pat")
        assert b"vertices=0:a,1:b" in data and b"edges=0-1:0" in data
        assert [line.encode() + b"\n" for line in pattern_lines(loaded.records, loaded.symbols)] == [data]

    def test_quoting_roundtrip(self, tmp_path):
        # labels with codec-reserved characters must percent-quote
        symbols = SymbolTable()
        ids = [symbols.intern(lbl) for lbl in ("a=1", "x,y", "p%q")]
        rec = PatternRecord(
            pid=1, pattern=Itemset.of(ids), support=1, cover=frozenset({1}), size=3
        )
        data, loaded = write_and_load([rec], symbols, tmp_path, "q.pat")
        assert b"elements=a%3D1,p%25q,x%2Cy " in data
        assert set(loaded.symbols.labels) == {"a=1", "x,y", "p%q"}
        assert loaded.records[0].size == 3

    def test_flags_roundtrip(self, toy_items, tmp_path):
        f = toy_items
        rec = PatternRecord(
            pid=1, pattern=Itemset.of(f.itemset_ids("e")), support=3, cover=frozenset({1, 2, 3}), size=1
        )
        data, loaded = write_and_load([rec], f.db.symbols, tmp_path, "f.pat", valid={1: True}, condensed={1: False})
        assert data.endswith(b"valid=1 condensed=0\n")
        assert loaded.valid == {1: True} and loaded.condensed == {1: False}


class TestLineToOutputErrors:
    """Each malformed line fails load_patterns, which names the file and the line."""

    GOOD = "pid=1 kind=itemset support=2 size=1 elements=a"

    def test_blank(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: blank line$"):
            load_line(tmp_path, "   ")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: unknown field 'shade'$"):
            load_line(tmp_path, self.GOOD + " shade=1")

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: duplicate field 'pid'$"):
            load_line(tmp_path, self.GOOD + " pid=2")

    def test_missing_required(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: missing field 'size'$"):
            load_line(tmp_path, "pid=1 kind=itemset support=2 elements=a")

    def test_non_integer(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: pid/support/size must be integers$"):
            load_line(tmp_path, "pid=x kind=itemset support=2 size=1 elements=a")

    def test_kind_field_mismatch(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: itemset records carry elements only$"):
            load_line(tmp_path, "pid=1 kind=itemset support=2 size=1 vertices=0:a edges=")
        with pytest.raises(InputError, match=r"p\.pat: line 1: graph records carry vertices and edges$"):
            load_line(tmp_path, "pid=1 kind=graph support=2 size=1 elements=a")

    def test_empty_elements(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: empty elements$"):
            load_line(tmp_path, "pid=1 kind=itemset support=2 size=1 elements=")

    def test_malformed_vertex_and_edge(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: malformed vertex '0a'$"):
            load_line(tmp_path, "pid=1 kind=graph support=1 size=0 vertices=0a edges=")
        with pytest.raises(InputError, match=r"p\.pat: line 1: malformed edge endpoints '01'$"):
            load_line(tmp_path, "pid=1 kind=graph support=1 size=1 vertices=0:a,1:b edges=01:0")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: unknown pattern kind 'tree'$"):
            load_line(tmp_path, "pid=1 kind=tree support=2 size=1 elements=a")

    def test_bad_flag(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.pat: line 1: flag valid must be 0 or 1$"):
            load_line(tmp_path, self.GOOD + " valid=yes")

    def test_position_in_message(self, tmp_path):
        good = "".join(f"pid={pid} kind=itemset support=0 size=1 elements=a\n" for pid in range(1, 7))
        with pytest.raises(InputError, match=r"pats\.txt: line 7: missing field 'kind'$"):
            load_patterns(write(tmp_path, "pats.txt", good + "pid=\n"))


class TestLineFieldsProperty:
    REQUIRED = ("pid", "kind", "support", "size")
    FLAG_VALUES = [None, "0", "1", "2", ""]

    @settings(max_examples=300, deadline=None)
    @given(
        dropped=st.sets(st.sampled_from(REQUIRED)),
        valid=st.sampled_from(FLAG_VALUES),
        condensed=st.sampled_from(FLAG_VALUES),
        data=st.data(),
    )
    def test_fields_in_any_order(self, dropped, valid, condensed, data):
        fields = {"pid": "3", "kind": "sequence", "support": "2", "size": "2", "elements": "b,a", "cover": "4,1"}
        fields.update(valid=valid, condensed=condensed)
        tokens = [f"{key}={value}" for key, value in fields.items() if value is not None and key not in dropped]
        line = " ".join(data.draw(st.permutations(tokens)))
        with tempfile.TemporaryDirectory() as d:
            if dropped:
                first = next(key for key in self.REQUIRED if key in dropped)
                with pytest.raises(InputError, match=f"line 1: missing field '{first}'$"):
                    load_line(d, line)
                return
            bad = [flag for flag, value in (("valid", valid), ("condensed", condensed)) if value not in (None, "0", "1")]
            if bad:
                with pytest.raises(InputError, match=f"line 1: flag {bad[0]} must be 0 or 1$"):
                    load_line(d, line)
                return
            loaded = load_line(d, line)
        # Written back in canonical field order, the cover verbatim.
        canonical = "pid=3 kind=sequence support=2 size=2 elements=b,a cover=4,1"
        canonical += "".join(f" {flag}={value}" for flag, value in (("valid", valid), ("condensed", condensed)) if value)
        assert list(pattern_lines(loaded.records, loaded.symbols, loaded.valid, loaded.condensed)) == [canonical]


class TestPatternFiles:
    def test_duplicate_pid_rejected(self, tmp_path):
        text = "pid=1 kind=itemset support=2 size=1 elements=a\npid=1 kind=itemset support=1 size=1 elements=b\n"
        with pytest.raises(InputError, match=r"p\.pat: line 2: duplicate pattern id 1$"):
            load_patterns(write(tmp_path, "p.pat", text))

    def test_empty_write_and_load(self, tmp_path):
        p = tmp_path / "empty.pat"
        write_patterns([], p, SymbolTable())
        assert p.read_text() == ""
        loaded = load_patterns(p)
        assert loaded.records == () and loaded.valid == {}

    def test_write_load_write_identity(self, toy_items, toy_seqs, demo_graphs, tmp_path):
        # mixed-kind file: one itemset, one sequence, one graph
        fi, fs, fg = toy_items, toy_seqs, demo_graphs
        symbols = SymbolTable()
        symbols.intern("0")
        remap_i = {sid: symbols.intern(fi.db.symbols.label_of(sid)) for sid in range(len(fi.db.symbols.labels))}
        recs = [
            PatternRecord(
                pid=1,
                pattern=Itemset.of(remap_i[sid] for sid in fi.itemset_ids("be")),
                support=2,
                cover=frozenset({1, 2}),
                size=2,
            ),
            PatternRecord(
                pid=2,
                pattern=Sequence.of(symbols.intern(x) for x in "ba"),
                support=2,
                cover=frozenset({1, 2}),
                size=2,
            ),
            PatternRecord(
                pid=3,
                pattern=LabeledGraph.of(
                    [(0, symbols.intern("a")), (1, symbols.intern("b"))], [(0, 1, 0)]
                ),
                support=3,
                cover=frozenset({1, 2, 3}),
                size=1,
            ),
        ]
        p1, p2 = tmp_path / "one.pat", tmp_path / "two.pat"
        write_patterns(recs, p1, symbols, valid={1: True}, condensed={1: False, 3: True})
        loaded = load_patterns(p1)
        assert loaded.valid == {1: True} and loaded.condensed == {1: False, 3: True}
        write_patterns(loaded.records, p2, loaded.symbols, valid=loaded.valid, condensed=loaded.condensed)
        assert p1.read_text() == p2.read_text()

    def test_edge_label_interned_first_only_when_a_graph_is_present(self, tmp_path):
        itemset = "pid=1 kind=itemset support=1 size=1 elements=b\n"
        graph = "pid=2 kind=graph support=1 size=1 vertices=0:a,1:b edges=0-1:x\n"
        mixed = load_patterns(write(tmp_path, "mixed.pat", itemset + graph))
        assert mixed.symbols.labels == ("0", "b", "a", "x")
        # "kind=graph" inside a label is no graph record
        lookalike = "pid=3 kind=itemset support=1 size=1 elements=kind=graph\n"
        assert load_patterns(write(tmp_path, "items.pat", itemset + lookalike)).symbols.labels == ("b", "kind=graph")

    def test_load_reports_path_on_semantic_error(self, tmp_path):
        p = write(
            tmp_path,
            "pats.txt",
            "pid=1 kind=itemset support=2 size=1 elements=a\n"
            "pid=2 kind=itemset support=2 size=1 elements=b,c\n",
        )
        with pytest.raises(InputError, match=r"pats\.txt: line 2: size must match the pattern$"):
            load_patterns(p)


class TestCoverText:
    def test_unsorted_tids_pass_through_verbatim(self, tmp_path):
        p = write(tmp_path, "p.pat", "pid=1 kind=itemset support=3 size=1 elements=a cover=3,1,20\n")
        loaded = load_patterns(p)
        write_patterns(loaded.records, tmp_path / "out.pat", loaded.symbols)
        assert (tmp_path / "out.pat").read_text() == p.read_text()
        assert loaded.records[0].cover == frozenset({1, 3, 20})

    def test_repeated_tid_fails_only_when_the_cover_is_read(self, tmp_path):
        p = write(tmp_path, "p.pat", "pid=7 kind=itemset support=2 size=1 elements=a cover=4,4\n")
        loaded = load_patterns(p)
        write_patterns(loaded.records, tmp_path / "out.pat", loaded.symbols)
        assert (tmp_path / "out.pat").read_text() == p.read_text()
        with pytest.raises(InputError, match="pattern 7: cover lists a tid more than once"):
            loaded.records[0].cover

    @pytest.mark.parametrize(
        "cover, message",
        [
            ("1,2,3", "support 2 but the cover lists 3 tids"),
            ("", "support 2 but the cover lists 0 tids"),
            ("1,,2", "malformed integer list"),
            ("1_0,2", "malformed integer list"),
            ("\u0661,2", "malformed integer list"),
            ("-1,2", "malformed integer list"),
        ],
    )
    def test_grammar_and_count(self, tmp_path, cover, message):
        with pytest.raises(InputError, match=r"p\.pat: line 1: " + message):
            load_line(tmp_path, f"pid=1 kind=itemset support=2 size=1 elements=a cover={cover}")

    @pytest.mark.parametrize("elements", ["a,a", "a,b,a", "a,%61"])
    def test_repeated_itemset_label_rejected(self, tmp_path, elements):
        size = elements.count(",") + 1
        line = f"pid=4 kind=itemset support=1 size={size} elements={elements} cover=1"
        with pytest.raises(InputError, match=r"p\.pat: line 1: pattern 4: itemset lists a label more than once$"):
            load_line(tmp_path, line)

    def test_empty_cover_with_zero_support(self, tmp_path):
        (record,) = load_line(tmp_path, "pid=1 kind=itemset support=0 size=1 elements=a cover=").records
        assert record.cover == frozenset() and record.cover_text() == ""

    # Digits, commas, and what int() or a looser pattern would let through.
    INT_LIST_CHARS = list("0129,_-+") + ["\u0661", "\u00b2"]
    INT_LIST_TEXT = st.text(st.sampled_from(INT_LIST_CHARS + [" "]), max_size=10)
    # A line splits on whitespace, so a field value holds none.
    COVER_TEXT = st.text(st.sampled_from(INT_LIST_CHARS), max_size=10)

    @settings(max_examples=400, deadline=None)
    @given(INT_LIST_TEXT)
    def test_checker_matches_the_regex(self, text):
        assert _is_int_list(text) == bool(re.fullmatch(r"\d+(?:,\d+)*", text, re.ASCII))

    @settings(max_examples=400, deadline=None)
    @given(text=COVER_TEXT, support=st.integers(0, 3))
    def test_cover_field_accepts_the_grammar_and_count(self, text, support):
        listed = text.count(",") + 1 if text else 0
        wanted = (text == "" or re.fullmatch(r"\d+(?:,\d+)*", text, re.ASCII) is not None) and listed == support
        try:
            with tempfile.TemporaryDirectory() as d:
                loaded = load_line(d, f"pid=1 kind=itemset support={support} size=1 elements=a cover={text}")
        except InputError:
            assert not wanted
        else:
            assert wanted and loaded.records[0].cover_text() == text


class TestStrictIntegersAndEscapes:
    @pytest.mark.parametrize("label", ["%zz", "a%", "%4", "%C3", "%FF%FE"])
    def test_bad_escapes_rejected(self, tmp_path, label):
        with pytest.raises(InputError, match=r"p\.pat: line 1: bad percent escape"):
            load_line(tmp_path, f"pid=1 kind=sequence support=1 size=2 elements=x,{label}")

    def test_good_escapes_in_either_case(self, tmp_path):
        loaded = load_line(tmp_path, "pid=1 kind=sequence support=1 size=2 elements=%c3%a9,%C3%A9%25")
        assert loaded.symbols.labels == ("\u00e9", "\u00e9%")
        assert loaded.records[0].pattern == Sequence((0, 1))

    def test_graph_and_tile_ids(self, tiling, tmp_path):
        with pytest.raises(InputError, match="vertex id '1_0' is not an integer"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv 1_0 a\n"))
        with pytest.raises(InputError, match="vertex id '-1' is not an integer"):
            load_graphs(write(tmp_path, "g.txt", "t # 1\nv -1 a\n"))
        with pytest.raises(InputError, match="malformed integer list"):
            load_tiles(write(tmp_path, "t.txt", "rows=1_0 cols=1\n"), tiling.matrix)


# Any label but a surrogate: the codec must quote whitespace, "%", ",", "=", ":" and "-".
LABELS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
# Tids well past 1024, and sometimes no cover at all.
COVERS = st.none() | st.frozensets(st.integers(0, 5000), max_size=6)


@st.composite
def pattern_records(draw):
    """Records of every kind over one symbol table, pids distinct but not in order."""
    symbols = SymbolTable()
    symbols.intern("0")
    pids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True))
    records = []
    for pid in pids:
        kind = draw(st.sampled_from(["itemset", "sequence", "graph"]))
        if kind == "graph":
            labels = draw(st.lists(LABELS, min_size=1, max_size=4))
            pairs = [(u, v) for v in range(len(labels)) for u in range(v)]
            edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            pattern = LabeledGraph.of(
                [(vid, symbols.intern(lbl)) for vid, lbl in enumerate(labels)],
                [(u, v, symbols.intern(draw(LABELS))) for u, v in edges],
            )
        else:
            ids = [symbols.intern(lbl) for lbl in draw(st.lists(LABELS, min_size=1, max_size=4))]
            pattern = Itemset.of(ids) if kind == "itemset" else Sequence.of(ids)
        cover = draw(COVERS)
        support = draw(st.integers(0, 9)) if cover is None else len(cover)
        size = len(pattern.edges) if kind == "graph" else len(set(ids) if kind == "itemset" else ids)
        records.append(PatternRecord(pid, pattern, support, cover, size))
    return records, symbols


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(pattern_records())
    def test_load_write_load_is_identity(self, drawn):
        records, symbols = drawn
        with tempfile.TemporaryDirectory() as d:
            first, loaded = write_and_load(records, symbols, d, "one.pat")
            second, again = write_and_load(loaded.records, loaded.symbols, d, "two.pat")
        assert first == second
        lines = list(pattern_lines(records, symbols))
        assert list(pattern_lines(loaded.records, loaded.symbols)) == lines
        assert list(pattern_lines(again.records, again.symbols)) == lines
        assert [r.cover for r in again.records] == [r.cover for r in records]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        # 1030 rows put tids past 1024
        n_rows=st.sampled_from([1, 9, 1030]),
        n_symbols=st.integers(1, 3),
        sequences=st.booleans(),
    )
    def test_miner_covers_round_trip(self, seed, n_rows, n_symbols, sequences):
        rng = random.Random(seed)  # a 1030-row database is too many draws to shrink
        symbols = SymbolTable()
        ids = [symbols.intern(f"s{k}") for k in range(n_symbols)]
        if sequences:
            rows = tuple(tuple(rng.choice(ids) for _ in range(rng.randint(0, 9))) for _ in range(n_rows))
            mined = mine_frequent_sequences(SequenceDB(rows, symbols), MinSupport.absolute(1), 3)
        else:
            rows = tuple(tuple(sorted(rng.sample(ids, rng.randint(0, n_symbols)))) for _ in range(n_rows))
            mined = mine_frequent_itemsets(TransactionDB(rows, symbols), MinSupport.absolute(1))
        with tempfile.TemporaryDirectory() as d:
            first, loaded = write_and_load(mined, symbols, d, "one.pat")
            second, again = write_and_load(loaded.records, loaded.symbols, d, "two.pat")
        assert first == second
        assert [r.cover for r in again.records] == [r.cover for r in mined]


class TestWriteTiling:
    def test_report_content(self, tiling, tmp_path):
        p = tmp_path / "report.txt"
        sels = [TileSelection(tile_ids=(1, 3), error=2)]
        write_tiling(
            p,
            tiling.matrix,
            list(tiling.tiles),
            method="greedy",
            error_mode="full",
            budget=3,
            status="ok",
            selections=sels,
        )
        text = p.read_text().splitlines()
        assert text[0:5] == [
            "method=greedy",
            "error_mode=full",
            "threshold=3",
            "candidates=3",
            "status=ok",
        ]
        assert text[5] == "tile=1 rows=1,2 cols=1,2,3 ones=4"
        assert text[8] == "selection=1,3 k=2 ones_outside=0 zeros_inside=2 error=2"
        assert text[9] == "solutions=1"
        # the recorded error matches a recomputation from the matrix
        chosen = [tiling.tiles[0], tiling.tiles[2]]
        assert error(tiling.matrix, chosen, mode="full") == 2
