"""File formats: loaders, the pattern-line codec, and the tiling report."""

import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

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
    TileSelection,
    TransactionDB,
    error_terms,
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
from siftmine import formats
from siftmine.core import Cover
from siftmine.formats import _listed, _parse_line, pattern_lines, read_text

from helpers import LONG_NUMBER, LONG_NUMBER_LINES, long_numbers


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

    def test_form_feed_separates_items(self, tmp_path):
        db = load_transactions(write(tmp_path, "t.txt", "a\fb c\r\nb\x1cc\u2028a\rc\n"))
        assert db.transactions == ((0, 1, 2), (0, 1, 2), (2,))

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


def text_lines(text):
    """text's lines: each ends at "\n", "\r\n" or "\r", and a last line may end at the end of text."""
    lines = re.split(r"\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def reference_matrix(path):
    """A matrix file read token by token: (cells, column masks), or the message of its first fault."""
    lines = text_lines(Path(path).read_text(encoding="utf-8"))
    if not lines:
        return f"{path}: empty file"
    rows = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            return f"{path}: line {lineno}: blank line"
        for token in tokens:
            if token not in ("0", "1"):
                cut = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
                return f"{path}: line {lineno}: non-binary cell {cut}"
        if rows and len(tokens) != len(rows[0]):
            return f"{path}: line {lineno}: ragged row ({len(tokens)} cells, expected {len(rows[0])})"
        rows.append(tuple(int(token) for token in tokens))
    masks = tuple(sum(row[c] << r for r, row in enumerate(rows)) for c in range(len(rows[0])))
    return tuple(rows), masks


# Cells that are not one ASCII 0 or 1, each the one fault of a drawn matrix. "101" keeps a canonical
# row's odd length but puts a digit at an odd offset.
BAD_CELLS = ["2", "01", "101", "\uff11", "-0", "1" * 5000]


@st.composite
def matrix_texts(draw):
    """A 0/1 grid with at most one fault: a bad cell, a ragged row or a blank line.

    About half the grids are in the canonical layout (cells joined by single
    spaces, none before or after), the rest in mixed whitespace; line ends
    are mixed in both.
    """
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = [draw(st.lists(st.sampled_from("01"), min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    fault = draw(st.sampled_from([None, "ragged", "blank", *BAD_CELLS]))
    r = draw(st.integers(0, n_rows - 1))
    if fault == "ragged":
        if n_cols > 1 and draw(st.booleans()):
            grid[r].pop()
        else:
            grid[r].append("1")
    elif fault not in (None, "blank"):
        grid[r][draw(st.integers(0, n_cols - 1))] = fault
    # Whitespace that ends no line: "\x0b", "\x0c" and "\x85" end one for str.splitlines, not here.
    space = st.text(st.sampled_from(" \t\u00a0\x0b\x0c\x85"), min_size=1, max_size=2)
    if draw(st.booleans()):
        lines = [" ".join(row) for row in grid]
    else:
        lines = [
            draw(st.one_of(st.just(""), space)) + "".join(cell + draw(space) for cell in row[:-1]) + row[-1]
            + draw(st.one_of(st.just(""), space))
            for row in grid
        ]
    if fault == "blank":
        lines.insert(draw(st.integers(0, n_rows)), draw(st.sampled_from(["", " ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends))


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

    def test_vertical_tab_separates_cells(self, tmp_path):
        # "\v" separates two cells, as a space does; only "\n", "\r\n" and "\r" end a row.
        assert load_matrix(write(tmp_path, "m.txt", "1\v0\n1 0\n")).cells == ((1, 0), (1, 0))

    @settings(max_examples=300, deadline=None)
    @given(text=matrix_texts())
    def test_equals_token_by_token_reader(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.txt"
            path.write_bytes(text.encode("utf-8"))
            expected = reference_matrix(path)
            try:
                m = load_matrix(path)
            except InputError as exc:
                assert str(exc) == expected
            else:
                assert "cells" not in m.__dict__  # built on first read
                assert (m.cells, m.col_masks) == expected


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("rows=1 cols=1 x=1", "unknown field 'x'"),
            ("x=1 cols=1", "unknown field 'x'"),
            ("rows=1 rows=2", "duplicate field 'rows'"),
            ("rows=1 cols=1 cols=2", "duplicate field 'cols'"),
            ("rows=1 cols", "malformed field 'cols'"),
            ("cols=1", "expected `rows=... cols=...`"),
        ],
    )
    def test_keys_read_by_the_pattern_field_loop(self, tiling, tmp_path, line, message):
        with pytest.raises(InputError, match=re.escape(f"t.txt: line 2: {message}") + "$"):
            load_tiles(write(tmp_path, "t.txt", f"rows=1 cols=1\n{line}\n"), tiling.matrix)


# The six input loaders, each with a line it accepts, one it rejects, that
# rejection's message, and whether it takes an empty file. Transactions and
# sequences accept every line with a token, so their first bad line is a
# blank one.
LOADERS = [
    pytest.param(load_transactions, "a b", "", "blank line", False, id="transactions"),
    pytest.param(load_sequences, "a a", "", "blank line", False, id="sequences"),
    pytest.param(load_graphs, "t # 1", "v x a", "vertex id 'x' is not an integer", False, id="graphs"),
    pytest.param(load_matrix, "1 0", "1 2", "non-binary cell '2'", False, id="matrix"),
    pytest.param(
        lambda p: load_weights(p, SymbolTable()), "a 1", "b x", "weight 'x' is not an integer", True, id="weights"
    ),
    pytest.param(
        lambda p: load_tiles(p, BinaryMatrix(((1,),))), "rows=1 cols=1", "rows=1", "expected", False, id="tiles"
    ),
]


class TestTokenLines:
    """Every input loader reads its lines through one reader, which meets each blank line in file order."""

    @pytest.mark.parametrize("load, good, bad, message, empty_ok", LOADERS)
    def test_first_bad_line_is_reported(self, tmp_path, load, good, bad, message, empty_ok):
        path = write(tmp_path, "in.txt", f"{good}\n{bad}\n\n{good}\n")
        with pytest.raises(InputError, match=re.escape(f"in.txt: line 2: {message}")):
            load(path)

    @pytest.mark.parametrize("load, good, bad, message, empty_ok", LOADERS)
    def test_empty_file(self, tmp_path, load, good, bad, message, empty_ok):
        path = write(tmp_path, "in.txt", "")
        if empty_ok:
            assert load(path).costs == {}
        else:
            with pytest.raises(InputError, match=re.escape("in.txt: empty file")):
                load(path)


# Every loader of TestTokenLines, and the pattern-file loader.
ALL_LOADERS = LOADERS + [
    pytest.param(
        load_patterns, "pid=1 kind=itemset support=1 size=1 elements=a", "pid=2", "missing field 'kind'", True,
        id="patterns",
    )
]
# Lines past the first 64 KiB chunk.
FILLER = "x y\n" * 20_000
# Every boundary str.splitlines knows (only "\n", "\r\n" and "\r" end a line
# here), characters of two to four UTF-8 bytes, and bytes that are not UTF-8
# where they stand (a truncated character, a lone continuation byte, a
# surrogate, a code point past U+10FFFF).
PIECES = [
    *(c.encode() for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
    b"\r\n", b"a", b" ", *(c.encode() for c in "\u00e9\u20ac\U0001f600"),
    b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
]


class TestChunkedReader:
    """Files are read a chunk at a time, to the lines and the errors of the whole file read at once."""

    @staticmethod
    def whole(path, stop: int):
        """read_text's lines or error, or the error a reader raises on meeting line stop + 1."""
        try:
            lines = text_lines(read_text(path))
        except InputError as exc:
            return str(exc)
        return lines if stop >= len(lines) else "bad line"

    @staticmethod
    def chunked(path, stop: int):
        try:
            with formats._reading(path) as lines:
                got = []
                for line in lines:
                    if len(got) == stop:
                        raise InputError("bad line")
                    got.append(line)
                return got
        except InputError as exc:
            return str(exc)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=24), st.integers(1, 7), st.integers(0, 25))
    def test_equals_the_whole_file_read(self, pieces, chunk, stop):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "f.txt"
            path.write_bytes(b"".join(pieces))
            with mock.patch.object(formats, "_CHUNK", chunk):
                assert self.chunked(path, stop) == self.whole(path, stop)

    @pytest.mark.parametrize("load, good, bad, message, empty_ok", ALL_LOADERS)
    def test_a_bad_byte_past_the_first_chunk_outranks_a_bad_line(self, tmp_path, load, good, bad, message, empty_ok):
        text = f"{good}\n{bad}\n{FILLER}".encode()
        path = tmp_path / "in.txt"
        path.write_bytes(text + b"\xff\n")
        with pytest.raises(InputError, match=rf"in\.txt: not UTF-8 text \(byte {len(text)}\)$"):
            load(path)

    @pytest.mark.parametrize("load, good, bad, message, empty_ok", ALL_LOADERS)
    def test_a_read_stopped_at_a_bad_line_closes_its_file(self, tmp_path, monkeypatch, load, good, bad, message, empty_ok):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(formats, "open", recording_open, raising=False)
        path = write(tmp_path, "in.txt", f"{good}\n{bad}\n{FILLER}")
        with pytest.raises(InputError, match=re.escape(f"in.txt: line 2: {message}")):
            load(path)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize(
        "pattern",
        [Itemset.of([0, 5]), Sequence.of([5, 0]), LabeledGraph.of([(0, 0), (1, 0)], [(0, 1, 5)])],
        ids=["itemset", "sequence", "graph-edge-label"],
    )
    def test_a_record_that_cannot_be_rendered_leaves_no_file(self, tmp_path, pattern):
        records = [PatternRecord(1, Itemset.of([0]), 1, None, 1), PatternRecord(2, pattern, 1, None, pattern.size)]
        new, old = tmp_path / "new.pat", write(tmp_path, "old.pat", "kept\n")
        for path in (new, old):
            with pytest.raises(InputError, match="^unknown symbol id 5$"):
                write_patterns(records, path, SymbolTable(["a"]))
        assert not new.exists() and old.read_text() == "kept\n"


class TestMemory:
    """Reading and writing a pattern file hold its records and a chunk of text, never the whole file."""

    def test_peaks_follow_the_records_not_the_file(self, tmp_path):
        rng = random.Random(7)
        labels = [f"item{i}" for i in range(20)]
        lines = [
            f"pid={pid} kind=itemset support=150 size=3 elements={','.join(sorted(rng.sample(labels, 3)))} "
            f"cover={','.join(map(str, sorted(rng.sample(range(1000), 150))))}"
            for pid in range(1, 3301)
        ]
        path = write(tmp_path, "big.pat", "".join(line + "\n" for line in lines))
        assert path.stat().st_size > 2_000_000
        tracemalloc.start()
        try:
            loaded = load_patterns(path)
            held, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_patterns(loaded.records, tmp_path / "out.pat", loaded.symbols)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak - held < 1 << 20
        assert write_peak - held < 1 << 20
        assert (tmp_path / "out.pat").read_bytes() == path.read_bytes()


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


# Labels interned out of label order, four of them quoted; each record's line with no flags.
GOLDEN_LABELS = ("z", "a%", "\xe9", "b=c", "x,y")
GOLDEN_LINES = [
    "pid=3 kind=itemset support=2 size=5 elements=a%25,b%3Dc,x%2Cy,z,%C3%A9 cover=1,4",
    "pid=1 kind=sequence support=7 size=3 elements=%C3%A9,z,%C3%A9",
    "pid=2 kind=graph support=1 size=1 vertices=0:z,1:%C3%A9 edges=0-1:x%2Cy cover=12",
    "pid=4 kind=itemset support=0 size=2 elements=x%2Cy,%C3%A9 cover=",
    "pid=5 kind=itemset support=3 size=2 elements=a%25,b%3Dc",
    "pid=6 kind=graph support=2 size=0 vertices=0:b%3Dc edges=",
]
GOLDEN_TAILS = {
    (None, None): "",
    (False, None): " valid=0",
    (True, None): " valid=1",
    (None, False): " condensed=0",
    (None, True): " condensed=1",
    (False, False): " valid=0 condensed=0",
    (False, True): " valid=0 condensed=1",
    (True, False): " valid=1 condensed=0",
    (True, True): " valid=1 condensed=1",
}


def golden_records():
    symbols = SymbolTable(GOLDEN_LABELS)
    return symbols, [
        PatternRecord(3, Itemset((0, 1, 2, 3, 4)), 2, frozenset({4, 1}), 5),
        PatternRecord(1, Sequence((2, 0, 2)), 7, None, 3),
        PatternRecord(2, LabeledGraph.of([(0, 0), (1, 2)], [(0, 1, 4)]), 1, frozenset({12}), 1),
        PatternRecord(4, Itemset((2, 4)), 0, frozenset(), 2),
        PatternRecord(5, Itemset((1, 3)), 3, None, 2),
        PatternRecord(6, LabeledGraph.of([(0, 3)], []), 2, None, 0),
    ]


class TestWriterGolden:
    """pattern_lines' exact text: itemsets in label order whatever their ids, labels quoted, flags in one order."""

    @pytest.mark.parametrize("flags", list(GOLDEN_TAILS), ids=list(map(str, GOLDEN_TAILS)))
    def test_lines(self, flags, tmp_path):
        symbols, records = golden_records()
        # The flags go on every other record, so that flagged and unflagged lines mix.
        valid, condensed = ({rec.pid: flag for rec in records[::2]} if flag is not None else {} for flag in flags)
        want = [line + (GOLDEN_TAILS[flags] if k % 2 == 0 else "") for k, line in enumerate(GOLDEN_LINES)]
        assert list(pattern_lines(records, symbols, valid, condensed)) == want
        data, loaded = write_and_load(records, symbols, tmp_path, "one.pat", valid=valid, condensed=condensed)
        assert data == "".join(line + "\n" for line in want).encode()
        flags = {"valid": loaded.valid, "condensed": loaded.condensed}
        again, _ = write_and_load(loaded.records, loaded.symbols, tmp_path, "two.pat", **flags)
        assert again == data


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


# Whitespace for both str.split and the regex \s (tab, NBSP, \x1c, U+2028), the
# characters that end, split or escape a field, a non-ASCII digit, and plain ones.
ODD_CHARS = ["\t", "\xa0", "\x1c", "\u2028", " ", "%", "=", ",", "\u0661", "\xe9", "a", "0", "7"]
ODD_TEXT = st.text(st.sampled_from(ODD_CHARS), max_size=5)
CANONICAL_ORDER = ("pid", "kind", "support", "size", "elements", "cover", "valid", "condensed")


@st.composite
def itemset_or_sequence_lines(draw):
    """A line in the writer's itemset/sequence layout with at most one flaw: a bad value, a moved field, odd spacing."""
    number = st.sampled_from(["0", "1", "2", "007", "10"])
    fields = {
        "pid": draw(number),
        "kind": draw(st.sampled_from(["itemset", "sequence"])),
        "support": None,
        "size": draw(number),
        "elements": ",".join(draw(st.lists(st.sampled_from(["a", "b", "\xe9", "q00_y"]), min_size=1, max_size=3))),
        "cover": draw(st.none() | st.lists(st.sampled_from(["1", "07", "42"]), max_size=4).map(",".join)),
        "valid": draw(st.sampled_from([None, "0", "1"])),
        "condensed": draw(st.sampled_from([None, "0", "1"])),
    }
    flaws = [None, "cover", "cover", "label", "flag", "number", "support", "value", "moved", "spacing"]
    flaw = draw(st.sampled_from(flaws))
    if flaw == "cover":  # support will match the comma count
        fields["cover"] = draw(st.sampled_from([",1", "1,1,", "1,,1", ",", "", "\u0661", "1,\u0661", "01,1"]))
    elif flaw == "label":
        label = st.lists(st.sampled_from(["a", "%41", "%", "=", ",", "\t", "\xa0", "\x1c", "\u2028"]), max_size=3)
        fields["elements"] = ",".join(draw(st.lists(label.map("".join), min_size=1, max_size=3)))
    elif flaw == "flag":
        fields[draw(st.sampled_from(["valid", "condensed"]))] = draw(st.sampled_from(["", "2", "01", "\u0661"]))
    elif flaw == "number":
        fields[draw(st.sampled_from(["pid", "support", "size"]))] = draw(st.sampled_from(["\u0661", "0\u0661", "+1"]))
    elif flaw == "value":
        fields[draw(st.sampled_from(CANONICAL_ORDER))] = draw(ODD_TEXT)
    if fields["support"] is None:
        cover = fields["cover"]
        counted = cover is not None and flaw != "support"
        fields["support"] = str(cover.count(",") + 1 if cover else 0) if counted else draw(number)
    tokens = [f"{key}={value}" for key, value in fields.items() if value is not None]
    if flaw == "moved":
        i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
        tokens.insert(j, tokens.pop(i))
    return (draw(st.sampled_from(["\t", "  ", " \xa0"])) if flaw == "spacing" else " ").join(tokens)


def token_parser_load(path, keep=None):
    """load_patterns with its fast path off, so that every line goes through _parse_line."""
    with mock.patch.object(formats, "_HEAD", re.compile("(?!)")):
        return load_patterns(path, keep)


def load_outcome(load, path, keep=None):
    """What a load of path gives: each record's fields, cover text and field order, labels and flags; or its error."""
    try:
        loaded = load(path, keep)
    except InputError as exc:
        return str(exc)
    records = [(r.pid, r.pattern, r.support, r.size, r.cover_text(), list(r.__dict__)) for r in loaded.records]
    return records, loaded.symbols.labels, loaded.valid, loaded.condensed


def parsed_lines(path):
    """load_patterns' outcome on path, and how many of its lines went to _parse_line."""
    with mock.patch.object(formats, "_parse_line", wraps=formats._parse_line) as parse:
        outcome = load_outcome(load_patterns, path)
    return outcome, parse.call_count


# A canonical line, and one flaw of it each: (old, new) replaces old with new.
CANONICAL_LINE = "pid=1 kind=sequence support=2 size=1 elements=a cover=1,2 valid=1 condensed=0"
ONE_FLAW = [
    ("pid=1", "pid=\u0661"),
    ("support=2", "support=\u0662"),
    ("size=1", "size=0\u0661"),
    ("cover=1,2", "cover=1,\u0662"),
    ("support=2 size=1 elements=a cover=1,2", "support=3 size=1 elements=a cover=1,,2"),
    ("cover=1,2", "cover=1,"),
    ("cover=1,2", "cover=,2"),
    ("cover=1,2", "cover="),
    ("cover=1,2", "cover=1"),
    ("elements=a", "elements=a\tb"),
    ("elements=a", "elements=a\xa0b"),
    ("elements=a", "elements=a\x1cb"),
    ("elements=a", "elements=%61"),
    ("elements=a", "elements=a=b"),
    ("valid=1", "valid=2"),
    ("valid=1", "valid="),
    ("valid=1 ", ""),
    ("pid=1 kind=sequence", "kind=sequence pid=1"),
    (" cover", "  cover"),
    ("", ""),
    ("cover=1,2 valid=1 condensed=0", "valid=1 condensed=0 cover=1,2"),
]


class TestCanonicalFastPath:
    """A line in the writer's itemset/sequence layout, with plain labels, skips _parse_line; any other goes to it."""

    @staticmethod
    def check(line):
        with tempfile.TemporaryDirectory() as d:
            path = write(Path(d), "p.pat", line + "\n")
            fast, parsed = parsed_lines(path)
            assert fast == load_outcome(token_parser_load, path)
        try:
            elements = _parse_line(line, "p.pat", 1)[4]
        except InputError:
            assert parsed == 1  # so the token parser raises its own message
            return
        tokens = line.split()
        fields = dict(tok.split("=", 1) for tok in tokens)
        canonical = line == " ".join(tokens) and list(fields) == [key for key in CANONICAL_ORDER if key in fields]
        plain = elements is not None and not {"%", "="} & set(fields["elements"])
        assert parsed == (0 if canonical and plain else 1)

    @settings(max_examples=300, deadline=None)
    @given(itemset_or_sequence_lines())
    def test_same_tuple_or_token_parser(self, line):
        self.check(line)

    @pytest.mark.parametrize("old, new", ONE_FLAW)
    def test_one_flaw(self, old, new):
        self.check(CANONICAL_LINE.replace(old, new))

    def test_written_lines_take_the_fast_path(self, toy_items, toy_seqs, tmp_path):
        for fixture, mine in ((toy_items, mine_frequent_itemsets), (toy_seqs, mine_frequent_sequences)):
            records = mine(fixture.db, MinSupport.absolute(1))
            flags = {rec.pid: rec.pid % 2 == 0 for rec in records[::2]}
            path = tmp_path / f"{records[0].kind}.pat"
            write_patterns(records, path, fixture.db.symbols, flags, {records[0].pid: True})
            fast, parsed = parsed_lines(path)
            assert parsed == 0
            assert fast == load_outcome(token_parser_load, path)


@st.composite
def graph_lines(draw):
    """A graph line whose vertices and edges may be out of order, repeated or dangling, and whose numbers may be off."""
    number = st.sampled_from(["0", "1", "2", "3"])
    vertices = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["a", "b", "0"])), min_size=1, max_size=4))
    edges = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(["0", "x"])), max_size=4))
    cover = draw(st.none() | st.lists(st.sampled_from(["1", "2", "5"]), max_size=3).map(",".join))
    support = str(cover.count(",") + 1 if cover else 0) if cover is not None else draw(number)
    line = f"pid={draw(number)} kind=graph support={support} size={draw(number)}"
    line += " vertices=" + ",".join(f"{vid}:{lbl}" for vid, lbl in vertices)
    line += " edges=" + ",".join(f"{u}-{v}:{lbl}" for u, v, lbl in edges)
    return line if cover is None else f"{line} cover={cover}"


# Lines at the edges of the fast path: each loads as through _parse_line alone.
EDGE_LINES = {
    "4301-digit pid": "pid=" + "1" * 4301 + " kind=itemset support=2 size=1 elements=a cover=1,2",
    "empty tid": "pid=1 kind=itemset support=3 size=1 elements=a cover=1,,2",
    "non-ASCII tid": "pid=1 kind=itemset support=2 size=1 elements=a cover=1,\u0662",
    "letter tid": "pid=1 kind=itemset support=2 size=1 elements=a cover=1,a",
    "tab in cover": "pid=1 kind=itemset support=2 size=1 elements=a cover=1,\t2",
    "flags reordered": "pid=1 kind=itemset support=2 size=1 elements=a cover=1,2 condensed=1 valid=1",
    "trailing space": "pid=1 kind=itemset support=2 size=1 elements=a cover=1,2 ",
    "trailing space, no cover": "pid=1 kind=itemset support=2 size=1 elements=a valid=0 ",
    "empty cover, support 0": "pid=1 kind=itemset support=0 size=1 elements=a cover=",
    "empty cover, support 1": "pid=1 kind=itemset support=1 size=1 elements=a cover=",
    "field before the cover": "pid=1 kind=itemset support=2 size=1 elements=a valid=1 cover=1,2",
    "flags before the cover": "pid=1 kind=itemset support=1 size=1 elements=a valid=1 cover=1 condensed=0",
    "repeated label": "pid=1 kind=itemset support=1 size=2 elements=a,a cover=1",
}


class TestReaderParity:
    """load_patterns gives what a load through _parse_line alone gives: records, labels, flags, or the first error."""

    @staticmethod
    def check(lines, keep=None):
        with tempfile.TemporaryDirectory() as d:
            path = write(Path(d), "p.pat", "".join(line + "\n" for line in lines))
            assert load_outcome(load_patterns, path, keep) == load_outcome(token_parser_load, path, keep)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(itemset_or_sequence_lines() | graph_lines(), min_size=1, max_size=4), st.booleans())
    def test_generated_files(self, lines, filtered):
        self.check(lines, (lambda rec: rec.pid % 2 == 0) if filtered else None)

    # After a good record with other labels, so that interning order and pids carry over.
    @pytest.mark.parametrize(
        "line",
        [CANONICAL_LINE.replace(old, new) for old, new in ONE_FLAW] + list(EDGE_LINES.values()),
        ids=[f"flaw-{k}" for k in range(len(ONE_FLAW))] + list(EDGE_LINES),
    )
    def test_edge_lines(self, line):
        self.check([line])
        self.check(["pid=2 kind=itemset support=1 size=2 elements=b,a cover=7 valid=0", line])
        self.check(["pid=1 kind=sequence support=0 size=1 elements=c", line])


def checked_records(text):
    """What load_patterns must give for a file's text, every record built by the checked public constructors."""
    symbols = SymbolTable()
    records = {}
    for lineno, line in enumerate(text_lines(text), start=1):
        pid, kind, support, size, elements, vertices, edges, cover, _, _ = _parse_line(line, "p.pat", lineno)
        try:
            if pid in records:
                raise InputError(f"duplicate pattern id {pid}")
            if kind == "itemset":
                try:
                    pattern = Itemset(tuple(sorted(symbols.intern_all(elements))))
                except InputError:
                    raise InputError(f"pattern {pid}: itemset lists a label more than once") from None
            elif kind == "sequence":
                pattern = Sequence(symbols.intern_all(elements))
            else:
                symbols.intern("0")
                pattern = LabeledGraph.of(
                    [(vid, symbols.intern(lbl)) for vid, lbl in vertices],
                    [(u, v, symbols.intern(lbl)) for u, v, lbl in edges],
                )
            records[pid] = PatternRecord(pid, pattern, support, None if cover is None else Cover(text=cover, count=support), size)
        except InputError as exc:
            raise InputError(f"p.pat: line {lineno}: {exc}") from None
    return list(records.values()), symbols


class TestProvedRecords:
    """A loaded record equals its checked rebuild, and a line the checks refuse fails with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(itemset_or_sequence_lines() | graph_lines(), min_size=1, max_size=3))
    def test_loaded_records_equal_checked_rebuilds(self, lines):
        text = "".join(line + "\n" for line in lines)
        try:
            want, symbols = checked_records(text)
        except InputError as exc:
            with tempfile.TemporaryDirectory() as d, pytest.raises(InputError) as raised:
                load_patterns(write(Path(d), "p.pat", text))
            assert str(raised.value).removeprefix(d + "/") == str(exc)
            return
        with tempfile.TemporaryDirectory() as d:
            loaded = load_patterns(write(Path(d), "p.pat", text))
        assert loaded.symbols.labels == symbols.labels
        assert len(loaded.records) == len(want)
        for rec, twin in zip(loaded.records, want):
            assert (rec.pid, rec.pattern, rec.support, rec.size) == (twin.pid, twin.pattern, twin.support, twin.size)
            assert rec.cover_text() == twin.cover_text()
            assert list(rec.__dict__) == list(twin.__dict__) == ["pid", "pattern", "support", "_cover", "size"]


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

    def test_edge_label_interned_at_each_graph_record(self, tmp_path):
        itemset = "pid=1 kind=itemset support=1 size=1 elements=b\n"
        graph = "pid=2 kind=graph support=1 size=1 vertices=0:a,1:b edges=0-1:x\n"
        # as load_graphs numbers them: "0" first, then the first record's labels
        assert load_patterns(write(tmp_path, "graphs.pat", graph)).symbols.labels == ("0", "a", "b", "x")
        mixed = load_patterns(write(tmp_path, "mixed.pat", itemset + graph))
        assert mixed.symbols.labels == ("b", "0", "a", "x")
        # "kind=graph" inside a label is no graph record, and only a label "0" interns "0"
        lookalike = "pid=3 kind=itemset support=1 size=1 elements=kind=graph\n"
        assert load_patterns(write(tmp_path, "items.pat", itemset + lookalike)).symbols.labels == ("b", "kind=graph")
        zero = "pid=3 kind=itemset support=1 size=1 elements=0\n"
        assert load_patterns(write(tmp_path, "zero.pat", itemset + zero)).symbols.labels == ("b", "0")

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
    # Longer lists of digits and commas, where ",," may fall anywhere.
    LONG_LIST_TEXT = st.text(st.sampled_from(list("0123456789, ") + ["\u0661"]), max_size=40)
    # A line splits on whitespace, so a field value holds none.
    COVER_TEXT = st.text(st.sampled_from(INT_LIST_CHARS), max_size=10)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(INT_LIST_TEXT, LONG_LIST_TEXT))
    def test_checker_matches_the_regex(self, text):
        listed = text.count(",") + 1 if re.fullmatch(r"[0-9]+(,[0-9]+)*", text) else 0 if text == "" else None
        assert _listed(text) == listed

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


@long_numbers
class TestLongNumbers:
    """A number too long for int() is malformed input, never a ValueError."""

    @pytest.mark.parametrize("line", LONG_NUMBER_LINES, ids=range(len(LONG_NUMBER_LINES)))
    def test_pattern_numbers(self, tmp_path, line):
        with pytest.raises(InputError, match=r"p\.pat: line 1: pid/support/size must be integers$"):
            load_line(tmp_path, line)

    @pytest.mark.parametrize("line", [f"rows=1,{LONG_NUMBER} cols=1", f"rows=1 cols={LONG_NUMBER}"], ids=["row", "column"])
    def test_tile_indices(self, tiling, tmp_path, line):
        with pytest.raises(InputError, match=r"t\.txt: line 1: malformed integer list"):
            load_tiles(write(tmp_path, "t.txt", line + "\n"), tiling.matrix)

    def test_cover_tid(self, tmp_path):
        line = f"pid=3 kind=itemset support=2 size=1 elements=a cover=1,{LONG_NUMBER}"
        loaded = load_line(tmp_path, line)
        assert list(pattern_lines(loaded.records, loaded.symbols)) == [line]
        with pytest.raises(InputError, match="^pattern 3: cover lists a tid too long to read$"):
            loaded.records[0].cover


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
        sels = [TileSelection(tile_ids=(1, 3), ones_outside=0, zeros_inside=2)]
        write_tiling(
            p,
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
        # the report prints the selection's own terms, here the true ones
        chosen = [tiling.tiles[0], tiling.tiles[2]]
        assert error_terms(tiling.matrix, chosen, mode="full") == (0, 2)
