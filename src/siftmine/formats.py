"""Loaders and writers for every file format the package speaks.

Inputs: transaction, sequence, and graph databases, binary matrices, weight
tables, and candidate-tile lists. Outputs: pattern files and tiling reports.
All loaders are strict: malformed content raises InputError with the path
and 1-based line number, and no line is ever silently skipped. Interning is
deterministic (first appearance order), so loading a file twice yields
identical id assignments.

Pattern files are line-oriented key=value records. Labels are percent-quoted
so any non-whitespace token round-trips losslessly; a written file loads
back to records that write the same bytes. load_patterns and
write_patterns (with pattern_lines for stdout) are the whole pattern-file
codec: one field parser reads a line, straight into its record, and one
renderer writes it. Covers stay checked text from reader to writer; a set
of tids is built only for a record whose cover is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

from .core import (
    Cover,
    GraphDB,
    Itemset,
    LabeledGraph,
    PatternRecord,
    Sequence,
    SequenceDB,
    SymbolTable,
    TransactionDB,
)
from .errors import InputError
from .tiling import BinaryMatrix, Tile, TileSelection, _error_scorer


def read_text(path) -> str:
    """A whole UTF-8 file; a file that cannot be read or decoded is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_lines(path) -> list[str]:
    return read_text(path).splitlines()


def _int(text: str) -> int:
    """A plain ASCII decimal; signs, underscores and other digits raise ValueError."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(text)


def load_transactions(path) -> TransactionDB:
    """One transaction per line, whitespace-separated items, duplicates collapsed."""
    lines = _read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    symbols = SymbolTable()
    transactions: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        transactions.append(tuple(sorted({symbols.intern(tok) for tok in tokens})))
    return TransactionDB(tuple(transactions), symbols)


def load_sequences(path) -> SequenceDB:
    """One sequence per line, whitespace-separated symbols, repeats preserved."""
    lines = _read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    symbols = SymbolTable()
    sequences: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        sequences.append(symbols.intern_all(tokens))
    return SequenceDB(tuple(sequences), symbols)


def load_graphs(path) -> GraphDB:
    """Graph records: `t # <gid>`, then `v <vid> <label>` and `e <u> <v> [<elabel>]` lines.

    Graph ids must be 1-based and dense in file order. Vertex ids are
    nonnegative integers local to their record. The edge label is optional
    and defaults to "0"; that label is always interned first, at id 0.
    """
    lines = _read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    symbols = SymbolTable()
    symbols.intern("0")
    graphs: list[LabeledGraph] = []
    vertices: list[tuple[int, int]] | None = None
    edges: list[tuple[int, int, int]] = []
    seen_vids: set[int] = set()
    seen_pairs: set[tuple[int, int]] = set()
    record_line = 0

    def finalize() -> None:
        if vertices is None:
            return
        if not vertices:
            raise InputError(f"{path}: line {record_line}: graph {len(graphs) + 1} has no vertices")
        graphs.append(LabeledGraph.of(vertices, edges))

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        tag = tokens[0]
        if tag == "t":
            finalize()
            if len(tokens) != 3 or tokens[1] != "#":
                raise InputError(f"{path}: line {lineno}: malformed graph header, expected `t # <gid>`")
            try:
                gid = _int(tokens[2])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: graph id {tokens[2]!r} is not an integer") from None
            if gid != len(graphs) + 1:
                raise InputError(
                    f"{path}: line {lineno}: graph id {gid} out of order, expected {len(graphs) + 1}"
                )
            vertices = []
            edges = []
            seen_vids = set()
            seen_pairs = set()
            record_line = lineno
        elif tag == "v":
            if vertices is None:
                raise InputError(f"{path}: line {lineno}: vertex before any graph header")
            if len(tokens) != 3:
                raise InputError(f"{path}: line {lineno}: malformed vertex, expected `v <vid> <label>`")
            try:
                vid = _int(tokens[1])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: vertex id {tokens[1]!r} is not an integer") from None
            if vid in seen_vids:
                raise InputError(f"{path}: line {lineno}: duplicate vertex id {vid}")
            seen_vids.add(vid)
            vertices.append((vid, symbols.intern(tokens[2])))
        elif tag == "e":
            if vertices is None:
                raise InputError(f"{path}: line {lineno}: edge before any graph header")
            if len(tokens) not in (3, 4):
                raise InputError(f"{path}: line {lineno}: malformed edge, expected `e <u> <v> [<elabel>]`")
            try:
                u, v = _int(tokens[1]), _int(tokens[2])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: edge endpoints must be integers") from None
            if u == v:
                raise InputError(f"{path}: line {lineno}: self-loop at vertex {u}")
            if u not in seen_vids or v not in seen_vids:
                raise InputError(f"{path}: line {lineno}: edge ({u},{v}) references an undeclared vertex")
            pair = (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise InputError(f"{path}: line {lineno}: duplicate edge ({u},{v})")
            seen_pairs.add(pair)
            edges.append((pair[0], pair[1], symbols.intern(tokens[3] if len(tokens) == 4 else "0")))
        else:
            raise InputError(f"{path}: line {lineno}: unknown record tag {tag!r}")
    finalize()
    if not graphs:
        raise InputError(f"{path}: no graph records")
    return GraphDB(tuple(graphs), symbols)


def load_matrix(path) -> BinaryMatrix:
    """Rows of space-separated 0/1 cells, all rows the same length."""
    lines = _read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    rows: list[tuple[int, ...]] = []
    width: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        cells = []
        for tok in tokens:
            if tok not in ("0", "1"):
                raise InputError(f"{path}: line {lineno}: non-binary cell {tok!r}")
            cells.append(int(tok))
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InputError(f"{path}: line {lineno}: ragged row ({len(cells)} cells, expected {width})")
        rows.append(tuple(cells))
    return BinaryMatrix(tuple(rows))


@dataclass(frozen=True)
class WeightTable:
    """Per-symbol nonnegative integer costs; unlisted symbols cost 0."""

    costs: dict[int, int]

    def cost_of(self, sid: int) -> int:
        return self.costs.get(sid, 0)


def load_weights(path, symbols: SymbolTable) -> WeightTable:
    """`SYM INT` per line; symbols are interned into the given table."""
    lines = _read_lines(path)
    costs: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        if len(tokens) != 2:
            raise InputError(f"{path}: line {lineno}: expected `SYM WEIGHT`")
        try:
            weight = _int(tokens[1].removeprefix("-"))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: weight {tokens[1]!r} is not an integer") from None
        if tokens[1].startswith("-"):
            raise InputError(f"{path}: line {lineno}: negative weight")
        sid = symbols.intern(tokens[0])
        if sid in costs:
            raise InputError(f"{path}: line {lineno}: duplicate weight for {tokens[0]!r}")
        costs[sid] = weight
    return WeightTable(costs)


def load_tiles(path, matrix: BinaryMatrix) -> list[Tile]:
    """Candidate tiles as `rows=R,R,... cols=C,C,...` lines, ids 1..n in file order.

    Each tile's ones are the data ones inside its rectangle.
    """
    lines = _read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    tiles: list[Tile] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        fields = dict(_split_kv(tok, path, lineno) for tok in tokens)
        if set(fields) != {"rows", "cols"} or len(tokens) != 2:
            raise InputError(f"{path}: line {lineno}: expected `rows=... cols=...`")
        rows = _parse_int_list(fields["rows"], path, lineno)
        cols = _parse_int_list(fields["cols"], path, lineno)
        if any(not 1 <= r <= matrix.n_rows for r in rows):
            raise InputError(f"{path}: line {lineno}: row index out of range 1..{matrix.n_rows}")
        if any(not 1 <= c <= matrix.n_cols for c in cols):
            raise InputError(f"{path}: line {lineno}: column index out of range 1..{matrix.n_cols}")
        ones = frozenset((r, c) for r in rows for c in cols if matrix.cell(r, c))
        tiles.append(
            Tile(tile_id=len(tiles) + 1, row_set=frozenset(rows), col_set=frozenset(cols), ones=ones)
        )
    return tiles


# ---------------------------------------------------------------------------
# Pattern files


@dataclass(frozen=True)
class LoadedPatterns:
    records: tuple[PatternRecord, ...]
    symbols: SymbolTable
    valid: dict[int, bool]
    condensed: dict[int, bool]


_q = partial(quote, safe="")


# A file has few distinct labels, so each is unquoted once.
@lru_cache(maxsize=1 << 12)
def _unq(text: str) -> str:
    """Unquote a label; a % that starts no %XX escape, or escapes that are not UTF-8, raise ValueError."""
    if re.search(r"%(?![0-9A-Fa-f]{2})", text):
        raise ValueError(text)
    return unquote(text, errors="strict")


def pattern_lines(
    records: Iterable[PatternRecord],
    symbols: SymbolTable,
    valid: dict[int, bool] | None = None,
    condensed: dict[int, bool] | None = None,
) -> Iterator[str]:
    """Each record's pattern-file line, fields in file order, every symbol quoted once per call.

    Itemset elements go in label order: ids depend on interning history,
    labels don't, so a reloaded file serializes back to the same bytes.
    """
    label = dict(enumerate(symbols.labels))
    quoted = {sid: _q(lbl) for sid, lbl in label.items()}
    valid, condensed = valid or {}, condensed or {}
    for rec in records:
        p = rec.pattern
        try:
            if isinstance(p, LabeledGraph):
                body = "vertices=" + ",".join(f"{vid}:{quoted[lbl]}" for vid, lbl in p.vertices)
                body += " edges=" + ",".join(f"{u}-{v}:{quoted[lbl]}" for u, v, lbl in p.edges)
            else:
                elements = sorted(p.items, key=label.__getitem__) if isinstance(p, Itemset) else p.symbols
                body = "elements=" + ",".join(map(quoted.__getitem__, elements))
        except KeyError as exc:
            raise InputError(f"unknown symbol id {exc.args[0]}") from None
        line = f"pid={rec.pid} kind={rec.kind} support={rec.support} size={rec.size} {body}"
        cover = rec.cover_text()
        if cover is not None:
            line += " cover=" + cover
        if rec.pid in valid:
            line += f" valid={int(valid[rec.pid])}"
        if rec.pid in condensed:
            line += f" condensed={int(condensed[rec.pid])}"
        yield line


def _split_kv(token: str, path, lineno: int) -> tuple[str, str]:
    key, sep, value = token.partition("=")
    if not sep or not key:
        raise InputError(f"{path}: line {lineno}: malformed field {token!r}")
    return key, value


def _is_int_list(text: str) -> bool:
    """True exactly for ASCII `\\d+(?:,\\d+)*`: plain decimals joined by single commas."""
    ends_in_digits = text[:1].isdigit() and text[-1:].isdigit()
    return ends_in_digits and text.isascii() and ",," not in text and not text.encode().translate(None, b"0123456789,")


def _parse_int_list(value: str, path, lineno: int) -> tuple[int, ...]:
    if value and not _is_int_list(value):
        raise InputError(f"{path}: line {lineno}: malformed integer list {value!r}")
    return tuple(map(int, value.split(","))) if value else ()


_ALLOWED_KEYS = frozenset("pid kind support size elements vertices edges cover valid condensed".split())


def _fields(tokens: list[str], path, lineno: int) -> dict[str, str]:
    """A line's key=value tokens as a dict of known, distinct keys."""
    try:
        fields = dict(tok.split("=", 1) for tok in tokens)  # ValueError when a token has no "="
        if len(fields) == len(tokens) and fields.keys() <= _ALLOWED_KEYS:
            return fields
    except ValueError:
        pass
    # A bad line: go token by token to name the first bad one.
    fields = {}
    for tok in tokens:
        key, value = _split_kv(tok, path, lineno)
        if key not in _ALLOWED_KEYS:
            raise InputError(f"{path}: line {lineno}: unknown field {key!r}")
        if key in fields:
            raise InputError(f"{path}: line {lineno}: duplicate field {key!r}")
        fields[key] = value
    return fields


def _parse_line(line: str, path, lineno: int) -> tuple:
    """The one pattern-line parser: (pid, kind, support, size, elements, vertices, edges, cover, valid, condensed).

    Every field is checked and every label unquoted; the cover stays text, its tids counted against support.
    """
    tokens = line.split()
    if not tokens:
        raise InputError(f"{path}: line {lineno}: blank line")
    fields = _fields(tokens, path, lineno)
    try:
        pid, kind, support, size = fields["pid"], fields["kind"], fields["support"], fields["size"]
    except KeyError as exc:  # the first missing one, in the order read
        raise InputError(f"{path}: line {lineno}: missing field {exc.args[0]!r}") from None
    # _int's rule, checked for the three at once
    if not (pid.isdigit() and support.isdigit() and size.isdigit() and (pid + support + size).isascii()):
        raise InputError(f"{path}: line {lineno}: pid/support/size must be integers")
    pid, support, size = int(pid), int(support), int(size)
    elements = vertices = edges = None
    if kind in ("itemset", "sequence"):
        if "elements" not in fields or "vertices" in fields or "edges" in fields:
            raise InputError(f"{path}: line {lineno}: {kind} records carry elements only")
        if fields["elements"] == "":
            raise InputError(f"{path}: line {lineno}: empty elements")
        try:
            elements = tuple(map(_unq, fields["elements"].split(",")))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad percent escape in {fields['elements']!r}") from None
    elif kind == "graph":
        if "vertices" not in fields or "edges" not in fields or "elements" in fields:
            raise InputError(f"{path}: line {lineno}: graph records carry vertices and edges")
        verts: list[tuple[int, str]] = []
        if fields["vertices"] == "":
            raise InputError(f"{path}: line {lineno}: empty vertices")
        for part in fields["vertices"].split(","):
            vid_text, sep, lbl = part.partition(":")
            if not sep:
                raise InputError(f"{path}: line {lineno}: malformed vertex {part!r}")
            try:
                verts.append((_int(vid_text), _unq(lbl)))
            except ValueError:
                raise InputError(f"{path}: line {lineno}: malformed vertex {part!r}") from None
        vertices = tuple(verts)
        edge_list: list[tuple[int, int, str]] = []
        if fields["edges"]:
            for part in fields["edges"].split(","):
                pair_text, sep, lbl = part.partition(":")
                if not sep:
                    raise InputError(f"{path}: line {lineno}: malformed edge {part!r}")
                u_text, sep2, v_text = pair_text.partition("-")
                if not sep2:
                    raise InputError(f"{path}: line {lineno}: malformed edge endpoints {pair_text!r}")
                try:
                    edge_list.append((_int(u_text), _int(v_text), _unq(lbl)))
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: malformed edge {part!r}") from None
        edges = tuple(edge_list)
    else:
        raise InputError(f"{path}: line {lineno}: unknown pattern kind {kind!r}")
    cover = fields.get("cover")
    if cover is not None:
        if cover and not _is_int_list(cover):
            raise InputError(f"{path}: line {lineno}: malformed integer list {cover!r}")
        listed = cover.count(",") + 1 if cover else 0
        if listed != support:
            raise InputError(f"{path}: line {lineno}: support {support} but the cover lists {listed} tids")
    valid = condensed = None
    if "valid" in fields or "condensed" in fields:
        for flag in ("valid", "condensed"):
            if fields.get(flag, "0") not in ("0", "1"):
                raise InputError(f"{path}: line {lineno}: flag {flag} must be 0 or 1")
        valid, condensed = (fields[flag] == "1" if flag in fields else None for flag in ("valid", "condensed"))
    return pid, kind, support, size, elements, vertices, edges, cover, valid, condensed


def _records(rows: Iterable[tuple], graphs: bool, path):
    """Records, symbols, and valid and condensed flags from parsed lines; with graphs, "0" is interned first.

    A record's error names path and the line (blank lines are errors, so row k is line k). _parse_line
    has matched each cover's count to its support, so the count is not taken again.
    """
    symbols = SymbolTable()
    if graphs:
        symbols.intern("0")
    records: dict[int, PatternRecord] = {}  # by pid, in file order
    valid: dict[int, bool] = {}
    condensed: dict[int, bool] = {}
    for lineno, row in enumerate(rows, start=1):
        pid, kind, support, size, elements, vertices, edges, cover, is_valid, is_condensed = row
        try:
            if pid in records:
                raise InputError(f"duplicate pattern id {pid}")
            if kind == "itemset":
                try:
                    pattern = Itemset(tuple(sorted(symbols.intern_all(elements))))
                except InputError:  # _parse_line gives nonempty elements, so sorted ids fail only by a repeat
                    raise InputError(f"pattern {pid}: itemset lists a label more than once") from None
            elif kind == "sequence":
                pattern = Sequence(symbols.intern_all(elements))
            else:
                vertices = tuple(sorted((vid, symbols.intern(lbl)) for vid, lbl in vertices))
                edges = tuple(sorted((min(u, v), max(u, v), symbols.intern(lbl)) for u, v, lbl in edges))
                pattern = LabeledGraph(vertices, edges)
            if cover is not None:
                cover = Cover(text=cover, count=support)
            records[pid] = PatternRecord(pid, pattern, support, cover, size)
        except InputError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        if is_valid is not None:
            valid[pid] = is_valid
        if is_condensed is not None:
            condensed[pid] = is_condensed
    return tuple(records.values()), symbols, valid, condensed


def write_patterns(
    records: Iterable[PatternRecord],
    path,
    symbols: SymbolTable,
    valid: dict[int, bool] | None = None,
    condensed: dict[int, bool] | None = None,
) -> None:
    """One key=value line per record, deterministic field order; may be empty."""
    _write_text(path, "".join(line + "\n" for line in pattern_lines(records, symbols, valid, condensed)))


def load_patterns(path) -> LoadedPatterns:
    """Parse a pattern file, each line straight into its record; an empty file is an empty pattern list."""
    text = read_text(path)
    rows = (_parse_line(raw, path, lineno) for lineno, raw in enumerate(text.splitlines(), start=1))
    # Only a graph record has a token `kind=graph`; the substring test spares other files the regex's scan.
    graphs = "kind=graph" in text and re.search(r"(?<!\S)kind=graph(?!\S)", text) is not None
    records, symbols, valid, condensed = _records(rows, graphs, path)
    return LoadedPatterns(records=records, symbols=symbols, valid=valid, condensed=condensed)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def write_tiling(
    path,
    matrix: BinaryMatrix,
    candidates: list[Tile],
    method: str,
    error_mode: str,
    budget: int,
    status: str,
    selections: Iterable[TileSelection],
) -> None:
    """Tiling report: header, candidate tiles, then one line per selection.

    Every selection line carries the chosen ids, k, both error terms, and the
    total error, recomputed from the matrix.
    """
    by_id = {t.tile_id: t for t in candidates}
    lines = [
        f"method={method}",
        f"error_mode={error_mode}",
        f"threshold={budget}",
        f"candidates={len(candidates)}",
        f"status={status}",
    ]
    for t in sorted(candidates, key=lambda t: t.tile_id):
        rows = ",".join(str(r) for r in sorted(t.row_set))
        cols = ",".join(str(c) for c in sorted(t.col_set))
        lines.append(f"tile={t.tile_id} rows={rows} cols={cols} ones={len(t.ones)}")
    selections = tuple(selections)
    # Mask each chosen tile, and in coverable mode every candidate's ones,
    # once for the whole report rather than once per selection.
    chosen = sorted({tid for sel in selections for tid in sel.tile_ids})
    terms = _error_scorer(matrix, error_mode, [by_id[tid] for tid in chosen], candidates)
    position = {tid: i for i, tid in enumerate(chosen)}
    for sel in selections:
        ones_outside, zeros_inside = terms(position[tid] for tid in sel.tile_ids)
        ids = ",".join(str(tid) for tid in sel.tile_ids)
        lines.append(
            f"selection={ids} k={len(sel.tile_ids)} "
            f"ones_outside={ones_outside} zeros_inside={zeros_inside} error={sel.error}"
        )
    lines.append(f"solutions={len(selections)}")
    _write_text(path, "".join(line + "\n" for line in lines))
