"""Loaders and writers for every file format the package speaks.

Inputs: transaction, sequence, and graph databases, binary matrices, weight
tables, and candidate-tile lists. Outputs: pattern files and tiling reports.
All loaders are strict: malformed content raises InputError with the path
and 1-based line number, and no line is ever silently skipped. Interning is
deterministic (first appearance order), so loading a file twice yields
identical id assignments.

Every file is read and written a chunk at a time, so memory follows the
records a command holds, not the size of its files. The reader still gives
the lines and errors of the whole file read at once: a bad UTF-8 byte
anywhere in a file is reported before any malformed line.

Pattern files are line-oriented key=value records. Labels are percent-quoted
so any non-whitespace token round-trips losslessly; a written file loads
back to records that write the same bytes. load_patterns and
write_patterns (with pattern_lines for stdout) are the whole pattern-file
codec: one reader turns each line straight into its record, and one
renderer writes it, each line with one format string. An itemset or
sequence line in the renderer's own layout, split at " cover=", takes one
compiled match of its short head; its cover is checked as encoded bytes
(digits and commas only) and by comma count, and its flag tail is looked
up in a table of the nine the renderer writes. A line that fails any of
these goes to the token parser, which gives every error message; both
read a line to the same record. One field loop reads the key=value tokens
of pattern and tile lines alike and names the first bad one, and every
integer is read by plain_int, so a number too long for int() is malformed
input like any other. The default edge label "0" is interned at each
graph record, before that record's own labels, so a file of graph records
gives it id 0 as load_graphs does. Covers stay checked text from reader
to writer; a set of tids is built only for a record whose cover is read.
A matrix row in the canonical layout (0/1 cells joined by single spaces,
none before or after) is read by slicing out its cells; any other row is
split into tokens, which names every error.
"""

from __future__ import annotations

import codecs
import re
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
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
    TidTable,
    TransactionDB,
    mask_at,
    plain_int,
)
from .errors import InputError, shown, shown_number
from .tiling import _FLAGS, BinaryMatrix, Tile, TileSelection, _cut


def read_text(path) -> str:
    """A whole UTF-8 file; a file that cannot be read or decoded is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


_CHUNK = 1 << 16  # bytes read at a time


def _lines(path) -> Iterator[str]:
    """read_text(path)'s lines, read a chunk at a time, with read_text's errors.

    A line ends at "\n", "\r\n" or "\r", or at the end of the file. No
    other character ends a line: a vertical tab, form feed or other
    Unicode line separator inside a line is whitespace between its tokens.
    Only a chunk's last partial line, and a "\r" that ends a chunk and may
    start "\r\n", wait for the next chunk. An InputError thrown in at a
    yield, by a reader that met a bad line, decodes the rest of the file
    first, so that a bad byte anywhere is reported before any line.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    fed = 0

    def decode(chunk: bytes) -> str:
        nonlocal fed
        try:
            text = decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:  # exc.start counts from the bytes still pending in the decoder
            raise InputError(f"{path}: not UTF-8 text (byte {fed - len(decoder.getstate()[0]) + exc.start})") from None
        fed += len(chunk)
        return text

    try:
        with open(path, "rb", buffering=0) as file:  # each read is one chunk, so no buffer is needed
            chunks = iter(partial(file.read, _CHUNK), b"")
            tail = ""
            for chunk in chain(chunks, (b"",)):
                text = tail + decode(chunk)
                cr = "\r" if chunk and text.endswith("\r") else ""  # may start "\r\n": it waits for the next chunk
                if "\r" in text:
                    text = text[: len(text) - len(cr)].replace("\r\n", "\n").replace("\r", "\n")
                lines = text.split("\n")
                tail = lines.pop() + cr  # "" after a line end; at the end of the file, a last line with none
                if not chunk and tail:
                    lines.append(tail)
                try:
                    yield from lines
                except InputError:  # thrown in at a bad line: a bad byte in the rest of the file outranks it
                    for chunk in chunks:
                        decode(chunk)
                    decode(b"")
                    raise
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


@contextmanager
def _reading(path) -> Iterator[Iterator[str]]:
    """_lines(path) for a reader to iterate.

    An InputError the reader raises is thrown into _lines, which closes the
    file and reports instead a bad byte later in the file, if there is one.
    """
    lines = _lines(path)
    try:
        yield lines
    except InputError as exc:
        lines.throw(exc)


def _token_lines(lines: Iterable[str], path, empty_ok: bool = False) -> Iterator[tuple[int, list[str]]]:
    """Each line's number and whitespace-split tokens, in file order.

    A blank line raises when it is reached, so an earlier malformed line is
    the one reported; a file with no lines raises after the loop, unless
    empty_ok.
    """
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            raise InputError(f"{path}: line {lineno}: blank line")
        yield lineno, tokens
    if lineno == 0 and not empty_ok:
        raise InputError(f"{path}: empty file")


def load_transactions(path) -> TransactionDB:
    """One transaction per line, whitespace-separated items, duplicates collapsed."""
    symbols = SymbolTable()
    with _reading(path) as lines:
        transactions = [tuple(sorted({symbols.intern(tok) for tok in tokens})) for _, tokens in _token_lines(lines, path)]
    return TransactionDB(tuple(transactions), symbols)


def load_sequences(path) -> SequenceDB:
    """One sequence per line, whitespace-separated symbols, repeats preserved."""
    symbols = SymbolTable()
    with _reading(path) as lines:
        sequences = [symbols.intern_all(tokens) for _, tokens in _token_lines(lines, path)]
    return SequenceDB(tuple(sequences), symbols)


def load_graphs(path) -> GraphDB:
    """Graph records: `t # <gid>`, then `v <vid> <label>` and `e <u> <v> [<elabel>]` lines.

    Graph ids must be 1-based and dense in file order. Vertex ids are
    nonnegative integers local to their record. The edge label is optional
    and defaults to "0"; that label is always interned first, at id 0.
    """
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

    with _reading(path) as lines:
        for lineno, tokens in _token_lines(lines, path):
            tag = tokens[0]
            if tag == "t":
                finalize()
                if len(tokens) != 3 or tokens[1] != "#":
                    raise InputError(f"{path}: line {lineno}: malformed graph header, expected `t # <gid>`")
                try:
                    gid = plain_int(tokens[2])
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: graph id {shown(tokens[2])} is not an integer") from None
                if gid != len(graphs) + 1:
                    raise InputError(
                        f"{path}: line {lineno}: graph id {shown_number(gid)} out of order, expected {len(graphs) + 1}"
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
                    vid = plain_int(tokens[1])
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: vertex id {shown(tokens[1])} is not an integer") from None
                if vid in seen_vids:
                    raise InputError(f"{path}: line {lineno}: duplicate vertex id {shown_number(vid)}")
                seen_vids.add(vid)
                vertices.append((vid, symbols.intern(tokens[2])))
            elif tag == "e":
                if vertices is None:
                    raise InputError(f"{path}: line {lineno}: edge before any graph header")
                if len(tokens) not in (3, 4):
                    raise InputError(f"{path}: line {lineno}: malformed edge, expected `e <u> <v> [<elabel>]`")
                try:
                    u, v = plain_int(tokens[1]), plain_int(tokens[2])
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
                raise InputError(f"{path}: line {lineno}: unknown record tag {shown(tag)}")
    finalize()
    return GraphDB(tuple(graphs), symbols)


def load_matrix(path) -> BinaryMatrix:
    """Rows of whitespace-separated cells, each one ASCII 0 or 1, all rows the same length."""
    rows: list[bytes] = []
    width: int | None = None
    with _reading(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            raw = line.encode()
            cells = raw[::2]
            # Canonical: 0/1 at every even offset, and as many spaces as gaps between cells, so one at every odd offset.
            canonical = len(raw) & 1 and not cells.translate(None, b"01") and raw.count(b" ") == len(cells) - 1
            if not (canonical and width in (None, len(cells))):
                tokens = line.split()
                if not tokens:
                    raise InputError(f"{path}: line {lineno}: blank line")
                cells = "".join(tokens).encode("ascii", "replace")  # b"?" for a non-ASCII character
                if len(cells) != len(tokens) or cells.translate(None, b"01"):  # a token longer than 1, or not 0 or 1
                    bad = next(token for token in tokens if token not in ("0", "1"))
                    raise InputError(f"{path}: line {lineno}: non-binary cell {shown(bad)}")
                if width not in (None, len(cells)):
                    raise InputError(f"{path}: line {lineno}: ragged row ({len(cells)} cells, expected {width})")
            width = len(cells)
            rows.append(cells.translate(_FLAGS))
        if not rows:
            raise InputError(f"{path}: empty file")
    return BinaryMatrix._proved(rows)


@dataclass(frozen=True)
class WeightTable:
    """Per-symbol nonnegative integer costs; unlisted symbols cost 0."""

    costs: dict[int, int]

    def cost_of(self, sid: int) -> int:
        return self.costs.get(sid, 0)


def load_weights(path, symbols: SymbolTable) -> WeightTable:
    """`SYM INT` per line; symbols are interned into the given table."""
    costs: dict[int, int] = {}
    with _reading(path) as lines:
        for lineno, tokens in _token_lines(lines, path, empty_ok=True):
            if len(tokens) != 2:
                raise InputError(f"{path}: line {lineno}: expected `SYM WEIGHT`")
            try:
                weight = plain_int(tokens[1].removeprefix("-"))
            except ValueError:
                raise InputError(f"{path}: line {lineno}: weight {shown(tokens[1])} is not an integer") from None
            if tokens[1].startswith("-"):
                raise InputError(f"{path}: line {lineno}: negative weight")
            sid = symbols.intern(tokens[0])
            if sid in costs:
                raise InputError(f"{path}: line {lineno}: duplicate weight for {shown(tokens[0])}")
            costs[sid] = weight
    return WeightTable(costs)


def load_tiles(path, matrix: BinaryMatrix) -> list[Tile]:
    """Candidate tiles as `rows=R,R,... cols=C,C,...` lines, ids 1..n in file order.

    Each tile's ones are the data ones inside its rectangle.
    """
    tiles: list[Tile] = []
    with _reading(path) as lines:
        for lineno, tokens in _token_lines(lines, path):
            fields = _fields(tokens, path, lineno, _TILE_KEYS)
            if len(fields) != len(_TILE_KEYS):
                raise InputError(f"{path}: line {lineno}: expected `rows=... cols=...`")
            rows = _parse_int_list(fields["rows"], path, lineno)
            cols = _parse_int_list(fields["cols"], path, lineno)
            if not rows or not cols:
                raise InputError(f"{path}: line {lineno}: tile row and column sets must be nonempty")
            if any(not 1 <= r <= matrix.n_rows for r in rows):
                raise InputError(f"{path}: line {lineno}: row index out of range 1..{matrix.n_rows}")
            if any(not 1 <= c <= matrix.n_cols for c in cols):
                raise InputError(f"{path}: line {lineno}: column index out of range 1..{matrix.n_cols}")
            row_mask = mask_at((r - 1 for r in rows), matrix.n_rows)
            col_mask = mask_at((c - 1 for c in cols), matrix.n_cols)
            tiles.append(_cut(matrix, len(tiles) + 1, row_mask, col_mask))
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


# The nine flag tails pattern_lines writes, and their (valid, condensed) flags
_FLAG_TAILS = {
    "": (None, None),
    " condensed=0": (None, False),
    " condensed=1": (None, True),
    " valid=0": (False, None),
    " valid=0 condensed=0": (False, False),
    " valid=0 condensed=1": (False, True),
    " valid=1": (True, None),
    " valid=1 condensed=0": (True, False),
    " valid=1 condensed=1": (True, True),
}
_TAILS = {flags: tail for tail, flags in _FLAG_TAILS.items()}


def pattern_lines(
    records: Iterable[PatternRecord],
    symbols: SymbolTable,
    valid: dict[int, bool] | None = None,
    condensed: dict[int, bool] | None = None,
) -> Iterator[str]:
    """Each record's pattern-file line, fields in file order, every symbol quoted once per call.

    Itemset elements go in label order: ids depend on interning history,
    labels don't, so a reloaded file serializes back to the same bytes.
    Labels are ranked once, so each itemset sorts ints, not labels.
    """
    labels = symbols.labels
    quoted = {sid: _q(lbl) for sid, lbl in enumerate(labels)}
    order = sorted(quoted, key=labels.__getitem__)
    rank = {sid: r for r, sid in enumerate(order)}
    ranked = [quoted[sid] for sid in order]
    valid, condensed = valid or {}, condensed or {}
    flagged = bool(valid or condensed)
    for rec in records:
        p = rec.pattern
        kind = p.kind
        try:
            if kind == "itemset":
                body = "elements=" + ",".join(map(ranked.__getitem__, sorted(map(rank.__getitem__, p.elements))))
            elif kind == "sequence":
                body = "elements=" + ",".join(map(quoted.__getitem__, p.elements))
            else:
                body = "vertices=" + ",".join(f"{vid}:{quoted[lbl]}" for vid, lbl in p.vertices)
                body += " edges=" + ",".join(f"{u}-{v}:{quoted[lbl]}" for u, v, lbl in p.edges)
        except KeyError as exc:
            raise InputError(f"unknown symbol id {exc.args[0]}") from None
        pid, cover = rec.pid, rec.cover_text()
        tail = _TAILS[valid.get(pid), condensed.get(pid)] if flagged else ""
        if cover is None:
            yield f"pid={pid} kind={kind} support={rec.support} size={rec.size} {body}{tail}"
        else:
            yield f"pid={pid} kind={kind} support={rec.support} size={rec.size} {body} cover={cover}{tail}"


# A comma every few characters defeats the substring search's skip; the compiled search is faster on covers.
_DOUBLE_COMMA = re.compile(",,").search


def _listed(text: str) -> int | None:
    """How many plain decimals text lists, joined by single commas (ASCII `\\d+(?:,\\d+)*`); 0 for "", else None."""
    plain = text.isascii() and not text.encode().translate(None, b"0123456789,")  # ASCII digits and commas only
    if plain and text[:1].isdigit() and text[-1:].isdigit() and not _DOUBLE_COMMA(text):
        return text.count(",") + 1
    return 0 if text == "" else None


def _parse_int_list(value: str, path, lineno: int) -> tuple[int, ...]:
    try:
        return tuple(map(plain_int, value.split(","))) if value else ()
    except ValueError:
        raise InputError(f"{path}: line {lineno}: malformed integer list {shown(value)}") from None


_PATTERN_KEYS = frozenset("pid kind support size elements vertices edges cover valid condensed".split())
_TILE_KEYS = frozenset(("rows", "cols"))


def _fields(tokens: list[str], path, lineno: int, allowed: frozenset[str]) -> dict[str, str]:
    """A line's key=value tokens as a dict of allowed, distinct keys; the first bad token raises, named."""
    fields = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise InputError(f"{path}: line {lineno}: malformed field {shown(tok)}")
        if key not in allowed:
            raise InputError(f"{path}: line {lineno}: unknown field {shown(key)}")
        if key in fields:
            raise InputError(f"{path}: line {lineno}: duplicate field {shown(key)}")
        fields[key] = value
    return fields


def _parse_line(line: str, path, lineno: int) -> tuple:
    """The one pattern-line parser: (pid, kind, support, size, elements, vertices, edges, cover, valid, condensed).

    Every field is checked and every label unquoted; the cover stays text, its tids counted against support.
    """
    tokens = line.split()
    if not tokens:
        raise InputError(f"{path}: line {lineno}: blank line")
    fields = _fields(tokens, path, lineno, _PATTERN_KEYS)
    try:
        pid, kind, support, size = fields["pid"], fields["kind"], fields["support"], fields["size"]
    except KeyError as exc:  # the first missing one, in the order read
        raise InputError(f"{path}: line {lineno}: missing field {exc.args[0]!r}") from None
    try:
        pid, support, size = plain_int(pid), plain_int(support), plain_int(size)
    except ValueError:
        raise InputError(f"{path}: line {lineno}: pid/support/size must be integers") from None
    elements = vertices = edges = None
    if kind in ("itemset", "sequence"):
        if "elements" not in fields or "vertices" in fields or "edges" in fields:
            raise InputError(f"{path}: line {lineno}: {kind} records carry elements only")
        if fields["elements"] == "":
            raise InputError(f"{path}: line {lineno}: empty elements")
        try:
            elements = tuple(map(_unq, fields["elements"].split(",")))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad percent escape in {shown(fields['elements'])}") from None
    elif kind == "graph":
        if "vertices" not in fields or "edges" not in fields or "elements" in fields:
            raise InputError(f"{path}: line {lineno}: graph records carry vertices and edges")
        verts: list[tuple[int, str]] = []
        if fields["vertices"] == "":
            raise InputError(f"{path}: line {lineno}: empty vertices")
        for part in fields["vertices"].split(","):
            try:
                vid_text, lbl = part.split(":", 1)  # ValueError without a ":"
                verts.append((plain_int(vid_text), _unq(lbl)))
            except ValueError:
                raise InputError(f"{path}: line {lineno}: malformed vertex {shown(part)}") from None
        vertices = tuple(verts)
        edge_list: list[tuple[int, int, str]] = []
        if fields["edges"]:
            for part in fields["edges"].split(","):
                pair_text, sep, lbl = part.partition(":")
                if not sep:
                    raise InputError(f"{path}: line {lineno}: malformed edge {shown(part)}")
                u_text, sep2, v_text = pair_text.partition("-")
                if not sep2:
                    raise InputError(f"{path}: line {lineno}: malformed edge endpoints {shown(pair_text)}")
                try:
                    edge_list.append((plain_int(u_text), plain_int(v_text), _unq(lbl)))
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: malformed edge {shown(part)}") from None
        edges = tuple(edge_list)
    else:
        raise InputError(f"{path}: line {lineno}: unknown pattern kind {shown(kind)}")
    cover = fields.get("cover")
    if cover is not None:
        listed = _listed(cover)
        if listed is None:
            raise InputError(f"{path}: line {lineno}: malformed integer list {shown(cover)}")
        if listed != support:
            raise InputError(f"{path}: line {lineno}: support {support} but the cover lists {listed} tids")
    for flag in ("valid", "condensed"):
        if fields.get(flag, "0") not in ("0", "1"):
            raise InputError(f"{path}: line {lineno}: flag {flag} must be 0 or 1")
    valid, condensed = (fields[flag] == "1" if flag in fields else None for flag in ("valid", "condensed"))
    return pid, kind, support, size, elements, vertices, edges, cover, valid, condensed


# The layout pattern_lines writes for an itemset or sequence record, up to
# its cover: a short head, matched without scanning the cover. Labels with no
# "%" or "=" are their own unquoted text, split on commas as _parse_line
# splits them. The last group holds what follows the elements: the flags of
# a line with no cover.
_HEAD = re.compile(
    r"pid=([0-9]+) kind=(itemset|sequence) support=([0-9]+) size=([0-9]+) elements=([^\s%=]+)(.*)", re.DOTALL
)


def _records(lines: Iterable[str], path, keep=None, symbols: SymbolTable | None = None):
    """Records, symbols, and valid and condensed flags from a pattern file's lines.

    A line in pattern_lines' own itemset or sequence layout, with plain
    labels and a cover of plain decimals whose count is its support, is read
    from one match of its head; every other line goes to _parse_line, which
    checks every field, or names the first bad one. Both give pid, support
    and size as nonnegative ints; interning gives nonnegative ids. What
    remains is checked here, first failure first: a duplicate pid, a
    repeated itemset label, pid 0, then size against the pattern. A record's
    error names path and the line (blank lines are errors, so line k is the
    k-th line). keep, if given, then tests the record, its labels interned
    into symbols (a new table if None); a record it rejects is checked and
    its pid remembered, but neither it nor its flags are held.
    """
    symbols = SymbolTable() if symbols is None else symbols
    ids = symbols._ids.__getitem__  # interns an unseen label
    pids: set[int] = set()
    records: list[PatternRecord] = []
    valid: dict[int, bool] = {}
    condensed: dict[int, bool] = {}
    no_table = TidTable()  # a text cover never reads its table
    for lineno, line in enumerate(lines, start=1):
        head, has_cover, cover = line.partition(" cover=")
        m = _HEAD.fullmatch(head)
        flags = None
        if m is not None:
            pid, kind, support, size, labels, tail = m.groups()
            if not has_cover:
                cover = None
            elif not tail:
                cover, space, tail = cover.partition(" ")
                tail = space + tail
            else:  # a field between the elements and the cover
                tail = None
            flags = _FLAG_TAILS.get(tail)
            try:
                pid, support, size = int(pid), int(support), int(size)
            except ValueError:  # more digits than int() reads: _parse_line reports the line
                flags = None
            else:
                if cover is not None and _listed(cover) != support:
                    flags = None
        if flags is None:
            pid, kind, support, size, labels, vertices, edges, cover, *flags = _parse_line(line, path, lineno)
        else:
            labels = labels.split(",")
        try:
            if pid in pids:
                raise InputError(f"duplicate pattern id {shown_number(pid)}")
            if kind == "itemset":
                items = tuple(sorted(map(ids, labels)))  # map interns in file order, then sorted orders the ids
                if len(set(items)) != len(items):  # the one fault sorted ids of nonempty elements can have
                    raise InputError(f"pattern {shown_number(pid)}: itemset lists a label more than once")
                pattern = Itemset._proved(items)
            elif kind == "sequence":
                pattern = Sequence._proved(tuple(list(map(ids, labels))))
            else:  # "0" first, then lists, so that vertex labels are interned before edge labels
                ids("0")
                pattern = LabeledGraph.of(
                    [(vid, ids(lbl)) for vid, lbl in vertices],
                    [(u, v, ids(lbl)) for u, v, lbl in edges],
                )
            if pid < 1:
                raise InputError("pattern ids are 1-based")
            if size != pattern.size:
                raise InputError("size must match the pattern")
            if cover is not None:
                cover = Cover(0, no_table, cover, support)
            record = PatternRecord._proved(pid, pattern, support, cover, size)
        except InputError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        pids.add(pid)
        if keep is not None and not keep(record):
            continue
        records.append(record)
        is_valid, is_condensed = flags
        if is_valid is not None:
            valid[pid] = is_valid
        if is_condensed is not None:
            condensed[pid] = is_condensed
    return tuple(records), symbols, valid, condensed


def write_patterns(
    records: Iterable[PatternRecord],
    path,
    symbols: SymbolTable,
    valid: dict[int, bool] | None = None,
    condensed: dict[int, bool] | None = None,
) -> None:
    """One key=value line per record, deterministic field order; may be empty.

    Every symbol id is checked before the file is opened, so a record that
    cannot be rendered leaves no file and an existing one unchanged.
    """
    records = tuple(records)
    ids = set().union(*(_symbol_ids(rec.pattern) for rec in records))
    if not ids.issubset(range(len(symbols))):
        deque(pattern_lines(records, symbols), 0)  # raises the renderer's error for the first such record
    _write_lines(path, pattern_lines(records, symbols, valid, condensed))


def _symbol_ids(p) -> Iterable[int]:
    """The symbol ids pattern_lines looks up to render p."""
    if p.kind == "graph":
        return chain((lbl for _, lbl in p.vertices), (lbl for _, _, lbl in p.edges))
    return p.elements


def load_patterns(path, keep=None, symbols: SymbolTable | None = None) -> LoadedPatterns:
    """Parse a pattern file, each line straight into its record; an empty file is an empty pattern list.

    keep, if given, is called once per record, in file order, after every
    check of that record passes and its labels are interned into symbols (a
    new table if None). Only records it accepts, and their flags, are held;
    every record is still checked, so the file's first error is raised as
    without keep.
    """
    with _reading(path) as lines:
        return LoadedPatterns(*_records(lines, path, keep, symbols))


def _write_lines(path, lines: Iterable[str]) -> None:
    """Each line and a newline, encoded and written as it comes; an OSError is an InputError."""
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def write_tiling(
    path,
    candidates: list[Tile],
    method: str,
    error_mode: str,
    budget: int,
    status: str,
    selections: Iterable[TileSelection],
) -> None:
    """Tiling report: header, candidate tiles, then one line per selection.

    Every selection line carries the chosen ids, k, and the selection's own
    error terms and their sum, as its selector measured them.
    """
    lines = [
        f"method={method}",
        f"error_mode={error_mode}",
        f"threshold={budget}",
        f"candidates={len(candidates)}",
        f"status={status}",
    ]
    for t in sorted(candidates, key=lambda t: t.tile_id):
        rows = ",".join(map(str, sorted(t.row_set)))
        cols = ",".join(map(str, sorted(t.col_set)))
        lines.append(f"tile={t.tile_id} rows={rows} cols={cols} ones={t.n_ones}")
    selections = tuple(selections)
    for sel in selections:
        ids = ",".join(map(str, sel.tile_ids))
        lines.append(
            f"selection={ids} k={len(sel.tile_ids)} "
            f"ones_outside={sel.ones_outside} zeros_inside={sel.zeros_inside} error={sel.error}"
        )
    lines.append(f"solutions={len(selections)}")
    _write_lines(path, lines)
