"""Tiles, tilings, and approximate tile selection under an error budget.

A tile is a rectangle (row set x column set) remembering which of its cells
are ones in the source matrix. A selection of tiles covers the union of
their rectangles; its error is the number of zeros inside that union plus
the number of ones outside it. The "coverable" error mode restricts the
outside term to ones appearing in at least one candidate tile: ones no
candidate can ever cover are a constant the selector cannot influence, so
they are left out of the budget. The "full" mode charges every one, which
makes the error the Hamming distance between the data and the union.

Selection comes in two flavors: a greedy loop that keeps adding the tile
with the largest error decrease (it may fail even when an admissible subset
exists), and an exact branch-and-bound over all nonempty candidate subsets.
Both are deterministic, with ties broken by lowest tile id. Each selection
carries the ones outside and zeros inside that its selector measured, and
its error is their sum, so a tiling report prints them without scoring the
matrix again; error_terms scores a selection the caller builds.

Internally selections are scored on Python-int bitsets. The matrix keeps
one mask per column (bit r-1 is cell (r, c)), and scoring projects it onto
the cells inside some tile's rectangle. Rectangles are products, so the
tiles holding a cell are (its row's tiles) & (its column's tiles); cells
with equal tile sets form a group, counted from row and column masks, and
each group becomes a contiguous range of bits, its target ones first, then
its zeros. A rectangle is the union of its groups' ranges, zeros inside a
selection are `(covered & zeros).bit_count()`, and ones outside it are
`(target & ~covered).bit_count()` plus a constant: the target ones outside
every rectangle (in full mode the ones no tile reaches; in coverable mode
none). Data ones that are not targets count in neither term and get no
bits. A selection thus costs a few word-parallel operations over the cells
the tiles touch instead of over n_rows*n_cols. A loaded matrix holds its
rows as bytes beside the masks and builds its tuple of cells only when
read, which no selector does.

Every tile is held in one mask form: a row mask, a column mask, and for
each of its columns a row mask of its ones there. A tile cut from a matrix
(a generated candidate, a line of a tile file, or the tile of an itemset
over a BinaryMatrix) is built in that form and stores no matrix: its ones
are its columns' masks within its rows, and its `ones` set of cells is
built from the masks on first read. A hand-made tile derives the masks
from its `ones` on first use. Scoring checks every tile the same way: its
rectangle lies inside the matrix and each column's ones are ones there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, product
from operator import itemgetter

from .core import Itemset, TransactionDB, cover_itemset, mask_at
from .errors import BoundExceededError, InputError

ERROR_MODES = ("full", "coverable")
EXACT_MODES = ("first", "all", "optimal")

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """1-based positions of the set bits, ascending."""
    # bin(mask)[:1:-1] lists the binary digits from bit 0 up.
    return list(compress(count(1), bin(mask)[:1:-1].encode().translate(_FLAGS)))


class _LazyCells:
    """BinaryMatrix.cells: a loaded matrix builds its cells from its row bytes on first read."""

    def __get__(self, matrix, owner=None):
        if matrix is None:
            raise AttributeError("cells")  # so the dataclass field has no default
        cells = matrix.__dict__["cells"] = tuple(map(tuple, matrix.__dict__["_rows"]))
        return cells


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense 0/1 matrix; rows and columns are addressed 1-based.

    A cell may be any value equal to 0 or 1; one that is not an int (1.0,
    Fraction(1), ...) is stored as the int it equals, so masks and cells
    read the same whatever type the caller used. `col_masks` holds column
    c's ones at index c-1: bit r-1 is cell (r, c). `n_rows` and `n_cols`
    are set with the masks. A matrix the loader builds holds its rows as
    bytes and builds `cells` only when read.
    """

    cells: tuple[tuple[int, ...], ...] = _LazyCells()

    def __post_init__(self):
        cells = self.cells
        if not cells or not cells[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(cells[0])
        try:  # bytes() takes ints and bools in 0..255 only
            blob = bytes(chain.from_iterable(cells))
        except (TypeError, ValueError):
            blob = None
        if blob is None or blob.translate(None, b"\x00\x01") or set(map(len, cells)) != {width}:
            # Something is off: name the first bad row, or store cells equal to 0 or 1 as the ints they equal.
            for r, row in enumerate(map(tuple, cells), start=1):
                if len(row) != width:
                    raise InputError(f"row {r} has {len(row)} cells, expected {width}")
                if row.count(0) + row.count(1) != width:
                    raise InputError(f"row {r} contains a non-binary cell")
            object.__setattr__(self, "cells", tuple(tuple(int(v == 1) for v in row) for row in cells))
            blob = bytes(chain.from_iterable(self.cells))
        col_masks = _col_masks(blob, width)
        self.__dict__.update(n_rows=len(cells), n_cols=len(col_masks), col_masks=col_masks)

    @classmethod
    def _proved(cls, rows: list[bytes]) -> BinaryMatrix:
        """The matrix of rows of 0/1 bytes, which the caller proved nonempty and equally long."""
        matrix = object.__new__(cls)
        col_masks = _col_masks(b"".join(rows), len(rows[0]))
        matrix.__dict__.update(_rows=rows, n_rows=len(rows), n_cols=len(col_masks), col_masks=col_masks)
        return matrix

    def cell(self, row: int, col: int) -> int:
        return self.cells[row - 1][col - 1]

    @cached_property
    def ones(self) -> frozenset[tuple[int, int]]:
        cells = product(range(1, self.n_rows + 1), range(1, self.n_cols + 1))
        return frozenset(compress(cells, chain.from_iterable(self.cells)))


def _col_masks(blob: bytes, width: int) -> tuple[int, ...]:
    """The column masks of the row-major 0/1 cells in blob, one strided slice each."""
    digits = blob[::-1].translate(_DIGITS)  # the last row first: a mask's high bits
    return tuple(int(digits[j::width], 2) for j in range(width - 1, -1, -1))


class _LazyOnes:
    """Tile.ones: a cut tile lists its ones from its masks on first read."""

    def __get__(self, tile, owner=None):
        if tile is None:
            raise AttributeError("ones")  # so the dataclass field has no default
        col_ones = tile.__dict__["_masks"][2]
        ones = tile.__dict__["ones"] = frozenset((r, j + 1) for j, rows in col_ones for r in _bits(rows))
        return ones


@dataclass(frozen=True)
class Tile:
    """A rectangle with the ones it contains; ones must be 1 in the source.

    Internally a tile is masks (bit r-1 is row r, bit c-1 column c): see
    `_masks`. A tile cut from a matrix holds every one of its rectangle and
    builds `ones` only when read.
    """

    tile_id: int
    row_set: frozenset[int]
    col_set: frozenset[int]
    ones: frozenset[tuple[int, int]] = _LazyOnes()

    def __post_init__(self):
        if not self.row_set or not self.col_set:
            raise InputError("tile row and column sets must be nonempty")
        # A set of cells lies inside a product iff its rows and its columns do.
        if not (
            self.row_set.issuperset(map(itemgetter(0), self.ones))
            and self.col_set.issuperset(map(itemgetter(1), self.ones))
        ):
            raise InputError("tile ones must lie inside its rectangle")

    @property
    def rectangle(self) -> frozenset[tuple[int, int]]:
        return frozenset((r, c) for r in self.row_set for c in self.col_set)

    @cached_property
    def _masks(self) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
        """(row mask, column mask, (c-1, row mask of the ones in column c) per column).

        None when a row or column index is below 1, which no mask can hold.
        """
        if min(self.row_set) < 1 or min(self.col_set) < 1:
            return None
        col_ones = dict.fromkeys(self.col_set, 0)
        for r, c in self.ones:
            col_ones[c] |= 1 << (r - 1)
        rows = mask_at((r - 1 for r in self.row_set), max(self.row_set))
        cols = mask_at((c - 1 for c in self.col_set), max(self.col_set))
        return rows, cols, tuple((c - 1, ones) for c, ones in col_ones.items())

    @property
    def n_ones(self) -> int:
        """How many ones the tile holds, counted on its masks when it has them."""
        masks = self._masks
        return len(self.ones) if masks is None else sum(ones.bit_count() for _, ones in masks[2])


def _cut(matrix: BinaryMatrix, tile_id: int, rows: int, cols: int, row_bits=None, col_bits=None) -> Tile:
    """The tile rows x cols holding every one of the matrix inside it.

    rows and cols are nonempty masks within the matrix: bit r-1 is row r,
    bit c-1 column c. row_bits and col_bits, when given, are their _bits.
    """
    col_masks = matrix.col_masks
    col_bits = _bits(cols) if col_bits is None else col_bits
    tile = object.__new__(Tile)
    d = tile.__dict__
    d["tile_id"] = tile_id
    d["row_set"] = frozenset(_bits(rows) if row_bits is None else row_bits)
    d["col_set"] = frozenset(col_bits)
    d["_masks"] = (rows, cols, tuple((c - 1, col_masks[c - 1] & rows) for c in col_bits))
    return tile


def tile_of(source: TransactionDB | BinaryMatrix, alpha: Itemset, tile_id: int = 1) -> Tile:
    """The tile of an itemset: its cover times its columns.

    Over a BinaryMatrix the columns are 1-based column indices. Over a
    TransactionDB they are 0-based item ids, not the 1-based columns of a
    matrix of the same data: scored against that matrix, such a tile marks
    the wrong cells, and is refused when one of them is a zero. Every cell
    of the rectangle is a one by construction (each covering row carries
    every column of alpha), so the tile alone contributes no inside-zeros.
    An empty cover is an error.
    """
    if isinstance(source, TransactionDB):
        rows = cover_itemset(source, alpha)
        if rows:
            cols = frozenset(alpha.items)
            return Tile(tile_id=tile_id, row_set=rows, col_set=cols, ones=frozenset(product(rows, cols)))
    elif isinstance(source, BinaryMatrix):
        for c in alpha.items:
            if not 1 <= c <= source.n_cols:
                raise InputError(f"column {c} out of range 1..{source.n_cols}")
        rows = (1 << source.n_rows) - 1
        for c in alpha.items:
            rows &= source.col_masks[c - 1]
        if rows:
            return _cut(source, tile_id, rows, mask_at((c - 1 for c in alpha.items), source.n_cols))
    else:
        raise InputError(f"cannot build a tile over {type(source).__name__}")
    raise InputError("itemset has an empty cover; the tile would have no rows")


def area(tiles: list[Tile]) -> int:
    """Cardinality of the union of the tiles' ones."""
    covered: set[tuple[int, int]] = set()
    for t in tiles:
        covered |= t.ones
    return len(covered)


def _shape(matrix: BinaryMatrix, tile: Tile) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The masks of a tile (see Tile._masks), checked against the matrix."""
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    masks = tile._masks
    if masks is None or masks[0].bit_length() > n_rows or masks[1].bit_length() > n_cols:
        if any(not (1 <= r <= n_rows and 1 <= c <= n_cols) for r, c in tile.ones):
            raise InputError(f"tile {tile.tile_id} marks cells that are 0 in the matrix")
        raise InputError(f"tile {tile.tile_id} reaches outside the {n_rows}x{n_cols} matrix")
    col_masks = matrix.col_masks
    for j, ones in masks[2]:
        if ones & col_masks[j] != ones:
            raise InputError(f"tile {tile.tile_id} marks cells that are 0 in the matrix")
    return masks


def _refine(parts: list[tuple[int, int]], mask: int, bit: int) -> list[tuple[int, int]]:
    """Split each (members, tiles) part by mask; members inside gain the tile bit."""
    out = []
    for members, tiles in parts:
        inside = members & mask
        if inside:
            out.append((inside, tiles | bit))
        if inside != members:
            out.append((members ^ inside, tiles))
    return out


def _project(matrix: BinaryMatrix, mode: str, tiles, universe=None) -> tuple[list[int], int, int, int]:
    """The matrix projected onto the cells inside some tile's rectangle.

    Returns (rectangles, target, zeros, constant). Each rectangle is the
    projected mask of the tile at that position; target and zeros are the
    projected target ones and zeros; constant counts the target ones outside
    every rectangle. The target is every data one in full mode and the union
    of the universe's ones in coverable mode; universe defaults to tiles.
    Every tile involved is checked against the matrix.
    """
    if mode not in ERROR_MODES:
        raise InputError(f"unknown error mode {mode!r}")
    entries = list(tiles)
    first_target = 0
    if mode == "coverable" and universe is not None:
        first_target = len(entries)
        entries += universe
    col_masks = matrix.col_masks
    targets = list(col_masks) if mode == "full" else [0] * matrix.n_cols
    row_masks = []
    col_parts = [((1 << matrix.n_cols) - 1, 0)]
    for i, tile in enumerate(entries):
        rows, cols, col_ones = _shape(matrix, tile)
        row_masks.append(rows)
        col_parts = _refine(col_parts, cols, 1 << i)
        if mode == "coverable" and i >= first_target:
            for j, ones in col_ones:
                targets[j] |= ones

    # (tile set) -> [target ones, zeros] over the cells lying in exactly
    # those tiles. Columns in the same tiles share a split of the rows by
    # the row sets of those tiles.
    groups: dict[int, list[int]] = {}
    for members, col_tiles in col_parts:
        if not col_tiles:
            continue
        cols = [c - 1 for c in _bits(members)]
        row_parts = [((1 << matrix.n_rows) - 1, 0)]
        for i in _bits(col_tiles):
            row_parts = _refine(row_parts, row_masks[i - 1], 1 << (i - 1))
        for rows, sig in row_parts:
            if sig:
                group = groups.setdefault(sig, [0, 0])
                group[0] += sum((targets[c] & rows).bit_count() for c in cols)
                group[1] += rows.bit_count() * len(cols) - sum((col_masks[c] & rows).bit_count() for c in cols)

    n_tiles = len(tiles)
    scored = (1 << n_tiles) - 1
    rects = [0] * n_tiles
    target = zeros = 0
    start = inside = 0
    for sig, (hits, misses) in groups.items():
        hit_bits = ((1 << hits) - 1) << start
        span = ((1 << (hits + misses)) - 1) << start
        target |= hit_bits
        zeros |= span ^ hit_bits
        for i in _bits(sig & scored):
            rects[i - 1] |= span
        start += hits + misses
        inside += hits
    return rects, target, zeros, sum(m.bit_count() for m in targets) - inside


def error_terms(
    matrix: BinaryMatrix,
    tiles: list[Tile],
    mode: str = "coverable",
    candidates: list[Tile] | None = None,
) -> tuple[int, int]:
    """(ones outside, zeros inside) of the selection's rectangle union.

    In coverable mode the outside term only counts ones belonging to some
    tile of the candidate universe; candidates defaults to the selection
    itself, so selectors must pass the full candidate list.
    """
    rects, target, zeros, constant = _project(matrix, mode, tiles, candidates)
    covered = 0
    for rect in rects:
        covered |= rect
    return constant + (target & ~covered).bit_count(), (covered & zeros).bit_count()


def error(
    matrix: BinaryMatrix,
    tiles: list[Tile],
    mode: str = "coverable",
    candidates: list[Tile] | None = None,
) -> int:
    """Zeros inside the selection plus (coverable) ones outside it."""
    ones_outside, zeros_inside = error_terms(matrix, tiles, mode, candidates)
    return ones_outside + zeros_inside


def _rows_at_least(planes: list[int], k: int, all_rows: int) -> int:
    """Rows whose bit-sliced count is at least k; planes[b] holds bit b of each count."""
    above, equal = 0, all_rows
    for b in range(max(len(planes), k.bit_length()) - 1, -1, -1):
        plane = planes[b] if b < len(planes) else 0
        if k >> b & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal &= ~plane
    return above | equal


def generate_candidates(
    matrix: BinaryMatrix, tau: Fraction, max_candidates: int | None = None
) -> list[Tile]:
    """Candidate tiles from association confidences.

    For each column i with nonzero support, B_i collects the columns j whose
    confidence conf(i=>j) = |rows with both| / |rows with i| reaches tau, and
    the tile's rows are those where ones within B_i are at least as many as
    zeros (covering the row helps). Duplicates collapse; the result is sorted
    by descending area with ties on column then row sets, ids assigned 1..k,
    then truncated to max_candidates.

    Columns are row masks, and confidence is compared exactly against tau,
    a Fraction or an int, by integer cross-multiplication. Each row's count
    of ones within B_i is kept bit-sliced: the columns of B_i are added into
    planes of a ripple-carry counter, so all rows are counted together.
    """
    if not 0 < tau <= 1:
        raise InputError("tau must lie in (0, 1]")
    if max_candidates is not None and max_candidates < 1:
        raise InputError("max_candidates must be positive")
    num, den = tau.numerator, tau.denominator
    col_rows = matrix.col_masks
    all_rows = (1 << matrix.n_rows) - 1
    found: dict[tuple[int, int], tuple[int, list[int], list[int], int, int]] = {}
    for support in col_rows:
        if not support:
            continue
        need = num * support.bit_count()
        cols = 0
        planes: list[int] = []
        for j, j_rows in enumerate(col_rows):
            if j_rows and (support & j_rows).bit_count() * den >= need:
                cols |= 1 << j
                carry = j_rows
                for b, plane in enumerate(planes):
                    planes[b] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                if carry:
                    planes.append(carry)
        # 2 * inside >= width, i.e. inside >= ceil(width / 2)
        rows = _rows_at_least(planes, (cols.bit_count() + 1) // 2, all_rows)
        if rows and (rows, cols) not in found:
            n_ones = sum((plane & rows).bit_count() << b for b, plane in enumerate(planes))
            found[rows, cols] = (-n_ones, _bits(cols), _bits(rows), rows, cols)

    ordered = sorted(found.values())
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    return [
        _cut(matrix, tid, rows, cols, row_bits, col_bits)
        for tid, (_, col_bits, row_bits, rows, cols) in enumerate(ordered, start=1)
    ]


@dataclass(frozen=True)
class TileSelection:
    """Chosen tile ids (ascending) with the error terms its selector measured."""

    tile_ids: tuple[int, ...]
    ones_outside: int
    zeros_inside: int

    @property
    def error(self) -> int:
        return self.ones_outside + self.zeros_inside


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of exact selection: status 'ok' or 'unsatisfiable'."""

    status: str
    selections: tuple[TileSelection, ...]


def greedy_select(
    matrix: BinaryMatrix,
    candidates: list[Tile],
    budget: int,
    error_mode: str = "coverable",
) -> TileSelection | None:
    """Add the tile with the largest error decrease until error <= budget.

    Ties go to the lowest tile id; a round where no tile strictly decreases
    the error fails, as does exhausting all tiles above budget. Failure is a
    legitimate outcome (an admissible subset may exist that greedy never
    reaches) and is reported as None, not an error. An already-admissible
    empty selection succeeds immediately.
    """
    if budget < 0:
        raise InputError("error budget must be nonnegative")
    rects, target, zeros, constant = _project(matrix, error_mode, candidates)
    covered = 0
    current = constant + target.bit_count()
    if current <= budget:
        return TileSelection((), current, 0)
    remaining = sorted(range(len(candidates)), key=lambda i: candidates[i].tile_id)
    chosen: list[int] = []
    while remaining:
        best = None
        best_error = current
        for i in remaining:
            trial = covered | rects[i]
            e = constant + (trial & zeros).bit_count() + (target & ~trial).bit_count()
            if e < best_error:
                best, best_error = i, e
        if best is None:
            return None
        chosen.append(candidates[best].tile_id)
        remaining.remove(best)
        covered |= rects[best]
        current = best_error
        if current <= budget:
            inside = (covered & zeros).bit_count()
            return TileSelection(tuple(sorted(chosen)), current - inside, inside)
    return None


def exact_select(
    matrix: BinaryMatrix,
    candidates: list[Tile],
    budget: int,
    mode: str = "first",
    error_mode: str = "coverable",
    bound: int = 20,
) -> SelectionResult:
    """Complete search over nonempty candidate subsets with error <= budget.

    mode 'first' returns the first admissible selection in exclude-first
    depth-first order (small subsets surface early); 'all' returns every
    admissible selection in that order; 'optimal' returns the minimum-error
    selection, ties broken by fewer tiles then lexicographic ids. Infeasible
    instances yield status "unsatisfiable" with no selections.

    Pruning uses a sound lower bound: zeros inside can only grow as tiles
    are added, and ones outside can only shrink to what the still-available
    tiles could cover, so a partial selection whose bound beats the budget,
    or in 'optimal' the best error so far, dies with its whole subtree.
    'optimal' tries including a tile first if its rectangle holds at least
    as many ones as zeros, so a good incumbent prunes early; the pruning is
    strict, so the result does not depend on the order. The search keeps an
    explicit stack, so its depth (one level per candidate) does not touch
    the recursion limit.
    """
    if budget < 0:
        raise InputError("error budget must be nonnegative")
    if mode not in EXACT_MODES:
        raise InputError(f"unknown selection mode {mode!r}")
    if error_mode not in ERROR_MODES:
        raise InputError(f"unknown error mode {error_mode!r}")
    if len(candidates) > bound:
        raise BoundExceededError(
            f"exact selection over {len(candidates)} candidates exceeds bound {bound}"
        )
    rects, target, zeros, constant = _project(matrix, error_mode, candidates)
    order = sorted(range(len(candidates)), key=lambda i: candidates[i].tile_id)
    ids = [candidates[i].tile_id for i in order]
    rects = [rects[i] for i in order]
    n = len(order)

    # Union of rectangles still available from position i on.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | rects[i]

    found: list[TileSelection] = []
    best: TileSelection | None = None
    cap = budget  # in 'optimal', the best error so far once there is a best
    # The branch pushed last pops first.
    include_first = [mode == "optimal" and (r & target).bit_count() >= (r & zeros).bit_count() for r in rects]
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), 0)]
    while stack:
        i, chosen_ids, covered = stack.pop()
        inside = (covered & zeros).bit_count()
        lower = constant + inside + (target & ~(covered | suffix[i])).bit_count()
        if lower > cap:
            continue
        if i < n:
            include = (i + 1, chosen_ids + (ids[i],), covered | rects[i])
            exclude = (i + 1, chosen_ids, covered)
            stack += (exclude, include) if include_first[i] else (include, exclude)
            continue
        if not chosen_ids:
            continue
        # At a leaf suffix[n] is empty, so the bound is the exact error.
        sel = TileSelection(chosen_ids, lower - inside, inside)
        if mode == "optimal":
            if best is None or (lower, len(chosen_ids), chosen_ids) < (cap, len(best.tile_ids), best.tile_ids):
                best, cap = sel, lower
            continue
        found.append(sel)
        if mode == "first":
            break

    if mode == "optimal":
        found = [best] if best is not None else []
    return SelectionResult("ok", tuple(found)) if found else SelectionResult("unsatisfiable", ())
