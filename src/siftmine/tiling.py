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
Both are deterministic, with ties broken by lowest tile id.

Internally cells are bits of a Python int: cell (r, c) is bit
(r-1)*n_cols + (c-1). A union of rectangles is `|`, zeros inside are
`(covered & ~data).bit_count()` and ones outside are
`(target & ~covered).bit_count()`, so scoring a selection costs a few
word-parallel operations over n_rows*n_cols bits instead of building sets of
cell tuples. Tiles and matrices keep their frozenset fields; masks are built
from them once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import Itemset, TransactionDB, cover_itemset, mask_at
from .errors import BoundExceededError, InputError

ERROR_MODES = ("full", "coverable")


def _mask_of(flags) -> int:
    """The int whose bit k is set when flags[k] is truthy."""
    return int("".join("1" if v else "0" for v in reversed(flags)), 2)


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense 0/1 matrix; rows and columns are addressed 1-based."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(self.cells[0])
        for r, row in enumerate(self.cells, start=1):
            if len(row) != width:
                raise InputError(f"row {r} has {len(row)} cells, expected {width}")
            if any(v not in (0, 1) for v in row):
                raise InputError(f"row {r} contains a non-binary cell")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.cells[0])

    def cell(self, row: int, col: int) -> int:
        return self.cells[row - 1][col - 1]

    @cached_property
    def ones(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (r, c)
            for r, row in enumerate(self.cells, start=1)
            for c, v in enumerate(row, start=1)
            if v
        )

    @cached_property
    def _ones_mask(self) -> int:
        """The ones as a cell mask: bit (r-1)*n_cols + (c-1) is cell (r, c)."""
        return _mask_of([v for row in self.cells for v in row])


@dataclass(frozen=True)
class Tile:
    """A rectangle with the ones it contains; ones must be 1 in the source."""

    tile_id: int
    row_set: frozenset[int]
    col_set: frozenset[int]
    ones: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not self.row_set or not self.col_set:
            raise InputError("tile row and column sets must be nonempty")
        if any(r not in self.row_set or c not in self.col_set for r, c in self.ones):
            raise InputError("tile ones must lie inside its rectangle")

    @property
    def rectangle(self) -> frozenset[tuple[int, int]]:
        return frozenset((r, c) for r in self.row_set for c in self.col_set)


def tile_of(source: TransactionDB | BinaryMatrix, alpha: Itemset, tile_id: int = 1) -> Tile:
    """The tile of an itemset: its cover times its columns.

    Over a TransactionDB the columns are item ids; over a BinaryMatrix they
    are 1-based column indices. Every cell of the rectangle is a one by
    construction (each covering row carries every column of alpha), so the
    tile alone contributes no inside-zeros. An empty cover is an error.
    """
    if isinstance(source, TransactionDB):
        rows = cover_itemset(source, alpha)
    elif isinstance(source, BinaryMatrix):
        for c in alpha.items:
            if not 1 <= c <= source.n_cols:
                raise InputError(f"column {c} out of range 1..{source.n_cols}")
        rows = frozenset(
            r for r in range(1, source.n_rows + 1) if all(source.cell(r, c) for c in alpha.items)
        )
    else:
        raise InputError(f"cannot build a tile over {type(source).__name__}")
    if not rows:
        raise InputError("itemset has an empty cover; the tile would have no rows")
    cols = frozenset(alpha.items)
    ones = frozenset((r, c) for r in rows for c in cols)
    return Tile(tile_id=tile_id, row_set=frozenset(rows), col_set=cols, ones=ones)


def area(tiles: list[Tile]) -> int:
    """Cardinality of the union of the tiles' ones."""
    covered: set[tuple[int, int]] = set()
    for t in tiles:
        covered |= t.ones
    return len(covered)


def _tile_masks(matrix: BinaryMatrix, tiles) -> tuple[list[int], list[int]]:
    """(rectangle masks, ones masks) of the tiles, in order, checked against the matrix."""
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    n_bits = n_rows * n_cols
    data = matrix._ones_mask
    rects: list[int] = []
    ones: list[int] = []
    for t in tiles:
        if min(t.row_set) < 1 or max(t.row_set) > n_rows or min(t.col_set) < 1 or max(t.col_set) > n_cols:
            if any(not (1 <= r <= n_rows and 1 <= c <= n_cols) for r, c in t.ones):
                raise InputError(f"tile {t.tile_id} marks cells that are 0 in the matrix")
            raise InputError(f"tile {t.tile_id} reaches outside the {n_rows}x{n_cols} matrix")
        mask = mask_at(((r - 1) * n_cols + c - 1 for r, c in t.ones), n_bits)
        if mask & ~data:
            raise InputError(f"tile {t.tile_id} marks cells that are 0 in the matrix")
        # One bit per chosen row times the column bits copies them into each
        # of those rows; col_bits < 2**n_cols, so the copies never carry.
        col_bits = sum(1 << (c - 1) for c in t.col_set)
        rects.append(col_bits * mask_at(((r - 1) * n_cols for r in t.row_set), n_bits))
        ones.append(mask)
    return rects, ones


def _union(masks) -> int:
    covered = 0
    for m in masks:
        covered |= m
    return covered


def _error_scorer(matrix: BinaryMatrix, mode: str, tiles, candidates=None):
    """Check the mode and mask the tiles once; returns terms(positions).

    terms gives (ones outside, zeros inside) of the union of the tiles at
    the given positions. In coverable mode the outside term counts only ones
    of some candidate tile; candidates defaults to tiles.
    """
    if mode not in ERROR_MODES:
        raise InputError(f"unknown error mode {mode!r}")
    rects, ones = _tile_masks(matrix, tiles)
    data = matrix._ones_mask
    if mode == "full":
        target = data
    else:
        if candidates is not None:
            _, ones = _tile_masks(matrix, candidates)
        target = _union(ones)

    def terms(positions) -> tuple[int, int]:
        covered = _union(rects[i] for i in positions)
        return (target & ~covered).bit_count(), (covered & ~data).bit_count()

    return terms


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
    return _error_scorer(matrix, mode, tiles, candidates)(range(len(tiles)))


def error(
    matrix: BinaryMatrix,
    tiles: list[Tile],
    mode: str = "coverable",
    candidates: list[Tile] | None = None,
) -> int:
    """Zeros inside the selection plus (coverable) ones outside it."""
    ones_outside, zeros_inside = error_terms(matrix, tiles, mode, candidates)
    return ones_outside + zeros_inside


def _bits(mask: int) -> list[int]:
    """1-based positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def generate_candidates(
    matrix: BinaryMatrix, tau: float, max_candidates: int | None = None
) -> list[Tile]:
    """Candidate tiles from association confidences.

    For each column i with nonzero support, B_i collects the columns j whose
    confidence conf(i=>j) = |rows with both| / |rows with i| reaches tau, and
    the tile's rows are those where ones within B_i are at least as many as
    zeros (covering the row helps). Duplicates collapse; the result is sorted
    by descending area with ties on column then row sets, ids assigned 1..k,
    then truncated to max_candidates.

    Rows and columns are int bitsets (bit c-1 of a row for column c, bit r-1
    of a column for row r), and confidence is compared exactly against
    Fraction(str(tau)) by integer cross-multiplication.
    """
    if not 0 < tau <= 1:
        raise InputError("tau must lie in (0, 1]")
    if max_candidates is not None and max_candidates < 1:
        raise InputError("max_candidates must be positive")
    tau_frac = Fraction(str(tau))
    num, den = tau_frac.numerator, tau_frac.denominator
    row_bits = [_mask_of(row) for row in matrix.cells]
    col_rows = [_mask_of(col) for col in zip(*matrix.cells)]
    found: dict[tuple[int, int], tuple[int, list[int], list[int]]] = {}
    for support in col_rows:
        if not support:
            continue
        need = num * support.bit_count()
        cols = 0
        for j, j_rows in enumerate(col_rows):
            if j_rows and (support & j_rows).bit_count() * den >= need:
                cols |= 1 << j
        width = cols.bit_count()
        rows = 0
        n_ones = 0
        for r, bits in enumerate(row_bits):
            inside = (bits & cols).bit_count()
            if 2 * inside >= width:
                rows |= 1 << r
                n_ones += inside
        if rows and (rows, cols) not in found:
            found[rows, cols] = (-n_ones, _bits(cols), _bits(rows))

    ordered = sorted(found.items(), key=lambda kv: kv[1])
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    tiles = []
    for tid, ((_, cols), (_, col_list, row_list)) in enumerate(ordered, start=1):
        ones = frozenset((r, c) for r in row_list for c in _bits(row_bits[r - 1] & cols))
        tiles.append(Tile(tile_id=tid, row_set=frozenset(row_list), col_set=frozenset(col_list), ones=ones))
    return tiles


@dataclass(frozen=True)
class TileSelection:
    """Chosen tile ids (ascending) with the recomputed total error."""

    tile_ids: tuple[int, ...]
    error: int


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
    if error_mode not in ERROR_MODES:
        raise InputError(f"unknown error mode {error_mode!r}")
    rects, ones = _tile_masks(matrix, candidates)
    not_data = ~matrix._ones_mask
    target = matrix._ones_mask if error_mode == "full" else _union(ones)
    covered = 0
    current = target.bit_count()
    if current <= budget:
        return TileSelection((), current)
    remaining = sorted(range(len(candidates)), key=lambda i: candidates[i].tile_id)
    chosen: list[int] = []
    while remaining:
        best = None
        best_error = current
        for i in remaining:
            trial = covered | rects[i]
            e = (trial & not_data).bit_count() + (target & ~trial).bit_count()
            if e < best_error:
                best, best_error = i, e
        if best is None:
            return None
        chosen.append(candidates[best].tile_id)
        remaining.remove(best)
        covered |= rects[best]
        current = best_error
        if current <= budget:
            return TileSelection(tuple(sorted(chosen)), current)
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

    mode 'first' returns one admissible selection (the first in a
    deterministic exclude-before-include depth-first order, so small subsets
    surface early); 'all' returns every admissible selection in enumeration
    order; 'optimal' returns the minimum-error selection, ties broken by
    fewer tiles then lexicographic ids. Infeasible instances yield status
    "unsatisfiable" with no selections.

    Pruning uses a sound lower bound: zeros inside can only grow as tiles
    are added, and ones outside can only shrink to what the still-available
    tiles could cover, so a partial selection whose bound beats the budget
    dies with its whole subtree. The search keeps an explicit stack, so its
    depth (one level per candidate) does not touch the recursion limit.
    """
    if budget < 0:
        raise InputError("error budget must be nonnegative")
    if mode not in ("first", "all", "optimal"):
        raise InputError(f"unknown selection mode {mode!r}")
    if error_mode not in ERROR_MODES:
        raise InputError(f"unknown error mode {error_mode!r}")
    if len(candidates) > bound:
        raise BoundExceededError(
            f"exact selection over {len(candidates)} candidates exceeds bound {bound}"
        )
    rects, ones = _tile_masks(matrix, candidates)
    order = sorted(range(len(candidates)), key=lambda i: candidates[i].tile_id)
    ids = [candidates[i].tile_id for i in order]
    rects = [rects[i] for i in order]
    n = len(order)
    not_data = ~matrix._ones_mask
    target = matrix._ones_mask if error_mode == "full" else _union(ones)

    # Union of rectangles still available from position i on.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | rects[i]

    found: list[TileSelection] = []
    best: TileSelection | None = None
    # Pushing include before exclude pops the exclude branch first.
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), 0)]
    while stack:
        i, chosen_ids, covered = stack.pop()
        lower = (covered & not_data).bit_count() + (target & ~(covered | suffix[i])).bit_count()
        if lower > budget:
            continue
        if mode == "optimal" and best is not None and lower > best.error:
            continue
        if i < n:
            stack.append((i + 1, chosen_ids + (ids[i],), covered | rects[i]))
            stack.append((i + 1, chosen_ids, covered))
            continue
        if not chosen_ids:
            continue
        # At a leaf suffix[n] is empty, so the bound is the exact error.
        sel = TileSelection(chosen_ids, lower)
        if mode == "optimal":
            if best is None or (lower, len(chosen_ids), chosen_ids) < (
                best.error,
                len(best.tile_ids),
                best.tile_ids,
            ):
                best = sel
            continue
        found.append(sel)
        if mode == "first":
            break

    if mode == "optimal":
        found = [best] if best is not None else []
    return SelectionResult("ok", tuple(found)) if found else SelectionResult("unsatisfiable", ())
