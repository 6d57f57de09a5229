"""Tiling: matrices, tiles, error accounting, candidate generation, selection."""

import copy
import gc
import random
import weakref
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from siftmine import (
    BinaryMatrix,
    BoundExceededError,
    InputError,
    Itemset,
    SelectionResult,
    Tile,
    TileSelection,
    area,
    error,
    error_terms,
    exact_select,
    generate_candidates,
    greedy_select,
    load_tiles,
    tile_of,
    write_tiling,
)
from siftmine.oracle import (
    exact_selections_bruteforce,
    generate_candidates_bruteforce,
    greedy_select_bruteforce,
    tiling_error_bruteforce,
)
from siftmine.tiling import ERROR_MODES, _project


def decimal_tau(tau: float) -> Fraction:
    """A drawn float tau as the decimal it prints as, the way the CLI reads --tau."""
    return Fraction(str(tau))


def random_matrix(rng: random.Random, max_side=6) -> BinaryMatrix:
    rows = rng.randint(2, max_side)
    cols = rng.randint(2, max_side)
    return BinaryMatrix(
        tuple(tuple(rng.randint(0, 1) for _ in range(cols)) for _ in range(rows))
    )


def random_tiles(rng: random.Random, matrix: BinaryMatrix, count: int) -> list[Tile]:
    tiles = []
    for tid in range(1, count + 1):
        rs = frozenset(rng.sample(range(1, matrix.n_rows + 1), rng.randint(1, matrix.n_rows)))
        cs = frozenset(rng.sample(range(1, matrix.n_cols + 1), rng.randint(1, matrix.n_cols)))
        rect = {(r, c) for r in rs for c in cs}
        tiles.append(Tile(tid, rs, cs, frozenset(rect & matrix.ones)))
    return tiles


@st.composite
def small_matrices(draw, max_side=6):
    rows, cols = draw(
        st.one_of(
            st.tuples(st.just(1), st.integers(1, max_side)),
            st.tuples(st.integers(1, max_side), st.just(1)),
            st.tuples(st.integers(1, max_side), st.integers(1, max_side)),
        )
    )
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return BinaryMatrix(tuple(tuple(bits[r * cols : (r + 1) * cols]) for r in range(rows)))


@st.composite
def tiling_instances(draw, max_tiles=5):
    """(matrix, candidates, budget) with hand-made tiles in shuffled order.

    Tiles may carry a strict subset of their rectangle's data ones, repeat an
    earlier rectangle under another id, or be absent altogether; ids are
    unique but not contiguous. The budget is either arbitrary or exactly the
    error of the empty selection, which then already meets it.
    """
    m = draw(small_matrices())
    count = draw(st.integers(0, max_tiles))
    ids = draw(st.lists(st.integers(1, 40), min_size=count, max_size=count, unique=True))
    tiles: list[Tile] = []
    for tid in ids:
        if tiles and draw(st.integers(0, 3)) == 0:
            twin = draw(st.sampled_from(tiles))
            rows, cols = twin.row_set, twin.col_set
        else:
            rows = frozenset(draw(st.sets(st.integers(1, m.n_rows), min_size=1)))
            cols = frozenset(draw(st.sets(st.integers(1, m.n_cols), min_size=1)))
        hits = sorted((r, c) for r in rows for c in cols if m.cell(r, c))
        if hits and draw(st.booleans()):
            ones = frozenset(draw(st.sets(st.sampled_from(hits), max_size=len(hits) - 1)))
        else:
            ones = frozenset(hits)
        tiles.append(Tile(tid, rows, cols, ones))
    tiles = draw(st.permutations(tiles))
    if draw(st.booleans()):
        budget = draw(st.integers(0, m.n_rows * m.n_cols))
    else:
        budget = error(m, [], draw(st.sampled_from(ERROR_MODES)), tiles)
    return m, tiles, budget


def exclude_first_rank(ids: tuple[int, ...], all_ids: list[int]) -> int:
    """Position in exclude-before-include order: binary counting, lowest id most significant."""
    n = len(all_ids)
    return sum(1 << (n - 1 - all_ids.index(tid)) for tid in ids)


@st.composite
def candidate_matrices(draw):
    """Matrices with all-zero and duplicate columns mixed in."""
    rows = draw(st.integers(1, 8))
    columns: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy"]))
        if kind == "zero":
            columns.append((0,) * rows)
        elif kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(tuple(draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))))
    return BinaryMatrix(tuple(zip(*columns)))


@st.composite
def wide_candidate_matrices(draw):
    """Up to 70 rows and 40 columns, so a row's count reaches 6 counter levels.

    Zero and duplicate columns are mixed in. An optional all-ones row makes
    every column overlap every other, so a low tau puts all of them in each
    B_i; rows holding half of the columns, rounded down or up, then sit at
    and next to 2 * inside == width for odd and even widths alike.
    """
    rng = draw(st.randoms(use_true_random=False))  # thousands of cells are too many draws to shrink
    n_rows = draw(st.integers(1, 70))
    n_cols = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    columns: list[tuple[int, ...]] = []
    for _ in range(n_cols):
        kind = rng.choice(["random", "random", "random", "zero", "copy"])
        if kind == "zero":
            columns.append((0,) * n_rows)
        elif kind == "copy" and columns:
            columns.append(rng.choice(columns))
        else:
            columns.append(tuple(int(rng.random() < density) for _ in range(n_rows)))
    rows = [list(row) for row in zip(*columns)]
    if draw(st.booleans()):
        rows[0] = [1] * n_cols
        for r in range(1, n_rows):
            if rng.random() < 0.5:
                half = rng.choice([n_cols // 2, (n_cols + 1) // 2])
                rows[r] = [int(c < half) for c in rng.sample(range(n_cols), n_cols)]
    return BinaryMatrix(tuple(map(tuple, rows)))


@st.composite
def tie_heavy_instances(draw, max_tiles=10):
    """(matrix, candidates, budget) where many selections tie on error and on size.

    The matrix has copied and all-zero columns; candidates repeat earlier
    rectangles under other ids, or take a rectangle over a copied column in
    place of its original, so equal errors arise from different id sets.
    Every tile holds its rectangle's data ones. The budget admits every
    selection, equals the empty selection's full-mode error, or is drawn
    freely.
    """
    m = draw(candidate_matrices())
    twins = {c: [d for d in range(1, m.n_cols + 1) if m.col_masks[d - 1] == m.col_masks[c - 1]]
             for c in range(1, m.n_cols + 1)}
    ids = draw(st.permutations(range(1, max_tiles + 1)))[: draw(st.integers(1, max_tiles))]
    tiles: list[Tile] = []
    for tid in ids:
        kind = draw(st.sampled_from(["new", "repeat", "twin"])) if tiles else "new"
        if kind == "new":
            rows = frozenset(draw(st.sets(st.integers(1, m.n_rows), min_size=1)))
            cols = frozenset(draw(st.sets(st.integers(1, m.n_cols), min_size=1)))
        else:
            twin = draw(st.sampled_from(tiles))
            rows, cols = twin.row_set, twin.col_set
            if kind == "twin":
                c = draw(st.sampled_from(sorted(cols)))
                cols = cols - {c} | {draw(st.sampled_from(twins[c]))}
        tiles.append(Tile(tid, rows, cols, frozenset((r, c) for r in rows for c in cols if m.cell(r, c))))
    budget = draw(st.one_of(
        st.just(m.n_rows * m.n_cols),
        st.just(error(m, [], "full", tiles)),
        st.integers(0, m.n_rows * m.n_cols),
    ))
    return m, tiles, budget


def assert_exact_modes_match_bruteforce(m, cands, budget, error_mode):
    """first, all and optimal against the enumeration of every subset."""
    want = exact_selections_bruteforce(m, cands, budget, error_mode)
    all_ids = sorted(t.tile_id for t in cands)
    results = {
        mode: exact_select(m, cands, budget, mode=mode, error_mode=error_mode)
        for mode in ("first", "all", "optimal")
    }
    if not want:
        assert all(r == SelectionResult("unsatisfiable", ()) for r in results.values())
        return
    in_order = sorted(want, key=lambda w: exclude_first_rank(w[0], all_ids))
    assert [(s.tile_ids, s.error) for s in results["all"].selections] == in_order
    assert [(s.tile_ids, s.error) for s in results["first"].selections] == in_order[:1]
    best = min(want, key=lambda w: (w[1], len(w[0]), w[0]))
    assert [(s.tile_ids, s.error) for s in results["optimal"].selections] == [best]
    # each selection carries the oracle's two terms, not only their sum
    by_id = {t.tile_id: t for t in cands}
    for result in results.values():
        for s in result.selections:
            assert (s.ones_outside, s.zeros_inside) == true_terms(m, [by_id[i] for i in s.tile_ids], error_mode, cands)


def true_terms(m, subset, error_mode, universe):
    """(ones outside, zeros inside) from the cell-by-cell oracle.

    With an empty universe the coverable error counts no ones outside, so
    it is the zeros inside alone.
    """
    zeros_inside = tiling_error_bruteforce(m, subset, "coverable", [])
    return tiling_error_bruteforce(m, subset, error_mode, universe) - zeros_inside, zeros_inside


class TestBinaryMatrix:
    def test_shape_and_ones(self, tiling):
        m = tiling.matrix
        assert (m.n_rows, m.n_cols) == (3, 3)
        assert m.cell(1, 1) == 1 and m.cell(1, 3) == 0
        assert m.ones == frozenset(
            {(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)}
        )

    def test_rejections(self):
        with pytest.raises(InputError):
            BinaryMatrix(())
        with pytest.raises(InputError):
            BinaryMatrix(((1, 0), (1,)))
        with pytest.raises(InputError):
            BinaryMatrix(((1, 2),))

    def test_cells_equal_to_0_or_1_read_as_ints(self):
        ints = BinaryMatrix(((1, 0, 1), (0, 1, 1)))
        for ones, zero in ((True, False), (1.0, 0.0), (Fraction(1), Fraction(0))):
            m = BinaryMatrix(((ones, zero, ones), (zero, ones, 1)))
            assert m == ints
            assert all(type(v) in (int, bool) for row in m.cells for v in row)
            assert m.col_masks == ints.col_masks == (0b01, 0b10, 0b11)
            assert m.ones == ints.ones
            assert generate_candidates(m, Fraction(1, 2)) == generate_candidates(ints, Fraction(1, 2))
            cands = generate_candidates(m, 1)
            assert greedy_select(m, cands, 0, "full") == greedy_select(ints, cands, 0, "full")

    @pytest.mark.parametrize("cell", [2, -1, 256, 0.5, "1", None, 1j + 1])
    def test_other_cells_rejected_as_input_errors(self, cell):
        with pytest.raises(InputError, match="row 2 contains a non-binary cell"):
            BinaryMatrix(((1, 0), (cell, 1)))

    def test_string_row_rejected(self):
        with pytest.raises(InputError, match="row 1 contains a non-binary cell"):
            BinaryMatrix(("01",))


class TestProvedMatrix:
    """BinaryMatrix._proved, the loader's constructor, builds the matrix the checked constructor does."""

    @staticmethod
    def check(m: BinaryMatrix) -> None:
        proved = BinaryMatrix._proved([bytes(row) for row in m.cells])
        assert (proved.n_rows, proved.n_cols, proved.col_masks) == (m.n_rows, m.n_cols, m.col_masks)
        unread = copy.copy(proved)
        assert "cells" not in proved.__dict__ and "cells" not in unread.__dict__  # built on first read
        assert proved.cells == m.cells and "cells" in proved.__dict__
        cells = product(range(1, m.n_rows + 1), range(1, m.n_cols + 1))
        assert [proved.cell(r, c) for r, c in cells] == list(chain.from_iterable(m.cells))
        assert proved.ones == m.ones
        for twin in (proved, unread, copy.copy(proved)):
            assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m) and twin.cells == m.cells
        assert m.col_masks == tuple(sum(row[c] << r for r, row in enumerate(m.cells)) for c in range(m.n_cols))

    @settings(max_examples=200, deadline=None)
    @given(m=small_matrices(max_side=9))
    def test_equals_checked_matrix(self, m):
        self.check(m)

    @pytest.mark.parametrize("shape", [(1, 70), (70, 1), (65, 9), (9, 65), (435, 48)])
    def test_wide_and_tall(self, shape):
        rng = random.Random(sum(shape))
        n_rows, n_cols = shape
        self.check(BinaryMatrix(tuple(tuple(rng.randint(0, 1) for _ in range(n_cols)) for _ in range(n_rows))))


class TestTile:
    def test_invariants(self, tiling):
        with pytest.raises(InputError):
            Tile(1, frozenset(), frozenset({1}), frozenset())
        with pytest.raises(InputError):
            Tile(1, frozenset({1}), frozenset({1}), frozenset({(2, 1)}))
        t = tiling.tiles[0]
        assert t.rectangle == frozenset({(r, c) for r in (1, 2) for c in (1, 2, 3)})


class TestTileOf:
    def test_transaction_tile(self, toy_items):
        f = toy_items
        t = tile_of(f.db, Itemset.of(f.itemset_ids("be")))
        b, e = f.ids["b"], f.ids["e"]
        assert t.ones == frozenset({(1, b), (1, e), (2, b), (2, e)})
        assert area([t]) == 4

    def test_single_item_tile(self, toy_items):
        f = toy_items
        t = tile_of(f.db, Itemset.of(f.itemset_ids("e")))
        assert t.row_set == frozenset({1, 2, 3})
        assert t.col_set == frozenset({f.ids["e"]})

    def test_matrix_tile(self, tiling):
        t = tile_of(tiling.matrix, Itemset.of((1,)))
        assert t.row_set == frozenset({1, 2})  # rows with col 1 set
        assert t.ones == frozenset({(1, 1), (2, 1)})

    def test_empty_cover_rejected(self, tiling):
        # no row has all three columns set
        with pytest.raises(InputError):
            tile_of(tiling.matrix, Itemset.of((1, 2, 3)))

    def test_out_of_range_column(self, tiling):
        with pytest.raises(InputError):
            tile_of(tiling.matrix, Itemset.of((9,)))


class TestArea:
    def test_union_semantics(self, tiling):
        t1, t2, t3 = tiling.tiles
        assert area([t1]) == 4
        assert area([t1, t1]) == area([t1])  # idempotent union
        assert area([t1, t2, t3]) == 6  # all data ones covered
        assert area([]) == 0


class TestErrorAccounting:
    def test_full_mode_worked_example(self, tiling):
        assert error(tiling.matrix, tiling.tiles, mode="full") == 3
        outside, inside = error_terms(tiling.matrix, tiling.tiles, "full")
        assert (outside, inside) == (0, 3)

    def test_empty_tiling_full_error_is_ones_count(self, tiling):
        assert error(tiling.matrix, [], mode="full") == 6

    def test_coverable_mode_discounts_unreachable_ones(self, tiling):
        # only tile 2 as candidate universe: it reaches ones (2,1) and (3,2)
        t2 = tiling.tiles[1]
        e = error(tiling.matrix, [], mode="coverable", candidates=[t2])
        assert e == 2
        full = error(tiling.matrix, [t2], mode="full")
        cov = error(tiling.matrix, [t2], mode="coverable", candidates=[t2])
        uncoverable = len(tiling.matrix.ones - t2.ones)
        assert cov + uncoverable == full

    def test_error_mode_default_is_coverable(self, tiling):
        t2 = tiling.tiles[1]
        assert error(tiling.matrix, [t2], candidates=[t2]) == error(
            tiling.matrix, [t2], mode="coverable", candidates=[t2]
        )

    def test_unknown_mode(self, tiling):
        with pytest.raises(InputError):
            error(tiling.matrix, [], mode="bogus")

    def test_full_error_is_hamming_distance(self):
        # cell-by-cell: error(full) == |data XOR tiling| on 3x3..6x6 matrices
        rng = random.Random(1234)
        for _ in range(60):
            m = random_matrix(rng)
            tiles = random_tiles(rng, m, rng.randint(0, 4))
            covered = set()
            for t in tiles:
                covered |= t.rectangle
            hamming = sum(
                1
                for r in range(1, m.n_rows + 1)
                for c in range(1, m.n_cols + 1)
                if ((r, c) in covered) != (m.cell(r, c) == 1)
            )
            assert error(m, tiles, mode="full") == hamming
            assert tiling_error_bruteforce(m, tiles, "full", tiles) == hamming

    def test_coverable_plus_uncoverable_equals_full(self):
        rng = random.Random(77)
        for _ in range(60):
            m = random_matrix(rng)
            cands = random_tiles(rng, m, rng.randint(1, 4))
            chosen = [t for t in cands if rng.random() < 0.5]
            reachable = set()
            for t in cands:
                reachable |= t.ones
            uncoverable = len(m.ones - reachable)
            full = error(m, chosen, mode="full")
            cov = error(m, chosen, mode="coverable", candidates=cands)
            assert cov + uncoverable == full

    def test_foreign_tile_rejected(self, tiling):
        alien = Tile(9, frozenset({1}), frozenset({3}), frozenset({(1, 3)}))
        with pytest.raises(InputError, match="tile 9 marks cells that are 0 in the matrix"):
            error(tiling.matrix, [alien], mode="full")

    def test_tile_outside_matrix_rejected(self, tiling):
        # a column past the edge would alias another cell's bit
        wide = Tile(5, frozenset({1}), frozenset({1, 4}), frozenset({(1, 1)}))
        with pytest.raises(InputError, match="tile 5 reaches outside the 3x3 matrix"):
            error(tiling.matrix, [wide], mode="full")
        past = Tile(6, frozenset({4}), frozenset({1}), frozenset({(4, 1)}))
        with pytest.raises(InputError, match="tile 6 marks cells that are 0 in the matrix"):
            greedy_select(tiling.matrix, [past], 0)

    @pytest.mark.parametrize(
        "score",
        [
            lambda m, tiles: error(m, tiles, mode="full"),
            lambda m, tiles: greedy_select(m, tiles, 0),
            lambda m, tiles: exact_select(m, tiles, 0),
        ],
        ids=["error", "greedy", "exact"],
    )
    def test_rows_and_columns_outside_rejected(self, tiling, toy_items, score):
        # a row past the edge has no ones, yet its cells would count as zeros
        with pytest.raises(InputError, match="tile 2 reaches outside the 3x3 matrix"):
            score(tiling.matrix, [Tile(2, frozenset({1, 4}), frozenset({1}), frozenset({(1, 1)}))])
        # no mask bit stands for a row or column below 1
        with pytest.raises(InputError, match="tile 1 reaches outside the 3x3 matrix"):
            score(tiling.matrix, [Tile(1, frozenset({0}), frozenset({1}), frozenset())])
        below = Tile(3, frozenset({-1}), frozenset({1}), frozenset({(-1, 1)}))
        assert below.n_ones == 1
        with pytest.raises(InputError, match="tile 3 marks cells that are 0 in the matrix"):
            score(tiling.matrix, [below])
        items = tile_of(toy_items.db, Itemset.of(toy_items.itemset_ids("ae")), 4)
        assert min(items.col_set) == 0  # item ids are 0-based
        with pytest.raises(InputError, match="tile 4 marks cells that are 0 in the matrix"):
            score(tiling.matrix, [items])


class TestGenerateCandidates:
    def test_all_columns_merge_at_low_tau(self, tiling):
        cands = generate_candidates(tiling.matrix, Fraction(1, 2))
        assert len(cands) == 1
        t = cands[0]
        assert t.row_set == frozenset({1, 2, 3})
        assert t.col_set == frozenset({1, 2, 3})
        assert t.tile_id == 1

    def test_single_columns_at_tau_one(self, tiling):
        cands = generate_candidates(tiling.matrix, 1)
        got = sorted((sorted(t.col_set), sorted(t.row_set)) for t in cands)
        assert got == [([1], [1, 2]), ([2], [1, 3]), ([3], [2, 3])]
        assert [t.tile_id for t in cands] == [1, 2, 3]

    def test_column_with_e_on_items_matrix(self, toy_items):
        # transaction fixture as a matrix: col 5 (e) is in every row
        m = BinaryMatrix((
            (1, 1, 0, 1, 1),
            (0, 1, 1, 0, 1),
            (1, 0, 0, 0, 1),
        ))
        cands = generate_candidates(m, 1)
        assert any(t.col_set >= {5} and t.row_set == {1, 2, 3} for t in cands)

    def test_invariants_and_dedup(self):
        rng = random.Random(555)
        for _ in range(40):
            m = random_matrix(rng)
            tau = Fraction(rng.choice(["0.3", "0.5", "0.8", "1"]))
            cands = generate_candidates(m, tau)
            seen = set()
            for t in cands:
                assert t.ones <= m.ones
                assert t.ones == frozenset(t.rectangle & m.ones)
                key = (t.row_set, t.col_set)
                assert key not in seen
                seen.add(key)
            assert [t.tile_id for t in cands] == list(range(1, len(cands) + 1))
            areas = [len(t.ones) for t in cands]
            assert areas == sorted(areas, reverse=True)

    @settings(max_examples=300, deadline=None)
    @given(
        m=candidate_matrices(),
        tau=st.one_of(
            st.sampled_from([1, 1.0, 1e-9, 0.001, 0.28, 0.35, 0.5, 0.56, 0.8, 2 / 3]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        ).map(decimal_tau),
        max_candidates=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_equals_bruteforce(self, m, tau, max_candidates):
        assert generate_candidates(m, tau, max_candidates) == generate_candidates_bruteforce(
            m, tau, max_candidates
        )

    # Shrinking a 70x40 example through the oracle takes minutes; the
    # narrow test above shrinks well, so this one reports what it drew.
    @settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        m=wide_candidate_matrices(),
        tau=st.one_of(
            st.sampled_from([1e-9, 0.05, 0.3, 0.5, 0.8, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        ).map(decimal_tau),
        max_candidates=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_equals_bruteforce_on_wide_matrices(self, m, tau, max_candidates):
        assert generate_candidates(m, tau, max_candidates) == generate_candidates_bruteforce(
            m, tau, max_candidates
        )

    @pytest.mark.parametrize("width", [1, 2, 5, 6, 31, 32, 33, 40])
    def test_rows_at_half_of_b(self, width):
        # Row 1 is all ones, so at tau 1e-9 every B_i is every column; row
        # 2 + k holds k ones and is kept exactly when 2 * k >= width.
        rows = [(1,) * width] + [(1,) * k + (0,) * (width - k) for k in range(width + 1)]
        m = BinaryMatrix(tuple(rows))
        (tile,) = generate_candidates(m, Fraction("1e-9"))
        assert tile.col_set == frozenset(range(1, width + 1))
        assert tile.row_set == frozenset([1] + [2 + k for k in range(width + 1) if 2 * k >= width])
        assert [tile] == generate_candidates_bruteforce(m, Fraction("1e-9"))

    def test_confidence_is_exact_decimal(self):
        # conf(1=>2) = 7/25 = 0.28 exactly, but 0.28 * 25 rounds above 7 in floats
        m = BinaryMatrix(tuple((1, int(r < 7)) for r in range(25)))
        cands = generate_candidates(m, Fraction("0.28"))
        assert cands == generate_candidates_bruteforce(m, Fraction("0.28"))
        assert any(t.col_set == {1, 2} for t in cands)

    def test_tau_is_exact(self):
        # conf(1=>2) = 7/25: a tau a hair above it drops column 2 from B_1, a hair below keeps it
        m = BinaryMatrix(tuple((1, int(r < 7)) for r in range(25)))
        hair = Fraction(1, 10**20)
        above, below = generate_candidates(m, Fraction(7, 25) + hair), generate_candidates(m, Fraction(7, 25) - hair)
        assert [t.col_set for t in above] == [{1, 2}, {1}] and below == generate_candidates(m, Fraction("0.28"))
        assert above == generate_candidates_bruteforce(m, Fraction(7, 25) + hair)

    def test_max_candidates_truncates(self, tiling):
        cands = generate_candidates(tiling.matrix, 1, max_candidates=2)
        assert len(cands) == 2
        assert [t.tile_id for t in cands] == [1, 2]

    def test_parameter_validation(self, tiling):
        with pytest.raises(InputError):
            generate_candidates(tiling.matrix, 0)
        with pytest.raises(InputError):
            generate_candidates(tiling.matrix, Fraction(3, 2))
        with pytest.raises(InputError):
            generate_candidates(tiling.matrix, Fraction(1, 2), max_candidates=0)


def checked_twins(m: BinaryMatrix, tiles: list[Tile]) -> list[Tile]:
    """Each tile rebuilt through the public, checked constructor, its ones listed from the matrix."""
    return [Tile(t.tile_id, t.row_set, t.col_set, t.rectangle & m.ones) for t in tiles]


def data_ones(m: BinaryMatrix) -> int:
    return sum(mask.bit_count() for mask in m.col_masks)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cut-reports")


class TestCutTiles:
    """Tiles cut from a matrix are masks, hold no matrix, and build their ones only when read."""

    def assert_cut_equals_checked(self, m, cands, share, out_dir):
        twins = checked_twins(m, cands)
        # the stored count, read before the cut tiles build their ones
        assert [t.n_ones for t in cands] == [len(t.ones) for t in twins]
        few = len(cands) // 2
        budget = int(share * data_ones(m))
        for mode in ERROR_MODES:
            assert _project(m, mode, cands) == _project(m, mode, twins)
            assert _project(m, mode, cands[:few], cands) == _project(m, mode, twins[:few], twins)
            assert greedy_select(m, cands, budget, mode) == greedy_select(m, twins, budget, mode)
            result = exact_select(m, cands[:6], budget, "all", mode)
            assert result == exact_select(m, twins[:6], budget, "all", mode)
            for name, tiles in (("cut", cands), ("twin", twins)):
                write_tiling(out_dir / name, tiles, "all", mode, budget, result.status, result.selections)
            report = (out_dir / "cut").read_text()
            assert report == (out_dir / "twin").read_text()
            # the selections are of cands[:6], the report lists every candidate: the terms are still their own
            for line in report.splitlines():
                if line.startswith("selection="):
                    fields = dict(field.split("=") for field in line.split())
                    assert int(fields["ones_outside"]) + int(fields["zeros_inside"]) == int(fields["error"]), line
        assert cands == twins
        assert list(map(hash, cands)) == list(map(hash, twins))
        assert [t.ones for t in cands] == [t.ones for t in twins]

    @settings(max_examples=200, deadline=None)
    @given(
        m=candidate_matrices(),
        tau=st.sampled_from([1e-9, 0.3, 0.5, 0.8, 1.0]).map(decimal_tau),
        share=st.sampled_from([0, 0.25, 0.5]),
    )
    def test_equal_checked_twins(self, m, tau, share, report_dir):
        self.assert_cut_equals_checked(m, generate_candidates(m, tau), share, report_dir)

    @settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        m=wide_candidate_matrices(),
        tau=st.sampled_from([1e-9, 0.3, 0.5, 0.8, 1.0]).map(decimal_tau),
        share=st.sampled_from([0, 0.25, 0.5]),
    )
    def test_equal_checked_twins_on_wide_matrices(self, m, tau, share, report_dir):
        self.assert_cut_equals_checked(m, generate_candidates(m, tau), share, report_dir)

    def test_loaded_and_itemset_tiles_equal_checked_twins(self, tiling, tmp_path):
        m = tiling.matrix
        (tmp_path / "tiles.txt").write_text("rows=1,2 cols=1,2,3\nrows=3,3 cols=1\n", encoding="utf-8")
        loaded = load_tiles(tmp_path / "tiles.txt", m)
        assert [t.n_ones for t in loaded] == [4, 0]
        assert loaded == checked_twins(m, loaded)
        of_items = [tile_of(m, Itemset.of(cols), tid) for tid, cols in enumerate([(1,), (2,), (1, 2)], 1)]
        assert [t.n_ones for t in of_items] == [2, 2, 2]
        assert of_items == checked_twins(m, of_items)

    def test_scored_by_identity_of_the_matrix(self):
        rng = random.Random(31)
        a = BinaryMatrix(tuple(tuple(int(rng.random() < 0.6) for _ in range(9)) for _ in range(14)))
        cands = generate_candidates(a, Fraction("0.6"))
        budget = data_ones(a) // 3
        # an equal-content copy is another object: its tiles are checked and score the same
        copy = BinaryMatrix(a.cells)
        assert copy == a and copy is not a
        for mode in ERROR_MODES:
            assert _project(copy, mode, cands) == _project(a, mode, cands)
            assert greedy_select(copy, cands, budget, mode) == greedy_select(a, cands, budget, mode)
            assert exact_select(copy, cands[:8], budget, "all", mode) == exact_select(a, cands[:8], budget, "all", mode)
        assert "ones" not in copy.__dict__  # the tiles were checked on the copy's column masks
        # a matrix with a 0 inside the rectangle, where a has a one
        t = cands[-1]
        r, c = min(t.ones)
        cells = [list(row) for row in a.cells]
        cells[r - 1][c - 1] = 0
        holed = BinaryMatrix(tuple(map(tuple, cells)))
        with pytest.raises(InputError, match=f"tile {t.tile_id} marks cells that are 0 in the matrix"):
            error(holed, [t], mode="full")
        with pytest.raises(InputError, match="marks cells that are 0 in the matrix"):
            greedy_select(holed, cands, budget, "coverable")

    def test_tiles_hold_no_matrix(self, tiling):
        rng = random.Random(7)
        m = BinaryMatrix(tuple(tuple(int(rng.random() < 0.5) for _ in range(8)) for _ in range(20)))
        ref = weakref.ref(m)
        cands = generate_candidates(m, Fraction(1, 2))
        del m
        gc.collect()
        assert ref() is None
        assert cands and all(t.n_ones == len(t.ones) for t in cands)
        # hand-made tiles are checked on the matrix's column masks, not on its set of ones
        fresh = BinaryMatrix(tiling.matrix.cells)
        assert greedy_select(fresh, tiling.tiles, 3, "full") == TileSelection((1, 3), 0, 2)
        assert "ones" not in fresh.__dict__

    def test_pipeline_builds_no_set_of_cells(self, tmp_path):
        rng = random.Random(5)
        m = BinaryMatrix(tuple(tuple(int(rng.random() < 0.5) for _ in range(10)) for _ in range(30)))
        cands = generate_candidates(m, Fraction(1, 2))
        budget = data_ones(m) // 2
        assert 1 < len(cands) <= 20
        greedy_select(m, cands, budget, "full")
        result = exact_select(m, cands, budget, "optimal")
        write_tiling(tmp_path / "report.txt", cands, "optimal", "coverable", budget, result.status, result.selections)
        assert "ones" not in m.__dict__
        assert not any("ones" in t.__dict__ for t in cands)


class TestGreedySelect:
    def test_worked_example(self, tiling):
        sel = greedy_select(tiling.matrix, tiling.tiles, 3, error_mode="full")
        assert sel.tile_ids == (1, 3)
        assert sel.error == 2

    def test_zero_budget_fails_here(self, tiling):
        assert greedy_select(tiling.matrix, tiling.tiles, 0, error_mode="full") is None

    def test_empty_selection_when_budget_already_met(self, tiling):
        sel = greedy_select(tiling.matrix, tiling.tiles, 6, error_mode="full")
        assert sel.tile_ids == ()
        assert sel.error == 6

    def test_tie_breaks_lowest_id(self, tiling):
        # duplicate tile under two ids: the lower id must win
        twin_a = tiling.make_tile(1, {1, 2}, {1, 2, 3})
        twin_b = tiling.make_tile(2, {1, 2}, {1, 2, 3})
        sel = greedy_select(tiling.matrix, [twin_b, twin_a], 4, error_mode="full")
        assert sel.tile_ids == (1,)

    def test_negative_budget_rejected(self, tiling):
        with pytest.raises(InputError):
            greedy_select(tiling.matrix, tiling.tiles, -1)

    @pytest.mark.parametrize("error_mode", ERROR_MODES)
    @settings(max_examples=300, deadline=None)
    @given(inst=tiling_instances())
    def test_equals_bruteforce(self, error_mode, inst):
        m, cands, budget = inst
        got = greedy_select(m, cands, budget, error_mode=error_mode)
        want = greedy_select_bruteforce(m, cands, budget, error_mode)
        assert (None if got is None else (got.tile_ids, got.error)) == want
        if got is not None:
            chosen = [t for t in cands if t.tile_id in got.tile_ids]
            assert (got.ones_outside, got.zeros_inside) == true_terms(m, chosen, error_mode, cands)

    def test_greedy_never_beats_optimal(self):
        rng = random.Random(9009)
        for _ in range(80):
            m = random_matrix(rng, max_side=5)
            cands = random_tiles(rng, m, rng.randint(1, 5))
            budget = rng.randint(0, 6)
            mode = rng.choice(["full", "coverable"])
            g = greedy_select(m, cands, budget, error_mode=mode)
            if g is None:
                continue
            opt = exact_select(m, cands, budget, mode="optimal", error_mode=mode)
            if g.tile_ids == ():
                # empty selection is outside the exact search space
                assert g.error <= budget
                continue
            assert opt.status == "ok"
            assert g.error >= opt.selections[0].error


class TestExactSelect:
    def test_worked_example_all_modes(self, tiling):
        res = exact_select(tiling.matrix, tiling.tiles, 3, mode="all", error_mode="full")
        assert res.status == "ok"
        assert {(s.tile_ids, s.error) for s in res.selections} == {
            ((1, 3), 2),
            ((1, 2, 3), 3),
        }
        opt = exact_select(tiling.matrix, tiling.tiles, 3, mode="optimal", error_mode="full")
        assert opt.selections[0].tile_ids == (1, 3)
        assert opt.selections[0].error == 2
        first = exact_select(tiling.matrix, tiling.tiles, 3, mode="first", error_mode="full")
        assert len(first.selections) == 1
        assert first.selections[0].error <= 3

    def test_unsatisfiable(self, tiling):
        res = exact_select(tiling.matrix, tiling.tiles, 0, mode="all", error_mode="full")
        assert res.status == "unsatisfiable"
        assert res.selections == ()

    def test_empty_selection_excluded(self, tiling):
        # budget 6 admits the empty set, but exact modes must pick >= 1 tile
        res = exact_select(tiling.matrix, tiling.tiles, 6, mode="all", error_mode="full")
        assert all(len(s.tile_ids) >= 1 for s in res.selections)

    def test_bound_enforced(self, tiling):
        with pytest.raises(BoundExceededError):
            exact_select(tiling.matrix, tiling.tiles, 3, bound=2)

    def test_validation(self, tiling):
        with pytest.raises(InputError):
            exact_select(tiling.matrix, tiling.tiles, -1)
        with pytest.raises(InputError):
            exact_select(tiling.matrix, tiling.tiles, 3, mode="bogus")
        with pytest.raises(InputError):
            exact_select(tiling.matrix, tiling.tiles, 3, error_mode="bogus")

    def test_all_equals_bruteforce_seeded(self):
        rng = random.Random(40400)
        for trial in range(60):
            m = random_matrix(rng, max_side=5)
            cands = random_tiles(rng, m, rng.randint(1, 6))
            budget = rng.randint(0, 8)
            emode = rng.choice(["full", "coverable"])
            res = exact_select(m, cands, budget, mode="all", error_mode=emode)
            want = exact_selections_bruteforce(m, cands, budget, emode)
            got = {(s.tile_ids, s.error) for s in res.selections}
            assert got == {(tuple(sorted(ids)), e) for ids, e in want}, trial
            if want:
                opt = exact_select(m, cands, budget, mode="optimal", error_mode=emode)
                assert opt.selections[0].error == min(e for _, e in want)

    @pytest.mark.parametrize("error_mode", ERROR_MODES)
    @settings(max_examples=200, deadline=None)
    @given(inst=tiling_instances(max_tiles=6))
    def test_modes_and_error_terms_equal_bruteforce(self, error_mode, inst):
        m, cands, budget = inst
        for k in range(len(cands) + 1):
            for subset in combinations(cands, k):
                for universe in (cands, None):
                    outside, inside = error_terms(m, list(subset), error_mode, universe)
                    truth = tiling_error_bruteforce(m, list(subset), error_mode, universe)
                    assert outside + inside == truth
        assert_exact_modes_match_bruteforce(m, cands, budget, error_mode)

    def test_optimal_tiebreak_fewer_tiles_then_ids(self, tiling):
        # two copies of the best pair: optimal must report (1, 3), never (1, 4)
        t4 = tiling.make_tile(4, {2, 3}, {2, 3})
        res = exact_select(
            tiling.matrix, tiling.tiles + [t4], 3, mode="optimal", error_mode="full"
        )
        assert res.selections[0].tile_ids == (1, 3)

    @pytest.mark.parametrize("error_mode", ERROR_MODES)
    @settings(max_examples=40, deadline=None)
    @given(inst=tie_heavy_instances())
    def test_modes_on_tie_heavy_instances(self, error_mode, inst):
        # optimal may take either branch first, first and all take exclude first: all against the oracle
        m, cands, budget = inst
        assert_exact_modes_match_bruteforce(m, cands, budget, error_mode)

    def test_first_mode_deterministic(self, tiling):
        a = exact_select(tiling.matrix, tiling.tiles, 3, mode="first", error_mode="full")
        b = exact_select(tiling.matrix, tiling.tiles, 3, mode="first", error_mode="full")
        assert a == b


def _edge_instances():
    """(matrix, candidates) where the constant term or an edge shows."""
    corner = BinaryMatrix(((1, 1, 0, 0), (1, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0)))
    one, zero = BinaryMatrix(((1,),)), BinaryMatrix(((0,),))
    zeros = BinaryMatrix(((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))

    def tile(m, tid, rows, cols):
        ones = frozenset((r, c) for r in rows for c in cols if m.cell(r, c))
        return Tile(tid, frozenset(rows), frozenset(cols), ones)

    return [
        # ones at (2, 4), (3, 3), (3, 4), (4, 2), (4, 3) lie outside every rectangle
        pytest.param(corner, [tile(corner, 1, {1, 2}, {1, 2}), tile(corner, 2, {1}, {1, 2, 3})], id="ones-outside"),
        pytest.param(corner, [], id="no-candidates"),
        pytest.param(one, [tile(one, 1, {1}, {1})], id="1x1-one"),
        pytest.param(zero, [tile(zero, 1, {1}, {1})], id="1x1-zero"),
        pytest.param(one, [], id="1x1-no-candidates"),
        pytest.param(zeros, [tile(zeros, 1, {1, 2}, {2, 3}), tile(zeros, 2, {3}, {1, 2, 3, 4})], id="all-zero"),
        pytest.param(zeros, [], id="all-zero-no-candidates"),
    ]


class TestConstantTermAndEdges:
    @pytest.mark.parametrize("error_mode", ERROR_MODES)
    @pytest.mark.parametrize("m,cands", _edge_instances())
    def test_selectors_terms_and_report_equal_bruteforce(self, m, cands, error_mode, tmp_path):
        subsets = [list(sub) for k in range(len(cands) + 1) for sub in combinations(cands, k)]
        for sub in subsets:
            for universe in (cands, None):
                truth = true_terms(m, sub, error_mode, sub if universe is None else universe)
                assert error_terms(m, sub, error_mode, universe) == truth
        by_id = {t.tile_id: t for t in cands}
        out = tmp_path / "report.txt"
        for budget in range(m.n_rows * m.n_cols + 1):
            got = greedy_select(m, cands, budget, error_mode)
            want = greedy_select_bruteforce(m, cands, budget, error_mode)
            assert (None if got is None else (got.tile_ids, got.error)) == want
            assert_exact_modes_match_bruteforce(m, cands, budget, error_mode)
            sels = [] if got is None else [got]
            for mode in ("first", "all", "optimal"):
                sels += exact_select(m, cands, budget, mode, error_mode).selections
            # each selector's own terms are the oracle's, against its candidates
            terms = [(sel.ones_outside, sel.zeros_inside) for sel in sels]
            assert terms == [true_terms(m, [by_id[i] for i in sel.tile_ids], error_mode, cands) for sel in sels]
            # and the report prints exactly those terms
            write_tiling(out, cands, "all", error_mode, budget, "ok", sels)
            reported = [
                dict(field.split("=") for field in line.split())
                for line in out.read_text().splitlines()
                if line.startswith("selection=")
            ]
            assert [(int(f["ones_outside"]), int(f["zeros_inside"])) for f in reported] == terms
