"""Itemset miner: worked-example values, threshold semantics, oracle equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import InputError, MinSupport, TransactionDB, SymbolTable, mine_frequent_itemsets
from siftmine.oracle import frequent_itemsets_bruteforce

from helpers import canonical_records, random_transactions


class TestMinSupport:
    def test_parse_absolute(self):
        m = MinSupport.parse("2")
        assert m.kind == "absolute"
        assert m.effective(3) == 2
        assert m.effective(100) == 2

    def test_parse_relative(self):
        m = MinSupport.parse("0.5")
        assert m.kind == "relative"
        assert m.effective(3) == 2  # ceil(1.5)
        assert m.effective(4) == 2

    def test_relative_exact_arithmetic(self):
        # 0.1 * 30 must be exactly 3, not a float hair above it
        assert MinSupport.parse("0.1").effective(30) == 3
        assert MinSupport.parse("0.3").effective(435) == 131

    # A relative threshold is read exactly; through a float, the first would
    # round to 0.5 (threshold 1 on 2 entries), the second to 1.0 (accepted),
    # and the third to 0.0 (rejected as out of range).
    def test_relative_digits_past_float_precision_count(self):
        assert MinSupport.parse("0.5000000000000000001").effective(2) == 2

    def test_relative_just_above_one_is_rejected(self):
        with pytest.raises(InputError, match=r"relative minimum support must lie in \(0, 1\]"):
            MinSupport.parse("1.0000000000000000001")

    def test_relative_below_float_range_is_positive(self):
        m = MinSupport.parse("0." + "0" * 400 + "1")
        assert m.kind == "relative"
        assert m.effective(2) == 1

    def test_floor_of_one(self):
        assert MinSupport.relative(0.001).effective(10) == 1

    def test_rejects(self):
        with pytest.raises(InputError):
            MinSupport.absolute(0)
        with pytest.raises(InputError):
            MinSupport.parse("abc")
        with pytest.raises(InputError):
            MinSupport.parse("1.5")
        with pytest.raises(InputError):
            MinSupport.parse("-1")
        with pytest.raises(InputError):
            MinSupport.relative(0.0)
        with pytest.raises(InputError):
            MinSupport.relative(1.1)
        # int() and float() read or strip these; a threshold is ASCII digits with at most one point
        for text in ("1_0", "0.5_0", "\u0661", "\u0660.\u0665", "\uff11", "2\u00a0", "+3", " 3", "3\n", "1e0", "5e-1",
                     "-1", "-0.5", ".", "1.2.3"):
            with pytest.raises(InputError, match="cannot parse minimum support"):
                MinSupport.parse(text)


class TestWorkedExample:
    def test_sigma_2_exact(self, toy_items):
        f = toy_items
        recs = mine_frequent_itemsets(f.db, MinSupport.absolute(2))
        got = {f.labels_of(r.pattern): (r.support, tuple(sorted(r.cover))) for r in recs}
        assert got == {
            ("a",): (2, (1, 3)),
            ("b",): (2, (1, 2)),
            ("e",): (3, (1, 2, 3)),
            ("a", "e"): (2, (1, 3)),
            ("b", "e"): (2, (1, 2)),
        }

    def test_sigma_1_exact(self, toy_items):
        # every itemset contained in at least one transaction, 19 of them
        f = toy_items
        recs = mine_frequent_itemsets(f.db, MinSupport.absolute(1))
        got = sorted((f.labels_of(r.pattern), r.support) for r in recs)
        assert got == [
            (("a",), 2), (("a", "b"), 1), (("a", "b", "d"), 1),
            (("a", "b", "d", "e"), 1), (("a", "b", "e"), 1), (("a", "d"), 1),
            (("a", "d", "e"), 1), (("a", "e"), 2), (("b",), 2),
            (("b", "c"), 1), (("b", "c", "e"), 1), (("b", "d"), 1),
            (("b", "d", "e"), 1), (("b", "e"), 2), (("c",), 1),
            (("c", "e"), 1), (("d",), 1), (("d", "e"), 1), (("e",), 3),
        ]

    def test_canonical_order_and_pids(self, toy_items):
        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        assert [r.pid for r in recs] == list(range(1, len(recs) + 1))
        keys = [(r.pattern.size, r.pattern.items) for r in recs]
        assert keys == sorted(keys)

    def test_relative_threshold(self, toy_items):
        # 0.5 of 3 rows -> effective 2
        rel = mine_frequent_itemsets(toy_items.db, MinSupport.relative(0.5))
        ab = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(2))
        assert [(r.pattern, r.cover) for r in rel] == [(r.pattern, r.cover) for r in ab]


class TestEdgeCases:
    def test_empty_db_rejected(self):
        with pytest.raises(InputError):
            mine_frequent_itemsets(TransactionDB((), SymbolTable()), MinSupport.absolute(1))

    def test_sigma_above_db_size(self, toy_items):
        assert mine_frequent_itemsets(toy_items.db, MinSupport.absolute(4)) == []

    def test_single_transaction(self):
        symbols = SymbolTable()
        a, b = symbols.intern("a"), symbols.intern("b")
        db = TransactionDB(((a, b),), symbols)
        recs = mine_frequent_itemsets(db, MinSupport.absolute(1))
        assert {r.pattern.items for r in recs} == {(a,), (b,), (a, b)}


class TestProperties:
    def test_downward_closure(self, toy_items):
        from itertools import combinations

        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        by_items = {r.pattern.items: r.support for r in recs}
        for items, sup in by_items.items():
            for k in range(1, len(items)):
                for sub in combinations(items, k):
                    assert by_items[sub] >= sup

    def test_oracle_equivalence_seeded(self):
        rng = random.Random(8191)
        for trial in range(120):
            db = random_transactions(rng)
            sigma = rng.randint(1, len(db) + 1)
            mined = mine_frequent_itemsets(db, MinSupport.absolute(sigma))
            got = {r.pattern.items: r.cover for r in mined}
            want = frequent_itemsets_bruteforce(db, sigma)
            assert got == want, f"trial {trial} sigma {sigma}"

    def test_supports_equal_cover_sizes(self, toy_items):
        for r in mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1)):
            assert r.support == len(r.cover)


class TestOracleParity:
    @settings(max_examples=300, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        # tid masks cross a byte boundary between 7 and 9 and again between 15 and 17
        n_rows=st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17]),
        n_items=st.integers(1, 6),
        sigma_pick=st.integers(0, 16),
    )
    def test_equals_bruteforce(self, rng, n_rows, n_items, sigma_pick):
        symbols = SymbolTable()
        ids = [symbols.intern(f"i{k}") for k in range(n_items)]
        rows = tuple(tuple(sorted(rng.sample(ids, rng.randint(0, n_items)))) for _ in range(n_rows))
        db = TransactionDB(rows, symbols)
        sigma = sigma_pick % n_rows + 1
        mined = mine_frequent_itemsets(db, MinSupport.absolute(sigma))
        # Read before any cover is: the text the writer gets from the miner's bitmaps.
        texts = [r.cover_text() for r in mined]
        got = [(r.pid, r.pattern.items, r.support, r.cover) for r in mined]
        assert got == canonical_records(frequent_itemsets_bruteforce(db, sigma))
        assert all(r.size == len(r.pattern.items) and type(r.cover) is frozenset for r in mined)
        assert texts == [",".join(map(str, sorted(cover))) for *_, cover in got]
