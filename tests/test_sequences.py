"""Sequence miner: worked-example values, length caps, oracle equivalence."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    InputError,
    MinSupport,
    Sequence,
    SequenceDB,
    SymbolTable,
    find_embedding,
    mine_frequent_sequences,
)
from siftmine import oracle
from siftmine.oracle import frequent_sequences_bruteforce

from helpers import canonical_records, random_sequences


class TestWorkedExample:
    # full sigma=2 set over abcdaeb / bceb / aae, frozen from the
    # position-enumeration oracle
    EXPECTED = [
        (("a",), (1, 3)),
        (("b",), (1, 2)),
        (("c",), (1, 2)),
        (("e",), (1, 2, 3)),
        (("a", "a"), (1, 3)),
        (("a", "e"), (1, 3)),
        (("b", "b"), (1, 2)),
        (("b", "c"), (1, 2)),
        (("b", "e"), (1, 2)),
        (("c", "b"), (1, 2)),
        (("c", "e"), (1, 2)),
        (("e", "b"), (1, 2)),
        (("a", "a", "e"), (1, 3)),
        (("b", "c", "b"), (1, 2)),
        (("b", "c", "e"), (1, 2)),
        (("b", "e", "b"), (1, 2)),
        (("c", "e", "b"), (1, 2)),
        (("b", "c", "e", "b"), (1, 2)),
    ]

    def test_sigma_2_exact(self, toy_seqs):
        f = toy_seqs
        recs = mine_frequent_sequences(f.db, MinSupport.absolute(2))
        got = sorted(
            ((f.labels_of(r.pattern), tuple(sorted(r.cover))) for r in recs),
            key=lambda kv: (len(kv[0]), kv[0]),
        )
        assert got == self.EXPECTED
        assert len(recs) == 18

    def test_membership_calls(self, toy_seqs):
        f = toy_seqs
        mined = {f.labels_of(r.pattern) for r in mine_frequent_sequences(f.db, MinSupport.absolute(2))}
        assert ("b", "c", "e", "b") in mined
        assert ("a", "a", "e") in mined
        assert ("b", "d", "b") not in mined

    def test_canonical_order_and_pids(self, toy_seqs):
        recs = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(1), 4)
        assert [r.pid for r in recs] == list(range(1, len(recs) + 1))
        keys = [(r.pattern.size, r.pattern.symbols) for r in recs]
        assert keys == sorted(keys)


class TestMaxLen:
    def test_cap_filters_by_length(self, toy_seqs):
        capped = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(2), 2)
        full = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(2))
        assert {r.pattern.symbols for r in capped} == {
            r.pattern.symbols for r in full if r.pattern.size <= 2
        }

    def test_invalid_cap(self, toy_seqs):
        with pytest.raises(InputError):
            mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(1), 0)


class TestEdgeCases:
    def test_empty_db_rejected(self):
        with pytest.raises(InputError):
            mine_frequent_sequences(SequenceDB((), SymbolTable()), MinSupport.absolute(1))

    def test_sigma_above_db_size(self, toy_seqs):
        assert mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(4)) == []

    def test_support_counts_sequences_not_embeddings(self):
        # "aa" embeds three times in "aaa" but supports only one sequence
        symbols = SymbolTable()
        a = symbols.intern("a")
        db = SequenceDB(((a, a, a),), symbols)
        recs = mine_frequent_sequences(db, MinSupport.absolute(1))
        by_sym = {r.pattern.symbols: r.support for r in recs}
        assert by_sym == {(a,): 1, (a, a): 1, (a, a, a): 1}

    def test_single_symbol_deeper_than_recursion_limit(self):
        # one search level per pattern length: a, aa, ..., a^1500
        symbols = SymbolTable(["a"])
        db = SequenceDB(((0,) * 1500, (0,) * 1500), symbols)
        mined = mine_frequent_sequences(db, MinSupport.absolute(2))
        assert [r.pattern.symbols for r in mined] == [(0,) * k for k in range(1, 1501)]
        assert all(r.cover == {1, 2} for r in mined)


class TestProperties:
    def test_prefix_anti_monotonicity(self, toy_seqs):
        recs = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(1), 4)
        mined = {r.pattern.symbols for r in recs}
        for syms in mined:
            for k in range(1, len(syms)):
                assert syms[:k] in mined

    def test_subsequence_anti_monotonicity_sampled(self, toy_seqs):
        from itertools import combinations

        recs = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(2))
        by_sym = {r.pattern.symbols: r.support for r in recs}
        for syms, sup in by_sym.items():
            for k in range(1, len(syms)):
                for picks in combinations(range(len(syms)), k):
                    sub = tuple(syms[i] for i in picks)
                    assert by_sym.get(sub, 0) >= sup

    def test_supports_are_embedding_existence_counts(self, toy_seqs):
        recs = mine_frequent_sequences(toy_seqs.db, MinSupport.absolute(2))
        for r in recs:
            cover = {
                sid
                for sid, syms in toy_seqs.db.records()
                if find_embedding(r.pattern, Sequence.of(syms)) is not None
            }
            assert frozenset(cover) == r.cover

    def test_oracle_equivalence_seeded(self):
        rng = random.Random(2718)
        for trial in range(120):
            db = random_sequences(rng)
            sigma = rng.randint(1, len(db) + 1)
            max_len = rng.choice([None, 3, 5])
            mined = mine_frequent_sequences(db, MinSupport.absolute(sigma), max_len)
            got = {r.pattern.symbols: r.cover for r in mined}
            want = frequent_sequences_bruteforce(db, sigma, max_len)
            assert got == want, f"trial {trial} sigma {sigma} max_len {max_len}"


class TestOracleParity:
    @settings(max_examples=300, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        n_seqs=st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17]),
        # a sequence of length k takes k // 8 + 1 bytes: 7 | 8 and 15 | 16 change the width
        lengths=st.lists(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 15, 16, 17]), min_size=17, max_size=17),
        n_symbols=st.integers(1, 3),
        sigma_pick=st.integers(0, 16),
        max_len=st.sampled_from([None, 1, 2, 3]),
    )
    def test_equals_bruteforce(self, rng, n_seqs, lengths, n_symbols, sigma_pick, max_len):
        if max_len is None:
            # Uncapped, the oracle enumerates every subsequence: stay inside its bounds.
            n_seqs, lengths = min(n_seqs, oracle.MAX_SEQUENCES), [min(k, 9) for k in lengths]
        symbols = SymbolTable()
        ids = [symbols.intern(f"s{k}") for k in range(n_symbols)]
        rows = tuple(tuple(rng.choice(ids) for _ in range(k)) for k in lengths[:n_seqs])
        db = SequenceDB(rows, symbols)
        sigma = sigma_pick % n_seqs + 1
        mined = mine_frequent_sequences(db, MinSupport.absolute(sigma), max_len)
        # Read before any cover is: bit k for sequence k (bit 0 clear) over the
        # run's table of tids 0..n, counted and rendered without a set.
        held = [r.__dict__["_cover"] for r in mined]
        assert all(
            c.mask.bit_length() <= n_seqs + 1 == len(c.table) and not c.mask & 1 and len(c) == r.support
            for c, r in zip(held, mined)
        )
        texts = [r.cover_text() for r in mined]
        got = [(r.pid, r.pattern.symbols, r.support, r.cover) for r in mined]
        # With at most 3 symbols per candidate the oracle's enumeration stays
        # polynomial, so its size bounds are raised to reach 17 x 17 databases.
        with mock.patch.multiple(oracle, MAX_SEQUENCES=17, MAX_SEQUENCE_LEN=17):
            found = frequent_sequences_bruteforce(db, sigma, max_len)
        assert got == canonical_records(found)
        assert all(r.size == len(r.pattern.symbols) and type(r.cover) is frozenset for r in mined)
        assert texts == [",".join(map(str, sorted(cover))) for *_, cover in got]
