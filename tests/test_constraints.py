"""Constraint language: grammar, atom semantics, clause logic, partitioning."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmine import (
    ConstraintSyntaxError,
    EMPTY_EXPR,
    InputError,
    Itemset,
    KindMismatchError,
    PatternRecord,
    Sequence,
    SymbolTable,
    WeightTable,
    evaluate,
    parse_constraints,
    partition_valid,
)


def seq_record(symbols: SymbolTable, text: str, pid=1, support=1) -> PatternRecord:
    ids = tuple(symbols.intern(w) for w in text.split())
    return PatternRecord(
        pid=pid, pattern=Sequence.of(ids), support=support,
        cover=frozenset(range(1, support + 1)), size=len(ids),
    )


def item_record(symbols: SymbolTable, labels: str, pid=1, support=1) -> PatternRecord:
    ids = tuple(sorted(symbols.intern(c) for c in labels))
    return PatternRecord(
        pid=pid, pattern=Itemset.of(ids), support=support,
        cover=frozenset(range(1, support + 1)), size=len(ids),
    )


class TestGrammar:
    def test_clauses_and_atoms(self):
        expr = parse_constraints("size >= 2 | support <= 5\ncontains x")
        assert len(expr.clauses) == 2
        assert [a.name for a in expr.clauses[0]] == ["size_min", "support_max"]
        assert [a.name for a in expr.clauses[1]] == ["contains"]

    def test_comma_splits_clauses(self):
        a = parse_constraints("size >= 2, contains x")
        b = parse_constraints("size >= 2\ncontains x")
        assert a == b

    def test_comments_and_blanks(self):
        expr = parse_constraints("# header\n\nsize >= 1  # trailing\n")
        assert len(expr.clauses) == 1

    def test_empty_text_is_empty_expr(self):
        assert parse_constraints("") == EMPTY_EXPR
        assert parse_constraints("# only a comment\n") == EMPTY_EXPR

    def test_braces_protect_commas(self):
        expr = parse_constraints("none_between {x,y} a b, size >= 1")
        assert len(expr.clauses) == 2
        atom = expr.clauses[0][0]
        assert atom.name == "none_between"
        assert atom.symbols == ("a", "b")
        assert atom.blocked == frozenset({"x", "y"})

    def test_empty_blockset_parses(self):
        atom = parse_constraints("none_between {} a b").clauses[0][0]
        assert atom.blocked == frozenset()

    def test_syntax_errors_carry_position(self):
        cases = [
            "size >< 2",
            "size >= x",
            "size >= -1",
            "frobnicate a",
            "contains",
            "contains a b",
            "adjacent a",
            "before a b c",
            "none_between {a b c",
            "cost <= ",
            "support >= 2 extra",
        ]
        for text in cases:
            with pytest.raises(ConstraintSyntaxError) as err:
                parse_constraints(text)
            assert "line" in str(err.value)

    @pytest.mark.parametrize(
        "bound, message",
        [
            ("1_0", "bound '1_0' is not an integer"),
            ("+3", "bound '+3' is not an integer"),
            ("\u0661", "bound '\u0661' is not an integer"),
            ("-1", "bound must be nonnegative"),
            ("-0", "bound must be nonnegative"),
        ],
    )
    def test_bound_is_a_plain_ascii_decimal(self, bound, message):
        with pytest.raises(ConstraintSyntaxError, match=re.escape(f"{message} (line 2, column 3)")):
            parse_constraints(f"size >= 1\n  support >= {bound}\n")

    def test_multiline_error_line_number(self):
        with pytest.raises(ConstraintSyntaxError, match="line 3"):
            parse_constraints("size >= 1\nsupport >= 1\nbogus atom\n")


class TestNumericAtoms:
    def test_size_and_support(self):
        symbols = SymbolTable()
        rec = item_record(symbols, "ab", support=3)
        assert evaluate(rec, parse_constraints("size >= 2"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("size >= 3"), symbols=symbols)
        assert evaluate(rec, parse_constraints("size <= 2"), symbols=symbols)
        assert evaluate(rec, parse_constraints("support >= 3"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("support <= 2"), symbols=symbols)

    def test_cost_needs_weights(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b a")
        expr = parse_constraints("cost <= 10")
        with pytest.raises(InputError):
            evaluate(rec, expr, symbols=symbols)

    def test_cost_per_occurrence(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b a")
        weights = WeightTable({symbols.id_of("a"): 3, symbols.id_of("b"): 1})
        # a appears twice: 3 + 1 + 3 = 7
        assert evaluate(rec, parse_constraints("cost <= 7"), weights, symbols=symbols)
        assert not evaluate(rec, parse_constraints("cost <= 6"), weights, symbols=symbols)

    def test_cost_missing_symbols_cost_zero(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b")
        weights = WeightTable({symbols.id_of("a"): 2})
        assert evaluate(rec, parse_constraints("cost <= 2"), weights, symbols=symbols)


class TestMembershipAtoms:
    def test_contains_excludes(self):
        symbols = SymbolTable()
        rec = item_record(symbols, "abc")
        assert evaluate(rec, parse_constraints("contains b"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("contains z"), symbols=symbols)
        assert evaluate(rec, parse_constraints("excludes z"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("excludes a"), symbols=symbols)

    def test_unknown_label_never_matches(self):
        # "z" was never interned: contains fails, excludes holds
        symbols = SymbolTable()
        rec = item_record(symbols, "ab")
        assert not evaluate(rec, parse_constraints("contains z"), symbols=symbols)
        assert evaluate(rec, parse_constraints("excludes z"), symbols=symbols)

    def test_symbols_required_when_expression_names_labels(self):
        symbols = SymbolTable()
        rec = item_record(symbols, "ab")
        with pytest.raises(InputError):
            evaluate(rec, parse_constraints("contains a"))
        # purely numeric expressions don't need the table
        assert evaluate(rec, parse_constraints("size >= 1"))

    def test_graph_membership_is_vertex_labels(self, demo_graphs):
        f = demo_graphs
        rec = PatternRecord(
            pid=1, pattern=f.probe_triangle, support=1, cover=frozenset({1}),
            size=f.probe_triangle.edge_count,
        )
        assert evaluate(rec, parse_constraints("contains f"), symbols=f.symbols)
        assert not evaluate(rec, parse_constraints("contains e"), symbols=f.symbols)


class TestOrderAtoms:
    def test_adjacent(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b c")
        assert evaluate(rec, parse_constraints("adjacent a b"), symbols=symbols)
        assert evaluate(rec, parse_constraints("adjacent b c"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("adjacent a c"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("adjacent b a"), symbols=symbols)

    def test_before(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b c")
        assert evaluate(rec, parse_constraints("before a c"), symbols=symbols)
        assert not evaluate(rec, parse_constraints("before c a"), symbols=symbols)

    def test_none_between(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a x b a b")
        # the later (a, b) pair at positions 4,5 has nothing between
        assert evaluate(rec, parse_constraints("none_between {x} a b"), symbols=symbols)
        rec2 = seq_record(symbols, "a x b")
        assert not evaluate(rec2, parse_constraints("none_between {x} a b"), symbols=symbols)
        assert evaluate(rec2, parse_constraints("none_between {y} a b"), symbols=symbols)

    def test_order_atoms_reject_non_sequences(self):
        symbols = SymbolTable()
        rec = item_record(symbols, "ab")
        for text in ("adjacent a b", "before a b", "none_between {x} a b"):
            with pytest.raises(KindMismatchError):
                evaluate(rec, parse_constraints(text), symbols=symbols)

    @given(st.lists(st.sampled_from("abxy"), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_empty_blockset_equals_before(self, letters):
        symbols = SymbolTable()
        rec = seq_record(symbols, " ".join(letters))
        nb = evaluate(rec, parse_constraints("none_between {} a b"), symbols=symbols)
        bf = evaluate(rec, parse_constraints("before a b"), symbols=symbols)
        assert nb == bf


class TestClauseLogic:
    def test_and_of_ors(self):
        symbols = SymbolTable()
        rec = seq_record(symbols, "a b")
        # clause1: size >= 5 OR contains a (true); clause2: excludes z (true)
        expr = parse_constraints("size >= 5 | contains a\nexcludes z")
        assert evaluate(rec, expr, symbols=symbols)
        # make clause1 all-false
        expr2 = parse_constraints("size >= 5 | contains z\nexcludes z")
        assert not evaluate(rec, expr2, symbols=symbols)

    def test_empty_expression_accepts_everything(self):
        symbols = SymbolTable()
        rec = item_record(symbols, "a")
        assert evaluate(rec, EMPTY_EXPR, symbols=symbols)


class TestScenario:
    def test_relocation_outcomes(self, relocations):
        expr = parse_constraints(relocations.CONSTRAINTS)
        got = [evaluate(r, expr, symbols=relocations.symbols) for r in relocations.records]
        assert got == [True, False, False]

    def test_clause_by_clause(self, relocations):
        symbols = relocations.symbols
        s1, s2, s3 = relocations.records
        no_us = parse_constraints("excludes bUS")
        assert [evaluate(r, no_us, symbols=symbols) for r in (s1, s2, s3)] == [True, True, False]
        sec = parse_constraints("adjacent mG ma | none_between {mA,mUS} bG ma")
        assert [evaluate(r, sec, symbols=symbols) for r in (s1, s2, s3)] == [True, False, False]


class TestPartition:
    def test_order_preserved_and_complete(self, toy_items):
        from siftmine import MinSupport, mine_frequent_itemsets

        recs = mine_frequent_itemsets(toy_items.db, MinSupport.absolute(1))
        expr = parse_constraints("size >= 2")
        valid, invalid = partition_valid(recs, expr, symbols=toy_items.symbols)
        assert [r.pid for r in valid] == [r.pid for r in recs if r.pattern.size >= 2]
        assert [r.pid for r in invalid] == [r.pid for r in recs if r.pattern.size < 2]
        assert len(valid) + len(invalid) == len(recs)
