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
    LabeledGraph,
    PatternRecord,
    Sequence,
    SymbolTable,
    WeightTable,
    evaluate,
    parse_constraints,
    partition_valid,
)
from siftmine.oracle import constraints_hold_bruteforce


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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_ends(self, end):
        assert parse_constraints(f"size >= 2{end}contains a{end}") == parse_constraints("size >= 2\ncontains a\n")

    # A data file reads each of these as whitespace inside a line, and so does the constraint parser.
    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", " ", " "])
    def test_other_separators_end_no_line(self, sep):
        with pytest.raises(ConstraintSyntaxError) as err:
            parse_constraints(f"size >= 2{sep}contains a")
        assert str(err.value) == "size atom takes an operator and a bound (line 1, column 1)"
        assert parse_constraints(f"size >= 2,{sep}contains a") == parse_constraints("size >= 2, contains a")

    def test_positions_after_crlf(self):
        with pytest.raises(ConstraintSyntaxError) as err:
            parse_constraints("size >= 1\r\n\r\n  support >= x\r\n")
        assert str(err.value) == "bound 'x' is not an integer (line 3, column 3)"


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


# Labels the records use, and "z", which no table holds.
LABELS = ("a", "b", "x")
ATOMS = [
    "size >= 2", "size <= 1", "support >= 2", "support <= 0", "cost <= 3", "cost <= 0",
    "contains a", "contains z", "excludes b", "excludes z",
    "adjacent a b", "adjacent b b", "adjacent a z", "before a b", "before b a", "before a a", "before z a",
    "none_between {} a b", "none_between {x} a b", "none_between {x,z} b a", "none_between {a} a a",
    "none_between {z} a b", "none_between {b} a z",
]
ATOM_TEXTS = st.sampled_from(ATOMS)


@st.composite
def constrained_records(draw):
    """Records of mixed kinds over one table, an expression naming every atom kind, and maybe weights and table."""
    symbols = SymbolTable(["0", *LABELS])
    ids = st.lists(st.sampled_from([symbols.id_of(lbl) for lbl in LABELS]), min_size=1, max_size=6)
    records = []
    for pid in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(["sequence", "sequence", "itemset", "graph"]))
        if kind == "graph":
            labels = draw(ids)
            edges = [(v - 1, v) for v in range(1, len(labels)) if draw(st.booleans())]
            pattern = LabeledGraph.of(list(enumerate(labels)), edges)
        else:
            pattern = Sequence.of(draw(ids)) if kind == "sequence" else Itemset.of(draw(ids))
        support = draw(st.integers(0, 3))
        records.append(PatternRecord(pid, pattern, support, None, pattern.size))
    clauses = draw(st.lists(st.lists(ATOM_TEXTS, min_size=1, max_size=3).map(" | ".join), max_size=3))
    expr = parse_constraints("\n".join(clauses))
    weights = draw(st.none() | st.just(WeightTable({symbols.id_of("a"): 2, symbols.id_of("x"): 1})))
    return records, expr, weights, draw(st.sampled_from([symbols, None]))


def outcome(run):
    """run()'s result, or the type and message of the SiftmineError it raises."""
    try:
        return run()
    except InputError as exc:
        return type(exc), str(exc)


class TestCompiledParity:
    """The compiled test agrees with the reference evaluator record by record, errors included."""

    @settings(max_examples=400, deadline=None)
    @given(constrained_records())
    def test_partition_equals_reference(self, drawn):
        records, expr, weights, symbols = drawn
        reached = []

        def fed():
            for rec in records:
                reached.append(rec)
                yield rec

        got = outcome(lambda: partition_valid(fed(), expr, weights, symbols=symbols))
        want, first_error = ([], []), None
        for rec in records:  # every atom alone, on every record
            for atom in map(parse_constraints, ATOMS):
                want_atom = outcome(lambda: constraints_hold_bruteforce(rec, atom, weights, symbols=symbols))
                assert outcome(lambda: evaluate(rec, atom, weights, symbols=symbols)) == want_atom
        for k, rec in enumerate(records):
            holds = outcome(lambda: constraints_hold_bruteforce(rec, expr, weights, symbols=symbols))
            assert outcome(lambda: evaluate(rec, expr, weights, symbols=symbols)) == holds
            if first_error is None:
                if isinstance(holds, bool):
                    want[0 if holds else 1].append(rec)
                else:
                    first_error = k, holds
        if first_error is None:
            assert got == want
        else:
            # raised at the same record, with the same type and message
            assert (len(reached) - 1, got) == first_error
