"""Local constraint formulas over pattern records.

A constraint expression is a conjunction of clauses, each clause a nonempty
disjunction of atoms. The text grammar puts one clause per line (a comma also
ends a clause, so expressions fit on a command line); atoms within a clause
are separated by "|"; "#" starts a comment. Atoms:

    size >= K          size <= K
    support >= K       support <= K
    cost <= K          (needs a weight table; per-occurrence sum)
    contains SYM       excludes SYM
    adjacent SYM SYM   (sequences only: first immediately followed by second)
    before SYM SYM     (sequences only: first strictly before second)
    none_between {SYM,...} SYM SYM
                       (sequences only: an occurrence pair with no blocked
                        symbol strictly between; an empty block set makes it
                        equivalent to before)

Atoms carry symbol labels as text. partition_valid and evaluate compile an
expression once per call into one test per record: each bound becomes a
constant of that test, and each label is looked up in the symbol table when
a record is tested, so the table may still be growing while records are
tested, as it does while condense reads a pattern file. A record's own labels
are in the table before it is tested, so a label the table lacks is in no
such record and simply never matches; once the table has it, its id is
fixed. An atom that cannot be evaluated (no symbol table, no weight table,
an order atom on another kind) raises when the first record reaches it.
Filtering happens after mining, never inside it, so a record's validity
depends only on its own fields; oracle.constraints_hold_bruteforce is the
reference semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .core import PatternRecord, SymbolTable, plain_int
from .errors import ConstraintSyntaxError, InputError, KindMismatchError, shown

_NUMERIC_ATOMS = {
    ("size", ">="): "size_min",
    ("size", "<="): "size_max",
    ("support", ">="): "support_min",
    ("support", "<="): "support_max",
    ("cost", "<="): "cost_max",
}

_NONE_BETWEEN = re.compile(r"none_between\s*\{([^{}]*)\}\s+(\S+)\s+(\S+)$")


@dataclass(frozen=True)
class ConstraintAtom:
    name: str
    bound: int | None = None
    symbols: tuple[str, ...] = ()
    blocked: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class ConstraintExpr:
    """Conjunction of clauses; each clause is a disjunction of atoms."""

    clauses: tuple[tuple[ConstraintAtom, ...], ...]


EMPTY_EXPR = ConstraintExpr(())


def _split_level(text: str, sep: str, lineno: int, base: int) -> list[tuple[str, int]]:
    # Split on sep outside braces, keeping each fragment's start column.
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ConstraintSyntaxError("unbalanced '}'", lineno, base + i + 1)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], base + start))
            start = i + 1
    if depth != 0:
        raise ConstraintSyntaxError("unbalanced '{'", lineno, base + text.index("{") + 1)
    parts.append((text[start:], base + start))
    return parts


def _parse_atom(text: str, lineno: int, col: int) -> ConstraintAtom:
    stripped = text.strip()
    col = col + len(text) - len(text.lstrip()) + 1
    if not stripped:
        raise ConstraintSyntaxError("empty atom", lineno, col)

    if stripped.startswith("none_between"):
        m = _NONE_BETWEEN.match(stripped)
        if m is None:
            raise ConstraintSyntaxError(
                "malformed none_between atom; expected none_between {SYM,...} SYM SYM", lineno, col
            )
        inner = m.group(1).strip()
        blocked = []
        if inner:
            for part in inner.split(","):
                sym = part.strip()
                if not sym or " " in sym:
                    raise ConstraintSyntaxError("malformed symbol in none_between block set", lineno, col)
                blocked.append(sym)
        return ConstraintAtom("none_between", symbols=(m.group(2), m.group(3)), blocked=frozenset(blocked))

    tokens = stripped.split()
    head = tokens[0]
    if head in ("size", "support", "cost"):
        if len(tokens) != 3:
            raise ConstraintSyntaxError(f"{head} atom takes an operator and a bound", lineno, col)
        name = _NUMERIC_ATOMS.get((head, tokens[1]))
        if name is None:
            raise ConstraintSyntaxError(f"unsupported operator {shown(tokens[1])} for {head}", lineno, col)
        try:
            bound = plain_int(tokens[2].removeprefix("-"))
        except ValueError:
            raise ConstraintSyntaxError(f"bound {shown(tokens[2])} is not an integer", lineno, col) from None
        if tokens[2].startswith("-"):
            raise ConstraintSyntaxError("bound must be nonnegative", lineno, col)
        return ConstraintAtom(name, bound=bound)
    if head in ("contains", "excludes"):
        if len(tokens) != 2:
            raise ConstraintSyntaxError(f"{head} atom takes exactly one symbol", lineno, col)
        return ConstraintAtom(head, symbols=(tokens[1],))
    if head in ("adjacent", "before"):
        if len(tokens) != 3:
            raise ConstraintSyntaxError(f"{head} atom takes exactly two symbols", lineno, col)
        return ConstraintAtom(head, symbols=(tokens[1], tokens[2]))
    raise ConstraintSyntaxError(f"unknown atom {shown(head)}", lineno, col)


def parse_constraints(text: str) -> ConstraintExpr:
    """Parse constraint text into a ConstraintExpr; errors carry line/column.

    A line ends at "\n", "\r\n" or "\r", as in every input file: a vertical
    tab, form feed or other Unicode line separator is whitespace inside it.
    """
    clauses: list[tuple[ConstraintAtom, ...]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        for clause_text, clause_col in _split_level(line, ",", lineno, 0):
            if not clause_text.strip():
                raise ConstraintSyntaxError("empty clause", lineno, clause_col + 1)
            atoms = tuple(
                _parse_atom(atom_text, lineno, atom_col)
                for atom_text, atom_col in _split_level(clause_text, "|", lineno, clause_col)
            )
            clauses.append(atoms)
    return ConstraintExpr(tuple(clauses))


_NO_SYMBOLS = "constraint references symbols but no symbol table was provided"


def _failing(error: type[Exception], message: str) -> Callable[[PatternRecord], bool]:
    """A test that raises error(message) at the first record that reaches it."""

    def test(rec: PatternRecord) -> bool:
        raise error(message)

    return test


def _order_test(name: str, first: str, second: str, blocked: frozenset[str], get: Callable) -> Callable:
    """The order atom as a test of a symbol tuple, each label looked up by get at each test.

    A label the table lacks looks up as None, which no symbol id equals, so it never matches.
    """
    if name == "adjacent":
        return lambda seq: (get(first), get(second)) in zip(seq, seq[1:])
    if name == "before":
        return lambda seq: (sid := get(first)) in seq and get(second) in seq[seq.index(sid) + 1 :]
    if name != "none_between":
        return _failing(InputError, f"unknown atom {name!r}")

    def none_between(seq: tuple[int, ...]) -> bool:
        start, end, stops = get(first), get(second), set(map(get, blocked))
        # open: a first has occurred since the last blocked symbol, so a second here ends a clean pair
        open_ = False
        for sym in seq:
            if open_ and sym == end:
                return True
            if sym in stops:
                open_ = False
            if sym == start:
                open_ = True
        return False

    return none_between


def _compile_atom(atom: ConstraintAtom, cost_of, symbols: SymbolTable | None) -> Callable[[PatternRecord], bool]:
    """One atom as a test of one record, its bound fixed now and its labels looked up at each test."""
    name, bound = atom.name, atom.bound
    if name == "size_min":
        return lambda rec: rec.size >= bound
    if name == "size_max":
        return lambda rec: rec.size <= bound
    if name == "support_min":
        return lambda rec: rec.support >= bound
    if name == "support_max":
        return lambda rec: rec.support <= bound
    if name == "cost_max":
        if cost_of is None:
            return _failing(InputError, "cost constraint requires a weight table")
        return lambda rec: sum(map(cost_of, rec.pattern.elements)) <= bound
    if name in ("contains", "excludes"):
        if symbols is None:
            return _failing(InputError, _NO_SYMBOLS)
        get, label = symbols.get, atom.symbols[0]
        if name == "contains":
            return lambda rec: get(label) in rec.pattern.elements
        return lambda rec: get(label) not in rec.pattern.elements
    # adjacent, before, none_between, and any other name: sequences only
    if symbols is None:
        seq_holds = _failing(InputError, _NO_SYMBOLS)
    else:
        seq_holds = _order_test(name, atom.symbols[0], atom.symbols[1], atom.blocked, symbols.get)

    def order_holds(rec: PatternRecord) -> bool:
        pattern = rec.pattern
        if pattern.kind != "sequence":
            raise KindMismatchError(f"{name} applies only to sequence patterns, got {pattern.kind}")
        return seq_holds(pattern.symbols)

    return order_holds


def _compile(expr: ConstraintExpr, cost_of, symbols: SymbolTable | None) -> Callable[[PatternRecord], bool]:
    """expr as one test per record: clauses in order, each atom in order until one holds.

    cost_of gives a symbol id's weight, or is None without a weight table.
    Labels are looked up in symbols at each test, so symbols may grow
    between tests. An atom that cannot be evaluated (no symbol table, no
    weight table, an order atom on another kind) raises when the first
    record reaches it, as evaluating it there would.
    """
    clauses = []
    for clause in expr.clauses:
        tests = tuple(_compile_atom(atom, cost_of, symbols) for atom in clause)
        clauses.append(tests[0] if len(tests) == 1 else (lambda rec, tests=tests: any(t(rec) for t in tests)))

    def holds(rec: PatternRecord) -> bool:
        for clause in clauses:
            if not clause(rec):
                return False
        return True

    return holds


def evaluate(
    rec: PatternRecord,
    expr: ConstraintExpr,
    weights=None,
    *,
    symbols: SymbolTable | None = None,
) -> bool:
    """True iff every clause of expr has at least one satisfied atom on rec.

    weights is required when expr has a cost atom; symbols is required when
    any atom names a symbol. Symbols absent from the table never match.
    """
    return _compile(expr, None if weights is None else weights.cost_of, symbols)(rec)


def partition_valid(
    records,
    expr: ConstraintExpr,
    weights=None,
    *,
    symbols: SymbolTable | None = None,
) -> tuple[list[PatternRecord], list[PatternRecord]]:
    """Split records into (valid, invalid), both preserving input order; expr is compiled once per call."""
    holds = _compile(expr, None if weights is None else weights.cost_of, symbols)
    valid: list[PatternRecord] = []
    invalid: list[PatternRecord] = []
    for rec in records:
        (valid if holds(rec) else invalid).append(rec)
    return valid, invalid
