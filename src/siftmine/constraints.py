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

Atoms carry symbol labels as text; evaluation resolves them against the
dataset's symbol table, and labels the table has never seen simply never
match. Filtering happens after mining, never inside it, so a record's
validity depends only on its own fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import PatternRecord, SymbolTable, plain_int
from .errors import ConstraintSyntaxError, InputError, KindMismatchError

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
            raise ConstraintSyntaxError(f"unsupported operator {tokens[1]!r} for {head}", lineno, col)
        try:
            bound = plain_int(tokens[2].removeprefix("-"))
        except ValueError:
            raise ConstraintSyntaxError(f"bound {tokens[2]!r} is not an integer", lineno, col) from None
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
    raise ConstraintSyntaxError(f"unknown atom {head!r}", lineno, col)


def parse_constraints(text: str) -> ConstraintExpr:
    """Parse constraint text into a ConstraintExpr; errors carry line/column."""
    clauses: list[tuple[ConstraintAtom, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _resolve(symbols: SymbolTable | None, label: str) -> int | None:
    if symbols is None:
        raise InputError("constraint references symbols but no symbol table was provided")
    return symbols.get(label)


def _sequence_symbols(rec: PatternRecord, atom_name: str) -> tuple[int, ...]:
    if rec.kind != "sequence":
        raise KindMismatchError(f"{atom_name} applies only to sequence patterns, got {rec.kind}")
    return rec.pattern.symbols


def _atom_holds(
    rec: PatternRecord,
    atom: ConstraintAtom,
    weights,
    symbols: SymbolTable | None,
) -> bool:
    name = atom.name
    if name == "size_min":
        return rec.size >= atom.bound
    if name == "size_max":
        return rec.size <= atom.bound
    if name == "support_min":
        return rec.support >= atom.bound
    if name == "support_max":
        return rec.support <= atom.bound
    if name == "cost_max":
        if weights is None:
            raise InputError("cost constraint requires a weight table")
        return sum(map(weights.cost_of, rec.pattern.elements)) <= atom.bound
    if name == "contains":
        sid = _resolve(symbols, atom.symbols[0])
        return sid is not None and sid in rec.pattern.elements
    if name == "excludes":
        sid = _resolve(symbols, atom.symbols[0])
        return sid is None or sid not in rec.pattern.elements

    seq = _sequence_symbols(rec, name)
    first = _resolve(symbols, atom.symbols[0])
    second = _resolve(symbols, atom.symbols[1])
    if first is None or second is None:
        return False
    if name == "adjacent":
        return any(seq[i] == first and seq[i + 1] == second for i in range(len(seq) - 1))
    if name == "before":
        return any(
            seq[i] == first and seq[j] == second for i in range(len(seq)) for j in range(i + 1, len(seq))
        )
    if name == "none_between":
        blocked = {sid for sid in (_resolve(symbols, b) for b in atom.blocked) if sid is not None}
        for i in range(len(seq)):
            if seq[i] != first:
                continue
            for j in range(i + 1, len(seq)):
                if seq[j] == second and not any(seq[k] in blocked for k in range(i + 1, j)):
                    return True
        return False
    raise InputError(f"unknown atom {name!r}")


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
    return all(any(_atom_holds(rec, atom, weights, symbols) for atom in clause) for clause in expr.clauses)


def partition_valid(
    records,
    expr: ConstraintExpr,
    weights=None,
    *,
    symbols: SymbolTable | None = None,
) -> tuple[list[PatternRecord], list[PatternRecord]]:
    """Split records into (valid, invalid), both preserving input order."""
    valid: list[PatternRecord] = []
    invalid: list[PatternRecord] = []
    for rec in records:
        (valid if evaluate(rec, expr, weights, symbols=symbols) else invalid).append(rec)
    return valid, invalid
