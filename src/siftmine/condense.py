"""Condensed representations: keep the valid patterns nothing dominates.

The four relations pick different survivors from the same valid set:
maximal keeps patterns no valid pattern properly contains; closed and free
additionally tie support (closed drops into larger equals, free into smaller
equals); skyline keeps the support/size Pareto front. Validity filtering
must happen first: which patterns survive depends on which competitors are
still in the set, so constraints change the outcome, not just trim it.

condense never compares every record with every other. Skyline is a sort
and sweep over supports. For the inclusion relations an inverted index
maps each element (item, sequence symbol, or a graph's vertex labels and
edge types (la, el, lb) with la <= lb, counted with multiplicity) to a
bitset of records; intersecting a record's postings gives the few records
that can include it, and the exact dominates() test runs only on those.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import reduce
from operator import and_
from typing import Iterable, Iterator

from .core import (
    Itemset,
    LabeledGraph,
    Pattern,
    PatternRecord,
    Sequence,
    find_embedding,
    graph_included,
)
from .errors import InputError, KindMismatchError


class DominanceRelation(Enum):
    MAXIMAL = "maximal"
    CLOSED = "closed"
    FREE = "free"
    SKYLINE = "skyline"

    @classmethod
    def parse(cls, text: str) -> "DominanceRelation":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(rel.value for rel in cls)
            raise InputError(f"unknown representation {text!r} (expected one of: {names})") from None


def _properly_included(a: Pattern, b: Pattern) -> bool:
    # a is a proper sub-pattern of b, per kind.
    if isinstance(a, Itemset) and isinstance(b, Itemset):
        return a.as_set() < b.as_set()
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return a.symbols != b.symbols and find_embedding(a, b) is not None
    if isinstance(a, LabeledGraph) and isinstance(b, LabeledGraph):
        return graph_included(a, b) and not graph_included(b, a)
    raise KindMismatchError("patterns are of different kinds")


def dominates(p: PatternRecord, q: PatternRecord, rel: DominanceRelation) -> bool:
    """True when q dominates p under rel, so p drops out of the condensed set."""
    if p.kind != q.kind:
        raise KindMismatchError(f"cannot compare {p.kind} with {q.kind}")
    if rel is DominanceRelation.MAXIMAL:
        return _properly_included(p.pattern, q.pattern)
    if rel is DominanceRelation.CLOSED:
        return p.support == q.support and _properly_included(p.pattern, q.pattern)
    if rel is DominanceRelation.FREE:
        return p.support == q.support and _properly_included(q.pattern, p.pattern)
    if rel is DominanceRelation.SKYLINE:
        return (p.support <= q.support and p.size < q.size) or (
            p.support < q.support and p.size <= q.size
        )
    raise InputError(f"unknown relation {rel!r}")


def _check_kinds(records) -> None:
    kinds = {rec.kind for rec in records}
    if len(kinds) > 1:
        raise KindMismatchError(f"records mix pattern kinds: {sorted(kinds)}")


def _elements(pattern: Pattern) -> list[tuple]:
    # The pattern's elements, each paired with its occurrence number so
    # that repeats are distinct index keys. An itemset never repeats an item.
    # A graph adds its edge types (la, el, lb), la <= lb: an inclusion maps
    # edges to distinct edges of the same type (gIndex's edge features).
    if isinstance(pattern, Itemset):
        return [(item, 1) for item in pattern.items]
    symbols: tuple = pattern.elements
    if isinstance(pattern, LabeledGraph):
        lbl = pattern.label_map
        symbols += tuple(
            (lbl[u], el, lbl[v]) if lbl[u] <= lbl[v] else (lbl[v], el, lbl[u]) for u, v, el in pattern.edges
        )
    seen: Counter = Counter()
    elements = []
    for sym in symbols:
        seen[sym] += 1
        elements.append((sym, seen[sym]))
    return elements


def _positions(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dominated_in(group: list[PatternRecord], rel: DominanceRelation) -> list[bool]:
    """Which records of group another one dominates under maximal, closed or free.

    If p is properly included in q, q's elements contain p's and q's
    (size, element count) is lexicographically greater: itemsets and
    sequences have as many elements as their size, a graph has one per
    vertex and per edge, and a graph included in one with as many edges and
    vertices is isomorphic to it. So an inverted
    index from element to a bitset of positions yields each record's
    candidate containers, and dominates() runs only on those.
    """
    elements = [_elements(rec.pattern) for rec in group]
    keys = [(rec.size, len(elems)) for rec, elems in zip(group, elements)]
    postings: dict[tuple[int, int], int] = {}
    for pos, elems in enumerate(elements):
        for elem in elems:
            postings[elem] = postings.get(elem, 0) | 1 << pos

    def containers(i: int) -> Iterator[int]:
        mask = reduce(and_, (postings[elem] for elem in elements[i]))
        return (j for j in _positions(mask) if keys[j] > keys[i])

    if rel is DominanceRelation.FREE:
        # A free record's dominators are included in it: invert the lookup.
        contained: list[list[int]] = [[] for _ in group]
        for i in range(len(group)):
            for j in containers(i):
                contained[j].append(i)
        candidates: Iterable[Iterable[int]] = contained
    else:
        candidates = map(containers, range(len(group)))
    return [any(dominates(p, group[j], rel) for j in cands) for p, cands in zip(group, candidates)]


def _skyline_dominated(valid: list[PatternRecord]) -> list[bool]:
    # Sort-and-sweep over supports, highest first: p is dominated iff a record
    # of higher support is at least as large, or one of at least p's support
    # is larger.
    largest: dict[int, int] = {}
    for rec in valid:
        largest[rec.support] = max(largest.get(rec.support, -1), rec.size)
    above: dict[int, int] = {}
    at_least: dict[int, int] = {}
    best = -1
    for support in sorted(largest, reverse=True):
        above[support] = best
        best = max(best, largest[support])
        at_least[support] = best
    return [above[p.support] >= p.size or at_least[p.support] > p.size for p in valid]


def condense(valid: list[PatternRecord], rel: DominanceRelation) -> list[PatternRecord]:
    """Exactly the patterns of valid that no other valid pattern dominates.

    Input order (canonical from the miners) is preserved. Skyline is a sort
    and sweep over supports with no pairwise test. Maximal, closed and free
    look each record's possible dominators up in an inverted index over its
    elements (items, sequence symbols, or vertex labels and edge types, with
    multiplicity) and run dominates() only on those. Closed and free build
    one index per support value, since their dominators need equal support;
    they group by support, not by cover, because covers read from files may
    be absent or disagree with the data.
    """
    _check_kinds(valid)
    if rel is DominanceRelation.SKYLINE:
        dominated = _skyline_dominated(valid)
    elif rel in (DominanceRelation.MAXIMAL, DominanceRelation.CLOSED, DominanceRelation.FREE):
        groups: dict[int, list[int]] = {}
        for pos, rec in enumerate(valid):
            key = 0 if rel is DominanceRelation.MAXIMAL else rec.support
            groups.setdefault(key, []).append(pos)
        dominated = [False] * len(valid)
        for group in groups.values():
            for pos, out in zip(group, _dominated_in([valid[i] for i in group], rel)):
                dominated[pos] = out
    else:
        raise InputError(f"unknown relation {rel!r}")
    return [rec for rec, out in zip(valid, dominated) if not out]
