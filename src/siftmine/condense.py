"""Condensed representations: keep the valid patterns nothing dominates.

Skyline keeps the support/size Pareto front. Maximal, closed and free are
one rule over one inclusion test: closed drops a pattern into a properly
including one of equal support, maximal drops it without the support tie,
and free is closed with the two sides swapped. p is properly included in q
when p occurs in q and p's rank (size, element count) is below q's. Validity
filtering comes first: which patterns survive depends on which competitors
are still in the set, so constraints change the outcome, not just trim it.

condense never compares every record with every other. Skyline is a sort
and sweep over supports. For the inclusion relations an inverted index
maps each element (item, sequence symbol, or a graph's vertex labels and
edge types (la, el, lb) with la <= lb, counted with multiplicity) to a
bitset of records; intersecting a record's postings gives the few records
that can include it, and dominates() runs only on those of higher rank.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import reduce
from operator import and_
from typing import Iterator

from .core import Pattern, PatternRecord, find_embedding, graph_included
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


# Whether pattern a occurs in pattern b, by kind; the lambdas look this module's bindings up when called.
_INCLUDED = {
    "itemset": lambda a, b: a.as_set() <= b.as_set(),
    "sequence": lambda a, b: find_embedding(a, b) is not None,
    "graph": lambda a, b: graph_included(a, b),
}


def _rank(rec: PatternRecord) -> tuple[int, int]:
    # A pattern included in one of equal rank is that pattern up to isomorphism.
    return rec.size, len(rec.pattern.elements)


def dominates(p: PatternRecord, q: PatternRecord, rel: DominanceRelation) -> bool:
    """True when q dominates p under rel, so p drops out of the condensed set.

    Skyline compares support and size. The others share one rule: closed
    drops p into a q of equal support that properly includes it, maximal
    is closed without the support tie, and free is closed with p and q
    swapped. Proper inclusion is inclusion into a pattern of higher rank.
    """
    kind = p.pattern.kind
    if kind != q.pattern.kind:
        raise KindMismatchError(f"cannot compare {kind} with {q.kind}")
    if rel is DominanceRelation.SKYLINE:
        return (p.support <= q.support and p.size < q.size) or (p.support < q.support and p.size <= q.size)
    if rel is DominanceRelation.FREE:
        p, q = q, p
    elif rel not in (DominanceRelation.MAXIMAL, DominanceRelation.CLOSED):
        raise InputError(f"unknown relation {rel!r}")
    return (
        (rel is DominanceRelation.MAXIMAL or p.support == q.support)
        and _rank(p) < _rank(q)
        and _INCLUDED[kind](p.pattern, q.pattern)
    )


def _check_kinds(records) -> None:
    kinds = {rec.kind for rec in records}
    if len(kinds) > 1:
        raise KindMismatchError(f"records mix pattern kinds: {sorted(kinds)}")


def _elements(pattern: Pattern) -> list[tuple]:
    # The pattern's elements, each paired with its occurrence number so
    # that repeats are distinct index keys. An itemset never repeats an item.
    # A graph adds its edge types (la, el, lb), la <= lb: an inclusion maps
    # edges to distinct edges of the same type (gIndex's edge features).
    if pattern.kind == "itemset":
        return [(item, 1) for item in pattern.items]
    symbols: tuple = pattern.elements
    if pattern.kind == "graph":
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

    One pass over the included side i of each candidate pair serves every
    relation: under maximal and closed i may drop, and its scan stops at
    its first dominator; under free the container drops, and one already
    dominated is not tested again.
    """
    elements = [_elements(rec.pattern) for rec in group]
    ranks = list(map(_rank, group))
    postings: dict[tuple, int] = {}
    for pos, elems in enumerate(elements):
        for elem in elems:
            postings[elem] = postings.get(elem, 0) | 1 << pos

    dominated = [False] * len(group)
    for i, elems in enumerate(elements):
        for j in _positions(reduce(and_, (postings[elem] for elem in elems))):
            if ranks[j] <= ranks[i]:
                continue
            drop, keep = (j, i) if rel is DominanceRelation.FREE else (i, j)
            if not dominated[drop] and dominates(group[drop], group[keep], rel):
                dominated[drop] = True
                if drop == i:
                    break
    return dominated


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
    share one pass over an inverted index of elements, and run dominates()
    only on records of higher rank that hold all of a record's elements.
    Closed and free build one index per support value, since their
    dominators need equal support; they group by support, not by cover,
    because covers read from files may be absent or disagree with the data.
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
