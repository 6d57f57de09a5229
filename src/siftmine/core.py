"""Pattern data model and inclusion primitives.

Symbols (item names, sequence event names, vertex and edge labels) are
interned to dense integer ids per dataset; patterns carry ids only, and the
dataset's SymbolTable owns the id <-> label mapping. Three pattern kinds are
supported:

* itemsets: strictly increasing tuples of item ids,
* sequences: ordered tuples of symbol ids, repeats allowed,
* labeled graphs: simple undirected graphs with vertex labels and an
  optional edge label (id 0 is reserved for the default edge label "0").

The inclusion primitives at the bottom of the module (cover_itemset,
find_embedding, subgraph_isomorphic, graph_included) define what "pattern p
occurs in object x" means for each kind; everything else in the package is
built on top of them. MinSupport, the threshold every miner takes,
mine_patterns, the frame every miner's search runs in, and mask_at, which
builds the Python-int bitsets of the miners and the tiling kernel, live
here too.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import InputError

DEFAULT_EDGE_LABEL = 0


class _Ids(dict):
    """label -> id; looking up an unseen label assigns it the next id."""

    def __init__(self):
        super().__init__()
        self.labels: list[str] = []

    def __missing__(self, label: str) -> int:
        sid = self[label] = len(self.labels)
        self.labels.append(label)
        return sid


class SymbolTable:
    """Bijective label <-> id mapping, ids assigned in first-appearance order."""

    def __init__(self, labels: Iterable[str] = ()):
        self._ids = _Ids()
        self.intern_all(labels)

    def intern(self, label: str) -> int:
        """Return the id for label, assigning the next free id if unseen."""
        return self._ids[label]

    def intern_all(self, labels: Iterable[str]) -> tuple[int, ...]:
        """The ids of labels, in order, interning each unseen one as intern does."""
        # tuple(list) allocates once; tuple(map) guesses and resizes: slower, and it strands tuples on free lists.
        return tuple(list(map(self._ids.__getitem__, labels)))

    def get(self, label: str) -> int | None:
        """Id of a label, or None if the label was never interned."""
        return self._ids.get(label)

    def id_of(self, label: str) -> int:
        sid = self._ids.get(label)
        if sid is None:
            raise InputError(f"unknown symbol {label!r}")
        return sid

    def label_of(self, sid: int) -> str:
        if not 0 <= sid < len(self._ids.labels):
            raise InputError(f"unknown symbol id {sid}")
        return self._ids.labels[sid]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._ids.labels)

    def __len__(self) -> int:
        return len(self._ids.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __repr__(self) -> str:
        return f"SymbolTable({self._ids.labels!r})"


@dataclass(frozen=True)
class MinSupport:
    """Minimum support threshold, absolute count or relative fraction."""

    kind: str
    value: int | float

    def __post_init__(self):
        if self.kind == "absolute":
            if not isinstance(self.value, int) or self.value < 1:
                raise InputError("absolute minimum support must be a positive integer")
        elif self.kind == "relative":
            if not 0 < float(self.value) <= 1:
                raise InputError("relative minimum support must lie in (0, 1]")
        else:
            raise InputError(f"unknown minimum support kind {self.kind!r}")

    @classmethod
    def absolute(cls, value: int) -> "MinSupport":
        return cls("absolute", value)

    @classmethod
    def relative(cls, value: float) -> "MinSupport":
        return cls("relative", value)

    @classmethod
    def parse(cls, text: str) -> "MinSupport":
        """Integer text means absolute; decimal in (0, 1] means relative; only ASCII without `_` is read."""
        if not text.isascii() or "_" in text:
            raise InputError(f"cannot parse minimum support {text!r}")
        text = text.strip()
        try:
            return cls.absolute(int(text))
        except ValueError:
            pass
        try:
            value = float(text)
        except ValueError:
            raise InputError(f"cannot parse minimum support {text!r}") from None
        return cls.relative(value)

    def effective(self, db_size: int) -> int:
        """Absolute threshold for a database of db_size objects, at least 1.

        Relative thresholds go through Fraction(str(value)) so the ceiling is
        exact for decimal input (no float-epsilon drift).
        """
        if self.kind == "absolute":
            return max(1, int(self.value))
        return max(1, math.ceil(Fraction(str(self.value)) * db_size))


def mine_patterns(db, minsup: MinSupport, search, **limit: int | None) -> list[PatternRecord]:
    """The frame of every miner: checks, threshold, then search's finds as records in canonical order.

    An empty db, then a size limit below 1 (passed by name, e.g. max_len),
    raise InputError. An effective threshold above the database size yields
    an empty list. Otherwise search(db, sigma, **limit) returns flat
    (size, key, pattern, support, cover) entries, one per frequent pattern
    with a distinct key; they are sorted by (size, key) and numbered 1..n.
    """
    if len(db) == 0:
        raise InputError("database must be nonempty")
    for name, value in limit.items():
        if value is not None and value < 1:
            raise InputError(f"{name} must be positive")
    sigma = minsup.effective(len(db))
    if sigma > len(db):
        return []
    found = search(db, sigma, **limit)
    found.sort(key=operator.itemgetter(0, 1))
    return [
        PatternRecord(pid, pattern, support, cover, size)
        for pid, (size, _, pattern, support, cover) in enumerate(found, start=1)
    ]


def mask_at(positions: Iterable[int], n_bits: int) -> int:
    """The int with exactly the given bit positions set, all below n_bits.

    Bits are set in a bytearray and converted once, so the cost is linear
    in n_bits plus the number of positions.
    """
    buf = bytearray((n_bits + 7) // 8)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class Itemset:
    """A nonempty set of item ids, stored as a strictly increasing tuple."""

    items: tuple[int, ...]

    def __post_init__(self):
        if not self.items:
            raise InputError("itemset must be nonempty")
        if self.items[0] < 0:
            raise InputError("item ids must be nonnegative")
        if not all(map(operator.lt, self.items, self.items[1:])):
            raise InputError("item ids must be strictly increasing")

    @classmethod
    def of(cls, items: Iterable[int]) -> "Itemset":
        """Build from any iterable; duplicates collapse, order is normalized."""
        return cls(tuple(sorted(set(items))))

    @property
    def size(self) -> int:
        return len(self.items)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.items)


@dataclass(frozen=True)
class Sequence:
    """A nonempty ordered tuple of symbol ids; repeats are meaningful."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InputError("sequence must be nonempty")
        if min(self.symbols) < 0:
            raise InputError("symbol ids must be nonnegative")

    @classmethod
    def of(cls, symbols: Iterable[int]) -> "Sequence":
        return cls(tuple(symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Embedding:
    """Positions (1-based, strictly increasing) witnessing one subsequence occurrence."""

    positions: tuple[int, ...]

    def __post_init__(self):
        if not self.positions:
            raise InputError("embedding must be nonempty")
        if self.positions[0] < 1:
            raise InputError("embedding positions are 1-based")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise InputError("embedding positions must be strictly increasing")


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with labeled vertices and optionally labeled edges.

    vertices holds (vertex id, label id) pairs sorted by vertex id; edges holds
    (u, v, edge label id) triples with u < v, sorted. Self loops and parallel
    edges (same unordered vertex pair) are rejected. Use LabeledGraph.of to
    build from unnormalized input.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if not self.vertices:
            raise InputError("graph must have at least one vertex")
        vids = [vid for vid, _ in self.vertices]
        if len(set(vids)) != len(vids):
            raise InputError("duplicate vertex id")
        if list(vids) != sorted(vids):
            raise InputError("vertices must be sorted by id")
        declared = set(vids)
        seen_pairs = set()
        for u, v, _ in self.edges:
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if u > v:
                raise InputError("edge endpoints must satisfy u < v")
            if u not in declared or v not in declared:
                raise InputError(f"edge ({u},{v}) references an undeclared vertex")
            if (u, v) in seen_pairs:
                raise InputError(f"duplicate edge ({u},{v})")
            seen_pairs.add((u, v))
        if list(self.edges) != sorted(self.edges):
            raise InputError("edges must be sorted")

    @classmethod
    def of(
        cls,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int] | tuple[int, int, int]] = (),
    ) -> "LabeledGraph":
        """Build from unnormalized vertex/edge lists.

        Edge triples may omit the label (defaults to DEFAULT_EDGE_LABEL) and
        endpoints may come in either order.
        """
        norm_edges = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                lbl = DEFAULT_EDGE_LABEL
            else:
                u, v, lbl = e
            norm_edges.append((min(u, v), max(u, v), lbl))
        return cls(tuple(sorted(vertices)), tuple(sorted(norm_edges)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def label_map(self) -> dict[int, int]:
        return dict(self.vertices)

    @cached_property
    def neighbors(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """vid -> tuple of (neighbor vid, edge label id)."""
        adj: dict[int, list[tuple[int, int]]] = {vid: [] for vid, _ in self.vertices}
        for u, v, lbl in self.edges:
            adj[u].append((v, lbl))
            adj[v].append((u, lbl))
        return {vid: tuple(sorted(nbrs)) for vid, nbrs in adj.items()}

    @cached_property
    def edge_lookup(self) -> dict[tuple[int, int], int]:
        """Unordered vertex pair (normalized u < v) -> edge label id."""
        return {(u, v): lbl for u, v, lbl in self.edges}

    @cached_property
    def unique_labeled(self) -> bool:
        labels = [lbl for _, lbl in self.vertices]
        if len(set(labels)) != len(labels):
            return False
        return all(lbl == DEFAULT_EDGE_LABEL for _, _, lbl in self.edges)

    def degree(self, vid: int) -> int:
        return len(self.neighbors[vid])

    @cached_property
    def _matching_plan(self) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
        """Vertex order for subgraph_isomorphic, as (vid, label, degree, back edges).

        Each next vertex has the most already-placed neighbors, then the
        highest degree, then the lowest id, which keeps the backtracking
        frontier connected. Back edges are (depth of an earlier neighbor,
        edge label). Computed once per graph.
        """
        nbrs = self.neighbors
        # A vertex next to a placed one beats every other, so the search
        # for the next vertex only scans the frontier; a new component
        # starts at the highest-degree, lowest-id unplaced vertex.
        seeds = sorted(nbrs, key=lambda v: (-len(nbrs[v]), v))
        frontier: dict[int, int] = {}  # unplaced vertex -> placed neighbors
        depth: dict[int, int] = {}
        plan = []
        for seed in seeds:
            if seed in depth:
                continue
            frontier[seed] = 0
            while frontier:
                v = max(frontier, key=lambda w: (frontier[w], len(nbrs[w]), -w))
                del frontier[v]
                back = tuple(sorted((depth[w], lbl) for w, lbl in nbrs[v] if w in depth))
                depth[v] = len(plan)
                plan.append((v, self.label_map[v], len(nbrs[v]), back))
                for w, _ in nbrs[v]:
                    if w not in depth:
                        frontier[w] = frontier.get(w, 0) + 1
        return tuple(plan)

Pattern = Union[Itemset, Sequence, LabeledGraph]


def pattern_size(pattern: Pattern) -> int:
    """Number of items, sequence length, or edge count."""
    if isinstance(pattern, Itemset):
        return len(pattern.items)
    if isinstance(pattern, Sequence):
        return len(pattern.symbols)
    if isinstance(pattern, LabeledGraph):
        return pattern.edge_count
    raise InputError(f"not a pattern: {pattern!r}")


def pattern_kind(pattern: Pattern) -> str:
    if isinstance(pattern, Itemset):
        return "itemset"
    if isinstance(pattern, Sequence):
        return "sequence"
    if isinstance(pattern, LabeledGraph):
        return "graph"
    raise InputError(f"not a pattern: {pattern!r}")


@dataclass(frozen=True)
class TransactionDB:
    """Transactions as sorted id-tuples; tids are the 1-based positions."""

    transactions: tuple[tuple[int, ...], ...]
    symbols: SymbolTable

    def __len__(self) -> int:
        return len(self.transactions)

    def records(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        return iter(enumerate(self.transactions, start=1))


@dataclass(frozen=True)
class SequenceDB:
    """Sequences as id-tuples (repeats preserved); sids are 1-based positions."""

    sequences: tuple[tuple[int, ...], ...]
    symbols: SymbolTable

    def __len__(self) -> int:
        return len(self.sequences)

    def records(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        return iter(enumerate(self.sequences, start=1))


@dataclass(frozen=True)
class GraphDB:
    """Graphs in file order; gids are 1-based positions."""

    graphs: tuple[LabeledGraph, ...]
    symbols: SymbolTable

    def __len__(self) -> int:
        return len(self.graphs)

    def records(self) -> Iterator[tuple[int, LabeledGraph]]:
        return iter(enumerate(self.graphs, start=1))


class _TidRow(dict):
    """Byte b -> the text of the tids at b's set bits, ascending, each followed by ","; filled on first use."""

    __slots__ = ("tids",)

    def __init__(self, tids: tuple[int, ...]):
        super().__init__({0: ""})
        self.tids = tids

    def __missing__(self, b: int) -> str:
        rest = b & (b - 1)
        text = self[b] = f"{self.tids[(b ^ rest).bit_length() - 1]},{self[rest]}"
        return text


class TidTable(tuple):
    """Tids by bit position, shared by every bitmap cover of one mining run."""

    @cached_property
    def rows(self) -> tuple[_TidRow, ...]:
        """One row per eight positions: row i renders a mask's byte i."""
        return tuple(_TidRow(self[i : i + 8]) for i in range(0, len(self), 8))


class Cover:
    """A pattern's tids, kept in their producer's form until they are read.

    Either the miners' packed tid mask over a TidTable, bit k standing for
    table[k], rendered a byte (eight tids) at a time; or the checked text of
    a pattern file, written back verbatim, with the count its reader checked.
    """

    __slots__ = ("mask", "table", "text", "count")

    def __init__(self, mask: int = 0, table: TidTable = TidTable(), text: str | None = None, count: int | None = None):
        self.mask, self.table, self.text, self.count = mask, table, text, count

    def __len__(self) -> int:
        """Number of tids listed, counted without building a set."""
        return self.mask.bit_count() if self.text is None else self.count

    def as_text(self) -> str:
        if self.text is not None:
            return self.text
        rows = self.table.rows
        return "".join(map(operator.getitem, rows, self.mask.to_bytes(len(rows), "little")))[:-1]

    def as_set(self) -> frozenset[int]:
        text = self.as_text()
        return frozenset(map(int, text.split(","))) if text else frozenset()


class _LazyCover:
    """PatternRecord.cover: a held Cover becomes a frozenset on first read."""

    def __get__(self, rec, owner=None):
        if rec is None:
            raise AttributeError("cover")  # so the dataclass field has no default
        held = rec.__dict__["_cover"]
        if isinstance(held, Cover):
            held = held.as_set()
            if len(held) != rec.support:
                raise InputError(f"pattern {rec.pid}: cover lists a tid more than once")
            rec.__dict__["_cover"] = held
        return held


@dataclass(frozen=True, init=False)
class PatternRecord:
    """A mined pattern together with its support, cover, and size.

    cover may be None for records rebuilt from files that omitted it; when
    present it must agree with support. It may also be given as a Cover,
    which is read as a frozenset, built on the first read. The constructor
    checks and stores every field in one frame, and its support check is
    the only count of the cover: producers pass the count they hold.
    """

    pid: int
    pattern: Pattern
    support: int
    cover: frozenset[int] | None = _LazyCover()
    size: int

    def __init__(self, pid: int, pattern: Pattern, support: int, cover: frozenset[int] | Cover | None, size: int):
        if pid < 1:
            raise InputError("pattern ids are 1-based")
        if support < 0:
            raise InputError("support must be nonnegative")
        if cover is not None and len(cover) != support:  # len() of a Cover builds no set
            raise InputError("support must equal the cover cardinality")
        if size != pattern_size(pattern):
            raise InputError("size must match the pattern")
        # One key at a time, in field order, keeps the instance dict key-shared.
        d = self.__dict__
        d["pid"] = pid
        d["pattern"] = pattern
        d["support"] = support
        d["_cover"] = cover
        d["size"] = size

    @property
    def kind(self) -> str:
        return pattern_kind(self.pattern)

    def cover_text(self) -> str | None:
        """The cover as pattern-file text, tids ascending unless read from a file; builds no set."""
        held = self.__dict__["_cover"]
        if isinstance(held, Cover):
            return held.as_text()
        return None if held is None else ",".join(map(str, sorted(held)))


# ---------------------------------------------------------------------------
# Inclusion primitives


def cover_itemset(db: TransactionDB, p: Itemset) -> frozenset[int]:
    """Tids of all transactions containing every item of p."""
    for item in p.items:
        if item >= len(db.symbols):
            raise InputError(f"unknown item id {item}")
    want = p.as_set()
    return frozenset(tid for tid, txn in db.records() if want.issubset(txn))


def find_embedding(p: Sequence, host: Sequence) -> Embedding | None:
    """Leftmost-greedy subsequence embedding of p into host, or None.

    Scans host once, matching each pattern symbol at its earliest possible
    position after the previous match. Greedy matching is complete for plain
    subsequence containment: if any embedding exists, the greedy one does.
    """
    positions: list[int] = []
    i = 0
    hs = host.symbols
    for sym in p.symbols:
        while i < len(hs) and hs[i] != sym:
            i += 1
        if i == len(hs):
            return None
        positions.append(i + 1)
        i += 1
    return Embedding(tuple(positions))


def subgraph_isomorphic(p: LabeledGraph, host: LabeledGraph) -> dict[int, int] | None:
    """Injective label- and edge-preserving map of p into host, or None.

    The match is not induced: host edges between image vertices that have no
    preimage in p are allowed. Backtracking over p's matching order with
    label, degree, and mapped-neighbor consistency pruning; host vertices
    are tried in vertex order and the first complete map is returned. The
    search keeps one host position per pattern vertex on an explicit stack,
    so its depth does not touch the recursion limit.
    """
    if p.vertex_count > host.vertex_count or p.edge_count > host.edge_count:
        return None
    p_labels = Counter(lbl for _, lbl in p.vertices)
    h_labels = Counter(lbl for _, lbl in host.vertices)
    if any(h_labels[lbl] < n for lbl, n in p_labels.items()):
        return None

    plan = p._matching_plan
    h_vertices = host.vertices
    h_edge = host.edge_lookup
    h_nbrs = host.neighbors
    n, n_host = len(plan), len(h_vertices)
    image: list[int] = [0] * n  # host vertex placed at each depth
    resume = [0] * (n + 1)  # next host position to try at each depth
    used: set[int] = set()
    i = 0
    while i < n:
        _, lbl, deg, back = plan[i]
        k = resume[i]
        while k < n_host:
            hv, hlbl = h_vertices[k]
            k += 1
            if hv in used or hlbl != lbl or len(h_nbrs[hv]) < deg:
                continue
            for j, elbl in back:
                hn = image[j]
                if h_edge.get((hn, hv) if hn < hv else (hv, hn)) != elbl:
                    break
            else:
                break
        else:
            # Depth i is exhausted: undo depth i-1 and resume its scan.
            if i == 0:
                return None
            i -= 1
            used.remove(image[i])
            continue
        resume[i] = k
        image[i] = hv
        used.add(hv)
        i += 1
        resume[i] = 0
    return {pv: hv for (pv, _, _, _), hv in zip(plan, image)}


def is_unique_labeled(g: LabeledGraph) -> bool:
    """True when vertex labels are pairwise distinct and all edges carry the default label."""
    return g.unique_labeled


def edge_itemize(g: LabeledGraph) -> tuple[tuple[int, int], ...]:
    """Edges of a unique-labeled graph as sorted (label, label) pairs.

    Each edge (u, v) becomes the pair (min, max) of the endpoint label ids.
    Unique labels make the pair set a faithful encoding: subgraph inclusion
    between unique-labeled graphs is exactly pair-set inclusion.
    """
    if not is_unique_labeled(g):
        raise InputError("graph is not unique-labeled")
    if not g.edges:
        raise InputError("edgeless graph has no edge items")
    lbl = g.label_map
    pairs = sorted((min(lbl[u], lbl[v]), max(lbl[u], lbl[v])) for u, v, _ in g.edges)
    return tuple(pairs)


def graph_included(p: LabeledGraph, host: LabeledGraph) -> bool:
    """Subgraph inclusion with a set-inclusion fast path for unique-labeled pairs."""
    if p.unique_labeled and host.unique_labeled:
        p_lbls = {lbl for _, lbl in p.vertices}
        h_lbls = {lbl for _, lbl in host.vertices}
        if not p_lbls <= h_lbls:
            return False
        lbl_p, lbl_h = p.label_map, host.label_map
        p_pairs = {(min(lbl_p[u], lbl_p[v]), max(lbl_p[u], lbl_p[v])) for u, v, _ in p.edges}
        h_pairs = {(min(lbl_h[u], lbl_h[v]), max(lbl_h[u], lbl_h[v])) for u, v, _ in host.edges}
        return p_pairs <= h_pairs
    return subgraph_isomorphic(p, host) is not None
