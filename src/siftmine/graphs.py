"""Frequent subgraph mining and canonical graph forms.

Two miners live here. The unique-labeled miner exploits a structural gift:
when every vertex label in a graph occurs once and edges are unlabeled,
subgraph inclusion collapses to set inclusion over label pairs, so graphs
reduce to itemsets and the itemset miner does the heavy lifting. The general
miner grows connected patterns edge by edge and deduplicates candidates by a
canonical form, the minimum DFS code. It keeps occurrence lists, every
embedding of a frequent pattern in every graph that contains it, and
matches a one-edge extension by extending those embeddings by the new edge,
so mining runs no subgraph isomorphism search (gSpan's occurrence lists,
Yan & Han, ICDM 2002, without its rightmost-path extension). Extension is
lazy: one embedding per host decides whether a candidate is frequent, and
only a frequent candidate that starts a new isomorphism class has its lists
built in full. New vertices come from a per-host typed neighbor index.

A DFS code is the edge list of one depth-first traversal, each edge written
as the 5-tuple (i, j, l_i, l_e, l_j) over discovery indices; the canonical
code is the lexicographically smallest one over all traversals. Two graphs
share a canonical code exactly when they are isomorphic, since the code
reconstructs the graph up to renaming. canonical_code finds it in one
search per component over sorted adjacency rows: a state is the DFS stack,
the discovery indices, the emitted edges as an int bitmask and the code so
far; only ties on the smallest next tuple branch, and the growing code is
compared with the best complete code tuple by tuple, a paused branch
rechecking its whole prefix when it resumes.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    DEFAULT_EDGE_LABEL,
    Cover,
    GraphDB,
    LabeledGraph,
    MinSupport,
    PatternRecord,
    SymbolTable,
    TidTable,
    TransactionDB,
    mask_at,
    mine_patterns,
    subgraph_isomorphic,  # unused here, but perfbench/tracer.py wraps siftmine.graphs.subgraph_isomorphic
)
from .errors import InputError
from .itemsets import _eclat

# An embedding maps pattern vertex i (pattern vids are 0..n-1) to host
# vertex m[i]; occurrence lists hold every embedding per covering graph id.
VertexMap = tuple[int, ...]
Occurrences = dict[int, list[VertexMap]]
# (vertex, edge label, neighbor label) -> those neighbors of one host, ascending.
TypedNeighbors = dict[tuple[int, int, int], list[int]]

# An isolated vertex with label l encodes as this sentinel; a real component
# code always starts with discovery indices (0, 1), so no collision.
_VERTEX_SENTINEL = -1


def canonical_code(g: LabeledGraph) -> tuple:
    """Canonical form of g: the sorted tuple of per-component minimum DFS codes.

    Equal codes characterize isomorphism, including for disconnected graphs,
    because each component code rebuilds its component up to vertex renaming
    and sorting makes the component multiset order-free.

    One search per component finds its minimum code. A search state is
    (DFS vertex stack, discovery indices, emitted edges as a bitmask, code so
    far). A newly discovered vertex first emits its backward edges, forced,
    in ascending discovery index of the target; then the top of the stack
    steps forward along its smallest (edge label, neighbor label) to an
    undiscovered neighbor, or is popped when it has none. Ties on that pair
    branch, because their futures differ: the search goes on with the first
    and pushes the rest on `pending`. Searches start only at the vertices
    whose (label, smallest incident edge label and neighbor label) is the
    minimum, since the first edge's tuple is (0, 1, that triple).

    `best` is the smallest complete code so far, and the code under
    construction is compared with it as it grows. Until the code is strictly
    smaller than best's prefix, each emitted tuple is compared with best's
    tuple at that position; a larger one drops the state. A pending branch
    compares its whole code with best's prefix once when it resumes, not
    when it was pushed, because best may have shrunk in between.
    """
    label = dict(g.vertices)
    # Per vertex, (edge label, neighbor label, neighbor, edge bit), sorted:
    # the first undiscovered entry is the smallest forward step.
    rows: dict[int, list[tuple[int, int, int, int]]] = {v: [] for v in label}
    for i, (u, v, el) in enumerate(g.edges):
        rows[u].append((el, label[v], v, 1 << i))
        rows[v].append((el, label[u], u, 1 << i))
    for row in rows.values():
        row.sort()

    codes = []
    placed: set[int] = set()
    for root in label:
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        for v in comp:
            for _, _, w, _ in rows[v]:
                if w not in placed:
                    placed.add(w)
                    comp.append(w)
        if len(comp) == 1:
            codes.append(((0, 0, label[root], _VERTEX_SENTINEL, _VERTEX_SENTINEL),))
            continue
        n_edges = sum(len(rows[v]) for v in comp) // 2
        first = min((label[v], *rows[v][0][:2]) for v in comp)
        best: list[tuple] | None = None
        pending = [([v], {v: 0}, 0, []) for v in reversed(comp) if (label[v], *rows[v][0][:2]) == first]
        while pending:
            stack, disc, emitted, code = pending.pop()
            if best is None:
                smaller = True
            else:
                head = best[: len(code)]
                if code > head:
                    continue
                smaller = code < head
            while True:
                w = stack[-1]  # just discovered
                back = [(disc[x], el, lx, bit) for el, lx, x, bit in rows[w] if x in disc and not emitted & bit]
                if back:
                    back.sort()
                    k = len(code)
                    dw, lw = disc[w], label[w]
                    code += [(dw, dx, lw, el, lx) for dx, el, lx, _ in back]
                    for *_, bit in back:
                        emitted |= bit
                    if not smaller:
                        head, tail = best[k : len(code)], code[k:]
                        if tail > head:
                            break
                        smaller = tail < head
                if len(code) == n_edges:
                    best = code
                    break
                # Backtrack to the deepest vertex with an undiscovered
                # neighbor; one exists while edges remain.
                while True:
                    u = stack[-1]
                    rest = iter(rows[u])
                    for el, lv, v, bit in rest:
                        if v not in disc:
                            break
                    else:
                        stack.pop()
                        continue
                    break
                t = (disc[u], len(disc), label[u], el, lv)
                if not smaller:
                    b = best[len(code)]
                    if t > b:
                        break
                    smaller = t < b
                ties = []  # they follow the chosen entry in its sorted row
                for el2, lv2, v2, bit2 in rest:
                    if el2 != el or lv2 != lv:
                        break
                    if v2 not in disc:
                        ties.append((stack + [v2], {**disc, v2: len(disc)}, emitted | bit2, code + [t]))
                pending += reversed(ties)
                code.append(t)
                disc[v] = len(disc)
                stack.append(v)
                emitted |= bit
        assert best is not None
        codes.append(tuple(best))
    codes.sort()
    return tuple(codes)


# A growth step adds one pattern edge (u, v, edge label) and says what it
# adds: when new_label is None it closes u and v, both already in the
# pattern; otherwise v is a new vertex with that label hanging off u.
Step = tuple[int, int, int, int | None]


def _extensions(g: LabeledGraph, edge_types: list[tuple[int, int, int]]) -> Iterator[Step]:
    # One-edge extensions restricted to edge types present in the database:
    # attach a new vertex to an existing one, or close a pair of existing
    # non-adjacent vertices. Every connected (k+1)-edge graph arises from a
    # connected k-edge subgraph this way (delete a leaf edge or a cycle edge),
    # so growth is complete. edge_types is sorted, which fixes the order.
    next_vid = g.vertices[-1][0] + 1
    for vid, lv in g.vertices:
        for la, lb, el in edge_types:
            if la == lv:
                yield vid, next_vid, el, lb
            if lb == lv and la != lb:
                yield vid, next_vid, el, la
    present = {(u, v) for u, v, _ in g.edges}
    verts = g.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, lu = verts[i]
            v, lv = verts[j]
            if (u, v) in present:
                continue
            pa, pb = min(lu, lv), max(lu, lv)
            for la, lb, el in edge_types:
                if (la, lb) == (pa, pb):
                    yield u, v, el, None


def _extended(g: LabeledGraph, step: Step) -> LabeledGraph:
    """The graph that step makes of g."""
    u, v, el, new_label = step
    vertices = g.vertices if new_label is None else g.vertices + ((v, new_label),)
    return LabeledGraph.of(vertices, g.edges + ((u, v, el),))


def _grow(embs: list[VertexMap], step: Step, host: LabeledGraph, typed: TypedNeighbors) -> Iterator[VertexMap]:
    """Lazily extend each embedding of the parent in host by step, in order, dropping those that fail."""
    u, v, el, new_label = step
    if new_label is None:
        edge = host.edge_lookup.get
        return (m for m in embs if edge((m[u], m[v]) if m[u] < m[v] else (m[v], m[u])) == el)
    return (m + (w,) for m in embs for w in typed.get((m[u], el, new_label), ()) if w not in m)


def mine_frequent_graphs_general(
    db: GraphDB, minsup: MinSupport, max_edges: int | None = None
) -> list[PatternRecord]:
    """Frequent connected subgraph patterns with 1..max_edges edges.

    Support counts database graphs containing the pattern (at least one
    subgraph isomorphism), never occurrences. Each frequent pattern keeps
    its occurrence lists, every embedding in every graph of its cover, and
    a one-edge extension lazily extends those embeddings by its new edge:
    the first embedding per host says the candidate occurs there, and the
    test stops once it has missed too many of the parent's graphs to reach
    the threshold. Only a frequent candidate is built and canonicalised;
    the first of each isomorphism class stands for it and alone drains its
    extensions into lists. Results come ordered by (edge count, canonical
    code) with pids 1..n; covers stay packed graph-id masks.
    """
    return mine_patterns(db, minsup, _grow_patterns, max_edges=max_edges)


def _grow_patterns(db: GraphDB, sigma: int, max_edges: int | None) -> list[tuple]:
    """Every connected pattern with support >= sigma, as mine_patterns' (edges, code, graph, support, cover) entries."""
    # One scan of the host edges gives every embedding of every one-edge
    # pattern (la, lb, el) with la <= lb: both orientations when la == lb.
    # The same scan builds each host's typed neighbor index; edges come
    # sorted, so every neighbor list comes out in ascending id order.
    seeds: dict[tuple[int, int, int], Occurrences] = {}
    typed: list[TypedNeighbors] = []
    for gid, g in db.records():
        lbl = g.label_map
        index: TypedNeighbors = {}
        typed.append(index)
        for u, v, el in g.edges:
            index.setdefault((u, el, lbl[v]), []).append(v)
            index.setdefault((v, el, lbl[u]), []).append(u)
            la, lb = lbl[u], lbl[v]
            if la > lb:
                la, lb, u, v = lb, la, v, u
            embs = seeds.setdefault((la, lb, el), {}).setdefault(gid, [])
            embs.append((u, v))
            if la == lb:
                embs.append((v, u))

    level: dict[tuple, tuple[LabeledGraph, Occurrences]] = {}
    for (la, lb, el), occ in sorted(seeds.items()):
        if len(occ) >= sigma:
            pat = LabeledGraph(((0, la), (1, lb)), ((0, 1, el),))
            level[canonical_code(pat)] = (pat, occ)
    edge_types = sorted(seeds)

    tids = TidTable(range(len(db) + 1))
    collected = []
    k = 1  # the edge count of every pattern in level
    while level:
        for code, (pat, occ) in level.items():
            collected.append((k, code, pat, len(occ), Cover(mask_at(occ, len(tids)), tids)))
        if k == max_edges:
            break
        grown: dict[tuple, tuple[LabeledGraph, Occurrences]] = {}
        for code in sorted(level):
            # A parent's lists are dropped once its extensions are grown.
            pat, occ = level.pop(code)
            for step in _extensions(pat, edge_types):
                hits = []  # (gid, first embedding, the rest still lazy)
                spare = len(occ) - sigma  # parent hosts the candidate may miss
                for gid, embs in occ.items():
                    found = _grow(embs, step, db.graphs[gid - 1], typed[gid - 1])
                    first = next(found, None)
                    if first is not None:
                        hits.append((gid, first, found))
                    elif spare == 0:
                        break
                    else:
                        spare -= 1
                # Support is the same across an isomorphism class, so the
                # first frequent candidate of each class stands for it.
                if len(hits) >= sigma:
                    cand = _extended(pat, step)
                    cand_code = canonical_code(cand)
                    if cand_code not in grown:
                        grown[cand_code] = (cand, {gid: [first, *found] for gid, first, found in hits})
        level = grown
        k += 1

    return collected


def mine_frequent_graphs_unique(db: GraphDB, minsup: MinSupport) -> list[PatternRecord]:
    """Frequent subgraph patterns of a database of unique-labeled graphs.

    Each graph becomes the itemset of its label-pair edges; the itemset
    search enumerates frequent pair sets in the miner frame, mine_patterns,
    and each maps back to a graph whose vertices are exactly the labels its
    edges touch. Covers stay packed tid masks. Patterns may be
    disconnected. An edgeless graph contributes an empty transaction but still
    counts toward the database size. Raises when any input graph is not
    unique-labeled, naming the offending graph.
    """
    for gid, g in db.records():
        if not g.unique_labeled:
            raise InputError(f"graph {gid} is not unique-labeled")

    return mine_patterns(db, minsup, _pair_sets)


def _pair_sets(db: GraphDB, sigma: int) -> list[tuple]:
    """Eclat over the graphs' label pairs, each frequent pair set as mine_patterns' entry for its graph."""
    # Pair ids in first appearance, each graph's pairs in sorted order: the ids fix the miner's output order.
    pair_table = SymbolTable()
    transactions = tuple(tuple(sorted(pair_table.intern_all(sorted(g.label_pairs)))) for g in db.graphs)
    pairs_by_id = pair_table.labels
    found = []
    for size, ids, _, support, cover in _eclat(TransactionDB(transactions, pair_table), sigma):
        pairs = [pairs_by_id[i] for i in ids]
        labels = sorted({lbl for pair in pairs for lbl in pair})
        vid_of = {lbl: vid for vid, lbl in enumerate(labels)}
        edges = tuple(sorted((vid_of[a], vid_of[b], DEFAULT_EDGE_LABEL) for a, b in pairs))
        found.append((size, ids, LabeledGraph(tuple(enumerate(labels)), edges), support, cover))
    return found
