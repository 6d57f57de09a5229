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
reconstructs the graph up to renaming.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    DEFAULT_EDGE_LABEL,
    GraphDB,
    Itemset,
    LabeledGraph,
    MinSupport,
    PatternRecord,
    SymbolTable,
    TransactionDB,
    edge_itemize,
    is_unique_labeled,
    mine_patterns,
    subgraph_isomorphic,  # unused here, but perfbench/tracer.py wraps siftmine.graphs.subgraph_isomorphic
)
from .errors import InputError
from .itemsets import mine_frequent_itemsets

# An embedding maps pattern vertex i (pattern vids are 0..n-1) to host
# vertex m[i]; occurrence lists hold every embedding per covering graph id.
VertexMap = tuple[int, ...]
Occurrences = dict[int, list[VertexMap]]
# (vertex, edge label, neighbor label) -> those neighbors of one host, ascending.
TypedNeighbors = dict[tuple[int, int, int], list[int]]

# An isolated vertex with label l encodes as this sentinel; a real component
# code always starts with discovery indices (0, 1), so no collision.
_VERTEX_SENTINEL = -1


def _components(g: LabeledGraph) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    for vid, _ in g.vertices:
        if vid in seen:
            continue
        comp = [vid]
        seen.add(vid)
        queue = [vid]
        while queue:
            u = queue.pop()
            for n, _ in g.neighbors[u]:
                if n not in seen:
                    seen.add(n)
                    comp.append(n)
                    queue.append(n)
        comps.append(sorted(comp))
    return comps


def _component_min_code(comp: list[int], g: LabeledGraph) -> tuple:
    label = g.label_map
    elabel = g.edge_lookup
    adj = {v: [n for n, _ in g.neighbors[v]] for v in comp}
    n_edges = sum(len(nbrs) for nbrs in adj.values()) // 2
    if n_edges == 0:
        return ((0, 0, label[comp[0]], _VERTEX_SENTINEL, _VERTEX_SENTINEL),)

    def ekey(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    # A search state is (DFS vertex stack, discovery indices, emitted edges,
    # code so far). Forced steps update the state in place; a branch point
    # pushes the later ties on `pending` and goes on with the first, so ties
    # are searched depth-first in ranked order. A state whose code exceeds
    # the prefix of `best` cannot complete to a smaller code and is dropped.
    best: list[tuple] | None = None
    start_label = min(label[v] for v in comp)
    pending = [([v0], {v0: 0}, set(), []) for v0 in reversed(comp) if label[v0] == start_label]
    while pending:
        stack, disc, emitted, code = pending.pop()
        while best is None or code <= best[: len(code)]:
            if len(code) == n_edges:
                if best is None or code < best:
                    best = code
                break
            if not stack:
                break
            u = stack[-1]
            # Backward edges from the current vertex are forced, emitted in
            # ascending discovery index of the target.
            back = sorted((disc[w], w) for w in adj[u] if w in disc and ekey(u, w) not in emitted)
            if back:
                code.extend((disc[u], dw, label[u], elabel[ekey(u, w)], label[w]) for dw, w in back)
                emitted.update(ekey(u, w) for _, w in back)
                continue
            fwd = set(w for w in adj[u] if w not in disc)
            if not fwd:
                stack.pop()
                continue
            # Only minimal next tuples can start a minimal completion; ties
            # still branch because their futures differ.
            ranked = sorted((elabel[ekey(u, w)], label[w], w) for w in fwd)
            ties = [t for t in ranked if t[:2] == ranked[0][:2]]
            for el, lw, w in reversed(ties[1:]):
                step = (stack + [w], {**disc, w: len(disc)}, emitted | {ekey(u, w)})
                pending.append((*step, code + [(disc[u], len(disc), label[u], el, lw)]))
            el, lw, w = ties[0]
            code.append((disc[u], len(disc), label[u], el, lw))
            disc[w] = len(disc)
            stack.append(w)
            emitted.add(ekey(u, w))
    assert best is not None
    return tuple(best)


def canonical_code(g: LabeledGraph) -> tuple:
    """Canonical form of g: the sorted tuple of per-component minimum DFS codes.

    Equal codes characterize isomorphism, including for disconnected graphs,
    because each component code rebuilds its component up to vertex renaming
    and sorting makes the component multiset order-free.
    """
    return tuple(sorted(_component_min_code(comp, g) for comp in _components(g)))


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
    present = set(g.edge_lookup)
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
    code) with pids 1..n.
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

    collected = []
    k = 1  # the edge count of every pattern in level
    while level:
        collected.extend((k, code, pat, len(occ), frozenset(occ)) for code, (pat, occ) in level.items())
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

    Each graph becomes the itemset of its label-pair edges; the itemset miner
    enumerates frequent pair sets; each result maps back to a graph whose
    vertices are exactly the labels its edges touch. Patterns may be
    disconnected. An edgeless graph contributes an empty transaction but still
    counts toward the database size. Raises when any input graph is not
    unique-labeled, naming the offending graph.
    """
    for gid, g in db.records():
        if not is_unique_labeled(g):
            raise InputError(f"graph {gid} is not unique-labeled")

    pair_ids: dict[tuple[int, int], int] = {}
    pairs_by_id: list[tuple[int, int]] = []
    pair_table = SymbolTable()
    transactions: list[tuple[int, ...]] = []
    for _, g in db.records():
        items: list[int] = []
        if g.edges:
            for pair in edge_itemize(g):
                pid = pair_ids.get(pair)
                if pid is None:
                    pid = len(pairs_by_id)
                    pair_ids[pair] = pid
                    pairs_by_id.append(pair)
                    pair_table.intern(f"{pair[0]}~{pair[1]}")
                items.append(pid)
        transactions.append(tuple(sorted(set(items))))

    reduced = TransactionDB(tuple(transactions), pair_table)
    out: list[PatternRecord] = []
    for rec in mine_frequent_itemsets(reduced, minsup):
        assert isinstance(rec.pattern, Itemset)
        pairs = [pairs_by_id[i] for i in rec.pattern.items]
        labels = sorted({lbl for pair in pairs for lbl in pair})
        vid_of = {lbl: vid for vid, lbl in enumerate(labels)}
        vertices = tuple(enumerate(labels))
        edges = tuple(sorted((vid_of[a], vid_of[b], DEFAULT_EDGE_LABEL) for a, b in pairs))
        pattern = LabeledGraph(vertices, edges)
        out.append(
            PatternRecord(pid=rec.pid, pattern=pattern, support=rec.support, cover=rec.cover, size=rec.size)
        )
    return out
