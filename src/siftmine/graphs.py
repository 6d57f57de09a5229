"""Frequent subgraph mining and canonical graph forms.

Two miners live here. The unique-labeled miner exploits a structural gift:
when every vertex label in a graph occurs once and edges are unlabeled,
subgraph inclusion collapses to set inclusion over label pairs, so graphs
reduce to itemsets and the itemset miner does the heavy lifting. The general
miner grows connected patterns as DFS codes by gSpan's rightmost-path
extension (Yan & Han, ICDM 2002) and grows each isomorphism class once,
from its minimum DFS code in gSpan's order. It keeps occurrence lists,
every embedding of a frequent pattern in every graph that contains it, and
matches a one-edge extension by extending those embeddings by the new edge,
so mining runs no subgraph isomorphism search. Extension is lazy: one
embedding per host decides whether a candidate is frequent, and only a
frequent candidate whose code passes the minimum-code test, and that will
itself be extended, has its lists built in full. New vertices come from a
per-host typed neighbor index, keyed by (edge label, neighbor label) first
and vertex second, so a candidate looks up one dict per host. Pattern
vertex i is the i-th vertex its minimum code discovers.

No candidate is probed that gSpan's rightmost-path rules rule out (see
mine_frequent_graphs_general), or that the pattern or an ancestor found
infrequent, since the pattern plus it contains the ancestor plus it.

A DFS code is the edge list of one depth-first traversal, each edge written
as the 5-tuple (i, j, l_i, l_e, l_j) over discovery indices; the canonical
code, the public canonical form and the miner's output order, is the
smallest one over all traversals in plain tuple order. Growth cannot use
that order: a prefix of a plain-minimum code need not be minimal itself,
so the miner's test (_is_min_code) uses gSpan's order instead. Two graphs
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
# (edge label, neighbor label) -> {vertex: its neighbors of that type in one host, ascending}.
TypedNeighbors = dict[tuple[int, int], dict[int, list[int]]]

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


# A DFS code edge (i, j, l_i, l_e, l_j) over discovery indices is forward
# when it discovers j (i < j) and backward when it closes a cycle (i > j).
CodeEdge = tuple[int, int, int, int, int]


def _is_min_code(code: tuple[CodeEdge, ...]) -> bool:
    """Whether code, a connected DFS code, is the minimum DFS code of its graph in gSpan's order.

    gSpan's order (Yan & Han, ICDM 2002) compares codes edge by edge. The
    first edge is the smallest (l_i, l_e, l_j) over the graph's edges in
    either direction. After a common prefix, a backward edge from the
    rightmost vertex comes before any forward edge, backward edges go by
    ascending target, forward edges start from the deepest vertex of the
    rightmost path, and then come the edge label and the new vertex's label.

    The minimum code is rebuilt edge by edge over every embedding of its
    prefix in code's own graph. code's own traversal is one of them and
    offers code's next edge, so each rebuilt edge is at most code's: code is
    minimal exactly when every rebuilt edge equals its own.
    """
    label = {}
    rows: dict[int, list[tuple[int, int, int]]] = {}
    edge = {}
    for i, j, li, el, lj in code:
        label[i], label[j] = li, lj
        rows.setdefault(i, []).append((el, lj, j))
        rows.setdefault(j, []).append((el, li, i))
        edge[i, j] = edge[j, i] = el
    for row in rows.values():
        row.sort()
    first = code[0][2:]
    embs: list[VertexMap] = []
    for (u, v), el in edge.items():
        triple = (label[u], el, label[v])
        if triple < first:
            return False
        if triple == first:
            embs.append((u, v))
    path = [0, 1]  # the rebuilt prefix's rightmost path, root first
    closed = {0, 1}  # the rightmost vertex and the path vertices it is joined to in the prefix
    for want in code[1:]:
        rm = path[-1]
        for t in path:
            if t in closed:
                continue
            found = [el for m in embs if (el := edge.get((m[rm], m[t]))) is not None]
            if found:
                el = min(found)
                if want != (rm, t, label[rm], el, label[t]):
                    return False
                embs = [m for m in embs if edge.get((m[rm], m[t])) == el]
                closed.add(t)
                break
        else:
            # No backward edge: a forward one from the deepest source that has one.
            for depth in range(len(path) - 1, -1, -1):
                s = path[depth]
                best = min(((el, lw) for m in embs for el, lw, w in rows[m[s]] if w not in m), default=None)
                if best is not None:
                    break
            n = len(embs[0])
            if want != (s, n, label[s], *best):
                return False
            embs = [m + (w,) for m in embs for el, lw, w in rows[m[s]] if (el, lw) == best and w not in m]
            del path[depth + 1 :]
            path.append(n)
            closed = {s, n}
    return True


def _extend(embs: list[VertexMap], ext: CodeEdge, host: LabeledGraph, typed: TypedNeighbors) -> Iterator[VertexMap]:
    """Lazily extend each embedding of the parent in host by the code edge ext, in order, dropping those that fail."""
    i, j, _, el, lj = ext
    if j < i:
        edge = host.edge_lookup.get
        return (m for m in embs if edge((m[j], m[i]) if m[j] < m[i] else (m[i], m[j])) == el)
    around = typed.get((el, lj))
    if around is None:
        return iter(())
    return (m + (w,) for m in embs for w in around.get(m[i], ()) if w not in m)


def _rightmost_extensions(code: tuple[CodeEdge, ...], steps: dict[int, list[tuple[int, int]]]) -> list[CodeEdge]:
    """The rightmost extensions of code, a minimum DFS code, that may give a minimum code, in probe order.

    steps maps a vertex label to the sorted (edge label, other end's label)
    of each edge type allowed at it. Backward edges leave the rightmost
    vertex in ascending target order, to path vertices other than its
    parent and above the last backward target; forward edges follow, from
    each vertex of the rightmost path, root first. Left out are the edges
    whose code a smaller one beats: a new edge smaller than the first edge,
    read either way, and the two kinds gSpan's rightmost-path rules name
    (mine_frequent_graphs_general), which a traversal stepping along the new
    edge first beats.
    """
    labels = [code[0][2]] + [lj for i, j, _, _, lj in code if i < j]
    # The rightmost path, root first, and the (edge label, child label) of
    # the edge each of its vertices but the last goes forward along.
    tree = {j: (i, el) for i, j, _, el, _ in code if i < j}
    path = [len(labels) - 1]
    while path[-1]:
        path.append(tree[path[-1]][0])
    path.reverse()
    along = {s: (tree[c][1], labels[c]) for s, c in zip(path, path[1:])}
    rm = path[-1]
    low = code[-1][1] if code[-1][1] < code[-1][0] else -1
    exts = [(rm, t, labels[rm], el, labels[t]) for t in path[:-2] if t > low
            for el, lt in steps.get(labels[rm], ()) if lt == labels[t] and (el, labels[rm]) >= along[t]]
    exts += [(s, len(labels), labels[s], el, lw) for s in path for el, lw in steps.get(labels[s], ())
             if s == rm or (el, lw) >= along[s]]
    least = code[0][2:]
    return [ext for ext in exts if ext[2:] >= least and (ext[4], ext[3], ext[2]) >= least]


def _class_entry(code: tuple[CodeEdge, ...], gids, tids: TidTable) -> tuple:
    """mine_patterns' (edges, canonical code, graph, support, cover) entry of the class code stands for, found in gids.

    Pattern vertex i is the i-th vertex code discovers.
    """
    labels = [code[0][2]] + [lj for i, j, _, _, lj in code if i < j]
    pat = LabeledGraph(tuple(enumerate(labels)), tuple(sorted((min(i, j), max(i, j), el) for i, j, _, el, _ in code)))
    return len(code), canonical_code(pat), pat, len(gids), Cover(mask_at(gids, len(tids)), tids)


def mine_frequent_graphs_general(
    db: GraphDB, minsup: MinSupport, max_edges: int | None = None
) -> list[PatternRecord]:
    """Frequent connected subgraph patterns with 1..max_edges edges.

    Support counts database graphs containing the pattern (at least one
    subgraph isomorphism), never occurrences. Patterns grow as DFS codes by
    gSpan's rightmost-path extension: a backward edge from the rightmost
    vertex, or a forward edge to a new vertex from a vertex of the rightmost
    path, over frequent edge types only. Before any probe, gSpan's
    rightmost-path rules drop a forward edge from a path vertex s other
    than the rightmost whose (edge label, new label) is below that of s's
    forward edge along the path, and a backward edge to t whose (edge label,
    rightmost label) is below that of t's forward edge along the path; a
    pattern also skips every extension it or an ancestor found infrequent,
    a forward one keyed by (s, edge label, new label), a backward one by
    its code edge. Each frequent pattern keeps its
    occurrence lists, every embedding in every graph of its cover, and a
    candidate lazily extends those embeddings by its new edge: the first
    embedding per host says the candidate occurs there, and the test stops
    once it has missed too many of the parent's graphs to reach the
    threshold. A frequent candidate is kept only when its code is the
    minimum DFS code of its graph (_is_min_code), so each isomorphism class
    is grown once, and only then are its lists built in full, unless it has
    max_edges edges and is never extended. Pattern
    vertex i is the i-th vertex its minimum code discovers. Results come
    ordered by (edge count, canonical_code) with pids 1..n; covers stay
    packed graph-id masks.
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
            index.setdefault((el, lbl[v]), {}).setdefault(u, []).append(v)
            index.setdefault((el, lbl[u]), {}).setdefault(v, []).append(u)
            la, lb = lbl[u], lbl[v]
            if la > lb:
                la, lb, u, v = lb, la, v, u
            embs = seeds.setdefault((la, lb, el), {}).setdefault(gid, [])
            embs.append((u, v))
            if la == lb:
                embs.append((v, u))

    # Vertex label -> (edge label, other end's label) of every frequent edge type at it, sorted.
    steps: dict[int, list[tuple[int, int]]] = {}
    tids = TidTable(range(len(db) + 1))
    collected = []
    # A stack entry is (code, its occurrence lists, the extensions an ancestor found infrequent).
    stack: list[tuple[tuple[CodeEdge, ...], Occurrences, set]] = []
    for (la, lb, el), occ in sorted(seeds.items(), reverse=True):
        if len(occ) >= sigma:
            steps.setdefault(la, []).append((el, lb))
            if la != lb:
                steps.setdefault(lb, []).append((el, la))
            code = ((0, 1, la, el, lb),)
            collected.append(_class_entry(code, occ, tids))
            if max_edges != 1:
                stack.append((code, occ, set()))
    for row in steps.values():
        row.sort()

    while stack:
        code, occ, inherited = stack.pop()
        # An extension this pattern or an ancestor found infrequent is
        # infrequent here too, as this pattern plus it contains the ancestor
        # plus it. A backward one is keyed by its code edge, a forward one by
        # (source, edge label, new label), since its new index grows.
        infrequent = set(inherited)
        for ext in _rightmost_extensions(code, steps):
            key = ext if ext[1] < ext[0] else ext[:1] + ext[3:]
            if key in infrequent:
                continue
            hits = []  # (gid, first embedding, the rest still lazy)
            spare = len(occ) - sigma  # parent hosts the candidate may miss
            for gid, embs in occ.items():
                found = _extend(embs, ext, db.graphs[gid - 1], typed[gid - 1])
                first = next(found, None)
                if first is not None:
                    hits.append((gid, first, found))
                elif spare == 0:
                    break
                else:
                    spare -= 1
            if len(hits) < sigma:
                infrequent.add(key)
                continue
            if not _is_min_code(child := code + (ext,)):
                continue
            collected.append(_class_entry(child, [gid for gid, _, _ in hits], tids))
            # A pattern of max_edges edges is never extended, so its lists are
            # never built. Every child shares this node's infrequent set, which
            # is complete before any child is popped, and copies it then.
            if len(child) != max_edges:
                stack.append((child, {gid: [first, *found] for gid, first, found in hits}, infrequent))

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
