"""Brute-force reference implementations for verification.

Everything here favors obviousness over speed and shares no search logic
with the miners or selectors it checks: subsequence tests enumerate index
tuples, graph containment enumerates injective vertex maps, the minimum
DFS code, in plain tuple order or in gSpan's order, enumerates every
depth-first traversal, miners
enumerate candidate patterns from the data and count supports directly,
condensation tests every ordered pair of records with dominates(), tiling
errors are counted cell by cell, greedy selection rescores every trial that
way, candidate tiles come from row sets and Fraction confidences, and
constraint atoms are read afresh for every record, order atoms over index
pairs. Size bounds keep the enumeration honest; exceeding one raises
BoundExceededError rather than silently taking forever.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .condense import DominanceRelation, _check_kinds, dominates
from .core import GraphDB, LabeledGraph, PatternRecord, SequenceDB, TransactionDB
from .errors import BoundExceededError, InputError, KindMismatchError
from .tiling import BinaryMatrix, Tile

MAX_ITEMS = 16
MAX_TRANSACTIONS = 256
MAX_SEQUENCES = 8
MAX_SEQUENCE_LEN = 12
MAX_GRAPHS = 6
MAX_GRAPH_EDGES = 10
MAX_CODE_VERTICES = 8
MAX_UNIQUE_EDGES = 12
MAX_TILE_CANDIDATES = 12


def embedding_exists(pattern: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Subsequence containment via depth-first enumeration of match positions."""

    def extend(pi: int, start: int) -> bool:
        if pi == len(pattern):
            return True
        return any(
            host[h] == pattern[pi] and extend(pi + 1, h + 1) for h in range(start, len(host))
        )

    return extend(0, 0)


def all_embeddings(pattern: tuple[int, ...], host: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every embedding as a 1-based position tuple, by filtering index combinations."""
    out = []
    for positions in combinations(range(len(host)), len(pattern)):
        if all(host[h] == sym for h, sym in zip(positions, pattern)):
            out.append(tuple(h + 1 for h in positions))
    return out


def injective_map_exists(pattern: LabeledGraph, host: LabeledGraph) -> bool:
    """Subgraph containment by trying every injective vertex assignment."""
    p_vids = [vid for vid, _ in pattern.vertices]
    p_label = pattern.label_map
    h_label = host.label_map
    h_edges = host.edge_lookup
    for image in permutations([vid for vid, _ in host.vertices], len(p_vids)):
        assign = dict(zip(p_vids, image))
        if any(p_label[v] != h_label[assign[v]] for v in p_vids):
            continue
        ok = True
        for u, v, el in pattern.edges:
            hu, hv = assign[u], assign[v]
            if h_edges.get((min(hu, hv), max(hu, hv))) != el:
                ok = False
                break
        if ok:
            return True
    return False


def frequent_itemsets_bruteforce(db: TransactionDB, sigma: int) -> dict[tuple[int, ...], frozenset[int]]:
    """Every frequent itemset (as an id tuple) with its cover, by powerset scan."""
    if len(db) > MAX_TRANSACTIONS:
        raise BoundExceededError(f"{len(db)} transactions exceed oracle bound {MAX_TRANSACTIONS}")
    universe = sorted({item for txn in db.transactions for item in txn})
    if len(universe) > MAX_ITEMS:
        raise BoundExceededError(f"{len(universe)} distinct items exceed oracle bound {MAX_ITEMS}")
    sets = [(tid, set(txn)) for tid, txn in db.records()]
    out: dict[tuple[int, ...], frozenset[int]] = {}
    for k in range(1, len(universe) + 1):
        for items in combinations(universe, k):
            want = set(items)
            cover = frozenset(tid for tid, txn in sets if want <= txn)
            if len(cover) >= sigma:
                out[items] = cover
    return out


def frequent_sequences_bruteforce(
    db: SequenceDB, sigma: int, max_len: int | None = None
) -> dict[tuple[int, ...], frozenset[int]]:
    """Every frequent sequential pattern with its cover.

    Candidates are the distinct subsequences of the database sequences
    (any frequent pattern embeds into some sequence, so this is exhaustive);
    support is recounted per candidate with the enumeration-based test.
    """
    if len(db) > MAX_SEQUENCES:
        raise BoundExceededError(f"{len(db)} sequences exceed oracle bound {MAX_SEQUENCES}")
    if any(len(s) > MAX_SEQUENCE_LEN for s in db.sequences):
        raise BoundExceededError(f"sequence longer than oracle bound {MAX_SEQUENCE_LEN}")
    candidates: set[tuple[int, ...]] = set()
    for seq in db.sequences:
        top = len(seq) if max_len is None else min(max_len, len(seq))
        for k in range(1, top + 1):
            for positions in combinations(range(len(seq)), k):
                candidates.add(tuple(seq[i] for i in positions))
    out: dict[tuple[int, ...], frozenset[int]] = {}
    for cand in sorted(candidates):
        cover = frozenset(sid for sid, seq in db.records() if embedding_exists(cand, seq))
        if len(cover) >= sigma:
            out[cand] = cover
    return out


def frequent_graphs_unique_bruteforce(
    db: GraphDB, sigma: int
) -> dict[tuple[tuple[int, int], ...], frozenset[int]]:
    """Frequent edge-pair sets of unique-labeled graphs, keyed by sorted pairs."""
    if len(db) > MAX_GRAPHS:
        raise BoundExceededError(f"{len(db)} graphs exceed oracle bound {MAX_GRAPHS}")
    pair_sets: list[tuple[int, frozenset[tuple[int, int]]]] = []
    for gid, g in db.records():
        if not g.unique_labeled:
            raise InputError(f"graph {gid} is not unique-labeled")
        if g.edge_count > MAX_UNIQUE_EDGES:
            raise BoundExceededError(f"graph {gid} exceeds oracle bound of {MAX_UNIQUE_EDGES} edges")
        lbl = g.label_map
        pair_sets.append(
            (gid, frozenset((min(lbl[u], lbl[v]), max(lbl[u], lbl[v])) for u, v, _ in g.edges))
        )
    candidates: set[frozenset[tuple[int, int]]] = set()
    for _, pairs in pair_sets:
        for k in range(1, len(pairs) + 1):
            for subset in combinations(sorted(pairs), k):
                candidates.add(frozenset(subset))
    out: dict[tuple[tuple[int, int], ...], frozenset[int]] = {}
    for cand in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        cover = frozenset(gid for gid, pairs in pair_sets if cand <= pairs)
        if len(cover) >= sigma:
            out[tuple(sorted(cand))] = cover
    return out


def _connected_edge_subgraph(g: LabeledGraph, edge_idx: tuple[int, ...]) -> LabeledGraph | None:
    edges = [g.edges[i] for i in edge_idx]
    vids = sorted({v for u, v, _ in edges} | {u for u, v, _ in edges})
    # connectivity over the chosen edges only
    parent = {v: v for v in vids}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    if len({find(v) for v in vids}) != 1:
        return None
    lbl = g.label_map
    return LabeledGraph(tuple((v, lbl[v]) for v in vids), tuple(sorted(edges)))


def _iso_signature(g: LabeledGraph) -> tuple:
    # Each vertex's label with the multiset of its (edge label, neighbour label) pairs.
    lbl = g.label_map
    return g.edge_count, tuple(sorted((lbl[v], tuple(sorted((el, lbl[w]) for w, el in g.neighbors[v]))) for v in lbl))


def frequent_graphs_general_bruteforce(
    db: GraphDB, sigma: int, max_edges: int | None = None
) -> list[tuple[LabeledGraph, frozenset[int]]]:
    """Frequent connected patterns by enumerating every connected edge subset.

    A connected pattern occurs in a graph exactly when it is isomorphic to
    one of that graph's connected edge subsets, so enumerating those per
    graph and bucketing them into isomorphism classes (signature prefilter,
    then exhaustive injective maps both ways) yields supports directly.
    """
    if len(db) > MAX_GRAPHS:
        raise BoundExceededError(f"{len(db)} graphs exceed oracle bound {MAX_GRAPHS}")
    for gid, g in db.records():
        if g.edge_count > MAX_GRAPH_EDGES:
            raise BoundExceededError(f"graph {gid} exceeds oracle bound of {MAX_GRAPH_EDGES} edges")

    classes: list[tuple[tuple, LabeledGraph, set[int]]] = []
    for gid, g in db.records():
        top = g.edge_count if max_edges is None else min(max_edges, g.edge_count)
        seen_here: set[int] = set()
        for k in range(1, top + 1):
            for edge_idx in combinations(range(g.edge_count), k):
                sub = _connected_edge_subgraph(g, edge_idx)
                if sub is None:
                    continue
                sig = _iso_signature(sub)
                for ci, (csig, rep, cover) in enumerate(classes):
                    if csig == sig and injective_map_exists(sub, rep):
                        if ci not in seen_here:
                            cover.add(gid)
                            seen_here.add(ci)
                        break
                else:
                    classes.append((sig, sub, {gid}))
                    seen_here.add(len(classes) - 1)
    return [(rep, frozenset(cover)) for _, rep, cover in classes if len(cover) >= sigma]


class IsoClass(tuple):
    """A graph as (shape, vertices, edges), equal to the key of every graph isomorphic to it.

    verify keys general graphs by it, not by canonical_code or the miner's code. Keys
    of equal shape, the isomorphism signature, compare by
    injective_map_exists: between graphs of equal sizes, an injective map is
    an isomorphism.
    """

    def __new__(cls, g: LabeledGraph):
        return super().__new__(cls, (_iso_signature(g), g.vertices, g.edges))

    def __eq__(self, other):
        return self[0] == other[0] and injective_map_exists(LabeledGraph(*self[1:]), LabeledGraph(*other[1:]))

    def __hash__(self):
        return hash(self[0])


def frequent_graph_classes_bruteforce(
    db: GraphDB, sigma: int, max_edges: int | None = None
) -> dict[IsoClass, frozenset[int]]:
    """frequent_graphs_general_bruteforce as a map from each pattern's IsoClass to its cover."""
    return {IsoClass(rep): cover for rep, cover in frequent_graphs_general_bruteforce(db, sigma, max_edges)}


def _dfs_codes(g: LabeledGraph, root: int):
    """Every DFS code of root's component that starts at root, one per traversal, with repeats.

    At each step the top of the DFS stack goes to each of its undiscovered
    neighbors in turn, so every order of forward neighbors is tried. A newly
    discovered vertex writes its forward edge (i, j, l_i, l_e, l_j) over
    discovery indices, then its backward edges to earlier vertices in
    ascending discovery index.
    """
    label = g.label_map
    edge = {}
    for u, v, el in g.edges:
        edge[u, v] = edge[v, u] = el

    def traversals(order: list[int], stack: list[int], code: tuple):
        if not stack:
            yield code
            return
        u = stack[-1]
        fresh = [w for w in label if (u, w) in edge and w not in order]
        if not fresh:
            yield from traversals(order, stack[:-1], code)
        for w in fresh:
            j = len(order)
            forward = ((order.index(u), j, label[u], edge[u, w], label[w]),)
            back = tuple(
                (j, i, label[w], edge[w, x], label[x]) for i, x in enumerate(order) if x != u and (w, x) in edge
            )
            yield from traversals(order + [w], stack + [w], code + forward + back)

    return traversals([root], [root], ())


def _check_code_bound(g: LabeledGraph) -> None:
    if g.vertex_count > MAX_CODE_VERTICES:
        raise BoundExceededError(f"{g.vertex_count} vertices exceed oracle bound {MAX_CODE_VERTICES}")


def _components(g: LabeledGraph) -> list[set[int]]:
    components: list[set[int]] = []
    for v in g.label_map:
        if any(v in comp for comp in components):
            continue
        comp = {v}
        while grown := {w for x in comp for w, _ in g.neighbors[x]} - comp:
            comp |= grown
        components.append(comp)
    return components


def min_dfs_code_bruteforce(g: LabeledGraph) -> tuple:
    """The canonical code by exhaustion: each component's minimum over all its DFS codes, sorted.

    Every vertex of a component is tried as the start of _dfs_codes, and
    whole codes are compared as plain tuples, with no pruning. An isolated
    vertex with label l codes as ((0, 0, l, -1, -1),).
    """
    _check_code_bound(g)
    return tuple(
        sorted(
            min(code for v in comp for code in _dfs_codes(g, v))
            if len(comp) > 1
            else ((0, 0, g.label_map[min(comp)], -1, -1),)
            for comp in _components(g)
        )
    )


def _gspan_key(edge: tuple) -> tuple:
    # Two codes first differ at an edge that extends their common prefix
    # from the same rightmost path, where gSpan's order puts backward edges
    # (i > j) first, by target j and then edge label, and forward edges after
    # them, the deepest source i first, then the labels. The labels of a
    # backward edge, and the new index j of a forward one, follow from the
    # prefix.
    i, j, li, el, lj = edge
    return (0, j, el) if i > j else (1, -i, li, el, lj)


def min_dfs_code_gspan_bruteforce(g: LabeledGraph) -> tuple:
    """The minimum DFS code of a connected graph with an edge in gSpan's order (Yan & Han, ICDM 2002), by exhaustion.

    Every DFS code from every start vertex (_dfs_codes) is compared edge by
    edge under gSpan's DFS-lexicographic order, not as plain tuples.
    """
    _check_code_bound(g)
    if not g.edges or len(_components(g)) > 1:
        raise InputError("the gSpan minimum code needs a connected graph with an edge")
    return min((code for v in g.label_map for code in _dfs_codes(g, v)), key=lambda code: [_gspan_key(e) for e in code])


def tiling_error_bruteforce(
    matrix: BinaryMatrix,
    tiles: list[Tile],
    mode: str = "coverable",
    candidates: list[Tile] | None = None,
) -> int:
    """Cell-by-cell error count, independent of the bitset version."""
    universe = tiles if candidates is None else candidates
    total = 0
    for r in range(1, matrix.n_rows + 1):
        for c in range(1, matrix.n_cols + 1):
            inside = any(r in t.row_set and c in t.col_set for t in tiles)
            d = matrix.cell(r, c)
            if d == 0 and inside:
                total += 1
            elif d == 1 and not inside:
                if mode == "full":
                    total += 1
                elif any((r, c) in t.ones for t in universe):
                    total += 1
    return total


def greedy_select_bruteforce(
    matrix: BinaryMatrix,
    candidates: list[Tile],
    budget: int,
    error_mode: str = "coverable",
) -> tuple[tuple[int, ...], int] | None:
    """The greedy loop written out literally, scoring every trial cell by cell.

    Each round adds the lowest-id tile with the strictly smallest error;
    returns (ascending ids, error) once the budget is met, None when a round
    gains nothing or the tiles run out.
    """
    chosen: list[Tile] = []
    current = tiling_error_bruteforce(matrix, chosen, error_mode, candidates)
    if current <= budget:
        return (), current
    remaining = sorted(candidates, key=lambda t: t.tile_id)
    while remaining:
        best_tile = None
        best_error = current
        for t in remaining:
            e = tiling_error_bruteforce(matrix, chosen + [t], error_mode, candidates)
            if e < best_error:
                best_tile, best_error = t, e
        if best_tile is None:
            return None
        chosen.append(best_tile)
        remaining.remove(best_tile)
        current = best_error
        if current <= budget:
            return tuple(sorted(t.tile_id for t in chosen)), current
    return None


def exact_selections_bruteforce(
    matrix: BinaryMatrix,
    candidates: list[Tile],
    budget: int,
    error_mode: str = "coverable",
) -> list[tuple[tuple[int, ...], int]]:
    """All admissible nonempty subsets with their errors, by full enumeration."""
    if len(candidates) > MAX_TILE_CANDIDATES:
        raise BoundExceededError(
            f"{len(candidates)} candidates exceed oracle bound {MAX_TILE_CANDIDATES}"
        )
    tiles = sorted(candidates, key=lambda t: t.tile_id)
    out: list[tuple[tuple[int, ...], int]] = []
    for k in range(1, len(tiles) + 1):
        for subset in combinations(tiles, k):
            err = tiling_error_bruteforce(matrix, list(subset), error_mode, candidates)
            if err <= budget:
                out.append((tuple(t.tile_id for t in subset), err))
    return out


def generate_candidates_bruteforce(
    matrix: BinaryMatrix, tau: Fraction | float, max_candidates: int | None = None
) -> list[Tile]:
    """Candidate tiles from association confidences, on row sets and Fractions.

    Same definition as tiling.generate_candidates: per column i with
    nonzero support, B_i holds the columns j with conf(i=>j) >= tau, the
    rows are those with at least as many ones as zeros within B_i;
    duplicates collapse, order is descending area then column then row
    sets, ids 1..k, truncated to max_candidates.
    """
    if not 0 < tau <= 1:
        raise InputError("tau must lie in (0, 1]")
    if max_candidates is not None and max_candidates < 1:
        raise InputError("max_candidates must be positive")
    if isinstance(tau, float):
        tau = Fraction(str(tau))  # the decimal it prints, as MinSupport reads a float
    col_rows = {
        c: frozenset(r for r in range(1, matrix.n_rows + 1) if matrix.cell(r, c))
        for c in range(1, matrix.n_cols + 1)
    }
    rects: dict[tuple[frozenset[int], frozenset[int]], Tile] = {}
    for i, support in sorted(col_rows.items()):
        if not support:
            continue
        cols = frozenset(
            j
            for j, j_rows in col_rows.items()
            if j_rows and Fraction(len(support & j_rows), len(support)) >= tau
        )
        rows = frozenset(
            r
            for r in range(1, matrix.n_rows + 1)
            if 2 * sum(matrix.cell(r, j) for j in cols) >= len(cols)
        )
        if not rows:
            continue
        key = (rows, cols)
        if key in rects:
            continue
        ones = frozenset((r, c) for r in rows for c in cols if matrix.cell(r, c))
        rects[key] = Tile(tile_id=0, row_set=rows, col_set=cols, ones=ones)

    ordered = sorted(
        rects.values(),
        key=lambda t: (-len(t.ones), sorted(t.col_set), sorted(t.row_set)),
    )
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    return [
        Tile(tile_id=tid, row_set=t.row_set, col_set=t.col_set, ones=t.ones)
        for tid, t in enumerate(ordered, start=1)
    ]


def _atom_holds_bruteforce(rec: PatternRecord, atom, weights, symbols) -> bool:
    """One constraint atom on one record, its bound read and its labels looked up on this call."""

    def resolve(label: str) -> int | None:
        if symbols is None:
            raise InputError("constraint references symbols but no symbol table was provided")
        return symbols.get(label)

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
        return sum(weights.cost_of(sid) for sid in rec.pattern.elements) <= atom.bound
    if name == "contains":
        sid = resolve(atom.symbols[0])
        return sid is not None and sid in rec.pattern.elements
    if name == "excludes":
        sid = resolve(atom.symbols[0])
        return sid is None or sid not in rec.pattern.elements

    if rec.kind != "sequence":
        raise KindMismatchError(f"{name} applies only to sequence patterns, got {rec.kind}")
    seq = rec.pattern.symbols
    first, second = resolve(atom.symbols[0]), resolve(atom.symbols[1])
    if first is None or second is None:
        return False
    pairs = [(i, j) for i, j in combinations(range(len(seq)), 2) if seq[i] == first and seq[j] == second]
    if name == "adjacent":
        return any(j == i + 1 for i, j in pairs)
    if name == "before":
        return bool(pairs)
    if name == "none_between":
        blocked = {sid for sid in map(resolve, atom.blocked) if sid is not None}
        return any(not any(seq[k] in blocked for k in range(i + 1, j)) for i, j in pairs)
    raise InputError(f"unknown atom {name!r}")


def constraints_hold_bruteforce(rec: PatternRecord, expr, weights=None, *, symbols=None) -> bool:
    """Reference semantics of a constraint expression: every clause has an atom that holds on rec.

    Clauses are tried in order and a clause's atoms in order until one
    holds, so an atom that cannot be evaluated raises exactly when reached.
    """
    return all(any(_atom_holds_bruteforce(rec, atom, weights, symbols) for atom in clause) for clause in expr.clauses)


def brute_force_condense(
    valid: list[PatternRecord], rel: DominanceRelation, bound: int = 512
) -> list[PatternRecord]:
    """Reference implementation: the literal double loop, no shortcuts.

    Used as a test oracle against condense; refuses inputs above bound.
    """
    if len(valid) > bound:
        raise BoundExceededError(f"brute-force condensation over {len(valid)} patterns exceeds bound {bound}")
    _check_kinds(valid)
    return [p for p in valid if not any(q is not p and dominates(p, q, rel) for q in valid)]
