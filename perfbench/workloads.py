"""Workloads of the siftmine benchmark: input generators, CLI pipelines, output checks.

Each workload is a closed loop with one caller: its CLI commands run one
after another, each starting when the previous one returns. The program
only ever sees the files a generator writes; the generators, the pipelines
and the checks live here, outside the package.

Seeds and steadiness. Where drawing content from the seed keeps the amount
of work steady, the seed draws the content: the transaction databases use
exact per-block option counts, and every seed gives the same pattern count
to within a few patterns. Where it does not (in trial generators, seeded
Markov sequences, random graphs and noisy planted matrices moved their
pattern counts, or greedy's rounds, by 24-57% from seed to seed), the
workload has a fixed shape drawn from a constant, and the seed draws its
presentation: record order, vertex numbering, column order and label
spelling. Those still change the symbol ids the program assigns, hence its
search order and its output bytes.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable
from urllib.parse import unquote

from siftmine.condense import DominanceRelation, dominates
from siftmine.core import (
    Itemset,
    LabeledGraph,
    PatternRecord,
    Sequence,
    SymbolTable,
    TransactionDB,
    cover_itemset,
)
from siftmine.oracle import embedding_exists, injective_map_exists, tiling_error_bruteforce
from siftmine.tiling import BinaryMatrix, Tile

# Constant that fixes the shape of the workloads whose seed only draws the
# presentation (the seed of tests/test_acceptance.py::synthetic_votes).
SHAPE_SEED = 20260819

# How many records each output check samples.
SAMPLE = 12


# ---------------------------------------------------------------------------
# Generators. Each returns {file name: list of lines}.


def _exact_options(n: int, shares: tuple[float, ...]) -> list[int]:
    # n option indices whose counts follow shares exactly, remainder to the first options.
    counts = [int(n * s) for s in shares]
    for i in range(n - sum(counts)):
        counts[i] += 1
    return [opt for opt, c in enumerate(counts) for _ in range(c)]


def votes_lines(seed: int, attributes: int = 16, rows: int = 435) -> list[str]:
    """Votes-style transactions: `attributes` three-way questions over two latent blocks.

    Copied from tests/test_acceptance.py::synthetic_votes (same odds, same
    block split, the last attribute copies the one before it), except that
    each block gets exactly its share of every option, shuffled by the seed.
    Independent draws moved the pattern count at minsup 0.35 between 485 and
    788 across seeds; exact shares keep it within 800-804.
    """
    rng = random.Random(seed)
    labels = [[f"q{g:02d}_{o}" for o in "ynu"] for g in range(attributes)]
    n_left = round(rows * 0.6)
    blocks = ((n_left, (0.85, 0.10, 0.05)), (rows - n_left, (0.10, 0.75, 0.15)))
    columns = []
    for _ in range(attributes - 1):
        column: list[int] = []
        for n, shares in blocks:
            opts = _exact_options(n, shares)
            rng.shuffle(opts)
            column.extend(opts)
        columns.append(column)
    # Rows go out in the order of their option vectors, so that siftmine
    # interns the items in nearly the same order for every seed (it numbers
    # them by first appearance, and the itemset miner's search follows that
    # numbering). In shuffled order the first row decided the numbering, and
    # mining at minsup 0.3 took 0.64 s or 1.07 s depending on the seed.
    order = sorted(range(rows), key=lambda r: [column[r] for column in columns])
    lines = []
    for r in order:
        opts = [column[r] for column in columns]
        opts.append(opts[-1])
        lines.append(" ".join(sorted(labels[g][o] for g, o in enumerate(opts))))
    return lines


def _symbol_names(rng: random.Random, n: int, prefix: str) -> list[str]:
    names = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(names)
    return names


def markov_lines(seed: int, n: int = 400, max_len: int = 30, k: int = 8, step: float = 0.45) -> list[str]:
    """Markov-style sequences over k symbols: mostly one step round a cycle, else a random symbol.

    The sequences are fixed by SHAPE_SEED; the seed renames the symbols and
    orders the sequences.
    """
    shape = random.Random(SHAPE_SEED)
    base = []
    for _ in range(n):
        s = shape.randrange(k)
        seq = [s]
        for _ in range(shape.randint(max_len // 2, max_len) - 1):
            s = (s + 1) % k if shape.random() < step else shape.randrange(k)
            seq.append(s)
        base.append(seq)
    rng = random.Random(seed)
    names = _symbol_names(rng, k, "e")
    rng.shuffle(base)
    return [" ".join(names[s] for s in seq) for seq in base]


def graph_lines(seed: int, n: int = 30, vertices: int = 10, edges: int = 14, labels: int = 2) -> list[str]:
    """Connected random graphs: a random spanning tree plus random extra edges.

    The graphs are fixed by SHAPE_SEED; the seed renames the labels, orders
    the graphs and renumbers each graph's vertices.
    """
    shape = random.Random(SHAPE_SEED)
    base = []
    for _ in range(n):
        vlabels = [shape.randrange(labels) for _ in range(vertices)]
        es = {(shape.randrange(v), v) for v in range(1, vertices)}
        while len(es) < edges:
            u, v = sorted(shape.sample(range(vertices), 2))
            es.add((u, v))
        base.append((vlabels, sorted(es)))
    rng = random.Random(seed)
    names = _symbol_names(rng, labels, "L")
    rng.shuffle(base)
    lines = []
    for gid, (vlabels, es) in enumerate(base, start=1):
        perm = list(range(vertices))
        rng.shuffle(perm)
        lines.append(f"t # {gid}")
        lines.extend(f"v {perm[v]} {names[vlabels[v]]}" for v in sorted(range(vertices), key=perm.__getitem__))
        lines.extend(f"e {u} {v}" for u, v in sorted(tuple(sorted((perm[a], perm[b]))) for a, b in es))
    return lines


PLANTED_BLOCKS = ((150, 8), (120, 7), (100, 6), (80, 6), (60, 5), (200, 4), (40, 6), (90, 6))


def matrix_lines(seed: int, rows: int = 435, density: float = 0.85, background: float = 0.05) -> list[str]:
    """Noisy planted-block binary matrix: one block per column group, random rows per block.

    Inside a block a `density` share of cells is one, elsewhere a
    `background` share. The matrix is fixed by SHAPE_SEED; the seed permutes
    its rows and its columns.
    """
    shape = random.Random(SHAPE_SEED)
    cols = sum(c for _, c in PLANTED_BLOCKS)
    cells = [[0] * cols for _ in range(rows)]
    inside: set[tuple[int, int]] = set()
    c0 = 0
    for block_rows, block_cols in PLANTED_BLOCKS:
        block = [(r, c) for r in shape.sample(range(rows), block_rows) for c in range(c0, c0 + block_cols)]
        inside.update(block)
        for r, c in shape.sample(block, round(len(block) * density)):
            cells[r][c] = 1
        c0 += block_cols
    outside = [(r, c) for r in range(rows) for c in range(cols) if (r, c) not in inside]
    for r, c in shape.sample(outside, round(len(outside) * background)):
        cells[r][c] = 1
    rng = random.Random(seed)
    row_order = list(range(rows))
    col_order = list(range(cols))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return [" ".join(str(cells[r][c]) for c in col_order) for r in row_order]


# ---------------------------------------------------------------------------
# Independent readers for the checks (they share no code with siftmine.formats).


def parse_pattern_line(line: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in line.split())
    rec = {
        "pid": int(fields["pid"]),
        "kind": fields["kind"],
        "support": int(fields["support"]),
        "size": int(fields["size"]),
        "cover": tuple(int(t) for t in fields["cover"].split(",")) if fields.get("cover") else (),
    }
    if "elements" in fields:
        rec["elements"] = tuple(unquote(t) for t in fields["elements"].split(","))
    else:
        rec["vertices"] = tuple((int(v), unquote(l)) for v, l in (t.split(":") for t in fields["vertices"].split(",")))
        rec["edges"] = tuple(
            (int(uv.split("-")[0]), int(uv.split("-")[1]), unquote(l))
            for uv, l in (t.split(":") for t in fields["edges"].split(",") if t)
        )
    return rec


def read_patterns(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [parse_pattern_line(line) for line in fh if line.strip()]


def parse_graphs(lines: list[str]) -> list[tuple[list[tuple[int, str]], list[tuple[int, int]]]]:
    graphs: list = []
    for line in lines:
        tag, *rest = line.split()
        if tag == "t":
            graphs.append(([], []))
        elif tag == "v":
            graphs[-1][0].append((int(rest[0]), rest[1]))
        else:
            graphs[-1][1].append((int(rest[0]), int(rest[1])))
    return graphs


def parse_report(path) -> dict:
    """Tiling report: header fields, tiles (rows, cols, ones) and selection lines."""
    report: dict = {"tiles": {}, "selections": []}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = dict(tok.split("=", 1) for tok in line.split())
            if "tile" in fields:
                report["tiles"][int(fields["tile"])] = (
                    frozenset(int(r) for r in fields["rows"].split(",")),
                    frozenset(int(c) for c in fields["cols"].split(",")),
                    int(fields["ones"]),
                )
            elif "selection" in fields:
                report["selections"].append(
                    (
                        tuple(int(t) for t in fields["selection"].split(",")),
                        int(fields["ones_outside"]) + int(fields["zeros_inside"]),
                        int(fields["error"]),
                    )
                )
            else:
                report.update(fields)
    return report


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems (empty when the output is right).


def _ids(table: SymbolTable, labels) -> list[int]:
    return [table.intern(lbl) for lbl in labels]


def _record(rec: dict, table: SymbolTable) -> PatternRecord:
    if rec["kind"] == "itemset":
        pattern = Itemset.of(_ids(table, rec["elements"]))
    elif rec["kind"] == "sequence":
        pattern = Sequence.of(_ids(table, rec["elements"]))
    else:
        pattern = _graph(rec["vertices"], [(u, v) for u, v, _ in rec["edges"]], table)
    return PatternRecord(rec["pid"], pattern, rec["support"], frozenset(rec["cover"]), rec["size"])


def _graph(vertices, edges, table: SymbolTable) -> LabeledGraph:
    return LabeledGraph.of([(vid, table.intern(lbl)) for vid, lbl in vertices], edges)


def _sample(rng: random.Random, items: list, k: int = SAMPLE) -> list:
    return items if len(items) <= k else rng.sample(items, k)


def _reported(check):
    """Make a check that raises on malformed output report it as a problem instead."""

    @functools.wraps(check)
    def wrapper(path, *args, **kwargs):
        try:
            return check(path, *args, **kwargs)
        except Exception as exc:
            return [f"{path}: malformed output ({type(exc).__name__}: {exc})"]

    return wrapper


@_reported
def check_mined(path, cover_of: Callable[[dict], tuple[int, ...]], rng: random.Random, sampled=lambda rec: True) -> list[str]:
    """Supports match covers, and sampled covers match the ones recomputed from the input."""
    recs = read_patterns(path)
    problems = [] if recs else [f"{path}: no patterns"]
    problems += [
        f"{path}: pid {rec['pid']} support {rec['support']} != |cover| {len(rec['cover'])}"
        for rec in recs
        if rec["support"] != len(rec["cover"])
    ]
    problems += [
        f"{path}: pid {rec['pid']} cover differs from the recomputed one"
        for rec in _sample(rng, [r for r in recs if sampled(r)])
        if cover_of(rec) != rec["cover"]
    ]
    return problems


@_reported
def check_condensed(mined_path, kept_path, rel: DominanceRelation, valid: Callable, rng: random.Random) -> list[str]:
    """Kept records are valid mined records that no valid record dominates; sampled dropped ones are dominated."""
    table = SymbolTable()
    valid_recs = [_record(rec, table) for rec in read_patterns(mined_path) if valid(rec)]
    keys = {(r.pattern, r.cover) for r in valid_recs}
    kept_keys = set()
    problems = []
    for rec in read_patterns(kept_path):
        kept = _record(rec, table)
        if (kept.pattern, kept.cover) not in keys:
            problems.append(f"{kept_path}: pid {rec['pid']} is not a valid mined pattern")
        kept_keys.add((kept.pattern, kept.cover))
    kept = [r for r in valid_recs if (r.pattern, r.cover) in kept_keys]
    dropped = [r for r in valid_recs if (r.pattern, r.cover) not in kept_keys]
    problems += [
        f"{kept_path}: kept pid {p.pid} of {mined_path} is dominated"
        for p in _sample(rng, kept)
        if any(q is not p and dominates(p, q, rel) for q in valid_recs)
    ]
    problems += [
        f"{kept_path}: dropped pid {p.pid} of {mined_path} is not dominated"
        for p in _sample(rng, dropped)
        if not any(q is not p and dominates(p, q, rel) for q in valid_recs)
    ]
    return problems


@_reported
def check_tiling(path, matrix: BinaryMatrix, mode: str, threshold: int) -> list[str]:
    """Status is ok, tiles match the matrix, and every reported error is recomputed cell by cell."""
    report = parse_report(path)
    problems = []
    if report.get("status") != "ok" or not report["selections"]:
        problems.append(f"{path}: status {report.get('status')} with {len(report['selections'])} selections")
    tiles = {}
    for tid, (rows, cols, n_ones) in report["tiles"].items():
        ones = frozenset((r, c) for r in rows for c in cols if matrix.cell(r, c))
        if len(ones) != n_ones:
            problems.append(f"{path}: tile {tid} reports {n_ones} ones, the matrix has {len(ones)}")
        tiles[tid] = Tile(tid, rows, cols, ones)
    candidates = list(tiles.values())
    for ids, terms, err in report["selections"]:
        truth = tiling_error_bruteforce(matrix, [tiles[t] for t in ids], mode, candidates)
        if not err == terms == truth or err > threshold:
            problems.append(f"{path}: selection {ids} reports error {err} ({terms} by terms), recomputed {truth}")
    return problems


def itemset_covers(lines: list[str]) -> Callable[[dict], tuple[int, ...]]:
    table = SymbolTable()
    db = TransactionDB(tuple(tuple(sorted(set(_ids(table, line.split())))) for line in lines), table)
    return lambda rec: tuple(sorted(cover_itemset(db, Itemset.of(_ids(table, rec["elements"])))))


def sequence_covers(lines: list[str]) -> Callable[[dict], tuple[int, ...]]:
    hosts = [tuple(line.split()) for line in lines]
    return lambda rec: tuple(sid for sid, host in enumerate(hosts, start=1) if embedding_exists(rec["elements"], host))


def graph_covers(lines: list[str]) -> Callable[[dict], tuple[int, ...]]:
    table = SymbolTable()
    hosts = [_graph(vs, es, table) for vs, es in parse_graphs(lines)]

    def cover_of(rec):
        pattern = _graph(rec["vertices"], [(u, v) for u, v, _ in rec["edges"]], table)
        return tuple(gid for gid, host in enumerate(hosts, start=1) if injective_map_exists(pattern, host))

    return cover_of


# The graph oracle tries every injective vertex map, so only patterns of up to
# this many vertices are sampled for cover checks.
ORACLE_MAX_VERTICES = 4


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out: str
    expected_rc: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], dict[str, list[str]]]
    # (inputs, path of a work file) -> the pipeline's commands, in order
    commands: Callable[[dict[str, list[str]], Callable[[str], str]], list[Command]]
    # (inputs, path of a work file, rng) -> problems per command label
    check: Callable[[dict[str, list[str]], Callable[[str], str], random.Random], dict[str, list[str]]]


def _mine(label, kind, inp, minsup, out, *extra):
    return Command(label, ("mine", "--type", kind, "--input", inp, "--minsup", minsup, *extra, "--out", out), out)


def _condense(label, patterns, rep, out, constraints=None):
    extra = ("--constraints", constraints) if constraints else ()
    return Command(label, ("condense", "--patterns", patterns, "--rep", rep, *extra, "--out", out), out)


def _tile(label, matrix, threshold, out, *extra):
    return Command(label, ("tile", "--matrix", matrix, "--threshold", str(threshold), "--tau", TILE_TAU, *extra, "--out", out), out)


REPS = ("maximal", "closed", "free", "skyline")

CONDENSE_MINSUP = "0.35"
WIDE_ITEM_ATTRIBUTES = 20
WIDE_ITEM_MINSUP = "0.3"
WIDE_SEQ_MINSUP = "0.35"
WIDE_SEQ_MAX_LEN = "8"
# Selective constraints, as CLI text and as a predicate on a parsed record for
# the checks: about a hundred of each kind of mined pattern stay valid, so
# condense has little to do.
WIDE_ITEMS_VALID = ("size >= 5, contains q00_y", lambda rec: rec["size"] >= 5 and "q00_y" in rec["elements"])
WIDE_SEQS_VALID = ("size >= 5, support >= 158", lambda rec: rec["size"] >= 5 and rec["support"] >= 158)
GRAPH_MINSUP = "0.5"
GRAPH_MAX_EDGES = "6"
TILE_TAU = "0.8"
OPTIMAL_CANDIDATES = "13"
OPTIMAL_THRESHOLD = 2000


def greedy_threshold(matrix_lines_: list[str]) -> int:
    # Two fifths of the ones: greedy reaches it after several rounds.
    return sum(line.split().count("1") for line in matrix_lines_) * 2 // 5


def _matrix(lines: list[str]) -> BinaryMatrix:
    return BinaryMatrix(tuple(tuple(int(c) for c in line.split()) for line in lines))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "itemset-condense",
            "condense's O(n^2) dominance loop does almost all the work: one cheap mine, four condense runs",
            lambda seed: {"votes.txt": votes_lines(seed)},
            lambda inputs, p: [_mine("mine", "itemset", p("votes.txt"), CONDENSE_MINSUP, p("items.pat"))]
            + [_condense(rep, p("items.pat"), rep, p(f"{rep}.pat"), "size >= 2") for rep in REPS],
            lambda inputs, p, rng: {
                "mine": check_mined(p("items.pat"), itemset_covers(inputs["votes.txt"]), rng),
                **{
                    rep: check_condensed(p("items.pat"), p(f"{rep}.pat"), DominanceRelation(rep), lambda rec: rec["size"] >= 2, rng)
                    for rep in REPS
                },
            },
        ),
        Workload(
            "mine-wide",
            "miners, the pattern writer and reader and memory do the work; selective constraints leave condense idle",
            lambda seed: {
                "wide.txt": votes_lines(seed, attributes=WIDE_ITEM_ATTRIBUTES),
                "seqs.txt": markov_lines(seed),
            },
            lambda inputs, p: [
                _mine("mine-items", "itemset", p("wide.txt"), WIDE_ITEM_MINSUP, p("items.pat")),
                _condense("condense-items", p("items.pat"), "maximal", p("items-kept.pat"), WIDE_ITEMS_VALID[0]),
                _mine("mine-seqs", "sequence", p("seqs.txt"), WIDE_SEQ_MINSUP, p("seqs.pat"), "--max-len", WIDE_SEQ_MAX_LEN),
                _condense("condense-seqs", p("seqs.pat"), "maximal", p("seqs-kept.pat"), WIDE_SEQS_VALID[0]),
            ],
            lambda inputs, p, rng: {
                "mine-items": check_mined(p("items.pat"), itemset_covers(inputs["wide.txt"]), rng),
                "condense-items": check_condensed(
                    p("items.pat"), p("items-kept.pat"), DominanceRelation.MAXIMAL, WIDE_ITEMS_VALID[1], rng
                ),
                "mine-seqs": check_mined(p("seqs.pat"), sequence_covers(inputs["seqs.txt"]), rng),
                "condense-seqs": check_condensed(
                    p("seqs.pat"), p("seqs-kept.pat"), DominanceRelation.MAXIMAL, WIDE_SEQS_VALID[1], rng
                ),
            },
        ),
        Workload(
            "graph-general",
            "subgraph isomorphism inside the general graph miner dominates, then graph-inclusion dominance tests",
            lambda seed: {"graphs.txt": graph_lines(seed)},
            lambda inputs, p: [
                _mine("mine", "graph", p("graphs.txt"), GRAPH_MINSUP, p("graphs.pat"), "--max-edges", GRAPH_MAX_EDGES),
                _condense("condense", p("graphs.pat"), "maximal", p("kept.pat")),
            ],
            lambda inputs, p, rng: {
                "mine": check_mined(
                    p("graphs.pat"),
                    graph_covers(inputs["graphs.txt"]),
                    rng,
                    sampled=lambda rec: len(rec["vertices"]) <= ORACLE_MAX_VERTICES,
                ),
                "condense": check_condensed(p("graphs.pat"), p("kept.pat"), DominanceRelation.MAXIMAL, lambda rec: True, rng),
            },
        ),
        Workload(
            "tiling",
            "the only workload that reaches tiling: candidate generation, greedy over all candidates, exact optimal over 13",
            lambda seed: {"matrix.txt": matrix_lines(seed)},
            lambda inputs, p: [
                _tile("greedy", p("matrix.txt"), greedy_threshold(inputs["matrix.txt"]), p("greedy.txt"),
                      "--method", "greedy", "--error-mode", "full"),
                _tile("optimal", p("matrix.txt"), OPTIMAL_THRESHOLD, p("optimal.txt"),
                      "--max-candidates", OPTIMAL_CANDIDATES, "--method", "optimal"),
            ],
            lambda inputs, p, rng: {
                "greedy": check_tiling(p("greedy.txt"), _matrix(inputs["matrix.txt"]), "full", greedy_threshold(inputs["matrix.txt"])),
                "optimal": check_tiling(p("optimal.txt"), _matrix(inputs["matrix.txt"]), "coverable", OPTIMAL_THRESHOLD),
            },
        ),
    )
}
