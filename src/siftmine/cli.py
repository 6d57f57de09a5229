"""Command line interface: mine, condense, tile, verify.

The pipeline is two explicit steps (mine writes a pattern file, condense
filters and condenses it) so a pattern set mined once can be re-condensed
under different constraints without re-mining. Exit codes are a stable
contract: 0 success, 1 unsatisfiable or verification diff, 2 usage errors
and exceeded search bounds, 3 malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .condense import DominanceRelation, condense
from .constraints import EMPTY_EXPR, parse_constraints, partition_valid
from .core import MinSupport, edge_itemize
from .errors import BoundExceededError, InputError
from .formats import (
    load_graphs,
    load_matrix,
    load_patterns,
    load_sequences,
    load_tiles,
    load_transactions,
    load_weights,
    pattern_lines,
    read_text,
    write_patterns,
    write_tiling,
)
from .graphs import canonical_code, mine_frequent_graphs_general, mine_frequent_graphs_unique
from .itemsets import mine_frequent_itemsets
from .oracle import (
    brute_force_condense,
    frequent_graphs_general_bruteforce,
    frequent_graphs_unique_bruteforce,
    frequent_itemsets_bruteforce,
    frequent_sequences_bruteforce,
)
from .sequences import mine_frequent_sequences
from .tiling import exact_select, generate_candidates, greedy_select


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _constraints_from_arg(arg: str):
    # A path if one exists at that name, otherwise inline constraint text.
    return parse_constraints(read_text(arg) if os.path.exists(arg) else arg)


def _emit_patterns(records, symbols, out_path, valid=None, condensed=None) -> None:
    if out_path:
        write_patterns(records, out_path, symbols, valid=valid, condensed=condensed)
    else:
        for line in pattern_lines(records, symbols, valid, condensed):
            print(line)


def _general_graphs_bruteforce(db, sigma, max_edges):
    return {canonical_code(rep): cover for rep, cover in frequent_graphs_general_bruteforce(db, sigma, max_edges)}


# --type -> (loader, miner, the option the miner and oracle take, oracle, key of a
# mined pattern in the oracle's map). Functions are named and looked up when
# called, so that a wrapped or patched module attribute takes effect.
_TYPES = {
    "itemset": ("load_transactions", "mine_frequent_itemsets", None, "frequent_itemsets_bruteforce", lambda p: p.items),
    "sequence": ("load_sequences", "mine_frequent_sequences", "max_len", "frequent_sequences_bruteforce",
                 lambda p: p.symbols),
    "graph-unique": ("load_graphs", "mine_frequent_graphs_unique", None, "frequent_graphs_unique_bruteforce",
                     lambda p: edge_itemize(p) if p.edges else ()),
    "graph": ("load_graphs", "mine_frequent_graphs_general", "max_edges", "_general_graphs_bruteforce", canonical_code),
}


def _misplaced_option(args, verb: str) -> str | None:
    """The usage error for a miner option given with a --type that does not take it."""
    for option, flag, kind in (("max_len", "--max-len", "sequence"), ("max_edges", "--max-edges", "general graph")):
        if getattr(args, option) is not None and option != _TYPES[args.type][2]:
            return f"{flag} applies to {kind} {verb} only"
    return None


def _mine(args, minsup: MinSupport):
    """Load args.input and mine it: (db, records, the value of the miner's option, if it has one)."""
    load, mine, option, _, _ = _TYPES[args.type]
    db = globals()[load](args.input)
    extra = () if option is None else (getattr(args, option),)
    return db, globals()[mine](db, minsup, *extra), extra


def cmd_mine(args) -> int:
    if problem := _misplaced_option(args, "mining"):
        return _usage(problem)
    minsup = MinSupport.parse(args.minsup)
    db, records, _ = _mine(args, minsup)
    _emit_patterns(records, db.symbols, args.out)
    print(f"mined {len(records)} patterns (effective minimum support {minsup.effective(len(db))})")
    return 0


def cmd_condense(args) -> int:
    loaded = load_patterns(args.patterns)
    expr = _constraints_from_arg(args.constraints) if args.constraints else EMPTY_EXPR
    weights = load_weights(args.weights, loaded.symbols) if args.weights else None
    valid, _ = partition_valid(loaded.records, expr, weights, symbols=loaded.symbols)
    rel = DominanceRelation.parse(args.rep)
    kept = condense(valid, rel)
    flags = {rec.pid: True for rec in kept}  # each kept record is valid and condensed
    _emit_patterns(kept, loaded.symbols, args.out, valid=flags, condensed=flags)
    print(f"kept {len(kept)} of {len(loaded.records)} patterns ({len(valid)} valid)")
    return 0


def cmd_tile(args) -> int:
    if args.threshold < 0:
        return _usage("--threshold must be nonnegative")
    if args.bound < 0 and args.method != "greedy":
        return _usage("--bound must be nonnegative")
    matrix = load_matrix(args.matrix)
    if args.candidates:
        candidates = load_tiles(args.candidates, matrix)
    else:
        if args.tau is None:
            return _usage("--tau is required unless --candidates supplies tiles")
        candidates = generate_candidates(matrix, args.tau, args.max_candidates)

    if args.method == "greedy":
        sel = greedy_select(matrix, candidates, args.threshold, args.error_mode)
        status = "ok" if sel is not None else "failed"
        selections = (sel,) if sel is not None else ()
    else:
        result = exact_select(
            matrix, candidates, args.threshold, args.method, args.error_mode, args.bound
        )
        status = result.status
        selections = result.selections

    if args.out:
        write_tiling(
            args.out, matrix, candidates, args.method, args.error_mode, args.threshold, status, selections
        )
    print(
        f"candidates={len(candidates)} method={args.method} "
        f"error_mode={args.error_mode} threshold={args.threshold}"
    )
    if status != "ok":
        print(f"status={status}")
        return 1
    if args.method == "all":
        print(f"status=ok solutions={len(selections)}")
    else:
        sel = selections[0]
        ids = ",".join(str(tid) for tid in sel.tile_ids)
        print(f"status=ok k={len(sel.tile_ids)} error={sel.error} selection={ids}")
    return 0


def _diff_maps(mined: dict, oracle: dict, describe) -> list[str]:
    problems = []
    for key in sorted(oracle):
        if key not in mined:
            problems.append(f"missing: {describe(key)}")
    for key in sorted(mined):
        if key not in oracle:
            problems.append(f"extra: {describe(key)}")
        elif mined[key] != oracle[key]:
            problems.append(f"cover mismatch: {describe(key)} {sorted(mined[key])} != {sorted(oracle[key])}")
    return problems


def cmd_verify(args) -> int:
    if problem := _misplaced_option(args, "verification"):
        return _usage(problem)
    minsup = MinSupport.parse(args.minsup)
    rel = DominanceRelation.parse(args.rep)
    expr = _constraints_from_arg(args.constraints) if args.constraints else EMPTY_EXPR
    db, records, extra = _mine(args, minsup)
    oracle, key = _TYPES[args.type][3:]
    mined = {key(rec.pattern): rec.cover for rec in records}
    problems = _diff_maps(mined, globals()[oracle](db, minsup.effective(len(db)), *extra), describe=repr)
    weights = load_weights(args.weights, db.symbols) if args.weights else None
    valid, _ = partition_valid(records, expr, weights, symbols=db.symbols)
    fast = [rec.pid for rec in condense(valid, rel)]
    slow = [rec.pid for rec in brute_force_condense(valid, rel)]
    if fast != slow:
        problems.append(f"condense mismatch: {fast} != {slow}")

    if problems:
        print(f"verify {args.type} {rel.value}: {len(problems)} problem(s)")
        for line in problems[:20]:
            print(f"  {line}")
        return 1
    print(
        f"verify {args.type} {rel.value}: ok "
        f"({len(mined)} patterns, {len(valid)} valid, {len(fast)} condensed)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftmine",
        description="Mine frequent patterns, condense them under constraints, and tile binary matrices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1, help="worker hint; output is identical for any value")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", parents=[common], help="mine frequent patterns into a pattern file")
    p_mine.add_argument("--type", required=True, choices=["itemset", "sequence", "graph-unique", "graph"])
    p_mine.add_argument("--input", required=True)
    p_mine.add_argument("--minsup", required=True, help="integer = absolute count, decimal in (0,1] = relative")
    p_mine.add_argument("--max-len", type=int, default=None, help="longest sequence pattern")
    p_mine.add_argument("--max-edges", type=int, default=None, help="largest general graph pattern")
    p_mine.add_argument("--out", default=None)
    p_mine.set_defaults(handler=cmd_mine)

    p_cond = sub.add_parser("condense", parents=[common], help="filter a pattern file and condense it")
    p_cond.add_argument("--patterns", required=True)
    p_cond.add_argument("--rep", required=True, choices=["maximal", "closed", "free", "skyline"])
    p_cond.add_argument("--constraints", default=None, help="constraint file path or inline text")
    p_cond.add_argument("--weights", default=None)
    p_cond.add_argument("--out", default=None)
    p_cond.set_defaults(handler=cmd_condense)

    p_tile = sub.add_parser("tile", parents=[common], help="cover a binary matrix with tiles under an error budget")
    p_tile.add_argument("--matrix", required=True)
    p_tile.add_argument("--threshold", type=int, required=True, help="error budget")
    p_tile.add_argument("--tau", type=float, default=None, help="confidence threshold for candidate generation")
    p_tile.add_argument("--max-candidates", type=int, default=None)
    p_tile.add_argument("--candidates", default=None, help="tile file overriding candidate generation")
    p_tile.add_argument("--method", default="greedy", choices=["greedy", "first", "all", "optimal"])
    p_tile.add_argument("--error-mode", default="coverable", choices=["full", "coverable"])
    p_tile.add_argument("--bound", type=int, default=20, help="exact-search candidate limit")
    p_tile.add_argument("--out", default=None)
    p_tile.set_defaults(handler=cmd_tile)

    p_ver = sub.add_parser("verify", parents=[common], help="check miners and condensation against brute force")
    p_ver.add_argument("--type", required=True, choices=["itemset", "sequence", "graph-unique", "graph"])
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--minsup", required=True)
    p_ver.add_argument("--rep", required=True, choices=["maximal", "closed", "free", "skyline"])
    p_ver.add_argument("--constraints", default=None)
    p_ver.add_argument("--weights", default=None)
    p_ver.add_argument("--max-len", type=int, default=None)
    p_ver.add_argument("--max-edges", type=int, default=None)
    p_ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        return _usage("--threads must be at least 1")
    try:
        return args.handler(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
