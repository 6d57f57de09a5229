"""Command line interface: mine, condense, tile, verify.

The pipeline is two explicit steps (mine writes a pattern file, condense
filters and condenses it) so a pattern set mined once can be re-condensed
under different constraints without re-mining. Exit codes are a stable
contract: 0 success, 1 unsatisfiable or verification diff, 2 usage errors
and exceeded search bounds, 3 malformed input, an output that cannot be
written, or a standard output closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .condense import DominanceRelation, condense
from .constraints import EMPTY_EXPR, compile_constraints, parse_constraints, partition_valid
from .core import MinSupport, SymbolTable, check_mine_args, plain_decimal, plain_int
from .errors import BoundExceededError, InputError, shown
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
from .graphs import mine_frequent_graphs_general, mine_frequent_graphs_unique
from .itemsets import mine_frequent_itemsets
from .oracle import (
    IsoClass,
    brute_force_condense,
    frequent_graph_classes_bruteforce,
    frequent_graphs_unique_bruteforce,
    frequent_itemsets_bruteforce,
    frequent_sequences_bruteforce,
)
from .sequences import mine_frequent_sequences
from .tiling import ERROR_MODES, EXACT_MODES, exact_select, generate_candidates, greedy_select


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _int_option(text: str) -> int:
    """A plain ASCII decimal; a leading "-" is read too, so that the option's own range check reports it."""
    try:
        return -plain_int(text[1:]) if text.startswith("-") else plain_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{shown(text)} is not an integer") from None


def _decimal_option(text: str) -> Fraction:
    """ASCII digits with at most one decimal point, read exactly; a leading "-" is read too, for the range check."""
    try:
        return -plain_decimal(text[1:]) if text.startswith("-") else plain_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{shown(text)} is not a decimal") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose choice errors quote a long wrong value cut through shown.

    It checks the choice options and, as the top-level parser, the
    subcommand name. A value that shown quotes whole keeps argparse's own
    message.
    """

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices and shown(value) != repr(value):
            listed = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {shown(value)} (choose from {listed})")
        super()._check_value(action, value)


def _constraints_from_arg(arg: str):
    # A path if one exists at that name, otherwise inline constraint text.
    return parse_constraints(read_text(arg) if os.path.exists(arg) else arg)


def _emit_patterns(records, symbols, out_path, valid=None, condensed=None) -> None:
    if out_path:
        write_patterns(records, out_path, symbols, valid=valid, condensed=condensed)
    else:
        for line in pattern_lines(records, symbols, valid, condensed):
            print(line)


# --type -> (loader, miner, the option the miner and oracle take, oracle, key of a
# mined pattern in the oracle's map). Functions are named and looked up when
# called, so that a wrapped or patched module attribute takes effect.
_TYPES = {
    "itemset": ("load_transactions", "mine_frequent_itemsets", None, "frequent_itemsets_bruteforce", lambda p: p.items),
    "sequence": ("load_sequences", "mine_frequent_sequences", "max_len", "frequent_sequences_bruteforce",
                 lambda p: p.symbols),
    "graph-unique": ("load_graphs", "mine_frequent_graphs_unique", None, "frequent_graphs_unique_bruteforce",
                     lambda p: tuple(sorted(p.label_pairs))),
    "graph": ("load_graphs", "mine_frequent_graphs_general", "max_edges", "frequent_graph_classes_bruteforce",
              IsoClass),
}


def _misplaced_option(args, verb: str) -> str | None:
    """The usage error for a miner option given with a --type that does not take it."""
    for option, flag, kind in (("max_len", "--max-len", "sequence"), ("max_edges", "--max-edges", "general graph")):
        if getattr(args, option) is not None and option != _TYPES[args.type][2]:
            return f"{flag} applies to {kind} {verb} only"
    return None


def _load(args):
    """Load args.input: (db, the miner's size limit by name, as the miner and oracle take it, if it has one)."""
    load, _, option, _, _ = _TYPES[args.type]
    return globals()[load](args.input), {} if option is None else {option: getattr(args, option)}


def cmd_mine(args) -> int:
    if problem := _misplaced_option(args, "mining"):
        return _usage(problem)
    minsup = MinSupport.parse(args.minsup)
    db, limit = _load(args)
    records = globals()[_TYPES[args.type][1]](db, minsup, **limit)
    _emit_patterns(records, db.symbols, args.out)
    print(f"mined {len(records)} patterns (effective minimum support {minsup.effective(len(db))})")
    return 0


def _label_costs(path, symbols: SymbolTable):
    """The --weights file as the weight of a symbol id of symbols, found through its label.

    The file's own labels take no id in symbols, so each id a pattern file
    gives stays the one it gives without weights.
    """
    own = SymbolTable()
    costs = {own.label_of(sid): cost for sid, cost in load_weights(path, own).costs.items()}
    return lambda sid: costs.get(symbols.label_of(sid), 0)


def cmd_condense(args) -> int:
    # Each record is tested as it is read, and only valid ones are held. An
    # error in the constraint, the weights or an atom waits until the whole
    # pattern file has been read and checked, so that a file error wins.
    symbols = SymbolTable()
    held = None
    try:
        expr = _constraints_from_arg(args.constraints) if args.constraints else EMPTY_EXPR
        holds = compile_constraints(expr, _label_costs(args.weights, symbols) if args.weights else None, symbols)
    except InputError as exc:
        held = exc
    read = 0

    def keep(rec) -> bool:
        nonlocal held, read
        read += 1
        if held is None:
            try:
                return holds(rec)
            except InputError as exc:  # an atom that cannot be evaluated on this record
                held = exc
        return False

    valid = load_patterns(args.patterns, keep, symbols).records
    if held is not None:
        raise held
    kept = condense(valid, DominanceRelation.parse(args.rep))
    flags = {rec.pid: True for rec in kept}  # each kept record is valid and condensed
    _emit_patterns(kept, symbols, args.out, valid=flags, condensed=flags)
    print(f"kept {len(kept)} of {read} patterns ({len(valid)} valid)")
    return 0


def cmd_tile(args) -> int:
    if args.threshold < 0:
        return _usage("--threshold must be nonnegative")
    if args.bound < 0 and args.method != "greedy":
        return _usage("--bound must be nonnegative")
    for option, flag in (("tau", "--tau"), ("max_candidates", "--max-candidates")):
        if args.candidates and getattr(args, option) is not None:
            return _usage(f"{flag} applies to generated candidates only, not to --candidates")
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
        write_tiling(args.out, candidates, args.method, args.error_mode, args.threshold, status, selections)
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


def _diff_maps(mined: dict, oracle: dict) -> list[str]:
    problems = [f"missing: {key!r}" for key in sorted(oracle) if key not in mined]
    for key in sorted(mined):
        if key not in oracle:
            problems.append(f"extra: {key!r}")
        elif mined[key] != oracle[key]:
            problems.append(f"cover mismatch: {key!r} {sorted(mined[key])} != {sorted(oracle[key])}")
    return problems


def cmd_verify(args) -> int:
    if problem := _misplaced_option(args, "verification"):
        return _usage(problem)
    minsup = MinSupport.parse(args.minsup)
    rel = DominanceRelation.parse(args.rep)
    expr = _constraints_from_arg(args.constraints) if args.constraints else EMPTY_EXPR
    db, limit = _load(args)
    _, mine, _, oracle, key = _TYPES[args.type]
    # The miner's argument checks, then the oracle's bounds, then the miner:
    # an input too large for the oracle may be too large to mine at all.
    check_mine_args(db, **limit)
    expected = globals()[oracle](db, minsup.effective(len(db)), **limit)
    records = globals()[mine](db, minsup, **limit)
    mined = {key(rec.pattern): rec.cover for rec in records}
    problems = _diff_maps(mined, expected)
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


class _Command(_Parser):
    """A subcommand's parser: it adds --threads and its command's options the first time argparse dispatches to it.

    A call runs one command, so the other commands' options are never
    built. Its help, usage and errors are printed while it parses, after
    the options are in place, so they read as if built up front.
    """

    def __init__(self, *args, options, **kwargs):
        super().__init__(*args, **kwargs)
        self._options = options

    def parse_known_args(self, args=None, namespace=None):
        if self._options is not None:
            options, self._options = self._options, None
            self.add_argument(
                "--threads", type=_int_option, default=1, help="worker hint; output is identical for any value"
            )
            options(self)
        return super().parse_known_args(args, namespace)


def _mine_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, choices=_TYPES)
    p.add_argument("--input", required=True)
    p.add_argument("--minsup", required=True, help="integer = absolute count, decimal in (0,1] = relative")
    p.add_argument("--max-len", type=_int_option, default=None, help="longest sequence pattern")
    p.add_argument("--max-edges", type=_int_option, default=None, help="largest general graph pattern")
    p.add_argument("--out", default=None)


def _condense_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patterns", required=True)
    p.add_argument("--rep", required=True, choices=[rel.value for rel in DominanceRelation])
    p.add_argument("--constraints", default=None, help="constraint file path or inline text")
    p.add_argument("--weights", default=None)
    p.add_argument("--out", default=None)


def _tile_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=_int_option, required=True, help="error budget")
    p.add_argument("--tau", type=_decimal_option, default=None, help="confidence threshold for candidate generation")
    p.add_argument("--max-candidates", type=_int_option, default=None)
    p.add_argument("--candidates", default=None, help="tile file overriding candidate generation")
    p.add_argument("--method", default="greedy", choices=("greedy", *EXACT_MODES))
    p.add_argument("--error-mode", default="coverable", choices=ERROR_MODES)
    p.add_argument("--bound", type=_int_option, default=20, help="exact-search candidate limit")
    p.add_argument("--out", default=None)


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, choices=_TYPES)
    p.add_argument("--input", required=True)
    p.add_argument("--minsup", required=True)
    p.add_argument("--rep", required=True, choices=[rel.value for rel in DominanceRelation])
    p.add_argument("--constraints", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--max-len", type=_int_option, default=None)
    p.add_argument("--max-edges", type=_int_option, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siftmine",
        description="Mine frequent patterns, condense them under constraints, and tile binary matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, summary, options, handler in (
        ("mine", "mine frequent patterns into a pattern file", _mine_options, cmd_mine),
        ("condense", "filter a pattern file and condense it", _condense_options, cmd_condense),
        ("tile", "cover a binary matrix with tiles under an error budget", _tile_options, cmd_tile),
        ("verify", "check miners and condensation against brute force", _verify_options, cmd_verify),
    ):
        sub.add_parser(name, help=summary, options=options).set_defaults(handler=handler)
    return parser


def _stdout_to_devnull() -> None:
    """Point standard output at os.devnull, so the interpreter's last flush drops what a closed pipe refused.

    A standard output without a file descriptor, an in-process caller's
    stream, is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        return _usage("--threads must be at least 1")
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that closed early is met here, not in the flush at exit
        return code
    except BrokenPipeError:
        # Standard output was closed early (`siftmine mine ... | head -1`): exit 3, printing nothing.
        _stdout_to_devnull()
        return 3
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
