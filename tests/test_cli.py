"""Command line interface, exercised in-process through cli.main."""

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siftmine

import siftmine.cli as cli
from siftmine.core import Cover
from siftmine import (
    DominanceRelation,
    EMPTY_EXPR,
    InputError,
    MinSupport,
    condense,
    generate_candidates,
    load_matrix,
    load_patterns,
    load_tiles,
    load_transactions,
    load_weights,
    mine_frequent_itemsets,
    parse_constraints,
    partition_valid,
    write_patterns,
)
from siftmine.formats import pattern_lines
from siftmine.oracle import tiling_error_bruteforce

from helpers import LONG_NUMBER, LONG_NUMBER_LINES, long_numbers

# A number int() reads under the interpreter's digit limit, too long to show in full.
LONG_ID = "9" * 4000

TXNS = "a b d e\nb c e\na e\n"
SEQS = "a b c d a e b\nb c e b\na a e\n"
MATRIX = "1 1 0\n1 0 1\n0 1 1\n"
TILES = "rows=1,2 cols=1,2,3\nrows=2,3 cols=1,2\nrows=2,3 cols=2,3\n"
GRAPHS = """t # 1
v 0 a
v 1 b
v 2 c
v 3 d
v 4 e
e 0 1
e 0 2
e 0 3
e 2 4
t # 2
v 0 a
v 1 b
v 2 c
v 3 f
v 4 e
e 0 1
e 0 2
e 0 3
e 2 4
e 1 3
"""

ITEMSET_LINES = [
    "pid=1 kind=itemset support=2 size=1 elements=a cover=1,3",
    "pid=2 kind=itemset support=2 size=1 elements=b cover=1,2",
    "pid=3 kind=itemset support=3 size=1 elements=e cover=1,2,3",
    "pid=4 kind=itemset support=2 size=2 elements=a,e cover=1,3",
    "pid=5 kind=itemset support=2 size=2 elements=b,e cover=1,2",
]

# Two vertex labels, three edge labels, a triangle and a 4-cycle: the
# general miner's vertex numbering shows in these files.
LABELED_GRAPHS = """t # 1
v 0 a
v 1 a
v 2 b
v 3 b
v 4 a
e 0 1 x
e 1 2
e 2 0
e 2 3 y
e 3 4
t # 2
v 0 b
v 1 a
v 2 a
v 3 b
e 0 1
e 1 2 x
e 2 3
e 3 0 y
t # 3
v 0 a
v 1 b
v 2 a
v 3 b
v 4 b
e 0 1
e 1 2
e 0 2 x
e 3 4 y
e 2 4
"""

LABELED_MINSUP_1_LINES = [
    "pid=1 kind=graph support=3 size=1 vertices=0:a,1:b edges=0-1:0 cover=1,2,3",
    "pid=2 kind=graph support=3 size=1 vertices=0:a,1:a edges=0-1:x cover=1,2,3",
    "pid=3 kind=graph support=3 size=1 vertices=0:b,1:b edges=0-1:y cover=1,2,3",
    "pid=4 kind=graph support=1 size=2 vertices=0:a,1:b,2:b edges=0-1:0,0-2:0 cover=3",
    "pid=5 kind=graph support=3 size=2 vertices=0:a,1:b,2:a edges=0-1:0,0-2:x cover=1,2,3",
    "pid=6 kind=graph support=2 size=2 vertices=0:a,1:b,2:a edges=0-1:0,1-2:0 cover=1,3",
    "pid=7 kind=graph support=3 size=2 vertices=0:a,1:b,2:b edges=0-1:0,1-2:y cover=1,2,3",
    "pid=8 kind=graph support=1 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-2:0,0-3:x cover=3",
    "pid=9 kind=graph support=1 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,1-2:0,2-3:0 cover=3",
    "pid=10 kind=graph support=1 size=3 vertices=0:a,1:b,2:b,3:b edges=0-1:0,0-3:0,1-2:y cover=3",
    "pid=11 kind=graph support=2 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,2-3:0 cover=2,3",
    "pid=12 kind=graph support=1 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,1-2:0,1-3:y cover=1",
    "pid=13 kind=graph support=2 size=3 vertices=0:a,1:b,2:a edges=0-1:0,0-2:x,1-2:0 cover=1,3",
    "pid=14 kind=graph support=3 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-3:x,1-2:y cover=1,2,3",
    "pid=15 kind=graph support=2 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,1-2:y,2-3:0 cover=1,2",
    "pid=16 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-2:0,2-3:0 cover=3",
    "pid=17 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:b,4:a edges=0-1:0,0-3:0,0-4:x,1-2:y cover=3",
    "pid=18 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a,4:b edges=0-1:0,0-3:x,1-2:y,3-4:0 cover=3",
    "pid=19 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b,4:b edges=0-1:0,1-2:0,2-3:0,3-4:y cover=3",
    "pid=20 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b,4:a edges=0-1:0,1-2:0,1-3:y,3-4:0 cover=1",
    "pid=21 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-2:0,1-3:y cover=1",
    "pid=22 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a,4:a edges=0-1:0,1-2:y,2-3:0,3-4:x cover=1",
    "pid=23 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-3:x,1-2:y,2-3:0 cover=2",
    "pid=24 kind=graph support=1 size=5 vertices=0:a,1:b,2:a,3:b,4:b edges=0-1:0,0-2:x,1-2:0,2-3:0,3-4:y cover=3",
    "pid=25 kind=graph support=1 size=5 vertices=0:a,1:b,2:a,3:b,4:a edges=0-1:0,0-2:x,1-2:0,1-3:y,3-4:0 cover=1",
]

LABELED_MINSUP_2_LINES = [
    "pid=1 kind=graph support=3 size=1 vertices=0:a,1:b edges=0-1:0 cover=1,2,3",
    "pid=2 kind=graph support=3 size=1 vertices=0:a,1:a edges=0-1:x cover=1,2,3",
    "pid=3 kind=graph support=3 size=1 vertices=0:b,1:b edges=0-1:y cover=1,2,3",
    "pid=4 kind=graph support=3 size=2 vertices=0:a,1:b,2:a edges=0-1:0,0-2:x cover=1,2,3",
    "pid=5 kind=graph support=2 size=2 vertices=0:a,1:b,2:a edges=0-1:0,1-2:0 cover=1,3",
    "pid=6 kind=graph support=3 size=2 vertices=0:a,1:b,2:b edges=0-1:0,1-2:y cover=1,2,3",
    "pid=7 kind=graph support=2 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,2-3:0 cover=2,3",
    "pid=8 kind=graph support=2 size=3 vertices=0:a,1:b,2:a edges=0-1:0,0-2:x,1-2:0 cover=1,3",
    "pid=9 kind=graph support=3 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-3:x,1-2:y cover=1,2,3",
    "pid=10 kind=graph support=2 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,1-2:y,2-3:0 cover=1,2",
]

# One vertex label: a 5-cycle with an x chord and a K4 with one x edge. Their
# many automorphisms give each class many DFS codes, so these lines pin the
# numbering rule: pattern vertex i is the i-th vertex its minimum code discovers.
SYMMETRIC_GRAPHS = """t # 1
v 0 a
v 1 a
v 2 a
v 3 a
v 4 a
e 0 1
e 1 2
e 2 3
e 3 4
e 4 0
e 0 2 x
t # 2
v 0 a
v 1 a
v 2 a
v 3 a
e 0 1 x
e 0 2
e 0 3
e 1 2
e 1 3
e 2 3
"""

SYMMETRIC_MAX_EDGES_4_LINES = [
    "pid=1 kind=graph support=2 size=1 vertices=0:a,1:a edges=0-1:0 cover=1,2",
    "pid=2 kind=graph support=2 size=1 vertices=0:a,1:a edges=0-1:x cover=1,2",
    "pid=3 kind=graph support=2 size=2 vertices=0:a,1:a,2:a edges=0-1:0,1-2:0 cover=1,2",
    "pid=4 kind=graph support=2 size=2 vertices=0:a,1:a,2:a edges=0-1:0,1-2:x cover=1,2",
    "pid=5 kind=graph support=1 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,1-2:0,1-3:0 cover=2",
    "pid=6 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,1-2:0,1-3:x cover=1,2",
    "pid=7 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,1-2:0,2-3:0 cover=1,2",
    "pid=8 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,1-2:0,2-3:x cover=1,2",
    "pid=9 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,1-2:x,2-3:0 cover=1,2",
    "pid=10 kind=graph support=1 size=3 vertices=0:a,1:a,2:a edges=0-1:0,0-2:0,1-2:0 cover=2",
    "pid=11 kind=graph support=2 size=3 vertices=0:a,1:a,2:a edges=0-1:0,0-2:x,1-2:0 cover=1,2",
    "pid=12 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,1-2:0,1-3:x,3-4:0 cover=1",
    "pid=13 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,1-2:0,2-3:0,2-4:x cover=1",
    "pid=14 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-2:0,2-3:0 cover=2",
    "pid=15 kind=graph support=2 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:x,1-2:0,2-3:0 cover=1,2",
    "pid=16 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,1-2:0,2-3:0,3-4:0 cover=1",
    "pid=17 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:x,1-2:0,1-3:0 cover=2",
    "pid=18 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,1-2:0,2-3:x,3-4:0 cover=1",
    "pid=19 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-2:0,2-3:x cover=2",
    "pid=20 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-3:0,1-2:0,2-3:0 cover=2",
    "pid=21 kind=graph support=2 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-3:x,1-2:0,2-3:0 cover=1,2",
]

# One 1 in row 4 lies in no candidate tile, so the two error modes differ.
MATRIX_4X3 = MATRIX + "1 0 0\n"

# `tile --method all --threshold 9` over TILES: every nonempty subset, in
# enumeration order, with (ones_outside, zeros_inside) per error mode.
ALL_SELECTIONS = ["3", "2", "2,3", "1", "1,3", "1,2", "1,2,3"]
ALL_TERMS = {
    "coverable": [(3, 1), (4, 2), (2, 2), (2, 2), (0, 2), (1, 3), (0, 3)],
    "full": [(4, 1), (5, 2), (3, 2), (3, 2), (1, 2), (2, 3), (1, 3)],
}


def all_report(mode):
    head = ["method=all", f"error_mode={mode}", "threshold=9", "candidates=3", "status=ok"]
    tiles = [
        "tile=1 rows=1,2 cols=1,2,3 ones=4",
        "tile=2 rows=2,3 cols=1,2 ones=2",
        "tile=3 rows=2,3 cols=2,3 ones=3",
    ]
    sels = [
        f"selection={ids} k={ids.count(',') + 1} ones_outside={out} zeros_inside={zin} error={out + zin}"
        for ids, (out, zin) in zip(ALL_SELECTIONS, ALL_TERMS[mode])
    ]
    return "".join(line + "\n" for line in head + tiles + sels + ["solutions=7"])


# The CI smoke matrix; at tau 0.5 it gives three candidates.
SMOKE_MATRIX = "1 1 0 0\n1 1 0 1\n0 1 1 1\n0 0 1 1\n1 1 1 0\n"
SMOKE_TILES = [
    "tile=1 rows=1,2,3,4,5 cols=1,2,3,4 ones=13",
    "tile=2 rows=2,3,4,5 cols=2,3,4 ones=9",
    "tile=3 rows=1,2,3,5 cols=1,2 ones=7",
]
# `tile --tau 0.5 --out` selection lines by (method, threshold); tile 1
# reaches every one, so both error modes read the same.
SMOKE_SELECTIONS = {
    ("greedy", 7): ["selection=1 k=1 ones_outside=0 zeros_inside=7 error=7"],
    ("first", 7): ["selection=3 k=1 ones_outside=6 zeros_inside=1 error=7"],
    ("all", 7): [
        "selection=3 k=1 ones_outside=6 zeros_inside=1 error=7",
        "selection=2 k=1 ones_outside=4 zeros_inside=3 error=7",
        "selection=2,3 k=2 ones_outside=0 zeros_inside=4 error=4",
        "selection=1 k=1 ones_outside=0 zeros_inside=7 error=7",
        "selection=1,3 k=2 ones_outside=0 zeros_inside=7 error=7",
        "selection=1,2 k=2 ones_outside=0 zeros_inside=7 error=7",
        "selection=1,2,3 k=3 ones_outside=0 zeros_inside=7 error=7",
    ],
    ("optimal", 7): ["selection=2,3 k=2 ones_outside=0 zeros_inside=4 error=4"],
    # the budget is met before any tile is added: the empty selection
    ("greedy", 100): ["selection= k=0 ones_outside=13 zeros_inside=0 error=13"],
}


def noisy_matrix() -> str:
    """Three overlapping noisy blocks in 24x9: seven candidates at tau 0.7."""
    rng = random.Random(2024)
    blocks = [(range(0, 10), range(0, 4)), (range(6, 18), range(3, 7)), (range(14, 24), range(6, 9))]
    rows = [
        " ".join(
            str(int(rng.random() < (0.85 if any(r in br and c in bc for br, bc in blocks) else 0.12)))
            for c in range(9)
        )
        for r in range(24)
    ]
    return "\n".join(rows) + "\n"


def run_cli_process(hash_seed, *argv):
    """The CLI, as `python -m siftmine`, in a fresh interpreter with the given PYTHONHASHSEED."""
    src = str(Path(siftmine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "siftmine", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def check_report_terms(report, matrix, candidates, mode):
    """Every selection line's error terms equal the cell-by-cell oracle's."""
    by_id = {t.tile_id: t for t in candidates}
    n = 0
    for line in report.splitlines():
        if not line.startswith("selection="):
            continue
        fields = dict(token.split("=") for token in line.split())
        chosen = [by_id[int(tid)] for tid in fields["selection"].split(",")]
        ones_outside, zeros_inside = int(fields["ones_outside"]), int(fields["zeros_inside"])
        # an empty candidate universe leaves only the zeros inside
        assert zeros_inside == tiling_error_bruteforce(matrix, chosen, "coverable", [])
        assert ones_outside + zeros_inside == tiling_error_bruteforce(matrix, chosen, mode, candidates)
        assert int(fields["error"]) == ones_outside + zeros_inside
        n += 1
    return n


@pytest.fixture
def workdir(tmp_path):
    for name, text in [
        ("txns.txt", TXNS),
        ("seqs.txt", SEQS),
        ("matrix.txt", MATRIX),
        ("tiles.txt", TILES),
        ("graphs.txt", GRAPHS),
        ("labeled.txt", LABELED_GRAPHS),
        ("symmetric.txt", SYMMETRIC_GRAPHS),
        ("matrix4x3.txt", MATRIX_4X3),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


@pytest.fixture
def run(workdir, capsys):
    def invoke(*argv):
        argv = [str(workdir / a) if a.endswith(".txt") else a for a in argv]
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestMine:
    def test_itemset_stdout(self, run):
        code, out, err = run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2")
        assert code == 0 and err == ""
        assert out.splitlines() == ITEMSET_LINES + [
            "mined 5 patterns (effective minimum support 2)"
        ]

    def test_relative_equals_absolute(self, run):
        _, abs_out, _ = run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2")
        _, rel_out, _ = run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "0.5")
        assert abs_out == rel_out  # ceil(0.5 * 3) = 2

    def test_out_file(self, run, workdir):
        code, out, _ = run(
            "mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2",
            "--out", str(workdir / "pats.out"),
        )
        assert code == 0
        assert out == "mined 5 patterns (effective minimum support 2)\n"
        assert (workdir / "pats.out").read_text().splitlines() == ITEMSET_LINES

    def test_sequence_with_max_len(self, run):
        code, out, _ = run(
            "mine", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2", "--max-len", "3"
        )
        assert code == 0
        assert out.splitlines()[-1] == "mined 17 patterns (effective minimum support 2)"
        assert "pid=14 kind=sequence support=2 size=3 elements=b,c,b cover=1,2" in out

    def test_graph_unique(self, run):
        code, out, _ = run("mine", "--type", "graph-unique", "--input", "graphs.txt", "--minsup", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "mined 7 patterns (effective minimum support 2)"
        # the lone disconnected pattern: edges ab and ce with no shared vertex
        assert "pid=5 kind=graph support=2 size=2 vertices=0:a,1:b,2:c,3:e edges=0-1:0,2-3:0 cover=1,2" in lines

    def test_graph_general_max_edges(self, run):
        code, out, _ = run(
            "mine", "--type", "graph", "--input", "graphs.txt", "--minsup", "2", "--max-edges", "2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "mined 5 patterns (effective minimum support 2)"
        assert "edges=0-1:0,2-3:0" not in out  # connected patterns only

    def test_graph_general_file_bytes(self, run, workdir):
        out_file = workdir / "labeled.out"
        code, out, _ = run(
            "mine", "--type", "graph", "--input", "labeled.txt", "--minsup", "1", "--out", str(out_file)
        )
        assert (code, out) == (0, "mined 25 patterns (effective minimum support 1)\n")
        assert out_file.read_bytes() == "".join(line + "\n" for line in LABELED_MINSUP_1_LINES).encode()
        code, out, _ = run("mine", "--type", "graph", "--input", "labeled.txt", "--minsup", "2")
        assert code == 0
        assert out.splitlines() == LABELED_MINSUP_2_LINES + ["mined 10 patterns (effective minimum support 2)"]

    def test_graph_representatives_on_symmetric_hosts(self, run):
        code, out, _ = run(
            "mine", "--type", "graph", "--input", "symmetric.txt", "--minsup", "1", "--max-edges", "4"
        )
        assert code == 0
        assert out.splitlines() == SYMMETRIC_MAX_EDGES_4_LINES + ["mined 21 patterns (effective minimum support 1)"]

    def test_graph_output_independent_of_hash_seed(self, workdir):
        out_file = workdir / "labeled.out"
        seen = []
        for seed in ("1", "2"):
            proc = run_cli_process(
                seed, "mine", "--type", "graph", "--input", str(workdir / "labeled.txt"),
                "--minsup", "1", "--out", str(out_file),
            )
            stdout = run_cli_process(
                seed, "mine", "--type", "graph", "--input", str(workdir / "labeled.txt"), "--minsup", "2"
            ).stdout
            # condense indexes graphs by vertex labels and edge-type tuples
            condensed = [
                run_cli_process(seed, "condense", "--patterns", str(out_file), "--rep", rep)
                for rep in ("maximal", "closed", "free")
            ]
            seen.append(
                (proc.returncode, proc.stderr, proc.stdout, out_file.read_bytes(), stdout)
                + tuple((c.returncode, c.stderr, c.stdout) for c in condensed)
            )
        assert seen[0] == seen[1]
        assert seen[0][:2] == (0, "")
        assert all(c[:2] == (0, "") and c[2].count("\n") > 3 for c in seen[0][5:])

    def test_itemset_and_sequence_output_independent_of_hash_seed(self, workdir):
        rng = random.Random(77)
        labels = [f"x{k}" for k in range(9)]
        (workdir / "wide.txt").write_text(
            "".join(" ".join(rng.sample(labels, rng.randint(1, 6))) + "\n" for _ in range(40)), encoding="utf-8"
        )
        (workdir / "long.txt").write_text(
            "".join(" ".join(rng.choices(labels[:4], k=rng.randint(1, 12))) + "\n" for _ in range(30)),
            encoding="utf-8",
        )
        for kind, name, extra in (("itemset", "wide.txt", ()), ("sequence", "long.txt", ("--max-len", "4"))):
            argv = ("mine", "--type", kind, "--input", str(workdir / name), "--minsup", "0.2", *extra)
            out_file = workdir / f"{kind}.out"
            seen = []
            for seed in ("1", "2"):
                proc = run_cli_process(seed, *argv, "--out", str(out_file))
                stdout = run_cli_process(seed, *argv).stdout
                seen.append((proc.returncode, proc.stderr, proc.stdout, out_file.read_bytes(), stdout))
            assert seen[0] == seen[1]
            assert seen[0][:2] == (0, "")
            assert seen[0][3].count(b"\n") > 10

    def test_sequence_deeper_than_recursion_limit(self, workdir):
        # one search level per pattern length: a, aa, ..., a^1500
        (workdir / "repeat.txt").write_text(("a " * 1500 + "\n") * 2, encoding="utf-8")
        out_file = workdir / "repeat.out"
        proc = run_cli_process(
            "0", "mine", "--type", "sequence", "--input", str(workdir / "repeat.txt"), "--minsup", "2",
            "--out", str(out_file),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "mined 1500 patterns (effective minimum support 2)\n"
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1500
        elements = ",".join(["a"] * 1500)
        assert lines[-1] == f"pid=1500 kind=sequence support=2 size=1500 elements={elements} cover=1,2"

    def test_max_len_wrong_type(self, run):
        code, out, err = run(
            "mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--max-len", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: --max-len applies to sequence mining only\n"

    def test_max_edges_wrong_type(self, run):
        code, _, err = run(
            "mine", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2", "--max-edges", "1"
        )
        assert code == 2 and "--max-edges" in err

    @pytest.mark.parametrize(
        "kind, name, flag, option",
        [("sequence", "seqs.txt", "--max-len", "max_len"), ("graph", "graphs.txt", "--max-edges", "max_edges")],
    )
    def test_size_limit_must_be_positive(self, run, kind, name, flag, option):
        code, out, err = run("mine", "--type", kind, "--input", name, "--minsup", "1", flag, "0")
        assert (code, out, err) == (3, "", f"error: {option} must be positive\n")

    def test_bad_minsup(self, run):
        code, _, err = run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "0")
        assert code == 3
        assert err == "error: absolute minimum support must be a positive integer\n"

    @pytest.mark.parametrize("minsup", ["+3", " 3", "3 ", "1e0", "5e-1", "-1", ".", "1.2.3"])
    def test_minsup_must_be_plain_decimal(self, run, minsup):
        code, out, err = run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", minsup)
        assert (code, out, err) == (3, "", f"error: cannot parse minimum support {minsup!r}\n")

    def test_missing_input(self, run, workdir):
        code, _, err = run(
            "mine", "--type", "itemset", "--input", str(workdir / "missing.data"), "--minsup", "2"
        )
        assert code == 3
        assert "missing.data" in err and "No such file" in err


class TestCondense:
    @pytest.fixture
    def pats(self, run, workdir):
        path = workdir / "pats.out"
        run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--out", str(path))
        return path

    def test_maximal(self, run, pats):
        code, out, _ = run("condense", "--patterns", str(pats), "--rep", "maximal")
        assert code == 0
        assert out.splitlines() == [
            "pid=4 kind=itemset support=2 size=2 elements=a,e cover=1,3 valid=1 condensed=1",
            "pid=5 kind=itemset support=2 size=2 elements=b,e cover=1,2 valid=1 condensed=1",
            "kept 2 of 5 patterns (5 valid)",
        ]

    def test_closed(self, run, pats):
        code, out, _ = run("condense", "--patterns", str(pats), "--rep", "closed")
        assert code == 0
        assert out.splitlines()[-1] == "kept 3 of 5 patterns (5 valid)"
        assert out.splitlines()[0].startswith("pid=3 kind=itemset support=3 size=1 elements=e")

    def test_inline_constraints(self, run, pats):
        code, out, _ = run(
            "condense", "--patterns", str(pats), "--rep", "maximal", "--constraints", "size <= 1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "kept 3 of 5 patterns (3 valid)"
        assert all("size=1" in line for line in lines[:-1])

    def test_constraint_file_equals_inline(self, run, pats, workdir):
        cfile = workdir / "cons.rule"
        cfile.write_text("size <= 1\n", encoding="utf-8")
        _, inline_out, _ = run(
            "condense", "--patterns", str(pats), "--rep", "maximal", "--constraints", "size <= 1"
        )
        _, file_out, _ = run(
            "condense", "--patterns", str(pats), "--rep", "maximal", "--constraints", str(cfile)
        )
        assert inline_out == file_out

    def test_nothing_valid_still_succeeds(self, run, pats):
        code, out, _ = run(
            "condense", "--patterns", str(pats), "--rep", "closed", "--constraints", "contains zzz"
        )
        assert code == 0
        assert out == "kept 0 of 5 patterns (0 valid)\n"

    def test_syntax_error(self, run, pats):
        code, _, err = run(
            "condense", "--patterns", str(pats), "--rep", "closed", "--constraints", "size >< 1"
        )
        assert code == 3
        assert err == "error: unsupported operator '><' for size (line 1, column 1)\n"

    @pytest.mark.parametrize(
        "bound, message",
        [
            ("1_0", "bound '1_0' is not an integer"),
            ("+3", "bound '+3' is not an integer"),
            ("\u0661", "bound '\u0661' is not an integer"),
            ("-1", "bound must be nonnegative"),
        ],
    )
    def test_bound_must_be_plain_decimal(self, run, pats, bound, message):
        result = run("condense", "--patterns", str(pats), "--rep", "maximal", "--constraints", f"size >= {bound}")
        assert result == (3, "", f"error: {message} (line 1, column 1)\n")

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["pid=0 kind=itemset support=1 size=1 elements=a"], "line 1: pattern ids are 1-based"),
            (["pid=1 kind=sequence support=1 size=2 elements=a"], "line 1: size must match the pattern"),
            (["pid=2 kind=itemset support=1 size=2 elements=a,a"], "line 1: pattern 2: itemset lists a label more than once"),
            (["pid=1 kind=itemset support=1 size=1 elements=a", "pid=1 kind=sequence support=1 size=1 elements=b"],
             "line 2: duplicate pattern id 1"),
            # Two faults in one line: a duplicate pid, then a repeated label, then pid 0, then the size.
            (["pid=0 kind=itemset support=1 size=3 elements=b,b"], "line 1: pattern 0: itemset lists a label more than once"),
            (["pid=0 kind=graph support=1 size=2 vertices=0:a,1:b edges=0-1:x"], "line 1: pattern ids are 1-based"),
            (["pid=3 kind=itemset support=1 size=1 elements=a", "pid=3 kind=itemset support=1 size=1 elements=c,c"],
             "line 2: duplicate pattern id 3"),
        ],
    )
    def test_malformed_records(self, run, tmp_path, lines, message):
        pats = tmp_path / "p.pat"
        pats.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run("condense", "--patterns", str(pats), "--rep", "maximal") == (3, "", f"error: {pats}: {message}\n")

    def test_kind_mismatch(self, run, pats):
        code, _, err = run(
            "condense", "--patterns", str(pats), "--rep", "closed", "--constraints", "adjacent a b"
        )
        assert code == 3
        assert err == "error: adjacent applies only to sequence patterns, got itemset\n"


class TestLongCover:
    """A 200,000-tid cover loads, or fails with the parser's message, in time linear in its length."""

    HALF = ",".join(map(str, range(1, 100_001)))
    OTHER_HALF = ",".join(map(str, range(100_001, 200_001)))
    COVERS = {
        "well-formed": HALF + "," + OTHER_HALF,
        "trailing-comma": HALF + "," + OTHER_HALF + ",",
        "double-comma": HALF + ",," + OTHER_HALF,
    }
    BOUND_S = 10.0  # generous: a match that backtracks over the cover would take far longer

    @pytest.mark.parametrize("name", list(COVERS))
    def test_condense_time_and_exit(self, run, tmp_path, name):
        cover = self.COVERS[name]
        # support agrees with the comma count, so only the cover's grammar can reject it
        line = f"pid=1 kind=itemset support={cover.count(',') + 1} size=1 elements=a cover={cover}"
        pats, out = tmp_path / "p.pat", tmp_path / "kept.pat"
        pats.write_text(line + "\n", encoding="utf-8")
        start = time.perf_counter()
        code, stdout, err = run("condense", "--patterns", str(pats), "--rep", "maximal", "--out", str(out))
        assert time.perf_counter() - start < self.BOUND_S
        if name == "well-formed":
            assert code == 0 and stdout == "kept 1 of 1 patterns (1 valid)\n"
            assert out.read_text(encoding="utf-8") == line + " valid=1 condensed=1\n"
        else:
            assert code == 3 and not out.exists()
            assert err == f"error: {pats}: line 1: malformed integer list {cover[:40]!r}... ({len(cover)} characters)\n"


# Labels of the drawn pattern files; "zz" is in none of them.
STREAM_LABELS = ["a", "b", "c", "d"]
STREAM_WEIGHTS = "b 1\nc 2\nq 4\n"


@st.composite
def stream_pattern_files(draw):
    """Pattern-file text of one kind.

    It holds duplicate patterns under other pids, records with no cover,
    edgeless graphs, sparse pids in any order, and sometimes one bad line.
    """
    kind = draw(st.sampled_from(["itemset", "sequence", "graph"]))
    label = st.sampled_from(STREAM_LABELS)
    bodies = []
    for _ in range(draw(st.integers(0, 8))):
        if kind == "graph":
            n = draw(st.integers(1, 3))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            vertices = ",".join(f"{v}:{draw(label)}" for v in range(n))
            edge_text = ",".join(f"{u}-{v}:{draw(st.sampled_from('xy'))}" for u, v in edges)
            bodies.append((len(edges), f"vertices={vertices} edges={edge_text}"))
        else:
            elements = draw(st.lists(label, min_size=1, max_size=4, unique=kind == "itemset"))
            bodies.append((len(elements), "elements=" + ",".join(elements)))
    if bodies:
        bodies += draw(st.lists(st.sampled_from(bodies), max_size=3))
    bodies = draw(st.permutations(bodies))
    pids = draw(st.lists(st.integers(1, 30), min_size=len(bodies), max_size=len(bodies), unique=True))
    lines = []
    for pid, (size, body) in zip(pids, bodies):
        support = draw(st.integers(0, 3))
        line = f"pid={pid} kind={kind} support={support} size={size} {body}"
        lines.append(line if draw(st.booleans()) else line + " cover=" + ",".join(map(str, range(1, support + 1))))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from(["", "pid=x kind=itemset", *lines[:1]]))  # the last: a duplicate pid
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "".join(line + "\n" for line in lines)


@st.composite
def stream_atoms(draw):
    """One atom of every kind, over the files' labels and one they lack."""
    label = st.sampled_from([*STREAM_LABELS, "zz"])
    head = draw(st.sampled_from(["size >= 2", "size <= 1", "support >= 2", "support <= 1", "cost <= 2",
                                 "contains", "excludes", "adjacent", "before", "none_between"]))
    if head in ("contains", "excludes"):
        return f"{head} {draw(label)}"
    if head in ("adjacent", "before"):
        return f"{head} {draw(label)} {draw(label)}"
    if head == "none_between":
        return f"none_between {{{','.join(draw(st.lists(label, max_size=2)))}}} {draw(label)} {draw(label)}"
    return head


def condense_in_steps(pats, rep, constraints, weights):
    """condense as load_patterns, partition_valid, condense and pattern_lines: (exit code, stdout, stderr, output)."""
    try:
        loaded = load_patterns(pats)
        expr = parse_constraints(constraints) if constraints else EMPTY_EXPR
        table = load_weights(weights, loaded.symbols) if weights else None
        valid, _ = partition_valid(loaded.records, expr, table, symbols=loaded.symbols)
        kept = condense(valid, DominanceRelation(rep))
    except InputError as exc:
        return 3, "", f"error: {exc}\n", None
    flags = {rec.pid: True for rec in kept}
    output = "".join(line + "\n" for line in pattern_lines(kept, loaded.symbols, flags, flags))
    return 0, f"kept {len(kept)} of {len(loaded.records)} patterns ({len(valid)} valid)\n", "", output


class TestStreamingCondense:
    """condense tests each record as it reads it, to the result of reading the whole file, then filtering."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=stream_pattern_files(),
        rep=st.sampled_from([rel.value for rel in DominanceRelation]),
        constraints=st.lists(st.lists(stream_atoms(), min_size=1, max_size=2).map(" | ".join), max_size=3)
        .map(", ".join),
        weighted=st.booleans(),
    )
    # Labels that first appear in a later record than the first.
    @example(
        text="pid=1 kind=sequence support=2 size=1 elements=a\npid=2 kind=sequence support=1 size=3 elements=b,d,c\n",
        rep="maximal", constraints="contains b, excludes c", weighted=False,
    )
    @example(
        text="pid=1 kind=sequence support=2 size=1 elements=a\npid=2 kind=sequence support=1 size=3 elements=b,d,c\n",
        rep="maximal", constraints="before b c, none_between {d} b c | support >= 2", weighted=False,
    )
    def test_equals_load_then_filter(self, text, rep, constraints, weighted):
        with tempfile.TemporaryDirectory() as d:
            pats, weights, out = (Path(d) / name for name in ("p.pat", "w.txt", "out.pat"))
            pats.write_text(text, encoding="utf-8")
            weights.write_text(STREAM_WEIGHTS, encoding="utf-8")
            argv = ["condense", "--patterns", str(pats), "--rep", rep, "--out", str(out)]
            argv += ["--constraints", constraints] * bool(constraints) + ["--weights", str(weights)] * weighted
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            got = code, stdout.getvalue(), stderr.getvalue(), out.read_text(encoding="utf-8") if out.exists() else None
            assert got == condense_in_steps(pats, rep, constraints, weighted and weights)


class TestCondenseErrorOrder:
    """A fault of the pattern file wins over a fault of condense's options, wherever in the file it lies."""

    VALID = "pid=1 kind=itemset support=2 size=2 elements=a,b cover=1,2"
    INVALID = "pid=2 kind=itemset support=1 size=1 elements=c cover=1"  # fails "contains a"
    BAD = "pid=3 kind=itemset support=x size=1 elements=d"

    @pytest.fixture
    def pats(self, tmp_path):
        def write(*lines, tail=b""):
            path = tmp_path / "p.pat"
            path.write_bytes("".join(line + "\n" for line in lines).encode() + tail)
            return str(path)

        return write

    def test_bad_line_after_the_last_valid_record(self, run, pats):
        path = pats(self.VALID, self.INVALID, self.INVALID.replace("pid=2", "pid=4"), self.BAD)
        got = run("condense", "--patterns", path, "--rep", "maximal", "--constraints", "contains a")
        assert got == (3, "", f"error: {path}: line 4: pid/support/size must be integers\n")

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--constraints", "size >< 1"), "unsupported operator '><' for size (line 1, column 1)"),
            (("--constraints", "contains a", "--weights", "bad-w.txt"), "{dir}/bad-w.txt: line 1: weight 'x' is not an integer"),
            (("--constraints", "contains a", "--weights", "missing-w.txt"), "{dir}/missing-w.txt: No such file or directory"),
            (("--constraints", "size <= 1 | before a b"), "before applies only to sequence patterns, got itemset"),
        ],
        ids=["constraint", "weights", "missing-weights", "order-atom-on-itemsets"],
    )
    def test_file_error_wins(self, run, pats, workdir, options, message):
        (workdir / "bad-w.txt").write_text("a x\n", encoding="utf-8")
        # VALID reaches the order atom first: it fails "size <= 1"
        sound = pats(self.VALID, self.INVALID)
        got = run("condense", "--patterns", sound, "--rep", "maximal", *options)
        assert got == (3, "", f"error: {message.format(dir=workdir)}\n")
        path = pats(self.VALID, self.INVALID, self.BAD)
        got = run("condense", "--patterns", path, "--rep", "maximal", *options)
        assert got == (3, "", f"error: {path}: line 3: pid/support/size must be integers\n")

    def test_bad_byte_after_an_invalid_record(self, run, pats):
        path = pats(self.VALID, self.INVALID, tail=b"\xff\n")
        offset = len(self.VALID) + len(self.INVALID) + 2
        got = run("condense", "--patterns", path, "--rep", "maximal", "--constraints", "contains a")
        assert got == (3, "", f"error: {path}: not UTF-8 text (byte {offset})\n")


class TestPipeline:
    def test_file_pipeline_matches_in_memory(self, run, workdir):
        pats = workdir / "pats.out"
        kept_path = workdir / "kept.out"
        run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--out", str(pats))
        code, _, _ = run(
            "condense", "--patterns", str(pats), "--rep", "maximal", "--out", str(kept_path)
        )
        assert code == 0
        loaded = load_patterns(kept_path)

        db = load_transactions(workdir / "txns.txt")
        recs = mine_frequent_itemsets(db, MinSupport.parse("2"))
        valid, _ = partition_valid(recs, EMPTY_EXPR, None, symbols=db.symbols)
        kept = condense(valid, DominanceRelation.parse("maximal"))

        def key(rec, symbols):
            return (tuple(sorted(symbols.label_of(i) for i in rec.pattern.items)), rec.support)

        assert {key(r, loaded.symbols) for r in loaded.records} == {
            key(r, db.symbols) for r in kept
        }

    def test_condense_idempotent_through_files(self, run, workdir):
        pats, once, twice = (workdir / n for n in ("p.out", "kept1.out", "kept2.out"))
        run("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--out", str(pats))
        run("condense", "--patterns", str(pats), "--rep", "closed", "--out", str(once))
        code, out, _ = run("condense", "--patterns", str(once), "--rep", "closed", "--out", str(twice))
        assert code == 0
        assert out == "kept 3 of 3 patterns (3 valid)\n"
        # identical pattern content; pids are renumbered 1..k on the second pass
        once_lines = once.read_text().splitlines()
        twice_lines = twice.read_text().splitlines()
        assert [l.split(" ", 1)[1] for l in once_lines] == [l.split(" ", 1)[1] for l in twice_lines]


class TestTile:
    def test_greedy_with_candidate_file(self, run):
        code, out, err = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", "greedy", "--error-mode", "full",
        )
        assert (code, err) == (0, "")
        assert out == (
            "candidates=3 method=greedy error_mode=full threshold=3\n"
            "status=ok k=2 error=2 selection=1,3\n"
        )

    def test_greedy_failure_exits_1(self, run):
        code, out, _ = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "0",
            "--candidates", "tiles.txt", "--method", "greedy", "--error-mode", "full",
        )
        assert code == 1
        assert out.endswith("status=failed\n")

    def test_exact_all(self, run):
        code, out, _ = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", "all", "--error-mode", "full",
        )
        assert code == 0
        assert out.endswith("status=ok solutions=2\n")

    def test_exact_optimal(self, run):
        code, out, _ = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", "optimal", "--error-mode", "full",
        )
        assert code == 0
        assert out.endswith("status=ok k=2 error=2 selection=1,3\n")

    def test_generated_candidates(self, run):
        code, out, _ = run("tile", "--matrix", "matrix.txt", "--threshold", "3", "--tau", "0.5")
        assert code == 0
        assert out == (
            "candidates=1 method=greedy error_mode=coverable threshold=3\n"
            "status=ok k=1 error=3 selection=1\n"
        )

    def test_bound_exceeded(self, run):
        code, _, err = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", "first", "--bound", "2",
        )
        assert code == 2
        assert err == "error: exact selection over 3 candidates exceeds bound 2\n"

    @pytest.mark.parametrize("method", ["optimal", "first", "all"])
    def test_negative_bound(self, run, method):
        code, out, err = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", method, "--bound", "-1",
        )
        assert (code, out, err) == (2, "", "error: --bound must be nonnegative\n")

    def test_greedy_ignores_bound(self, run):
        argv = ("tile", "--matrix", "matrix.txt", "--threshold", "3", "--candidates", "tiles.txt", "--error-mode", "full")
        result = run(*argv)
        assert result[0] == 0 and run(*argv, "--bound", "-1") == result

    def test_tau_required_without_candidates(self, run):
        code, _, err = run("tile", "--matrix", "matrix.txt", "--threshold", "3")
        assert code == 2
        assert err == "error: --tau is required unless --candidates supplies tiles\n"

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (("--tau", "0.5"), "--tau"),
            (("--max-candidates", "2"), "--max-candidates"),
            (("--max-candidates", "2", "--tau", "0.5"), "--tau"),
            (("--tau", "5"), "--tau"),  # out of range: still the usage error, not exit 3
        ],
    )
    def test_generation_options_refused_with_candidates(self, run, extra, flag):
        argv = ("tile", "--matrix", "matrix.txt", "--threshold", "3", "--candidates", "tiles.txt")
        message = f"error: {flag} applies to generated candidates only, not to --candidates\n"
        assert run(*argv, *extra) == (2, "", message)
        # a usage error: reported before the matrix is read
        assert run(*argv[:2], "missing.txt", *argv[3:], *extra) == (2, "", message)

    def test_negative_threshold(self, run):
        code, _, err = run("tile", "--matrix", "matrix.txt", "--threshold", "-1", "--tau", "0.5")
        assert code == 2 and "--threshold" in err

    def test_report_file(self, run, workdir):
        report = workdir / "report.out"
        code, _, _ = run(
            "tile", "--matrix", "matrix.txt", "--threshold", "3",
            "--candidates", "tiles.txt", "--method", "greedy", "--error-mode", "full",
            "--out", str(report),
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert "method=greedy" in lines and "status=ok" in lines
        assert "selection=1,3 k=2 ones_outside=0 zeros_inside=2 error=2" in lines


    @pytest.mark.parametrize("mode", ["coverable", "full"])
    def test_all_report_bytes_and_terms(self, run, workdir, mode):
        report = workdir / "all.out"
        code, _, _ = run(
            "tile", "--matrix", "matrix4x3.txt", "--candidates", "tiles.txt", "--threshold", "9",
            "--method", "all", "--error-mode", mode, "--out", str(report),
        )
        assert code == 0
        assert report.read_text() == all_report(mode)
        matrix = load_matrix(workdir / "matrix4x3.txt")
        assert check_report_terms(report.read_text(), matrix, load_tiles(workdir / "tiles.txt", matrix), mode) == 7
        # generated candidates on a larger matrix: 127 selections
        (workdir / "noisy.txt").write_text(noisy_matrix(), encoding="utf-8")
        code, _, _ = run(
            "tile", "--matrix", "noisy.txt", "--tau", "0.7", "--threshold", "216",
            "--method", "all", "--error-mode", mode, "--out", str(report),
        )
        assert code == 0
        matrix = load_matrix(workdir / "noisy.txt")
        assert check_report_terms(report.read_text(), matrix, generate_candidates(matrix, Fraction("0.7")), mode) == 127

    @pytest.mark.parametrize("mode", ["full", "coverable"])
    @pytest.mark.parametrize("method, threshold", list(SMOKE_SELECTIONS))
    def test_smoke_matrix_report_bytes(self, run, workdir, method, threshold, mode):
        (workdir / "smoke.txt").write_text(SMOKE_MATRIX, encoding="utf-8")
        report = workdir / "smoke.out"
        code, _, err = run(
            "tile", "--matrix", "smoke.txt", "--tau", "0.5", "--threshold", str(threshold),
            "--method", method, "--error-mode", mode, "--out", str(report),
        )
        assert (code, err) == (0, "")
        head = [f"method={method}", f"error_mode={mode}", f"threshold={threshold}", "candidates=3", "status=ok"]
        sels = SMOKE_SELECTIONS[method, threshold]
        lines = head + SMOKE_TILES + sels + [f"solutions={len(sels)}"]
        assert report.read_text() == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (("--error-mode", "full"), "de462f7fbc5529ce1f6d0044ce6158eda20045f69f1d53f3ef9de90af7d61df5"),
            (("--method", "optimal"), "d4ea1ce0487d6e33b1cbd08df78ffe5ef4e4ccf4aa3a4d6e5744fa771916c808"),
        ],
    )
    def test_generated_candidate_report_bytes(self, run, workdir, extra, digest):
        # greedy (full) and optimal (coverable) over seven generated candidates
        (workdir / "noisy.txt").write_text(noisy_matrix(), encoding="utf-8")
        report = workdir / "generated.out"
        code, _, err = run(
            "tile", "--matrix", "noisy.txt", "--tau", "0.7", "--threshold", "40", *extra, "--out", str(report),
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "extra",
        [("--tau", "0.7"), ("--tau", "0.7", "--method", "optimal", "--error-mode", "full"),
         ("--candidates", "tiles.txt", "--method", "all")],
        ids=["greedy", "optimal", "candidate-file"],
    )
    def test_run_never_builds_cells(self, run, workdir, monkeypatch, extra):
        # The loaded matrix's cells tuple is built on first read; a tile run reads only its masks.
        (workdir / "noisy.txt").write_text(noisy_matrix(), encoding="utf-8")
        loaded = []

        def load(path):
            loaded.append(load_matrix(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_matrix", load)
        matrix = "matrix.txt" if "--candidates" in extra else "noisy.txt"
        code, out, err = run("tile", "--matrix", matrix, "--threshold", "40", *extra, "--out", str(workdir / "r.out"))
        assert (code, err) == (0, "") and "status=ok" in out
        (m,) = loaded
        assert "cells" not in m.__dict__

    def test_exact_search_deeper_than_recursion_limit(self, run, workdir):
        # 1100 single-cell candidates: one search level per candidate
        (workdir / "tall.txt").write_text("1\n" * 1100, encoding="utf-8")
        (workdir / "cells.txt").write_text(
            "".join(f"rows={r} cols=1\n" for r in range(1, 1101)), encoding="utf-8"
        )
        code, out, err = run(
            "tile", "--matrix", "tall.txt", "--threshold", "2000",
            "--candidates", "cells.txt", "--method", "first", "--bound", "2000",
        )
        assert (code, err) == (0, "")
        assert out.endswith("status=ok k=1 error=1099 selection=1100\n")

    def test_output_independent_of_hash_seed(self, workdir):
        (workdir / "noisy.txt").write_text(noisy_matrix(), encoding="utf-8")
        methods = {
            "greedy": ("--error-mode", "full"),
            "optimal": ("--method", "optimal"),
        }
        for name, extra in methods.items():
            seen = []
            for seed in ("1", "2"):
                report = workdir / f"{name}-{seed}.out"
                proc = run_cli_process(
                    seed, "tile", "--matrix", str(workdir / "noisy.txt"),
                    "--threshold", "40", "--tau", "0.7", *extra, "--out", str(report),
                )
                assert proc.stderr == ""
                seen.append((proc.returncode, proc.stdout, report.read_bytes()))
            assert seen[0] == seen[1], name
            assert "status=ok" in seen[0][1], name


class TestVerify:
    def test_all_types_pass(self, run):
        checks = [
            (("--type", "itemset", "--input", "txns.txt", "--rep", "closed"),
             "verify itemset closed: ok (5 patterns, 5 valid, 3 condensed)\n"),
            (("--type", "sequence", "--input", "seqs.txt", "--rep", "maximal", "--max-len", "3"),
             "verify sequence maximal: ok (17 patterns, 17 valid, 5 condensed)\n"),
            (("--type", "graph-unique", "--input", "graphs.txt", "--rep", "free"),
             "verify graph-unique free: ok (7 patterns, 7 valid, 3 condensed)\n"),
            (("--type", "graph", "--input", "graphs.txt", "--rep", "skyline"),
             "verify graph skyline: ok (6 patterns, 6 valid, 1 condensed)\n"),
        ]
        for extra, expected in checks:
            code, out, _ = run("verify", *extra, "--minsup", "2")
            assert (code, out) == (0, expected)

    def test_diff_reported(self, run, monkeypatch):
        # a deliberately wrong oracle must surface as problems and exit 1
        monkeypatch.setattr(cli, "frequent_itemsets_bruteforce", lambda db, sigma: {})
        code, out, _ = run(
            "verify", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--rep", "closed"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verify itemset closed: 5 problem(s)"
        assert all(line.strip().startswith("extra:") for line in lines[1:])

    def test_graph_oracle_does_not_rest_on_the_minimum_code_test(self, run, monkeypatch):
        # The miner decides its classes by the minimum-code test. One that
        # rejects every grown code loses the classes b-a-c, a-c-e and b-a-c-e.
        # The oracle's classes are keyed by isomorphism, so the loss shows.
        monkeypatch.setattr(importlib.import_module("siftmine.graphs"), "_is_min_code", lambda code: False)
        code, out, _ = run("verify", "--type", "graph", "--input", "graphs.txt", "--minsup", "2", "--rep", "maximal")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verify graph maximal: 3 problem(s)"
        assert all(line.strip().startswith("missing:") for line in lines[1:])

    def test_lossy_canonical_code_changes_no_class(self, run, monkeypatch):
        # canonical_code only sorts the mined records: a code that only counts
        # vertices and edges, wherever it is bound, may reorder them but
        # neither merges nor loses a class, and verify still passes.
        argv = ("--type", "graph", "--input", "graphs.txt", "--minsup", "2")
        mined = run("mine", *argv)
        verified = run("verify", *argv, "--rep", "maximal")
        original = importlib.import_module("siftmine.graphs").canonical_code
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "siftmine" and getattr(module, "canonical_code", None) is original:
                monkeypatch.setattr(module, "canonical_code", lambda g: ((g.vertex_count, g.edge_count),))
        code, out, _ = run("mine", *argv)
        assert code == 0
        assert sorted(line.partition(" ")[2] for line in out.splitlines()) == sorted(
            line.partition(" ")[2] for line in mined[1].splitlines()
        )
        assert run("verify", *argv, "--rep", "maximal") == verified == (0, "verify graph maximal: ok (6 patterns, 6 valid, 1 condensed)\n", "")

    def test_flag_misuse(self, run):
        code, _, err = run(
            "verify", "--type", "itemset", "--input", "txns.txt", "--minsup", "2",
            "--rep", "closed", "--max-len", "3",
        )
        assert code == 2 and "--max-len" in err


# `--help` of siftmine and of each command at COLUMNS=80, the same on Python 3.10 to 3.13.
HELP_80 = {
    "": """\
usage: siftmine [-h] {mine,condense,tile,verify} ...

Mine frequent patterns, condense them under constraints, and tile binary
matrices.

positional arguments:
  {mine,condense,tile,verify}
    mine                mine frequent patterns into a pattern file
    condense            filter a pattern file and condense it
    tile                cover a binary matrix with tiles under an error budget
    verify              check miners and condensation against brute force

options:
  -h, --help            show this help message and exit
""",
    "mine": """\
usage: siftmine mine [-h] [--threads THREADS] --type
                     {itemset,sequence,graph-unique,graph} --input INPUT
                     --minsup MINSUP [--max-len MAX_LEN]
                     [--max-edges MAX_EDGES] [--out OUT]

options:
  -h, --help            show this help message and exit
  --threads THREADS     worker hint; output is identical for any value
  --type {itemset,sequence,graph-unique,graph}
  --input INPUT
  --minsup MINSUP       integer = absolute count, decimal in (0,1] = relative
  --max-len MAX_LEN     longest sequence pattern
  --max-edges MAX_EDGES
                        largest general graph pattern
  --out OUT
""",
    "condense": """\
usage: siftmine condense [-h] [--threads THREADS] --patterns PATTERNS --rep
                         {maximal,closed,free,skyline}
                         [--constraints CONSTRAINTS] [--weights WEIGHTS]
                         [--out OUT]

options:
  -h, --help            show this help message and exit
  --threads THREADS     worker hint; output is identical for any value
  --patterns PATTERNS
  --rep {maximal,closed,free,skyline}
  --constraints CONSTRAINTS
                        constraint file path or inline text
  --weights WEIGHTS
  --out OUT
""",
    "tile": """\
usage: siftmine tile [-h] [--threads THREADS] --matrix MATRIX --threshold
                     THRESHOLD [--tau TAU] [--max-candidates MAX_CANDIDATES]
                     [--candidates CANDIDATES]
                     [--method {greedy,first,all,optimal}]
                     [--error-mode {full,coverable}] [--bound BOUND]
                     [--out OUT]

options:
  -h, --help            show this help message and exit
  --threads THREADS     worker hint; output is identical for any value
  --matrix MATRIX
  --threshold THRESHOLD
                        error budget
  --tau TAU             confidence threshold for candidate generation
  --max-candidates MAX_CANDIDATES
  --candidates CANDIDATES
                        tile file overriding candidate generation
  --method {greedy,first,all,optimal}
  --error-mode {full,coverable}
  --bound BOUND         exact-search candidate limit
  --out OUT
""",
    "verify": """\
usage: siftmine verify [-h] [--threads THREADS] --type
                       {itemset,sequence,graph-unique,graph} --input INPUT
                       --minsup MINSUP --rep {maximal,closed,free,skyline}
                       [--constraints CONSTRAINTS] [--weights WEIGHTS]
                       [--max-len MAX_LEN] [--max-edges MAX_EDGES]

options:
  -h, --help            show this help message and exit
  --threads THREADS     worker hint; output is identical for any value
  --type {itemset,sequence,graph-unique,graph}
  --input INPUT
  --minsup MINSUP
  --rep {maximal,closed,free,skyline}
  --constraints CONSTRAINTS
  --weights WEIGHTS
  --max-len MAX_LEN
  --max-edges MAX_EDGES
""",
}


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    """Each command's options are built when argparse dispatches to it, with help and errors unchanged."""

    @pytest.mark.parametrize("command", list(HELP_80), ids=lambda c: c or "siftmine")
    def test_help_text(self, run, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(*([command, "--help"] if command else ["--help"]))
        assert exc.value.code == 0 and capsys.readouterr().out == HELP_80[command]

    def test_one_parser_parses_a_command_twice(self):
        parser = cli.build_parser()
        tile = ["tile", "--matrix", "m.txt", "--threshold", "3", "--tau", "0.5"]
        first = parser.parse_args([*tile, "--threads", "2"])
        second = parser.parse_args([*tile, "--method", "optimal"])
        assert (first.threads, first.method, second.threads, second.method) == (2, "greedy", 1, "optimal")
        assert second.handler is cli.cmd_tile and second.tau == Fraction(1, 2)

    @pytest.mark.parametrize(
        "argv, filled",
        [(["--help"], set()), (["frobnicate"], set()), ([], set()),
         (["condense", "--patterns", "p.pat", "--rep", "closed"], {"condense"})],
        ids=["help", "unknown", "none", "condense"],
    )
    def test_only_the_dispatched_command_is_filled(self, capsys, argv, filled):
        parser = cli.build_parser()
        with contextlib.suppress(SystemExit):
            parser.parse_args(argv)
        capsys.readouterr()
        commands = subparsers(parser)
        assert list(commands) == ["mine", "condense", "tile", "verify"]
        helps_only = [["-h", "--help"]]
        assert {name for name, p in commands.items() if [a.option_strings for a in p._actions] != helps_only} == filled


class TestThreads:
    def test_output_independent_of_threads(self, run):
        _, one, _ = run(
            "mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--threads", "1"
        )
        _, four, _ = run(
            "mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--threads", "4"
        )
        assert one == four

    def test_threads_must_be_positive(self, run):
        code, _, err = run(
            "mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2", "--threads", "0"
        )
        assert code == 2
        assert err == "error: --threads must be at least 1\n"


class TestIntegerOptions:
    # (argv without the option, the option): every integer option reads a plain ASCII decimal
    OPTIONS = [
        (("mine", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2"), "--max-len"),
        (("mine", "--type", "graph", "--input", "graphs.txt", "--minsup", "2"), "--max-edges"),
        (("verify", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2", "--rep", "closed"), "--max-len"),
        (("tile", "--matrix", "matrix.txt", "--tau", "0.5"), "--threshold"),
        (("tile", "--matrix", "matrix.txt", "--threshold", "3", "--tau", "0.5"), "--max-candidates"),
        (("tile", "--matrix", "matrix.txt", "--threshold", "3", "--candidates", "tiles.txt", "--method", "all"), "--bound"),
        (("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2"), "--threads"),
    ]

    @pytest.mark.parametrize("argv, option", OPTIONS, ids=[f"{argv[0]}{option}" for argv, option in OPTIONS])
    @pytest.mark.parametrize("value", ["1_0", "\u0661", "+3", " 3", "3 ", "3.0", "0x3"])
    def test_rejects_all_but_plain_decimals(self, run, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            run(*argv, option, value)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f"error: argument {option}: {value!r} is not an integer\n")

    @long_numbers
    @pytest.mark.parametrize("argv, option", OPTIONS, ids=[f"{argv[0]}{option}" for argv, option in OPTIONS])
    def test_long_values_stay_short(self, run, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            run(*argv, option, LONG_NUMBER)
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert exc.value.code == 2
        assert len(errors) == 1 and len(errors[0].encode()) < 300
        assert errors[0].endswith(f"error: argument {option}: {'9' * 40!r}... (5000 characters) is not an integer")

    @pytest.mark.parametrize(
        "argv, option, code, message",
        [
            (OPTIONS[0][0], "--max-len", 3, "max_len must be positive"),
            (OPTIONS[4][0], "--max-candidates", 3, "max_candidates must be positive"),
            (OPTIONS[6][0], "--threads", 2, "--threads must be at least 1"),
        ],
    )
    def test_negative_values_reach_range_checks(self, run, argv, option, code, message):
        # --bound and --threshold: TestTile's negative-value tests
        assert run(*argv, option, "-1") == (code, "", f"error: {message}\n")


class TestLongOptionText:
    """Option text an error quotes is cut to its first 40 characters and its length."""

    VERIFY = ("verify", "--type", "itemset", "--input", "txns.txt", "--rep", "closed")
    CASES = [
        pytest.param(
            ("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", LONG_NUMBER),
            f"cannot parse minimum support {'9' * 40!r}... (5000 characters)",
            marks=long_numbers,
            id="minsup",
        ),
        pytest.param(
            (*VERIFY, "--minsup", "2", "--constraints", f"size >= {LONG_NUMBER}"),
            f"bound {'9' * 40!r}... (5000 characters) is not an integer (line 1, column 1)",
            marks=long_numbers,
            id="bound",
        ),
        pytest.param(
            (*VERIFY, "--minsup", "2", "--constraints", f"size {'<' * 3000} 1"),
            f"unsupported operator {'<' * 40!r}... (3000 characters) for size (line 1, column 1)",
            id="operator",
        ),
        pytest.param(
            (*VERIFY, "--minsup", "2", "--constraints", "(" * 3000),
            f"unknown atom {'(' * 40!r}... (3000 characters) (line 1, column 1)",
            id="atom",
        ),
    ]

    @pytest.mark.parametrize("argv, message", CASES)
    def test_long_text_stays_short(self, run, argv, message):
        code, out, err = run(*argv)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n" and len(err.encode()) < 300

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "x"), "cannot parse minimum support 'x'"),
            ((*VERIFY, "--minsup", "2", "--constraints", "size >= x"), "bound 'x' is not an integer (line 1, column 1)"),
            ((*VERIFY, "--minsup", "2", "--constraints", "size << 1"), "unsupported operator '<<' for size (line 1, column 1)"),
            ((*VERIFY, "--minsup", "2", "--constraints", "foo"), "unknown atom 'foo' (line 1, column 1)"),
        ],
    )
    def test_short_text_shows_whole(self, run, argv, message):
        assert run(*argv) == (3, "", f"error: {message}\n")


class TestChoiceOptions:
    """A wrong choice is named in one short error line; a short one in argparse's own words."""

    CONDENSE = ("condense", "--patterns", "p.pat")
    TILE = ("tile", "--matrix", "matrix.txt", "--threshold", "3", "--tau", "0.5")
    # (argv without the option, the option, its choices)
    OPTIONS = [
        (CONDENSE, "--rep", ("maximal", "closed", "free", "skyline")),
        (("mine", "--input", "txns.txt", "--minsup", "2"), "--type", ("itemset", "sequence", "graph-unique", "graph")),
        (TILE, "--method", ("greedy", "first", "all", "optimal")),
        (TILE, "--error-mode", ("full", "coverable")),
        (("verify", "--input", "txns.txt", "--minsup", "2", "--rep", "closed"), "--type",
         ("itemset", "sequence", "graph-unique", "graph")),
        (("verify", "--type", "itemset", "--input", "txns.txt", "--minsup", "2"), "--rep",
         ("maximal", "closed", "free", "skyline")),
    ]
    IDS = [f"{argv[0]}{option}" for argv, option, _ in OPTIONS]

    @staticmethod
    def error_lines(run, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]

    @pytest.mark.parametrize("argv, option, choices", OPTIONS, ids=IDS)
    def test_long_value_stays_short(self, run, capsys, argv, option, choices):
        errors = self.error_lines(run, capsys, *argv, option, "x" * 5000)
        listed = ", ".join(map(repr, choices))
        assert len(errors) == 1 and len(errors[0].encode()) < 300
        assert errors[0].endswith(
            f"error: argument {option}: invalid choice: {'x' * 40!r}... (5000 characters) (choose from {listed})"
        )

    @pytest.mark.parametrize("argv, option, choices", OPTIONS, ids=IDS)
    @pytest.mark.parametrize("value", ["bogus", "x" * 40, ""])
    def test_short_value_in_argparse_words(self, run, capsys, argv, option, choices, value):
        reference = argparse.ArgumentParser(prog="p")
        reference.add_argument(option, choices=choices)
        with pytest.raises(SystemExit):
            reference.parse_args([option, value])
        want = capsys.readouterr().err.splitlines()[-1].removeprefix("p: ")
        errors = self.error_lines(run, capsys, *argv, option, value)
        assert len(errors) == 1 and errors[0].endswith(": " + want)

    def test_long_subcommand_stays_short(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run("x" * 5000)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert exc.value.code == 2 and "Traceback" not in err
        assert len(errors) == 1 and len(errors[0].encode()) < 300
        assert errors[0] == (
            f"siftmine: error: argument command: invalid choice: {'x' * 40!r}... (5000 characters) "
            "(choose from 'mine', 'condense', 'tile', 'verify')"
        )

    @pytest.mark.parametrize("name", ["bogus", "x" * 40, ""])
    def test_short_subcommand_in_argparse_words(self, run, capsys, name):
        reference = argparse.ArgumentParser(prog="siftmine")
        commands = reference.add_subparsers(dest="command", required=True)
        for command in ("mine", "condense", "tile", "verify"):
            commands.add_parser(command)
        with pytest.raises(SystemExit):
            reference.parse_args([name])
        want = capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(name)
        assert exc.value.code == 2 and capsys.readouterr().err == want

    def test_help_lists_the_choices(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run("tile", "--help")
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "[--method {greedy,first,all,optimal}]" in out and "[--error-mode {full,coverable}]" in out


class TestTau:
    """--tau reads ASCII digits with at most one decimal point, exactly, as --minsup does."""

    TILE = ("tile", "--matrix", "matrix.txt", "--threshold", "3")

    @pytest.mark.parametrize(
        "value", ["1_0", "nan", "inf", "1e-400", "0x1p-1", "", ".", "1.2.3", "+0.5", " 0.5", "0,5", "\u0661", "-"]
    )
    def test_rejects_all_but_plain_decimals(self, run, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(*self.TILE, "--tau", value)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --tau: {value!r} is not a decimal\n")

    def test_long_value_stays_short(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*self.TILE, "--tau", "0." + "5" * 5000 + "x")
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert exc.value.code == 2
        assert len(errors) == 1 and len(errors[0].encode()) < 300
        assert errors[0].endswith(f"error: argument --tau: {'0.' + '5' * 38!r}... (5003 characters) is not a decimal")

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.5", "1.5", "1.00000000000000000001", "2"])
    def test_decimals_outside_range_exit_3(self, run, value):
        assert run(*self.TILE, "--tau", value) == (3, "", "error: tau must lie in (0, 1]\n")

    def test_long_decimal_reads_exactly(self, run):
        # on matrix.txt every confidence is 1/2 or 1, so any tau in (1/2, 1] gives the same candidates
        assert run(*self.TILE, "--tau", "0." + "5" * 5000 + "1") == run(*self.TILE, "--tau", "0.6")

    def test_read_exactly(self):
        args = cli.build_parser().parse_args([*self.TILE, "--tau", "0.99999999999999999999"])
        assert args.tau == Fraction(10**20 - 1, 10**20) < 1

    @pytest.mark.parametrize("value", ["0.5", "0.7", "0.8", "1", ".5", "00.70", "1."])
    def test_equals_the_float_reading(self, value):
        # --tau was read by float() and then as Fraction(str(tau)): the same values give the same candidates
        assert cli.build_parser().parse_args([*self.TILE, "--tau", value]).tau == Fraction(str(float(value)))


def golden_inputs():
    """1,100 transactions and sequences, so covers list tids past 1024, over labels that need quoting."""
    rng = random.Random(6121)
    items = ["a", "b%", "c,d", "\u00e9", "e=f", "g", "h"]
    txns = [" ".join(rng.sample(items, rng.randint(1, 5))) for _ in range(1100)]
    symbols = ["x", "y:1", "z-", "w"]
    seqs = [" ".join(rng.choice(symbols) for _ in range(rng.randint(2, 9))) for _ in range(1100)]
    return {"txns.txt": "\n".join(txns) + "\n", "seqs.txt": "\n".join(seqs) + "\n"}


GOLDEN_PIPELINES = {
    "itemset": ("txns.txt", "0.05", ()),
    "sequence": ("seqs.txt", "0.1", ("--max-len", "4")),
}

# sha256 of the mined and the condensed pattern file of each pipeline
GOLDEN_SHA256 = {
    "itemset": (
        "2282e78240ae3de5369933ce50967021d6505156c4d9d7bfa4788d4cf29b1627",
        "0841980e4dfc0e3970428f6c65c9fe87245e15ba9e09cb70b0cac83b4e6e9c24",
    ),
    "sequence": (
        "d4615d06610c97a359b37e64a84b2d60f96169b617b7b5faca1a328df53a5078",
        "2c24d020dfc1477a873a4846f5d07263ab2156ded95a4e5a96a4e5c480ce75db",
    ),
}


def golden_pipeline_digests(tmp_path, kind):
    """mine, then condense, through cli.main; the sha256 of both pattern files."""
    for name, text in golden_inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    inp, minsup, extra = GOLDEN_PIPELINES[kind]
    pats, kept = tmp_path / "mined.pat", tmp_path / "kept.pat"
    argv = ["mine", "--type", kind, "--input", str(tmp_path / inp), "--minsup", minsup, *extra, "--out", str(pats)]
    assert cli.main(argv) == 0
    argv = ["condense", "--patterns", str(pats), "--rep", "closed", "--constraints", "size >= 2", "--out", str(kept)]
    assert cli.main(argv) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (pats, kept))


class TestGoldenPipeline:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_PIPELINES))
    def test_pattern_file_digests(self, tmp_path, capsys, kind):
        assert golden_pipeline_digests(tmp_path, kind) == GOLDEN_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_PIPELINES))
    def test_mine_and_condense_never_build_a_cover_set(self, tmp_path, capsys, monkeypatch, kind):
        def refuse(self):
            raise AssertionError("a cover was materialised")

        monkeypatch.setattr(Cover, "as_set", refuse)
        assert golden_pipeline_digests(tmp_path, kind) == GOLDEN_SHA256[kind]


PATTERN_LINE = "pid=1 kind=itemset support=1 size=1 elements=a cover=1"
GRAPH_PATTERN_LINE = "pid=1 kind=graph support=1 size=1 vertices=0:a,1:b edges=0-1:x cover=1"


class TestRejectedInputs:
    """Inputs that used to load lossily or crash: each exits 3 with a one-line error."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ("cover=1", "cover=1_0"),
            ("cover=1", "cover=\u0661"),
            ("cover=1", "cover=-1"),
            ("pid=1", "pid=1_0"),
            ("support=1", "support=\u0661"),
            ("size=1", "size=-1"),
            ("elements=a", "elements=%zz"),
            ("elements=a", "elements=%C3"),
        ],
    )
    def test_pattern_file_fields(self, tmp_path, old, new):
        pats = tmp_path / "p.pat"
        pats.write_text(PATTERN_LINE.replace(old, new) + "\n", encoding="utf-8")
        self.check(run_cli_process("0", "condense", "--patterns", str(pats), "--rep", "maximal"), "line 1")

    def test_repeated_itemset_label(self, tmp_path):
        pats = tmp_path / "p.pat"
        pats.write_text("pid=1 kind=itemset support=1 size=2 elements=a,a cover=1\n", encoding="utf-8")
        proc = run_cli_process("0", "condense", "--patterns", str(pats), "--rep", "maximal")
        self.check(proc, "p.pat: line 1: pattern 1: itemset lists a label more than once")

    # Errors a whole record raises, not one of its fields: each names the line.
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"edges=0-1": "edges=0-0"}, "self loop at vertex 0"),
            ({"edges=0-1": "edges=0-2"}, "edge (0,2) references an undeclared vertex"),
            ({"0-1:x": "0-1:x,0-1:y", "size=1": "size=2"}, "duplicate edge (0,1)"),
            ({"vertices=0:a": "vertices=0:a,0:c"}, "duplicate vertex id"),
            ({"size=1": "size=2"}, "size must match the pattern"),
            ({"pid=2": "pid=1"}, "duplicate pattern id 1"),
            ({"pid=2": "pid=0"}, "pattern ids are 1-based"),
        ],
        ids=["self-loop", "undeclared-vertex", "duplicate-edge", "duplicate-vertex", "size", "duplicate-pid", "pid-0"],
    )
    def test_record_errors_name_the_line(self, tmp_path, changes, message):
        line = GRAPH_PATTERN_LINE.replace("pid=1", "pid=2")
        for old, new in changes.items():
            line = line.replace(old, new)
        pats = tmp_path / "p.pat"
        pats.write_text(GRAPH_PATTERN_LINE + "\n" + line + "\n", encoding="utf-8")
        proc = run_cli_process("0", "condense", "--patterns", str(pats), "--rep", "maximal")
        self.check(proc, f"p.pat: line 2: {message}")

    @pytest.mark.parametrize("old, new", [("vertices=0:a", "vertices=0_0:a"), ("0-1:x", "0-+1:x")])
    def test_graph_pattern_ids(self, tmp_path, old, new):
        pats = tmp_path / "p.pat"
        pats.write_text(GRAPH_PATTERN_LINE.replace(old, new) + "\n", encoding="utf-8")
        self.check(run_cli_process("0", "condense", "--patterns", str(pats), "--rep", "maximal"), "line 1")

    def test_graph_db_and_tile_ids(self, workdir):
        (workdir / "g.txt").write_text("t # 1\nv 1_0 a\n", encoding="utf-8")
        self.check(run_cli_process("0", "mine", "--type", "graph", "--input", str(workdir / "g.txt"), "--minsup", "1"), "line 2")
        (workdir / "t.txt").write_text("rows=1_0 cols=1\n", encoding="utf-8")
        argv = ("tile", "--matrix", str(workdir / "matrix.txt"), "--candidates", str(workdir / "t.txt"), "--threshold", "1")
        self.check(run_cli_process("0", *argv), "line 1")

    @long_numbers
    @pytest.mark.parametrize("line", LONG_NUMBER_LINES, ids=range(len(LONG_NUMBER_LINES)))
    def test_long_pattern_numbers(self, tmp_path, line):
        pats = tmp_path / "p.pat"
        pats.write_text(line + "\n", encoding="utf-8")
        proc = run_cli_process("0", "condense", "--patterns", str(pats), "--rep", "maximal")
        self.check(proc, f"{pats}: line 1: pid/support/size must be integers")

    @long_numbers
    @pytest.mark.parametrize("line", [f"rows=1,{LONG_NUMBER} cols=1", f"rows=1 cols={LONG_NUMBER}"], ids=["row", "column"])
    def test_long_tile_indices(self, workdir, line):
        tiles = workdir / "t.txt"
        tiles.write_text(line + "\n", encoding="utf-8")
        argv = ("tile", "--matrix", str(workdir / "matrix.txt"), "--candidates", str(tiles), "--threshold", "1")
        self.check(run_cli_process("0", *argv), f"{tiles}: line 1: malformed integer list")

    @long_numbers
    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("w.txt", f"a {LONG_NUMBER}\n", ("condense", "--patterns", "p.pat", "--rep", "maximal", "--weights", "w.txt")),
            ("t.txt", f"rows={LONG_NUMBER} cols=1\n", ("tile", "--matrix", "matrix.txt", "--candidates", "t.txt", "--threshold", "1")),
            ("p.pat", f"pid=1 kind=itemset support=2 size=1 elements=a cover=1,{LONG_NUMBER}x\n",
             ("condense", "--patterns", "p.pat", "--rep", "maximal")),
            ("g.txt", f"t # 1\nv {LONG_NUMBER} a\n", ("mine", "--type", "graph", "--input", "g.txt", "--minsup", "1")),
            # numbers that int() reads, shown as digits
            ("g.txt", f"t # {LONG_ID}\n", ("mine", "--type", "graph", "--input", "g.txt", "--minsup", "1")),
            ("g.txt", f"t # 1\nv {LONG_ID} a\nv {LONG_ID} b\n", ("mine", "--type", "graph", "--input", "g.txt", "--minsup", "1")),
            ("p.pat", f"pid={LONG_ID} kind=itemset support=1 size=1 elements=a\n" * 2, ("condense", "--patterns", "p.pat", "--rep", "maximal")),
            ("p.pat", f"pid={LONG_ID} kind=itemset support=1 size=2 elements=a,a\n", ("condense", "--patterns", "p.pat", "--rep", "maximal")),
        ],
        ids=["weight", "tile-row", "cover", "vertex-id", "graph-id-order", "duplicate-vertex-id", "duplicate-pid", "repeated-label-pid"],
    )
    def test_long_token_errors_stay_short(self, workdir, name, text, argv):
        (workdir / "p.pat").write_text(PATTERN_LINE + "\n", encoding="utf-8")
        (workdir / name).write_text(text, encoding="utf-8")
        proc = run_cli_process("0", *(str(workdir / a) if "." in a else a for a in argv))
        self.check(proc, f"{workdir / name}: line {text.count(chr(10))}: ")
        assert re.search(r"'[^']{40}'\.\.\. \(500[0-9] characters\)| 9{40}\.\.\. \(4000 digits\)", proc.stderr)
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.replace(str(workdir), "").encode()) < 200

    @pytest.mark.parametrize("line", ["rows= cols=1", "rows=1 cols="])
    def test_empty_tile_sets(self, workdir, line):
        tiles = workdir / "t.txt"
        tiles.write_text(f"rows=1 cols=1\n{line}\n", encoding="utf-8")
        argv = ("tile", "--matrix", str(workdir / "matrix.txt"), "--candidates", str(tiles), "--threshold", "1")
        self.check(run_cli_process("0", *argv), f"{tiles}: line 2: tile row and column sets must be nonempty")

    @pytest.mark.parametrize("minsup", ["1_0", "0.5_0", "\u0661", "\u0660.\u0665"])
    def test_minsup(self, workdir, minsup):
        argv = ("mine", "--type", "itemset", "--input", str(workdir / "txns.txt"), "--minsup", minsup)
        self.check(run_cli_process("0", *argv), "cannot parse minimum support")

    def test_unreadable_files(self, workdir):
        bad = workdir / "latin1.txt"
        bad.write_bytes(b"caf\xe9 a\n")
        self.check(run_cli_process("0", "mine", "--type", "itemset", "--input", str(bad), "--minsup", "1"), "not UTF-8")
        self.check(run_cli_process("0", "tile", "--matrix", str(bad), "--tau", "0.5", "--threshold", "1"), "not UTF-8")
        pats = workdir / "p.pat"
        pats.write_text(PATTERN_LINE + "\n", encoding="utf-8")
        for constraints in (str(bad), str(workdir)):
            argv = ("condense", "--patterns", str(pats), "--rep", "maximal", "--constraints", constraints)
            self.check(run_cli_process("0", *argv), constraints)

    @staticmethod
    def check(proc, where):
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and where in proc.stderr


# Commands and their input files; each file name in argv stands for the file's path.
FUZZ_CONSTRAINTS = "size >= 1 | support <= 99\ncost <= 9, excludes zz # a comment\n"
FUZZ_WEIGHTS = "a 1\nb 2\ne 3\n"
FUZZ_RUNS = [
    (("mine", "--type", "itemset", "--input", "txns.txt", "--minsup", "2"), {"txns.txt": TXNS}),
    (("mine", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2", "--max-len", "3"), {"seqs.txt": SEQS}),
    (("mine", "--type", "graph-unique", "--input", "graphs.txt", "--minsup", "2"), {"graphs.txt": GRAPHS}),
    (
        ("mine", "--type", "graph", "--input", "labeled.txt", "--minsup", "2", "--max-edges", "3"),
        {"labeled.txt": LABELED_GRAPHS},
    ),
    (
        ("condense", "--patterns", "items.pat", "--rep", "closed", "--constraints", "c.txt", "--weights", "w.txt"),
        {
            "items.pat": "\n".join(ITEMSET_LINES + ["pid=6 kind=itemset support=1 size=2 elements=a,c%2Cd cover=3"]),
            "c.txt": FUZZ_CONSTRAINTS,
            "w.txt": FUZZ_WEIGHTS,
        },
    ),
    (
        ("condense", "--patterns", "seqs.pat", "--rep", "maximal", "--constraints", "c.txt", "--weights", "w.txt"),
        {
            "seqs.pat": "pid=1 kind=sequence support=3 size=1 elements=a cover=1,2,3\n"
            "pid=2 kind=sequence support=2 size=2 elements=b,e cover=1,2 valid=1 condensed=0\n"
            "pid=3 kind=sequence support=1 size=3 elements=%C3%A9,b,%25 cover=2\n",
            "c.txt": FUZZ_CONSTRAINTS,
            "w.txt": FUZZ_WEIGHTS,
        },
    ),
    (("condense", "--patterns", "graphs.pat", "--rep", "free"), {"graphs.pat": "\n".join(LABELED_MINSUP_2_LINES)}),
    (("tile", "--matrix", "noisy.txt", "--threshold", "40", "--tau", "0.7"), {"noisy.txt": noisy_matrix()}),
    (
        ("tile", "--matrix", "matrix.txt", "--threshold", "9", "--candidates", "tiles.txt", "--method", "optimal",
         "--error-mode", "full"),
        {"matrix.txt": MATRIX, "tiles.txt": TILES},
    ),
    (("verify", "--type", "sequence", "--input", "seqs.txt", "--minsup", "2", "--rep", "closed", "--max-len", "3"),
     {"seqs.txt": SEQS}),
    (("verify", "--type", "graph", "--input", "graphs.txt", "--minsup", "2", "--rep", "skyline", "--constraints",
      "c.txt"), {"graphs.txt": GRAPHS, "c.txt": "size >= 2\n"}),
]
# Inserted text: characters that split, end or escape a field, another script's digits, escapes, a long number.
FUZZ_PIECES = [" ", "\n", "\t", "=", ",", ":", "-", "#", "%", "0", "7", "a", "\xe9", "\u0661", "%41", "%zz", "%C3",
               LONG_NUMBER]
# (kind, position, inserted text); a position past the end wraps around.
FUZZ_EDITS = st.tuples(
    st.sampled_from(["insert", "delete", "repeat", "long"]), st.integers(0, 1 << 16), st.sampled_from(FUZZ_PIECES)
)


def mutated(text, edits):
    """text after each edit: a piece inserted, a character deleted or repeated, or a digit run made 5,000 digits."""
    for kind, at, piece in edits:
        i = at % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + piece + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1 :]
        elif kind == "repeat":
            text = text[:i] + text[i : i + 1] + text[i:]
        elif runs := [m.span() for m in re.finditer(r"[0-9]+", text)]:
            start, end = runs[at % len(runs)]
            text = text[:start] + LONG_NUMBER + text[end:]
    return text


def fuzz_argv(directory, run, target, edits):
    """Write run's input files into directory, the target-th one mutated; the run's argv with their paths."""
    argv, files = FUZZ_RUNS[run]
    names = list(files)
    for name, text in files.items():
        if name == names[target % len(names)]:
            text = mutated(text, edits)
        (directory / name).write_text(text, encoding="utf-8")
    return [str(directory / a) if a in files else a for a in argv]


def rewrite(path, out):
    """The bytes of path's pattern file loaded and written to out."""
    loaded = load_patterns(path)
    write_patterns(loaded.records, out, loaded.symbols, valid=loaded.valid, condensed=loaded.condensed)
    return out.read_bytes()


class TestCliFuzz:
    """Mutated input files never crash a command: each exits 0-3 with no traceback."""

    @settings(max_examples=300, deadline=None)
    @given(run=st.integers(0, len(FUZZ_RUNS) - 1), target=st.integers(0, 2), edits=st.lists(FUZZ_EDITS, max_size=3))
    @example(run=4, target=0, edits=[("long", 0, "")])  # a 5,000-digit pid on a canonical line
    @example(run=6, target=0, edits=[("long", 2, "")])  # a 5,000-digit support on a graph line
    @example(run=8, target=1, edits=[("long", 1, "")])  # a 5,000-digit tile column
    def test_exit_codes_and_round_trip(self, run, target, edits):
        with tempfile.TemporaryDirectory() as d:
            directory = Path(d)
            argv = fuzz_argv(directory, run, target, edits)
            if argv[0] == "condense":
                argv += ["--out", str(directory / "out.pat")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
            if not edits:
                assert code == 0, err.getvalue()
            if code == 3:
                assert err.getvalue().startswith("error: ")
            if argv[0] == "condense":
                try:
                    once = rewrite(directory / argv[2], directory / "once.pat")
                except InputError:
                    assert code == 3
                else:
                    assert rewrite(directory / "once.pat", directory / "twice.pat") == once
                if code == 0:
                    kept = (directory / "out.pat").read_bytes()
                    assert rewrite(directory / "out.pat", directory / "again.pat") == kept

    # Every command's output, and one error, in fresh interpreters with different hash seeds.
    @pytest.mark.parametrize(
        "run, edits", [(3, []), (5, []), (6, []), (7, []), (10, []), (4, [("long", 0, "")])], ids=range(6)
    )
    def test_output_independent_of_hash_seed(self, tmp_path, run, edits):
        argv = fuzz_argv(tmp_path, run, 0, edits)
        one, two = (run_cli_process(seed, *argv) for seed in ("1", "2"))
        assert one.returncode == (3 if edits else 0) and "Traceback" not in one.stderr
        assert (one.returncode, one.stdout, one.stderr) == (two.returncode, two.stdout, two.stderr)


# `tile` option values from the fuzz grammar: valid values, empty strings, signs and "_",
# non-ASCII digits, 5,000-digit numbers, nan, inf, hex floats and huge exponents.
INT_VALUES = ["0", "1", "2", "9", "40", "", "-1", "-0", "+3", "1_0", "\u0661", "\uff13", LONG_NUMBER,
              "-" + LONG_NUMBER, "nan", "inf", "0x10", "1e400", "3.0"]
TILE_OPTIONS = {
    "--matrix": ["noisy.txt", "matrix4x3.txt", "missing.txt"],
    "--candidates": ["tiles.txt"],
    "--threshold": INT_VALUES,
    "--tau": ["0.7", "0.5", "1", "0.99999999999999999999", "0", "-0.5", "1.5", "", "+0.5", "0_5", "\u0660.7",
              "nan", "inf", "-inf", "0x1p-1", "1e-400", "0." + "7" * 5000, LONG_NUMBER],
    "--max-candidates": INT_VALUES,
    "--bound": INT_VALUES,
    "--method": ["greedy", "first", "all", "optimal", "", "bogus", "x" * 5000],
    "--error-mode": ["full", "coverable", "", "Full", "x" * 5000],
    "--threads": [*INT_VALUES, "1" + "0" * 18],
    "--out": ["report.txt"],
    "--bogus": ["1"],
}


@st.composite
def option_argv(draw, command, options, required):
    """command with each option absent, given once or repeated, in any order; the required ones mostly given.

    An option's values are a list to sample or a strategy.
    """
    pairs = []
    for option, values in options.items():
        given_at_least = 1 if option in required and draw(st.integers(0, 7)) else 0
        values = st.sampled_from(values) if isinstance(values, list) else values
        for value in draw(st.lists(values, min_size=given_at_least, max_size=2)):
            pairs.append((option, value))
    return [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]


def run_drawn(argv, files):
    """cli.main(argv) in a directory of files, each name in argv standing for its path: (exit code, stdout).

    It asserts exit 0-3, no traceback, error lines under 300 bytes, an error
    line exactly for exits 2 and 3, and that no thread or process started.
    """
    with tempfile.TemporaryDirectory() as d:
        directory = Path(d)
        for name, text in files.items():
            if text is not None:  # None: a path the run finds missing, or writes
                (directory / name).write_text(text, encoding="utf-8")
        argv = [str(directory / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        started = AssertionError("a run started a thread or a process")
        threads = threading.active_count()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(threading.Thread, "start", side_effect=started), \
                mock.patch.object(subprocess, "Popen", side_effect=started), \
                mock.patch.object(os, "fork", side_effect=started):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert threading.active_count() == threads
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    assert all(len(line.encode()) < 300 for line in errors)
    assert bool(errors) == (code in (2, 3)), err.getvalue()
    return code, out.getvalue()


class TestTileOptionFuzz:
    """Drawn `tile` option values exit 0-3 with no traceback and short error lines, and start nothing."""

    @settings(max_examples=250, deadline=None)
    @given(argv=option_argv("tile", TILE_OPTIONS, ("--matrix", "--threshold")))
    @example(argv=["tile", "--matrix", "noisy.txt", "--threshold", "40", "--tau", "0.7", "--threads", "1" + "0" * 18])
    @example(argv=["tile", "--matrix", "noisy.txt", "--threshold", "9", "--tau", "0.5", "--method", "all",
                   "--threads", LONG_NUMBER])
    @example(argv=["tile", "--matrix", "matrix4x3.txt", "--threshold", "9", "--candidates", "tiles.txt", "--tau", "5"])
    def test_exit_codes_and_error_lines(self, argv):
        files = {"noisy.txt": noisy_matrix(), "matrix4x3.txt": MATRIX_4X3, "tiles.txt": TILES, "missing.txt": None,
                 "report.txt": None}
        code, out = run_drawn(argv, files)
        if code in (0, 1):
            assert out.startswith("candidates=")


@st.composite
def constraint_texts(draw):
    """Constraint text from the grammar, often malformed: bad operators, bounds, braces and labels, long tokens."""
    label = st.sampled_from(["a", "b", "e", "zz", "", "{", "%41", "x" * 5000])

    def atom():
        head = draw(st.sampled_from(["size", "support", "cost", "contains", "excludes", "adjacent", "before",
                                     "none_between", "", "bogus", "x" * 5000]))
        if head in ("size", "support", "cost"):
            return f"{head} {draw(st.sampled_from(['>=', '<=', '><', '=']))} {draw(st.sampled_from(INT_VALUES))}"
        if head in ("contains", "excludes"):
            return f"{head} {draw(label)}"
        if head in ("adjacent", "before"):
            return f"{head} {draw(label)} {draw(label)}"
        if head == "none_between":
            return f"none_between {{{','.join(draw(st.lists(label, max_size=2)))}}} {draw(label)} {draw(label)}"
        return head

    clauses = [" | ".join(atom() for _ in range(draw(st.integers(1, 2)))) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.sampled_from([", ", "\n", " # note\n", ",,", "} "])).join(clauses)


CONDENSE_FILES = {
    "items.pat": "\n".join(ITEMSET_LINES) + "\n",
    "seqs.pat": "pid=1 kind=sequence support=3 size=1 elements=a cover=1,2,3\n"
    "pid=2 kind=sequence support=2 size=2 elements=b,e cover=1,2\n",
    "c.txt": FUZZ_CONSTRAINTS,
    "w.txt": FUZZ_WEIGHTS,
    "bad-w.txt": "a 1\nb -2\n",
    "missing.pat": None,
    "missing-w.txt": None,
    "out.pat": None,
}
CONDENSE_OPTIONS = {
    "--patterns": ["items.pat", "seqs.pat"] * 2 + ["missing.pat"],
    "--rep": ["maximal", "closed", "free", "skyline"] * 3 + ["", "Closed", "x" * 5000],
    "--constraints": constraint_texts() | st.sampled_from(["c.txt"]),
    "--weights": ["w.txt", "w.txt", "bad-w.txt", "missing-w.txt"],
    "--out": ["out.pat"],
}


class TestCondenseOptionFuzz:
    """Drawn `condense` option values exit 0-3 with no traceback and short error lines, and start nothing."""

    @settings(max_examples=200, deadline=None)
    @given(argv=option_argv("condense", CONDENSE_OPTIONS, ("--patterns", "--rep")))
    @example(argv=["condense", "--patterns", "seqs.pat", "--rep", "closed", "--constraints", "before a e, cost <= 2",
                   "--weights", "w.txt"])
    @example(argv=["condense", "--patterns", "items.pat", "--rep", "maximal", "--constraints", "contains " + "x" * 5000])
    def test_exit_codes_and_error_lines(self, argv):
        code, out = run_drawn(argv, CONDENSE_FILES)
        assert code != 1
        if code == 0:
            assert out.splitlines()[-1].startswith("kept ")
