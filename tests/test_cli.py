"""Command line interface, exercised in-process through cli.main."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import siftmine

import siftmine.cli as cli
from siftmine.core import Cover
from siftmine import (
    DominanceRelation,
    EMPTY_EXPR,
    MinSupport,
    condense,
    generate_candidates,
    load_matrix,
    load_patterns,
    load_tiles,
    load_transactions,
    mine_frequent_itemsets,
    partition_valid,
)
from siftmine.oracle import tiling_error_bruteforce

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
    "pid=9 kind=graph support=1 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-2:0,1-3:0 cover=3",
    "pid=10 kind=graph support=1 size=3 vertices=0:a,1:b,2:b,3:b edges=0-1:0,0-2:0,1-3:y cover=3",
    "pid=11 kind=graph support=2 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,2-3:0 cover=2,3",
    "pid=12 kind=graph support=1 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,1-2:0,1-3:y cover=1",
    "pid=13 kind=graph support=2 size=3 vertices=0:a,1:b,2:a edges=0-1:0,0-2:x,1-2:0 cover=1,3",
    "pid=14 kind=graph support=3 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-3:y cover=1,2,3",
    "pid=15 kind=graph support=2 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,1-2:y,2-3:0 cover=1,2",
    "pid=16 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a edges=0-1:0,0-2:0,0-3:x,1-3:0 cover=3",
    "pid=17 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a,4:b edges=0-1:0,0-2:0,0-3:x,1-4:y cover=3",
    "pid=18 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b,4:b edges=0-1:0,0-2:x,1-4:y,2-3:0 cover=3",
    "pid=19 kind=graph support=1 size=4 vertices=0:a,1:b,2:b,3:a,4:b edges=0-1:0,0-2:0,1-3:0,2-4:y cover=3",
    "pid=20 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b,4:a edges=0-1:0,1-2:0,1-3:y,3-4:0 cover=1",
    "pid=21 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-2:0,1-3:y cover=1",
    "pid=22 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b,4:a edges=0-1:0,0-2:x,1-3:y,3-4:0 cover=1",
    "pid=23 kind=graph support=1 size=4 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-3:y,2-3:0 cover=2",
    "pid=24 kind=graph support=1 size=5 vertices=0:a,1:b,2:b,3:a,4:b edges=0-1:0,0-2:0,0-3:x,1-3:0,2-4:y cover=3",
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
    "pid=9 kind=graph support=3 size=3 vertices=0:a,1:b,2:a,3:b edges=0-1:0,0-2:x,1-3:y cover=1,2,3",
    "pid=10 kind=graph support=2 size=3 vertices=0:a,1:b,2:b,3:a edges=0-1:0,1-2:y,2-3:0 cover=1,2",
]

# One vertex label: a 5-cycle with an x chord and a K4 with one x edge. Their
# many automorphic embeddings give many duplicate candidates per class, so
# these lines pin which candidate's vertex numbering stands for each class.
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
    "pid=3 kind=graph support=2 size=2 vertices=0:a,1:a,2:a edges=0-1:0,0-2:0 cover=1,2",
    "pid=4 kind=graph support=2 size=2 vertices=0:a,1:a,2:a edges=0-1:0,0-2:x cover=1,2",
    "pid=5 kind=graph support=1 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:0 cover=2",
    "pid=6 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:x cover=1,2",
    "pid=7 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-3:0 cover=1,2",
    "pid=8 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-3:x cover=1,2",
    "pid=9 kind=graph support=2 size=3 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:x,2-3:0 cover=1,2",
    "pid=10 kind=graph support=1 size=3 vertices=0:a,1:a,2:a edges=0-1:0,0-2:0,1-2:0 cover=2",
    "pid=11 kind=graph support=2 size=3 vertices=0:a,1:a,2:a edges=0-1:0,0-2:0,1-2:x cover=1,2",
    "pid=12 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,0-2:0,0-3:x,3-4:0 cover=1",
    "pid=13 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,0-2:0,0-3:x,1-4:0 cover=1",
    "pid=14 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:0,1-2:0 cover=2",
    "pid=15 kind=graph support=2 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:x,1-3:0 cover=1,2",
    "pid=16 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,0-2:0,1-3:0,2-4:0 cover=1",
    "pid=17 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:0,1-2:x cover=2",
    "pid=18 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a,4:a edges=0-1:0,0-2:0,1-3:x,3-4:0 cover=1",
    "pid=19 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,0-3:x,1-2:0 cover=2",
    "pid=20 kind=graph support=1 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-3:0,2-3:0 cover=2",
    "pid=21 kind=graph support=2 size=4 vertices=0:a,1:a,2:a,3:a edges=0-1:0,0-2:0,1-3:0,2-3:x cover=1,2",
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
            seen.append((proc.returncode, proc.stderr, proc.stdout, out_file.read_bytes(), stdout))
        assert seen[0] == seen[1]
        assert seen[0][:2] == (0, "")

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

    def test_kind_mismatch(self, run, pats):
        code, _, err = run(
            "condense", "--patterns", str(pats), "--rep", "closed", "--constraints", "adjacent a b"
        )
        assert code == 3
        assert err == "error: adjacent applies only to sequence patterns, got itemset\n"


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
        assert check_report_terms(report.read_text(), matrix, generate_candidates(matrix, 0.7), mode) == 127

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

    def test_flag_misuse(self, run):
        code, _, err = run(
            "verify", "--type", "itemset", "--input", "txns.txt", "--minsup", "2",
            "--rep", "closed", "--max-len", "3",
        )
        assert code == 2 and "--max-len" in err


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
