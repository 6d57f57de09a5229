"""Self-test of the benchmark itself (about four minutes on two cores).

    python3 perfbench/selftest.py

1. Smoke: every workload runs once untraced with a one-second budget and
   passes its output checks.
2. Repeatability: every workload runs traced twice, under two different
   PYTHONHASHSEED values. Both runs pass, print the same output digest, and
   report identical counts (iso, canonical-code, dominance, embed and error
   calls, patterns, records and bytes).
3. Corruption: after one pipeline, the first command's output file is
   damaged, and the workload's check must report that command.
4. Stripped checkout: in a directory holding only BENCHMARK.json and
   perfbench/, the benchmark exits non-zero without printing a result.
5. BENCHMARK.json names exactly the workloads and metrics run.py reports.

Exits 1 when any of these fails.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 7
COUNT_UNITS = ("count", "bytes", "ratio")


def bench(workload: str, trace: int, cwd: Path = run.ROOT, hash_seed: str = "random"):
    """Run the benchmark in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1"]
    proc = subprocess.run(argv + ["--trace", str(trace)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines) -> dict:
    return json.loads(lines[-1])


def digest_of(lines) -> str:
    return next(line.split()[1] for line in lines if line.startswith("digest "))


def corrupt(path: str) -> None:
    """Damage a pattern file (drop one cover id) or a tiling report (change an error)."""
    text = Path(path).read_text(encoding="utf-8")
    if text.startswith("pid="):
        first, rest = text.split("\n", 1)
        damaged = re.sub(r"(cover=[0-9,]*),[0-9]+", r"\1", first, count=1) + "\n" + rest
    else:
        damaged = re.sub(r"error=([0-9]+)", lambda m: f"error={int(m.group(1)) + 1}", text, count=1)
    if damaged == text:
        raise ValueError(f"nothing to corrupt in {path}")
    Path(path).write_text(damaged, encoding="utf-8")


def corruption_is_caught(workload) -> bool:
    from siftmine import cli

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as work:

        def path(name: str) -> str:
            return str(Path(work) / name)

        inputs = run.write_inputs(workload, SEED, path)
        commands = workload.commands(inputs, path)
        _, _, results = run.run_pipeline(commands, cli.main)
        clean = workload.check(inputs, path, random.Random(SEED))
        if any(rc != cmd.expected_rc for cmd, (rc, _) in zip(commands, results)) or any(clean.values()):
            return False
        corrupt(commands[0].out)
        return bool(workload.check(inputs, path, random.Random(SEED))[commands[0].label])


def stripped_checkout_fails() -> bool:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="stripped-", dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench("itemset-condense", 0, cwd=Path(tmp))
    return rc != 0 and not any(line.startswith("{") for line in lines)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [(w["name"], w["why"]) for w in declared["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
        and {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER,
        "BENCHMARK.json declares exactly the workloads and metrics run.py reports",
    )

    for name, workload in WORKLOADS.items():
        rc, lines = bench(name, 0)
        expect(rc == 0 and result_of(lines)["correct"], f"{name}: smoke run passes its checks")

        runs = [bench(name, 1, hash_seed=h) for h in ("1", "2")]
        expect(all(rc == 0 and result_of(lines)["correct"] for rc, lines in runs), f"{name}: traced runs pass")
        expect(digest_of(runs[0][1]) == digest_of(runs[1][1]), f"{name}: output digest independent of PYTHONHASHSEED")
        counts = [
            {k: m["value"] for k, m in result_of(lines)["metrics"].items() if m["unit"] in COUNT_UNITS}
            for _, lines in runs
        ]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        expect(not differ, f"{name}: counts repeat exactly between traced runs {differ or ''}")

        expect(corruption_is_caught(workload), f"{name}: corrupted output trips the check")

    expect(stripped_checkout_fails(), "stripped checkout exits non-zero without a result")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
