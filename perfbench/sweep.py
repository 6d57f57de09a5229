"""Run the benchmark over several seeds and summarise each metric by median and quartiles.

    python3 perfbench/sweep.py --seeds 1-10                 # end-to-end, every workload
    python3 perfbench/sweep.py --seeds 1 --trace --workloads tiling
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh process, one after another. The spread printed per
metric is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4). With --out, the summary is merged into
that JSON file together with the git revision and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end ones")
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    args = parser.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    summary = {}
    failed = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        digests = []
        for seed in args.seeds:
            argv = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload]
            argv += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            failed |= proc.returncode != 0 or not result["correct"]
            digests.append(next((line.split()[1] for line in lines if line.startswith("digest ")), None))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            shown = " ".join(f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result['correct']}, {elapsed:.1f} s, {shown}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "digests": digests,
            "metrics": {name: {"unit": units[name], **summarise(v)} for name, v in values.items()},
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload} {name} median {s['median']:.6g} {s['unit']} spread {s['spread']:.3f}", flush=True)

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.update(
            {
                "git_rev": git_rev(),
                "python": platform.python_version(),
                "machine": f"{platform.machine()}, {platform.system()}, {len(os.sched_getaffinity(0))} cores",
                "run_seconds": args.seconds,
            }
        )
        data.setdefault(section, {}).update(summary)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
