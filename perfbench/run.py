"""Run one siftmine benchmark workload and print its metrics.

    python3 perfbench/run.py --workload itemset-condense --seed 1 --seconds 25 --trace 0

The workload's CLI pipeline runs in this process through siftmine.cli.main,
one command after another, for --seconds seconds. With --trace 0 it reports
the end-to-end metrics; with --trace 1 untraced and traced pipelines
alternate and it reports the per-layer metrics. Outputs are checked after
the timed region; the last line of standard output is one JSON object, and
the exit code is 1 when any check failed.

End-to-end times are scaled to a steady host speed. A shared host's speed
changes from second to second as other tenants load it, by up to 1.6x. With
--trace 0 a fixed pure-Python reference computation is timed before the
first command and after every command and every set-up; each command's (or
set-up's) wall time is divided by the mean of the two reference times
around it and multiplied by REFERENCE_S. A change to siftmine moves the
scaled time in the same proportion as the wall time; a change in host speed
moves both the command and its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3  # per pipeline
# The reference computation's median wall time on the host the bounds were
# set on (2 shared vCPUs, Python 3.11.7): scaled times read as seconds there.
REFERENCE_S = 0.075

END_TO_END = {
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "condense.condense_s": "s",
    "condense.dominance_tests": "count",
    "condense.dominance_hit_ratio": "ratio",
    "condense.kept_ratio": "ratio",
    "constraints.partition_s": "s",
    "constraints.valid_ratio": "ratio",
    "formats.load_s": "s",
    "formats.write_s": "s",
    "formats.bytes_written": "bytes",
    "formats.records_loaded": "count",
    "itemsets.mine_s": "s",
    "itemsets.patterns": "count",
    "sequences.mine_s": "s",
    "sequences.patterns": "count",
    "graphs.mine_s": "s",
    "graphs.patterns": "count",
    "graphs.iso_calls": "count",
    "graphs.iso_hit_ratio": "ratio",
    "graphs.canon_calls": "count",
    "graphs.canon_s": "s",
    "core.iso_s": "s",
    "core.embed_calls": "count",
    "tiling.candidates_s": "s",
    "tiling.candidates": "count",
    "tiling.greedy_s": "s",
    "tiling.greedy_error_calls": "count",
    "tiling.exact_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer time metric -> span name whose self time it reports.
SELF_TIME = {
    "condense.condense_s": "condense.condense",
    "constraints.partition_s": "constraints.partition",
    "formats.load_s": "formats.load",
    "formats.write_s": "formats.write",
    "itemsets.mine_s": "itemsets.mine",
    "sequences.mine_s": "sequences.mine",
    "graphs.mine_s": "graphs.mine",
    "graphs.canon_s": "graphs.canon",
    "core.iso_s": "core.iso",
    "tiling.candidates_s": "tiling.candidates",
    "tiling.greedy_s": "tiling.greedy",
    "tiling.exact_s": "tiling.exact",
}

# Per-layer ratio metric -> (numerator count, denominator count); 0 when nothing was attempted.
RATIOS = {
    "condense.dominance_hit_ratio": ("condense.dominance_hits", "condense.dominance_tests"),
    "condense.kept_ratio": ("condense.kept", "condense.input"),
    "constraints.valid_ratio": ("constraints.valid", "constraints.records"),
    "graphs.iso_hit_ratio": ("graphs.iso_hits", "graphs.iso_calls"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reference_work() -> int:
    # Fixed pure-Python work of the kinds siftmine does: tuples, dicts, sets,
    # frozenset intersections, sorting and recursion.
    rng = random.Random(7)
    acc = 0
    for _ in range(5):
        items = [tuple(rng.randrange(50) for _ in range(4)) for _ in range(3000)]
        groups: dict[int, set] = {}
        for t in items:
            groups.setdefault(t[0], set()).add(t)
        head = frozenset(items[:500])
        for key in sorted(groups):
            group = frozenset(groups[key])
            acc += sum(1 for t in group if t[1] in (t[2], t[3])) + len(group & head)

        def split(xs, depth):
            if depth == 0 or len(xs) < 2:
                return len(xs)
            mid = xs[len(xs) // 2]
            return split([x for x in xs if x < mid], depth - 1) + split([x for x in xs if x > mid], depth - 1)

        acc += split([t[0] * 100 + t[1] for t in items], 12)
    return acc


def reference() -> float:
    """Wall seconds of the fixed reference computation: the host's speed right now.

    The cyclic garbage collector is off meanwhile, so that the objects the
    last command left on the heap do not add collection passes to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pipeline(commands, cli_main, tracer=None, refs=None):
    """Run every command in order; returns wall seconds, scaled seconds and (exit code, stdout) per command.

    With `refs`, a list ending in the reference time just measured, the
    reference is timed after every command and appended to it; otherwise
    the scaled seconds are 0.
    """
    mains = [cli_main if tracer is None else tracer.spanned("cli." + cmd.argv[0], cli_main) for cmd in commands]
    results = []
    wall = scaled = 0.0
    for cmd, main in zip(commands, mains):
        # Each command starts from a collected heap, as it would in a fresh
        # process, not with whatever the last command left for the collector.
        gc.collect()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            try:
                rc = main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = None
        elapsed = time.perf_counter() - start
        wall += elapsed
        if refs is not None:
            refs.append(reference())
            scaled += elapsed / ((refs[-2] + refs[-1]) / 2) * REFERENCE_S
        results.append((rc, sink.getvalue()))
    return wall, scaled, results


def fingerprint(cmd, rc, stdout) -> str:
    """Digest of one command's exit code, summary output and output file."""
    h = hashlib.sha256(f"{cmd.label}\0{rc}\0{stdout}\0".encode())
    with contextlib.suppress(OSError):
        h.update(Path(cmd.out).read_bytes())
    return h.hexdigest()


def write_inputs(workload, seed: int, path) -> dict[str, list[str]]:
    """Generate the workload's inputs from the seed and write its input files."""
    inputs = workload.generate(seed)
    for name, lines in inputs.items():
        Path(path(name)).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return inputs


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    from siftmine import cli
    from tracer import Tracer

    def path(name: str) -> str:
        return str(work / name)

    setup_times, setup_scaled = [], []
    refs = None if trace else [reference()]

    def set_up() -> dict[str, list[str]]:
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = write_inputs(workload, seed, path)
            times.append(time.perf_counter() - start)
        setup_times.extend(times)
        if refs is not None:
            refs.append(reference())
            setup_scaled.extend(t / ((refs[-2] + refs[-1]) / 2) * REFERENCE_S for t in times)
        return inputs

    inputs = set_up()
    commands = workload.commands(inputs, path)

    problems: dict[str, list[str]] = {cmd.label: [] for cmd in commands}
    failed = attempted = 0
    reference_prints = None
    untraced, scaled, tracers, traced = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer(len(untraced) + len(traced)) if trace and len(untraced) > len(traced) else None
        if tracer is None:
            elapsed, elapsed_scaled, results = run_pipeline(commands, cli.main, refs=refs)
            untraced.append(elapsed)
            scaled.append(elapsed_scaled)
        else:
            with tracer.installed():
                elapsed, _, results = run_pipeline(commands, cli.main, tracer)
            traced.append(elapsed)
            tracers.append(tracer)
            tracer.counts["formats.bytes_written"] = sum(
                Path(cmd.out).stat().st_size for cmd in commands if Path(cmd.out).exists()
            )
        prints = [fingerprint(cmd, rc, out) for cmd, (rc, out) in zip(commands, results)]
        if reference_prints is None:
            # Later pipelines grow the heap through allocator reuse, not through
            # the program, so the peak is taken once the first one has finished.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reference_prints = prints
        for cmd, (rc, _), fp, expected in zip(commands, results, prints, reference_prints):
            attempted += 1
            if rc != cmd.expected_rc or fp != expected:
                failed += 1
                problems[cmd.label].append(f"exit code {rc} (expected {cmd.expected_rc}), output digest {fp[:12]}")
        if time.perf_counter() >= deadline and (not trace or traced):
            break
        # Set-up is repeated between pipelines (rewriting identical files), so
        # that its samples span the run as the pipelines' do.
        set_up()

    check_start = time.perf_counter()
    for label, found in workload.check(inputs, path, random.Random(seed)).items():
        if found:
            failed += 1
            problems[label].extend(found)
    if tracers and any(t.counts != tracers[0].counts for t in tracers):
        failed += 1
        problems[commands[0].label].append("counts differ between traced pipelines")

    report = {
        "workload": workload.name,
        "seed": seed,
        "pipelines": len(untraced),
        "pipeline_wall_s": " ".join(f"{t:.3f}" for t in untraced),
        "pipeline_scaled_s": " ".join(f"{t:.3f}" for t in scaled) if not trace else "-",
        # The highest percentile that n < 20 samples support is their maximum.
        "pipeline_max_s": max(scaled) if not trace else max(untraced),
        "setup_wall_s": statistics.median(setup_times),
        "reference_s": statistics.median(refs) if refs else "-",
        "commands": len(commands),
        "failed_ops": f"{failed}/{attempted} = {failed / attempted}",
        "digest": hashlib.sha256("".join(reference_prints).encode()).hexdigest(),
        "check_s": time.perf_counter() - check_start,
    }
    if trace:
        metrics = layer_metrics(tracers, traced, untraced)
        with open(OUT / f"{workload.name}-seed{seed}.spans.jsonl", "w", encoding="utf-8") as fh:
            for t in tracers:
                t.write(fh)
    else:
        metrics = {
            "pipeline_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_scaled),
        }
    return report, metrics, problems, attempted, failed


def layer_metrics(tracers, traced, untraced) -> dict[str, float]:
    """Per-layer metrics: median self times over traced pipelines, counts of one pipeline."""
    selfs = [t.self_times() for t in tracers]
    counts = tracers[0].counts
    metrics = {name: statistics.median(s.get(span, 0.0) for s in selfs) for name, span in SELF_TIME.items()}
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    metrics["cli.overhead_s"] = statistics.median(
        wall - sum(v for span, v in s.items() if not span.startswith("cli.")) for wall, s in zip(traced, selfs)
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "siftmine" / "cli.py").is_file():
        print(f"error: siftmine sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (one of: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        report, metrics, problems, attempted, failed = measure(
            workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for label, found in problems.items():
        for problem in found:
            print(f"check failed [{label}]: {problem}", file=sys.stderr)
    for key, value in report.items():
        print(f"{key} {value}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
