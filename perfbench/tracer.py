"""Spans and counts recorded around calls into siftmine's layers, from outside the package.

While a traced pipeline runs, the tracer replaces each function below in the
module that calls it (a module-level name is looked up at call time, so the
caller picks the wrapper up) and puts the originals back afterwards. The
binding matters: `import siftmine.condense` yields the function that the
package re-exports, not the module, so modules are fetched with
importlib; `subgraph_isomorphic` is bound both in siftmine.graphs (the miner)
and in siftmine.core (graph_included), and is wrapped in both.

A span is (name, start, end, parent index, run id). A layer's self time is
its spans' durations minus the parts their child spans cover. Calls that
happen hundreds of thousands of times per pipeline (dominance tests,
sequence embeddings, tiling error evaluations) are counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module, attribute, span name, counter updates from (args, result)
SPANNED = (
    ("siftmine.cli", "load_transactions", "formats.load", lambda a, r: {"formats.records_loaded": len(r)}),
    ("siftmine.cli", "load_sequences", "formats.load", lambda a, r: {"formats.records_loaded": len(r)}),
    ("siftmine.cli", "load_graphs", "formats.load", lambda a, r: {"formats.records_loaded": len(r)}),
    ("siftmine.cli", "load_matrix", "formats.load", lambda a, r: {"formats.records_loaded": r.n_rows}),
    ("siftmine.cli", "load_patterns", "formats.load", lambda a, r: {"formats.records_loaded": len(r.records)}),
    ("siftmine.cli", "write_patterns", "formats.write", None),
    ("siftmine.cli", "write_tiling", "formats.write", None),
    ("siftmine.cli", "mine_frequent_itemsets", "itemsets.mine", lambda a, r: {"itemsets.patterns": len(r)}),
    ("siftmine.cli", "mine_frequent_sequences", "sequences.mine", lambda a, r: {"sequences.patterns": len(r)}),
    ("siftmine.cli", "mine_frequent_graphs_general", "graphs.mine", lambda a, r: {"graphs.patterns": len(r)}),
    (
        "siftmine.cli",
        "partition_valid",
        "constraints.partition",
        lambda a, r: {"constraints.records": len(a[0]), "constraints.valid": len(r[0])},
    ),
    ("siftmine.cli", "condense", "condense.condense", lambda a, r: {"condense.input": len(a[0]), "condense.kept": len(r)}),
    ("siftmine.cli", "generate_candidates", "tiling.candidates", lambda a, r: {"tiling.candidates": len(r)}),
    ("siftmine.cli", "greedy_select", "tiling.greedy", None),
    ("siftmine.cli", "exact_select", "tiling.exact", None),
    (
        "siftmine.graphs",
        "subgraph_isomorphic",
        "core.iso",
        lambda a, r: {"graphs.iso_calls": 1, "graphs.iso_hits": r is not None},
    ),
    ("siftmine.core", "subgraph_isomorphic", "core.iso", None),
    ("siftmine.graphs", "canonical_code", "graphs.canon", lambda a, r: {"graphs.canon_calls": 1}),
)

# module, attribute, call counter, counter of calls returning a hit
COUNTED = (
    ("siftmine.condense", "dominates", "condense.dominance_tests", "condense.dominance_hits"),
    ("siftmine.condense", "find_embedding", "core.embed_calls", None),
    ("siftmine.tiling", "error", "tiling.greedy_error_calls", None),
)


class Tracer:
    """Records spans and counts for one traced pipeline."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn, update=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if update is not None:
                counts.update(update(args, result))
            return result

        return wrapper

    def counted(self, fn, calls: str, hits: str | None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] += 1
            if hits is not None and result:
                counts[hits] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, update in SPANNED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.spanned(name, getattr(module, attr), update))
            for module_name, attr, calls, hits in COUNTED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counted(getattr(module, attr), calls, hits))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: durations minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return dict(totals)

    def write(self, fh) -> None:
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"run": self.run_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
