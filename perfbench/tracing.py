"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function of ``mmtw`` that a
benchmark request reaches with a wrapper, at the place where its caller looks
the name up (a module global such as ``mmtw.dp.trace_blocker``, or a class
attribute such as ``WellBehavedMeasure.decide``).  Each call records one span
``[layer, start, end, parent, request]`` in memory; private helpers are not
wrapped, so their time is charged to the public function that calls them.
``uninstall`` puts the originals back.

A layer's self time is the time of its spans minus the time covered by their
child spans.  Counters that do not depend on the machine (branch nodes,
merge pairs, 2-SAT calls, ...) are taken from the arguments and results at
the same boundaries.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

from mmtw import approx, cli, dp, reductions
from mmtw.hypergraph import Clutter, Graph, Hypergraph
from mmtw.measures import WellBehavedMeasure

# Counter hooks: (args, result) -> {counter: increment}.


def _two_sat(args, out):
    return {"approx.two_sat_sat": out is not None}


def _separator(args, out):
    return {"approx.separator_ok": out.ok}


def _line_square(args, out):
    return {"reductions.l2_edges": len(out.line.edges)}


def _trace(args, out):
    return {"blocker.nodes": out.nodes_explored}


def _merge(args, out):
    # merge(self, trace, t1, t2, s)
    return {"dp.merge_pairs": len(args[2]) * len(args[3]),
            "dp.merge_kept": len(out)}


# (layer, owner, attribute, counter hook).  A layer listed on several owners
# is one layer: every place a caller can reach it from is patched.
PATCHES = [
    ("formats.parse", cli, "parse_hypergraph", None),
    ("formats.parse", cli, "parse_td", None),
    ("formats.serialize", cli, "serialize_td", None),
    ("decomposition.validate", cli, "validate", None),
    ("decomposition.validate", dp, "validate", None),
    ("decomposition.width", cli, "width", None),
    ("reductions.line_square", reductions, "line_square", _line_square),
    ("reductions.pullback", reductions, "line_square_pullback", None),
    ("approx.approx_decomposition", cli, "approx_decomposition", None),
    ("approx.approx_decomposition", reductions, "approx_decomposition", None),
    ("approx.balanced_split", approx, "balanced_split", None),
    ("approx.find_separator", approx, "find_separator", _separator),
    ("approx.closure", approx, "closure", None),
    ("approx.atoms", approx, "atoms", None),
    ("approx.two_sat", approx, "two_sat_solve", _two_sat),
    ("measures.decide", WellBehavedMeasure, "decide", None),
    ("measures.value", WellBehavedMeasure, "value", None),
    ("hypergraph.graph_build", Hypergraph, "__init__", None),
    ("hypergraph.graph_build", Clutter, "__init__", None),
    ("hypergraph.graph_build", Graph, "__init__", None),
    ("hypergraph.induced", approx, "induced", None),
    ("hypergraph.induced", dp, "induced", None),
    ("dp.run_dp", dp, "run_dp", None),
    ("blocker.trace", dp, "trace_blocker", _trace),
    ("blocker.enumerate_mis", dp, "enumerate_mis", None),
    ("dp.leaf_init", dp.MwisDP, "leaf_init", None),
    ("dp.leaf_init", dp.CoverDP, "leaf_init", None),
    ("dp.restrict", dp.MwisDP, "restrict", None),
    ("dp.restrict", dp.CoverDP, "restrict", None),
    ("dp.merge", dp.MwisDP, "merge", _merge),
    ("dp.merge", dp.CoverDP, "merge", _merge),
]

# Constructors call each other through super(); a nested call of the same
# layer is folded into the outer span, so one construction is one span.
FLAT = {"hypergraph.graph_build"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, layer, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, perf_counter
        flat = layer in FLAT

        def traced(*args, **kwargs):
            top = stack[-1]
            if flat and top >= 0 and spans[top][0] == layer:
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, top, self.request]
            stack.append(len(spans))
            spans.append(rec)
            counts[layer] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                counts.update(hook(args, out))
            return out

        return traced

    def install(self):
        for layer, owner, name, hook in PATCHES:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original, hook))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def self_times(self) -> dict:
        """Layer -> summed self time (span time minus child span time)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: str):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
