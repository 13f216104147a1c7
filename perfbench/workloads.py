"""Seeded request pools and answer checks for the benchmark workloads.

A workload is a pool of requests.  A request is the argv of one ``mmtw``
command plus what the checker needs to judge its answer.  A pool cycles
through a fixed ladder of shapes (family and size); the seed decides only
the random structure (caterpillar legs, interval positions, random graphs,
weights and elimination orders) and the order of the pool, so every seed
asks for about the same amount of work.

Importing this module imports ``mmtw``; the benchmark times that import as
part of its set-up.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mmtw import cli
from mmtw._bits import bits
from mmtw.approx import width_bound
from mmtw.decomposition import from_elimination_order, validate, width
from mmtw.formats import parse_td, serialize_hypergraph, serialize_td
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_hypergraph)
from mmtw.hypergraph import Graph, Hypergraph
from mmtw.oracles import (chromatic_bruteforce, hom_bruteforce,
                          independent_in, mwis_bruteforce)

main = cli.main


@dataclass
class Request:
    """One ``mmtw`` invocation and the facts its answer is checked against."""

    label: str
    argv: list
    h: Hypergraph
    td_width: Optional[int] = None   # kappa-width of the input decomposition
    k: Optional[int] = None
    measure: Optional[str] = None    # decompose: measure the width is taken in
    problem: Optional[str] = None    # solve: mwis | color | hom
    target: Optional[Hypergraph] = None
    _expected: object = None

    def expected(self):
        """The oracle's answer for a solve request (computed once)."""
        if self._expected is None:
            if self.problem == "mwis":
                self._expected = mwis_bruteforce(self.h, None, cap=self.h.n)[0]
            elif self.problem == "color":
                self._expected = chromatic_bruteforce(self.h, self.k)
            else:
                self._expected = hom_bruteforce(self.h, self.target)
        return self._expected


def check(req: Request, code: int, stdout: str) -> tuple[Optional[str], object]:
    """(None, width) for a correct answer, else (reason, None).

    A decompose answer is re-parsed, validated against the input and its
    width recomputed; a solve answer is compared with the exhaustive oracle.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object", None
    if req.problem is None:
        if code != 0 or doc.get("status") != "ok":
            return f"decompose answered {doc.get('status')!r}", None
        td = parse_td(doc["payload"])
        ok = validate(req.h, td)
        if not ok:
            return f"invalid decomposition: {ok.reason}", None
        got = width(req.h, td, req.measure).width
        if got != doc.get("width"):
            return f"reported width {doc.get('width')} but bags give {got}", None
        if got > width_bound(req.k):
            return f"width {got} above the bound {width_bound(req.k)}", None
        return None, got
    want = req.expected()
    if req.problem == "mwis":
        value = Fraction(doc["value"]) if "value" in doc else None
        wit = 0
        for v in doc.get("witness", ()):
            wit |= 1 << (v - 1)
        weight = sum((req.h.weights[v] for v in bits(wit)), Fraction(0))
        if code != 0 or value != want:
            return f"mwis value {value}, oracle {want}", None
        if not independent_in(req.h, wit) or weight != value:
            return "mwis witness is not an independent set of that weight", None
        return None, req.td_width
    key = "colorable" if req.problem == "color" else "homomorphic"
    if doc.get(key) is not want or code != (0 if want else 10):
        return f"{key} {doc.get(key)} (exit {code}), oracle {want}", None
    return None, req.td_width


# ---------------------------------------------------------------------------
# instance families


def caterpillar(rng: random.Random, spine: int) -> Graph:
    """A path of ``spine`` vertices with one pendant leg on each of a random
    half of them."""
    legs = sorted(rng.sample(range(spine), spine // 2))
    pairs = [(i, i + 1) for i in range(spine - 1)]
    pairs += [(v, spine + j) for j, v in enumerate(legs)]
    return Graph.from_pairs(spine + len(legs), pairs)


def interval_graph(rng: random.Random, n: int) -> Graph:
    """Intersection graph of n intervals of length 0.5-2.5 placed in [0, n]."""
    ivs = []
    for _ in range(n):
        a = rng.uniform(0, n)
        ivs.append((a, a + rng.uniform(0.5, 2.5)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]]
    return Graph.from_pairs(n, pairs)


def gnm(rng: random.Random, n: int, m: int) -> Graph:
    """A uniformly random graph with n vertices and exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_pairs(n, rng.sample(pairs, m))


def weighted(rng: random.Random, h: Hypergraph) -> Hypergraph:
    return Hypergraph(h.n, h.edges, [rng.randint(1, 9) for _ in range(h.n)])


def min_degree_decomposition(rng: random.Random, h: Hypergraph):
    """Decomposition from a min-degree elimination order, ties broken at
    random.  Uniformly random orders give bags so uneven that a single
    instance can cost a hundred times the median."""
    adj = list(h.gaifman_adj())
    left = set(range(h.n))
    order = []
    while left:
        low = min(adj[v].bit_count() for v in left)
        v = rng.choice(sorted(u for u in left if adj[u].bit_count() == low))
        for u in bits(adj[v]):
            adj[u] = (adj[u] | adj[v]) & ~((1 << u) | (1 << v))
        left.remove(v)
        order.append(v)
    return from_elimination_order(h, order)


def kappa_width(td) -> int:
    return max(b.bit_count() for b in td.bags) - 1


# ---------------------------------------------------------------------------
# workloads


class Inputs:
    """Input files, named under ``workdir`` and held in memory until
    ``write`` puts them on disk."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files: dict = {}

    def __call__(self, text: str, ext: str) -> str:
        path = os.path.join(self.workdir, f"{len(self.files) + 1:04d}.{ext}")
        self.files[path] = text
        return path

    def write(self):
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _cycle(shapes, count):
    """``count`` shapes taken round the ladder, so every seed asks for the
    same mix of sizes."""
    return [shapes[i % len(shapes)] for i in range(count)]


def decompose_sparse(rng, write, count, tiny):
    """Chordal sparse graphs (alpha-tw 1) with alpha(V) > 9 = big_K(1), so
    the recursive balanced-split path runs; dp and blocker are never called.
    Paths are fixed by their size and each is written once; caterpillars and
    interval graphs carry the seed's randomness.  Their cost is heavy-tailed
    (one in thirty costs 5-15 times the median of its size), so they are two
    shapes in twelve and kept small: more of them made the throughput and
    the tail follow the seed rather than the program.  The shapes are listed
    from cheap to costly; path-alpha-27 is a quarter of them and sits in the
    middle, so the median request is one of those.  With distinct sizes in
    the middle, the median jumped from one size to the next."""
    shapes = [("path-mu", 28), ("interval", 26), ("caterpillar", 13),
              ("path-alpha", 25), ("path-mu", 30)]
    shapes += [("path-alpha", 27)] * 3
    shapes += [("path-mu", 32), ("path-alpha", 28), ("path-mu", 33),
               ("path-alpha", 29)]
    if tiny:
        shapes = [("path-alpha", 20), ("path-mu", 30), ("caterpillar", 14),
                  ("interval", 26)]
        count = len(shapes)
    paths = {}
    out = []
    for fam, n in _cycle(shapes, count):
        measure = "mu" if fam == "path-mu" else "alpha"
        if fam.startswith("path"):
            g = path_graph(n)
            if n not in paths:
                paths[n] = write(serialize_hypergraph(g), "hg")
            path = paths[n]
        elif fam == "caterpillar":
            g = caterpillar(rng, n)
            path = write(serialize_hypergraph(g), "hg")
        else:
            g = interval_graph(rng, n)
            path = write(serialize_hypergraph(g), "hg")
        argv = ["decompose", path, "-k", "1", "--json"]
        if measure == "alpha":
            argv += ["--measure", "alpha"]
        out.append(Request(f"{fam}-{n}", argv, g, k=1, measure=measure))
    return out


def _solve_request(rng, write, label, make, width, argv_tail, **facts):
    """A solve request on ``make()``, drawn again until its min-degree
    decomposition has kappa-width ``width`` (any width when None).  The DP
    cost grows exponentially with the width, and at one n the width of a
    random graph varies by up to four, so a free width made the work of a
    pool follow the seed."""
    while True:
        h = make()
        td = min_degree_decomposition(rng, h)
        if width is None or kappa_width(td) == width:
            break
    hg = write(serialize_hypergraph(h), "hg")
    tdp = write(serialize_td(td, h.n), "td")
    return Request(label, ["solve", hg, tdp, *argv_tail, "--json"], h,
                   td_width=kappa_width(td), **facts)


def solve_mwis(rng, write, count, tiny):
    """Weighted (1-9) G(n, m = 0.2 C(n,2)) graphs and rank-3 hypergraphs with
    n edges, at their most common widths: the only solver that reads the
    blocker trace.  Hypergraphs with n = 23 or more were left out; their
    oracle answers take up to 0.3 s."""
    shapes = [("graph", 19, 5), ("graph", 20, 5), ("graph", 21, 6),
              ("hypergraph", 21, 4), ("hypergraph", 22, 4)]
    if tiny:
        shapes = [("graph", 8, None), ("hypergraph", 8, None)]
        count = len(shapes)
    out = []
    for fam, n, w in _cycle(shapes, count):
        if fam == "graph":
            def make():
                return weighted(rng, gnm(rng, n, round(0.2 * n * (n - 1) / 2)))
        else:
            def make():
                return weighted(rng, random_hypergraph(rng, n, n, rank=3,
                                                       min_size=2))
        out.append(_solve_request(rng, write, f"{fam}-{n}-w{w}", make, w,
                                  ["--problem", "mwis"], problem="mwis"))
    return out


def solve_cover(rng, write, count, tiny):
    """k-colouring (k = 2, 3) and homomorphism to K3 / C5 on G(n, m = 0.3
    C(n,2)) graphs at common widths: the same run_dp and trace_blocker calls
    as mwis, but CoverDP never reads the trace it is handed; its own cost is
    leaf products and antichain compression.  About two answers in three are
    refutations (exit 10)."""
    targets = {"K3": complete_graph(3), "C5": cycle_graph(5)}
    target_path = {name: write(serialize_hypergraph(f), "hg")
                   for name, f in targets.items()}
    # hom-C5 (arity 5) stops one size and one width lower: its costliest
    # instances alone made up the tail, at two or three times the median.
    shapes = [(kind, n, w) for kind in ("color-2", "color-3", "hom-K3")
              for n, w in ((12, 4), (14, 4), (16, 5))]
    shapes += [("hom-C5", n, w) for n, w in ((11, 3), (13, 4), (15, 4))]
    if tiny:
        shapes = [(kind, 6, None) for kind in ("color-2", "color-3", "hom-K3",
                                               "hom-C5")]
        count = len(shapes)
    out = []
    for kind, n, w in _cycle(shapes, count):
        def make():
            return gnm(rng, n, round(0.3 * n * (n - 1) / 2))
        if kind.startswith("color"):
            k = int(kind[-1])
            argv_tail = ["--problem", "color", "-k", str(k)]
            facts = {"problem": "color", "k": k}
        else:
            name = kind[4:]
            argv_tail = ["--problem", "hom", "--target", target_path[name]]
            facts = {"problem": "hom", "target": targets[name]}
        out.append(_solve_request(rng, write, f"{kind}-{n}-w{w}", make, w,
                                  argv_tail, **facts))
    return out


WORKLOADS = {
    "decompose_sparse": decompose_sparse,
    "solve_mwis": solve_mwis,
    "solve_cover": solve_cover,
}

# Requests a second on the reference host (2 vCPUs, Python 3.11) in its
# slower periods; a pool is sized from it so that a pass takes at most about
# the time asked for.
RATE = {"decompose_sparse": 7.0, "solve_mwis": 23.0, "solve_cover": 48.0}


def build(workload: str, seed: int, inputs: Inputs, seconds: float,
          tiny: bool = False):
    """The request pool of a workload, sized for one pass of ``seconds`` on
    the reference host: input files named in ``inputs``, order shuffled by
    the seed.  ``tiny`` takes each shape once, at the smallest sizes."""
    rng = random.Random(seed)
    count = max(1, round(seconds * RATE[workload]))
    pool = WORKLOADS[workload](rng, inputs, count, tiny)
    rng.shuffle(pool)
    return pool
