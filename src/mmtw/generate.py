"""Seeded random instance generators used by the test suite and the
benchmark's workloads; the CLI never imports them."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from ._bits import mask_of
from .decomposition import TreeDecomposition, from_elimination_order
from .hypergraph import Clutter, Graph, Hypergraph
from .oracles import minimalize


def rng_from_seed(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_pairs(n, pairs)


def random_hypergraph(rng: random.Random, n: int, m: int, rank: int = 3,
                      min_size: int = 1) -> Hypergraph:
    edges = []
    for _ in range(m):
        size = rng.randint(min_size, max(min_size, min(rank, n))) if n else 0
        edges.append(mask_of(rng.sample(range(n), size)) if n else 0)
    return Hypergraph(n, edges)


def random_clutter(rng: random.Random, n: int, m: int, rank: int = 4) -> Clutter:
    return minimalize(random_hypergraph(rng, n, m, rank))


def random_weights(rng: random.Random, n: int, lo: int = -3, hi: int = 9):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def random_cobipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Complement of a bipartite graph: two cliques plus random cross edges."""
    half = n // 2
    pairs = [(u, v) for u in range(half) for v in range(u + 1, half)]
    pairs += [(u, v) for u in range(half, n) for v in range(u + 1, n)]
    pairs += [(u, v) for u in range(half) for v in range(half, n)
              if rng.random() < p]
    return Graph.from_pairs(n, pairs)


def complete_graph(n: int) -> Graph:
    return Graph.from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def random_decomposition(rng: random.Random, h: Hypergraph) -> TreeDecomposition:
    """A valid decomposition from a random elimination order of the Gaifman graph."""
    order = list(range(h.n))
    rng.shuffle(order)
    return from_elimination_order(h, order)
