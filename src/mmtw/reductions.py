"""Width-preserving reductions between alpha-tw and mu-tw.

Two constructions: the pendant extension M(G), which adds a private leaf to
every vertex so that alpha_G(S) = mu_M(S), and the squared line graph L^2(G),
whose vertices are the edges of G with e ~ f when G[e union f] is connected,
so that mu_G(S) = alpha_L(L(S)).  L^2 is the edge conflict graph that mu
itself searches: its adjacency is ``Hypergraph.conflicts()``, the one
cached index that the mu oracles read too, so the adjacency rule is stated
once and built once per graph; L(S), the L-vertices whose G-edge meets S,
is ``G.edges_meeting(S)``.  ``approximate_mu_tw`` chains L^2 with the
well-behaved approximation pipeline and pulls the decomposition back; the
pendant extension's way back, which only the tests run, is
``oracles.pendant_pullback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from ._bits import bits, mask_of
from .approx import approx_decomposition
from .decomposition import TreeDecomposition
from .errors import InputError
from .hypergraph import Graph
from .measures import ALPHA


def pendant_extend(g: Graph) -> Graph:
    """M(G): V(M) = V(G) + one pendant v' per vertex; v' has id v + n."""
    n = g.n
    edges = list(g.edges)
    edges += [(1 << v) | (1 << (v + n)) for v in range(n)]
    return Graph(2 * n, edges)


@dataclass(frozen=True)
class LineSquare:
    """L^2(G): one vertex per edge of G, joined when the edges touch or are
    bridged by a third edge.  Isolated vertices of G have no image.  The
    wrapper holds only ``line``, which the benchmark's ``reductions.l2_edges``
    counter reads as ``out.line`` (``perfbench/tracing.py``)."""

    line: Graph  # vertex i is the edge g.edges[i] of the G it was built from


def line_square(g: Graph) -> LineSquare:
    # the adjacency of L-vertex i is g's conflict mask of edge i
    return LineSquare(Graph.from_adj(g.conflicts()))


def line_square_pullback(g: Graph, t: TreeDecomposition) -> TreeDecomposition:
    """Bags S_t = vertices of G all of whose incident edges lie in B_t, T a
    decomposition of L^2(G).

    Isolated vertices of G are appended to bag 0.
    """
    inc = g.incidence()
    bags = []
    for bag in t.bags:
        ends = 0   # a vertex with all its edges in the bag is an end of one
        for i in bits(bag):
            ends |= g.edges[i]
        bags.append(mask_of(v for v in bits(ends) if not inc[v] & ~bag))
    bags[0] |= g.vertex_mask & ~reduce(or_, g.edges, 0)
    return TreeDecomposition(bags, t.tree_edges)


def approximate_mu_tw(g: Graph, k: int):
    """Decomposition of G with mu-width <= 2k^3+2k^2+3k+3, or None, meaning
    mu-tw(G) > k.  Runs the alpha pipeline on L^2(G) and pulls back."""
    if k < 1:
        raise InputError("k must be at least 1")
    out = approx_decomposition(line_square(g).line, k, ALPHA)
    return None if out is None else line_square_pullback(g, out)
