"""Width-preserving reductions between alpha-tw and mu-tw.

Two constructions: the pendant extension M(G), which adds a private leaf to
every vertex so that alpha_G(S) = mu_M(S), and the squared line graph L^2(G),
whose vertices are the edges of G with e ~ f when G[e union f] is connected,
so that mu_G(S) = alpha_L(L(S)).  L^2 is the edge conflict graph that mu
itself searches (``measures.edge_conflicts`` with S = V), so the adjacency
rule is stated once.  Both come with decomposition pullbacks, and
``approximate_mu_tw`` chains L^2 with the well-behaved approximation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from ._bits import bits
from .approx import Refutation, approx_decomposition
from .decomposition import TreeDecomposition
from .errors import InputError
from .hypergraph import Graph
from .measures import ALPHA, edge_conflicts


@dataclass(frozen=True)
class PendantExtension:
    """M(G): V(M) = V(G) + one pendant v' per vertex; v' has id v + n."""

    original: Graph
    extended: Graph

    @property
    def n(self) -> int:
        return self.original.n

    def pendant_of(self, v: int) -> int:
        return v + self.original.n


def pendant_extend(g: Graph) -> PendantExtension:
    n = g.n
    edges = list(g.edges)
    edges += [(1 << v) | (1 << (v + n)) for v in range(n)]
    return PendantExtension(g, Graph(2 * n, edges))


def pendant_pullback(x: PendantExtension, t: TreeDecomposition) -> TreeDecomposition:
    """Delete every pendant vertex from every bag; the tree is unchanged."""
    keep = (1 << x.n) - 1
    for bag in t.bags:
        if bag >> (2 * x.n):
            raise InputError("bag contains a vertex outside the extension")
    return TreeDecomposition([bag & keep for bag in t.bags], t.tree_edges)


@dataclass(frozen=True)
class LineSquare:
    """L^2(G): one vertex per edge of G, joined when the edges touch or are
    bridged by a third edge.  Isolated vertices of G have no image."""

    original: Graph
    line: Graph
    edge_of: tuple[int, ...]  # L-vertex id -> edge mask of G

    def lmap(self, s: int) -> int:
        """L(S): the L-vertices whose G-edge meets S."""
        out = 0
        for i, e in enumerate(self.edge_of):
            if e & s:
                out |= 1 << i
        return out


def line_square(g: Graph) -> LineSquare:
    # with S = V every edge meets S, so L-vertex i is g.edges[i]
    return LineSquare(g, Graph.from_adj(edge_conflicts(g, g.vertex_mask)[0]),
                      g.edges)


def line_square_pullback(x: LineSquare, t: TreeDecomposition
                         ) -> tuple[TreeDecomposition, int]:
    """Bags S_t = vertices of G all of whose incident edges lie in B_t.

    Isolated vertices of G are appended to bag 0; the returned mask flags them.
    """
    g = x.original
    incident = [0] * g.n
    for i, e in enumerate(x.edge_of):
        for v in bits(e):
            incident[v] |= 1 << i
    isolated = 0
    for v in range(g.n):
        if incident[v] == 0:
            isolated |= 1 << v
    bags = []
    for bag in t.bags:
        s_t = 0
        for v in range(g.n):
            if incident[v] and incident[v] & ~bag == 0:
                s_t |= 1 << v
        bags.append(s_t)
    bags[0] |= isolated
    return TreeDecomposition(bags, t.tree_edges), isolated


def approximate_mu_tw(g: Graph, k: int):
    """Decomposition of G with mu-width <= 2k^3+2k^2+3k+3, or a Refutation
    meaning mu-tw(G) > k.  Runs the alpha pipeline on L^2(G) and pulls back."""
    if k < 1:
        raise InputError("k must be at least 1")
    ls = line_square(g)
    out = approx_decomposition(ls.line, k, ALPHA, 0)
    if isinstance(out, Refutation):
        return Refutation("mu-tw exceeds k")
    td, _ = line_square_pullback(ls, out)
    return td
