"""Tree decompositions: representation, validation, width evaluation under the
bag measures of ``mmtw.measures``, decompositions from elimination
orders, and the MCS-M minimal triangulation that ``approx.atoms`` reads."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._bits import bits, reach, to_set
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph
from .measures import BAG_MEASURES


class TreeDecomposition:
    """A tree plus one bag (vertex mask) per node.

    Nodes are 0..len(bags)-1, node i the i-th input bag, and the constructor
    checks tree-ness only: equal or nested bags stay as given (``run_dp``
    contracts them; see ``mmtw.dp``).
    """

    __slots__ = ("bags", "tree_edges", "_adj")

    def __init__(self, bags: Iterable[int], tree_edges: Iterable[tuple[int, int]]):
        bags = list(bags)
        edges = {(a, b) if a < b else (b, a) for a, b in tree_edges}
        k = len(bags)
        if k == 0:
            raise InputError("decomposition needs at least one node")
        for a, b in edges:
            if a == b or not (0 <= a < k and 0 <= b < k):
                raise InputError(f"bad tree edge ({a}, {b})")
        if len(edges) != k - 1:
            raise InputError("tree edge count must be node count minus one")
        adj = [0] * k
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        full = (1 << k) - 1
        if reach(adj, 1, full) != full:
            raise InputError("tree edges do not connect all nodes")
        self.bags = tuple(bags)
        self.tree_edges = tuple(sorted(edges))
        self._adj = tuple(adj)

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def __eq__(self, other):
        return (isinstance(other, TreeDecomposition)
                and self.bags == other.bags and self.tree_edges == other.tree_edges)

    def __hash__(self):
        return hash((self.bags, self.tree_edges))

    def __repr__(self):
        return (f"TreeDecomposition(bags={[sorted(to_set(b)) for b in self.bags]}, "
                f"tree={list(self.tree_edges)})")


@dataclass(frozen=True)
class Validity:
    """Valid iff ``reason`` is empty; otherwise it says what fails."""

    reason: str = ""

    def __bool__(self):
        return not self.reason


def validate(h: Hypergraph, t: TreeDecomposition) -> Validity:
    """Check connectivity of every vertex's node set and Gaifman edge coverage.

    The tree edges inside a vertex's node set form a forest, so they number
    one less than the nodes iff the nodes are connected; summed over the
    vertices, that is one count over the tree edges.  The node sets are then
    subtrees, and subtrees of a tree that meet pairwise share a node
    (Helly), so an edge of H is covered iff its vertices' node sets share
    one.  Only a failure looks for the first bad vertex or pair."""
    bags = t.bags
    nodes_of = [0] * h.n
    # the bit walks below are inline: a bits() generator per mask cost more
    # than the walk on the small bags and edges of most inputs
    for i, bag in enumerate(bags):
        if bag & ~h.vertex_mask:
            raise InputError("bag contains a vertex outside the hypergraph")
        node = 1 << i
        while bag:
            low = bag & -bag
            nodes_of[low.bit_length() - 1] |= node
            bag ^= low
    inside = sum((bags[a] & bags[b]).bit_count() for a, b in t.tree_edges)
    if inside != sum(map(int.bit_count, bags)) - h.n or not all(nodes_of):
        for v, nodes in enumerate(nodes_of):
            if not nodes:
                return Validity(f"vertex {v} appears in no bag")
            if reach(t._adj, nodes & -nodes, nodes) != nodes:
                return Validity(f"bags containing vertex {v} are "
                                "disconnected")
    for e in h.edges:
        common = -1
        while e:
            low = e & -e
            common &= nodes_of[low.bit_length() - 1]
            e ^= low
        if not common:
            adj = h.gaifman_adj()
            u, v = next((u, v) for u in range(h.n)
                        for v in bits(adj[u] & ~((2 << u) - 1))
                        if not nodes_of[u] & nodes_of[v])
            return Validity(f"edge ({u}, {v}) covered by no bag")
    return Validity()


# ---------------------------------------------------------------------------
# width


@dataclass(frozen=True)
class WidthReport:
    per_bag: tuple
    width: float | int


def width(h: Hypergraph, t: TreeDecomposition, measure: str) -> WidthReport:
    """Per-bag measure values and their maximum over the decomposition."""
    m = BAG_MEASURES.get(measure)
    if m is None:
        raise InputError(f"unknown measure {measure!r}; "
                         f"pick one of {tuple(BAG_MEASURES)}")
    ok = validate(h, t)
    if not ok:
        raise InputError(f"invalid decomposition: {ok.reason}")
    values = []
    for i, bag in enumerate(t.bags):
        try:
            values.append(m.value(h, bag))
        except ResourceError as exc:
            raise ResourceError(f"width oracle cap exceeded on bag {i}",
                                bag=i, **exc.stats) from exc
    return WidthReport(tuple(values), max(values))


def single_bag(h: Hypergraph) -> TreeDecomposition:
    return TreeDecomposition([h.vertex_mask], [])


def eliminate(adj: list, v: int, live: int) -> int:
    """Eliminate v from the filled graph ``adj`` (adjacency masks, updated in
    place) whose not yet eliminated vertices are ``live``: join v's live
    neighbours into a clique and return v's bag, v plus those neighbours."""
    near = adj[v] & live & ~(1 << v)
    for u in bits(near):
        adj[u] |= near & ~(1 << u)
    return near | (1 << v)


def elimination_tree(order: Sequence[int], bags: Sequence[int]) -> TreeDecomposition:
    """Decomposition with one bag per eliminated vertex, ``bags[i]`` that of
    ``order[i]``, ``order`` a permutation of 0..n-1.  A bag's parent is the
    bag of the member of its neighbourhood eliminated first, with a link to
    the next bag when the neighbourhood is empty.  An empty order gives one
    empty bag."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    tree = []
    for i, (v, bag) in enumerate(zip(order, bags)):
        q = bag & ~(1 << v)
        if q:
            parent = len(order)
            while q:
                low = q & -q
                at = pos[low.bit_length() - 1]
                if at < parent:
                    parent = at
                q ^= low
            tree.append((i, parent))
        elif i + 1 < len(order):
            tree.append((i, i + 1))
    return TreeDecomposition(bags or [0], tree)


def from_elimination_order(h: Hypergraph, order: Sequence[int]) -> TreeDecomposition:
    """Tree decomposition whose bags are the elimination neighborhoods.

    Bag of v is {v} plus its later-eliminated neighbours in the filled graph,
    which are the later-eliminated vertices reachable from v through
    already-eliminated ones; the tree is ``elimination_tree``'s.
    """
    if sorted(order) != list(range(h.n)):
        raise InputError("order must be a permutation of the vertices")
    adj = list(h.gaifman_adj())
    live = h.vertex_mask
    bags = []
    for v in order:
        bags.append(eliminate(adj, v, live))
        live &= ~(1 << v)
    return elimination_tree(order, bags)


def _mcs_m(adj, universe: int):
    """Minimal triangulation by MCS-M.

    Returns (fill adjacency masks, position map alpha) where alpha numbers
    vertices 1..n and alpha(x) < alpha(y) means x is eliminated before y.
    """
    vs = list(bits(universe))
    n = len(vs)
    weight = {v: 0 for v in vs}
    fill = {v: adj[v] & universe for v in vs}
    alpha = {}
    unnumbered = set(vs)
    for number in range(n, 0, -1):
        x = max(sorted(unnumbered), key=weight.__getitem__)
        unnumbered.discard(x)
        # minimax internal weight of unnumbered paths from x
        dist: dict[int, int] = {}
        heap = []
        for u in bits(adj[x] & universe):
            if u in unnumbered:
                dist[u] = -1
                heapq.heappush(heap, (-1, u))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, n):
                continue
            through = max(d, weight[u])
            for u2 in bits(adj[u] & universe):
                if u2 in unnumbered and through < dist.get(u2, n):
                    dist[u2] = through
                    heapq.heappush(heap, (through, u2))
        reached = [u for u, d in dist.items() if d < weight[u]]
        for u in reached:
            weight[u] += 1
            fill[x] |= 1 << u
            fill[u] |= 1 << x
        alpha[x] = number
    return fill, alpha
