"""Hypergraphs, clutters and graphs, with the indexes the algorithms read.

Vertices of an n-vertex hypergraph are the integers 0..n-1 and vertex sets
are bitmasks.  Edge lists are kept deduplicated and sorted by mask value, so
two structures are equal iff they are structurally identical.  All values are
immutable after construction; every operation below is a pure function.

``induced`` shrinks the universe: it reindexes the surviving vertices to
0..n'-1 in increasing order of their old ids, and ``removal_remap`` gives
that id map.  The clutter algebra (minors, join and meet, composition,
Berge's blocker) is the tests' reference and lives in ``mmtw.oracles``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from operator import lt, ne
from typing import Iterable, Optional, Sequence

from ._bits import bits, mask_of, to_set
from .errors import InputError

Weights = Optional[tuple]


def _canonical_edges(n: int, edges: Iterable[int]) -> tuple[int, ...]:
    # Dedupe by sorting, not with set(): CPython hashes an int modulo
    # 2**61 - 1, so the mask 2**i | 2**j hashes to 2**(i % 61) + 2**(j % 61).
    # Pair masks over more than 61 vertices crowd into a few thousand hash
    # values (the 303,810 edges of L^2(K_40) share 1,891), and set() of
    # them is more than ten times slower than sorting them.
    out = sorted(edges)
    if not all(map(lt, out, islice(out, 1, None))):
        out[1:] = compress(out[1:], map(ne, out[1:], out))
    if out and out[-1] >> n:
        raise InputError("edge contains a vertex id outside [0, n)")
    if out and out[0] < 0:
        raise InputError("negative edge mask")
    return tuple(out)


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    # masks of one size never contain each other, so sorting by size alone
    # meets every subset before its supersets
    kept: list[int] = []
    for h in sorted(set(masks), key=int.bit_count):
        for g in kept:
            if g & h == g:
                break
        else:
            kept.append(h)
    return tuple(sorted(kept))


class Hypergraph:
    """A vertex count, a set of hyperedges, and optional rational weights."""

    __slots__ = ("n", "edges", "weights", "_gaifman_adj", "_incidence",
                 "_conflicts", "_edge_sizes")

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        if n < 0:
            raise InputError("negative vertex count")
        self.n = n
        self.edges = _canonical_edges(n, edges)
        if weights is not None:
            weights = tuple(w if isinstance(w, Fraction) else Fraction(w)
                            for w in weights)
            if len(weights) != n:
                raise InputError("weight vector length differs from vertex count")
        self.weights = weights
        self._gaifman_adj: Optional[tuple[int, ...]] = None
        self._incidence: Optional[tuple[int, ...]] = None
        self._conflicts: Optional[tuple[int, ...]] = None
        self._edge_sizes: Optional[tuple[int, int]] = None

    # -- basic queries -------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def rank(self) -> int:
        return self.edge_sizes()[1]

    def edge_sizes(self) -> tuple[int, int]:
        """The smallest and the largest edge size, (0, 0) without edges
        (cached)."""
        if self._edge_sizes is None:
            sizes = set(map(int.bit_count, self.edges))
            self._edge_sizes = (min(sizes, default=0), max(sizes, default=0))
        return self._edge_sizes

    def gaifman_adj(self) -> tuple[int, ...]:
        """Adjacency masks of the Gaifman graph (cached)."""
        if self._gaifman_adj is None:
            adj = [0] * self.n
            for h in self.edges:
                for v in bits(h):
                    adj[v] |= h & ~(1 << v)
            self._gaifman_adj = tuple(adj)
        return self._gaifman_adj

    def incidence(self) -> tuple[int, ...]:
        """Per vertex, the mask of the positions in ``edges`` of the edges
        through it (cached)."""
        if self._incidence is None:
            inc = [0] * self.n
            for i, h in enumerate(self.edges):
                for v in bits(h):
                    inc[v] |= 1 << i
            self._incidence = tuple(inc)
        return self._incidence

    def edges_meeting(self, s: int) -> int:
        """The mask of the positions in ``edges`` of the edges that meet S."""
        inc = self.incidence()
        out = 0
        for v in bits(s):
            out |= inc[v]
        return out

    def conflicts(self) -> tuple[int, ...]:
        """Per edge, the mask of the positions in ``edges`` of the other
        edges that share a vertex with it or are joined to it by an edge
        (cached).  Those are the edges that meet the union of the edges
        meeting it; on a graph this is the squared line graph L^2, whose
        independent sets are the induced matchings."""
        if self._conflicts is None:
            edges, out = self.edges, []
            for i, e in enumerate(edges):
                near = 0
                for j in bits(self.edges_meeting(e)):
                    near |= edges[j]
                out.append(self.edges_meeting(near) & ~(1 << i))
            self._conflicts = tuple(out)
        return self._conflicts

    # -- equality / hashing / repr --------------------------------------

    def _key(self):
        return (self.n, self.edges, self.weights)

    def __eq__(self, other):
        return isinstance(other, Hypergraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        name = type(self).__name__
        body = ", ".join("{" + ",".join(map(str, bits(e))) + "}"
                         for e in self.edges)
        return f"{name}(n={self.n}, edges=[{body}])"


class Clutter(Hypergraph):
    """A hypergraph whose edge set is an antichain (Sperner family)."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        super().__init__(n, edges, weights)
        low, high = self.edge_sizes()
        if low == high:
            return  # deduplicated uniform families are antichains
        by_size = sorted(self.edges, key=int.bit_count)
        for i, h in enumerate(by_size):
            for g in by_size[:i]:
                if g & h == g:
                    raise InputError("edge set is not an antichain: "
                                     f"{sorted(to_set(g))} is contained in {sorted(to_set(h))}")


class Graph(Clutter):
    """A clutter whose edges all have size exactly two."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        super().__init__(n, edges, weights)
        if self.edges and self.edge_sizes() != (2, 2):
            raise InputError("graph edge of size != 2")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, (mask_of(p) for p in pairs))

    @classmethod
    def from_adj(cls, adj: Sequence[int]) -> "Graph":
        """The graph on len(adj) vertices whose adjacency masks are ``adj``
        (symmetric, no loops); ``adj`` becomes its cached Gaifman adjacency."""
        edges = []
        for v, a in enumerate(adj):
            bv = 1 << v
            low = a & (bv - 1)
            while low:  # pairs u < v in increasing mask order
                bu = low & -low
                edges.append(bu | bv)
                low ^= bu
        g = cls(len(adj), edges)
        g._gaifman_adj = tuple(adj)
        return g


# ---------------------------------------------------------------------------
# id remapping for universe-shrinking operations


def removal_remap(n: int, removed: int) -> dict[int, int]:
    """Map old ids to new ids after removing the vertices in ``removed``:
    the kept ids, in increasing order, become 0, 1, 2, ..."""
    return {v: i for i, v in enumerate(bits(((1 << n) - 1) & ~removed))}


def _remap_mask(mask: int, table) -> int:
    """Bit v of ``mask`` moved to bit ``table[v]``; ``table`` is an id map
    (a dict, or a list indexed by old id)."""
    out = 0
    for v in bits(mask):
        out |= 1 << table[v]
    return out


# ---------------------------------------------------------------------------
# operations


def induced(h: Hypergraph, s: int) -> tuple[Hypergraph, dict[int, int]]:
    """H[S] without weights: keep only edges contained in S; vertices
    reindexed, map returned."""
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")
    remap = removal_remap(h.n, h.vertex_mask & ~s)
    edges = [_remap_mask(e, remap) for e in h.edges if e & ~s == 0]
    return Hypergraph(s.bit_count(), edges), remap
