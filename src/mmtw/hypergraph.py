"""Hypergraphs, clutters and their minor algebra.

Vertices of an n-vertex hypergraph are the integers 0..n-1 and vertex sets
are bitmasks.  Edge lists are kept deduplicated and sorted by mask value, so
two structures are equal iff they are structurally identical.  All values are
immutable after construction; every operation below is a pure function.

Universe-shrinking operations (delete, contract, minor, induced, compose)
reindex the surviving vertices to 0..n'-1 in increasing order of their old
ids; ``removal_remap`` gives the accompanying id map.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice
from operator import lt, ne
from typing import Iterable, Optional, Sequence

from ._bits import bits, mask_of, to_set
from .errors import InputError, ResourceError

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

    __slots__ = ("n", "edges", "weights", "_gaifman_adj")

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        if n < 0:
            raise InputError("negative vertex count")
        self.n = n
        self.edges = _canonical_edges(n, edges)
        if weights is not None:
            weights = tuple(Fraction(w) for w in weights)
            if len(weights) != n:
                raise InputError("weight vector length differs from vertex count")
        self.weights = weights
        self._gaifman_adj: Optional[tuple[int, ...]] = None

    # -- basic queries -------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def rank(self) -> int:
        return max((h.bit_count() for h in self.edges), default=0)

    def gaifman_adj(self) -> tuple[int, ...]:
        """Adjacency masks of the Gaifman graph (cached)."""
        if self._gaifman_adj is None:
            adj = [0] * self.n
            for h in self.edges:
                for v in bits(h):
                    adj[v] |= h & ~(1 << v)
            self._gaifman_adj = tuple(adj)
        return self._gaifman_adj

    def edge_sets(self) -> list[frozenset[int]]:
        return [to_set(h) for h in self.edges]

    # -- equality / hashing / repr --------------------------------------

    def _key(self):
        return (self.n, self.edges, self.weights)

    def __eq__(self, other):
        return isinstance(other, Hypergraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        name = type(self).__name__
        body = ", ".join("{" + ",".join(map(str, sorted(e))) + "}" for e in self.edge_sets())
        return f"{name}(n={self.n}, edges=[{body}])"


class Clutter(Hypergraph):
    """A hypergraph whose edge set is an antichain (Sperner family)."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        super().__init__(n, edges, weights)
        es = self.edges
        sizes = {h.bit_count() for h in es}
        if len(sizes) <= 1:
            return  # deduplicated uniform families are antichains
        by_size = sorted(es, key=lambda m: m.bit_count())
        for i, h in enumerate(by_size):
            for g in by_size[:i]:
                if g != h and g & h == g:
                    raise InputError("edge set is not an antichain: "
                                     f"{sorted(to_set(g))} is contained in {sorted(to_set(h))}")


class Graph(Clutter):
    """A clutter whose edges all have size exactly two."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable[int] = (), weights: Weights = None):
        super().__init__(n, edges, weights)
        if any(h.bit_count() != 2 for h in self.edges):
            raise InputError("graph edge of size != 2")

    @property
    def adj(self) -> tuple[int, ...]:
        return self.gaifman_adj()

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


class TraceFamily:
    """The restriction of a set family to a base set: members are subsets of base."""

    __slots__ = ("base", "members")

    def __init__(self, base: int, members: Iterable[int]):
        members = frozenset(members)
        for a in members:
            if a & ~base:
                raise InputError("trace member not contained in the base set")
        self.base = base
        self.members = members

    def __eq__(self, other):
        return (isinstance(other, TraceFamily)
                and self.base == other.base and self.members == other.members)

    def __hash__(self):
        return hash((self.base, self.members))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, sorted(to_set(a)))) + "}" for a in self)
        return f"TraceFamily(base={sorted(to_set(self.base))}, members=[{body}])"


# ---------------------------------------------------------------------------
# id remapping for universe-shrinking operations


def removal_remap(n: int, removed: int) -> dict[int, int]:
    """Map old ids to new ids after removing the vertices in ``removed``."""
    remap = {}
    new = 0
    for v in range(n):
        if not (removed >> v) & 1:
            remap[v] = new
            new += 1
    return remap


def _remap_mask(mask: int, remap: dict[int, int]) -> int:
    return mask_of(remap[v] for v in bits(mask))


# ---------------------------------------------------------------------------
# operations


def minimalize(h: Hypergraph) -> Clutter:
    """The clutter of inclusion-minimal edges of ``h`` (idempotent)."""
    return Clutter(h.n, _minimal_masks(h.edges), h.weights)


def gaifman(h: Hypergraph) -> Graph:
    """Graph joining vertices that co-occur in a hyperedge."""
    return Graph.from_adj(h.gaifman_adj())


def induced(h: Hypergraph, s: int) -> tuple[Hypergraph, dict[int, int]]:
    """H[S]: keep only edges contained in S; vertices reindexed, map returned."""
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")
    remap = {v: i for i, v in enumerate(bits(s))}
    edges = [_remap_mask(e, remap) for e in h.edges if e & ~s == 0]
    weights = None
    if h.weights is not None:
        weights = tuple(h.weights[v] for v in bits(s))
    return Hypergraph(s.bit_count(), edges, weights), remap


def delete(c: Clutter, v: int) -> Clutter:
    """C \\ v: drop edges containing v, remove v from the universe."""
    if not 0 <= v < c.n:
        raise InputError(f"unknown vertex {v}")
    bv = 1 << v
    remap = removal_remap(c.n, bv)
    return Clutter(c.n - 1, (_remap_mask(e, remap) for e in c.edges if not e & bv))


def contract(c: Clutter, v: int) -> Clutter:
    """C / v: remove v from every edge and re-minimalize."""
    if not 0 <= v < c.n:
        raise InputError(f"unknown vertex {v}")
    bv = 1 << v
    remap = removal_remap(c.n, bv)
    return Clutter(c.n - 1, _minimal_masks(_remap_mask(e & ~bv, remap) for e in c.edges))


def minor(c: Clutter, deleted: int, contracted: int) -> Clutter:
    """C[deleted; contracted]; deletions and contractions commute."""
    if deleted & contracted:
        raise InputError("delete and contract sets overlap")
    if (deleted | contracted) & ~c.vertex_mask:
        raise InputError("minor sets contain unknown vertices")
    remap = removal_remap(c.n, deleted | contracted)
    surviving = (_remap_mask(e & ~contracted, remap)
                 for e in c.edges if not e & deleted)
    return Clutter(c.n - (deleted | contracted).bit_count(), _minimal_masks(surviving))


def blocker_bruteforce(c: Clutter, cap: int = 20) -> Clutter:
    """All inclusion-minimal transversals, by Berge's sequential expansion.

    Conventions: b(clutter with no edges) = {emptyset}; b({emptyset}) has no
    edges.  These make b an involution on all clutters.
    """
    if c.n > cap:
        raise ResourceError(f"blocker cap {cap} exceeded (n={c.n})", n=c.n)
    trans: Sequence[int] = (0,)
    for h in c.edges:
        if h == 0:
            return Clutter(c.n, ())
        nxt = []
        for t in trans:
            if t & h:
                nxt.append(t)
            else:
                nxt.extend(t | (1 << v) for v in bits(h))
        trans = _minimal_masks(nxt)
    return Clutter(c.n, trans)


def _aligned(c: Clutter, f: Clutter) -> int:
    return max(c.n, f.n)


def join(c: Clutter, f: Clutter) -> Clutter:
    """Minimal edges of the union of the two edge sets."""
    n = _aligned(c, f)
    return Clutter(n, _minimal_masks(c.edges + f.edges))


def meet(c: Clutter, f: Clutter) -> Clutter:
    """Minimal edges among pairwise unions; dual to join under the blocker."""
    n = _aligned(c, f)
    return Clutter(n, _minimal_masks(h | g for h in c.edges for g in f.edges))


def compose(c: Clutter, h: int, u: int, v: int) -> Clutter:
    """C composed along (h, u, v): join of C[u; h-u] and C[v; h-v].

    The two minors remove exactly the vertices of h, so they live on the same
    reindexed universe and can be joined directly.
    """
    if h not in c.edges:
        raise InputError("h is not an edge of the clutter")
    bu, bv = 1 << u, 1 << v
    if u == v or not (h & bu) or not (h & bv):
        raise InputError("u, v must be distinct vertices of h")
    left = minor(c, bu, h & ~bu)
    right = minor(c, bv, h & ~bv)
    return join(left, right)


def trace(family: Iterable[int], s: int) -> TraceFamily:
    """tr_S of a family of vertex sets: intersections with S, deduplicated."""
    return TraceFamily(s, (a & s for a in family))


def complement_trace(t: TraceFamily) -> TraceFamily:
    """Complement every member within the base set (an involution)."""
    return TraceFamily(t.base, (t.base & ~a for a in t.members))
