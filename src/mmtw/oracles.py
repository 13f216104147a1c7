"""Exhaustive reference algorithms.

Everything here is exponential-time and only meant for small instances; the
rest of the package is tested against these oracles.  The lambda-treewidth
oracle is a subset DP over elimination orderings, exact for any monotone bag
measure because optimal decompositions can be taken as clique trees of
triangulations.

The clutter algebra (minors, join and meet, composition, Berge's blocker and
traces) is the paper's proof vocabulary; the program never runs it, and the
tests check the blocker traces and the brancher's compositions against it.
Universe-shrinking operations (``minor``, ``compose``) reindex the surviving
vertices to 0..n'-1 in increasing order of their old ids, as
``hypergraph.removal_remap`` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from ._bits import bits, reach
from .blocker import enumerate_mis
from .decomposition import TreeDecomposition, from_elimination_order
from .errors import InputError, ResourceError
from .hypergraph import (Clutter, Graph, Hypergraph, _minimal_masks,
                         _remap_mask, removal_remap)

Measure = Callable[[int], object]


# ---------------------------------------------------------------------------
# clutter algebra


def minimalize(h: Hypergraph) -> Clutter:
    """The clutter of inclusion-minimal edges of ``h`` (idempotent)."""
    return Clutter(h.n, _minimal_masks(h.edges), h.weights)


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


def join(c: Clutter, f: Clutter) -> Clutter:
    """Minimal edges of the union of the two edge sets."""
    return Clutter(max(c.n, f.n), _minimal_masks(c.edges + f.edges))


def meet(c: Clutter, f: Clutter) -> Clutter:
    """Minimal edges among pairwise unions; dual to join under the blocker."""
    return Clutter(max(c.n, f.n),
                   _minimal_masks(h | g for h in c.edges for g in f.edges))


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


def trace(family: Iterable[int], s: int) -> frozenset[int]:
    """tr_S of a family of vertex sets: intersections with S, deduplicated."""
    return frozenset(a & s for a in family)


# ---------------------------------------------------------------------------
# solvers, decompositions and reductions


def independent_in(h: Hypergraph, s: int) -> bool:
    """True iff no edge of H is fully contained in s."""
    return not any(e and e & s == e for e in h.edges)


def mwis_bruteforce(h: Hypergraph, weights=None, cap: int = 20) -> tuple[Fraction, int]:
    """Max weight of an independent set and one witness mask.

    Vertices of negative weight are deleted first (edges through them are
    dropped), after which the optimum is attained at a maximal independent set.
    """
    w = [Fraction(x) for x in weights] if weights is not None else \
        ([Fraction(x) for x in h.weights] if h.weights is not None else
         [Fraction(1)] * h.n)
    if len(w) != h.n:
        raise InputError("weight vector length differs from vertex count")
    neg = 0
    for v in range(h.n):
        if w[v] < 0:
            neg |= 1 << v
    if h.n > cap:
        raise ResourceError(f"MIS enumeration cap {cap} exceeded (n={h.n})",
                            n=h.n)
    kept = Hypergraph(h.n, (e for e in h.edges if not e & neg))
    best, witness = Fraction(0), 0
    for m in enumerate_mis(kept):
        m &= ~neg
        total = sum((w[v] for v in bits(m)), Fraction(0))
        if total > best:
            best, witness = total, m
    return best, witness


def rho_bruteforce(h: Hypergraph, s: int):
    """Fewest edges of H whose union contains s, trying every edge subset by
    increasing size; math.inf if no subset does."""
    for size in range(len(h.edges) + 1):
        for chosen in combinations(h.edges, size):
            union = 0
            for e in chosen:
                union |= e
            if s & ~union == 0:
                return size
    return math.inf


def chromatic_bruteforce(h: Hypergraph, k: int) -> bool:
    """Is there a k-colouring with no monochromatic edge?  Backtracking."""
    if k < 1:
        raise InputError("k must be positive")
    n = h.n
    color = [-1] * n
    by_last = [[] for _ in range(n)]
    for e in h.edges:
        if e.bit_count() >= 2:
            by_last[max(bits(e))].append(e)
    singleton = any(e.bit_count() == 1 for e in h.edges)
    if singleton:
        return False
    if any(e == 0 for e in h.edges):
        return False

    def assign(v: int, used: int) -> bool:
        if v == n:
            return True
        # colours beyond the first unused one are interchangeable
        for c in range(min(used + 1, k)):
            color[v] = c
            ok = True
            for e in by_last[v]:
                it = bits(e)
                first = color[next(it)]
                if first == c and all(color[u] == c for u in it):
                    ok = False
                    break
            if ok and assign(v + 1, max(used, c + 1)):
                return True
        color[v] = -1
        return False

    return assign(0, 0)


def hom_bruteforce(h: Hypergraph, f: Hypergraph) -> bool:
    """Is there a map V(H) -> V(F) sending every edge of H onto an edge of F?"""
    if f.n == 0:
        return h.n == 0
    n = h.n
    f_edges = set(f.edges)
    image = [-1] * n
    by_last = [[] for _ in range(n)] if n else []
    for e in h.edges:
        if e == 0:
            return False
        by_last[max(bits(e))].append(e)

    def assign(v: int) -> bool:
        if v == n:
            return True
        for x in range(f.n):
            image[v] = x
            ok = True
            for e in by_last[v]:
                img = 0
                for u in bits(e):
                    img |= 1 << image[u]
                if img not in f_edges:
                    ok = False
                    break
            if ok and assign(v + 1):
                return True
        image[v] = -1
        return False

    return assign(0)


def _fill_neighborhood(adj, v: int, eliminated: int) -> int:
    """Non-eliminated vertices reachable from v via eliminated-internal paths:
    the neighbours of v's component in eliminated + v, outside that set."""
    inside = eliminated | (1 << v)
    out = 0
    for u in bits(reach(adj, 1 << v, inside)):
        out |= adj[u]
    return out & ~inside


def lambda_tw_exact(h: Hypergraph, lam: Measure,
                    cap: int = 18) -> tuple[object, TreeDecomposition]:
    """Exact lambda-treewidth and a witness decomposition.

    Subset DP over elimination orderings of the Gaifman graph; cost of
    eliminating v after the set E is lam({v} union fill-neighborhood).
    """
    n = h.n
    if n > cap:
        raise ResourceError(f"exact lambda-tw cap {cap} exceeded (n={n})", n=n)
    if n == 0:
        return lam(0), TreeDecomposition([0], [])
    adj = h.gaifman_adj()
    lam_memo: dict[int, object] = {}

    def lam_of(mask: int):
        got = lam_memo.get(mask)
        if got is None:
            got = lam_memo[mask] = lam(mask)
        return got

    full = (1 << n) - 1
    cost: list = [None] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = None
        best_v = 0
        for v in bits(mask):
            rest = mask & ~(1 << v)
            # v eliminated last among mask; survivors are outside mask plus v
            bag = (1 << v) | (_fill_neighborhood(adj, v, rest) & ~mask)
            val = lam_of(bag)
            prev = cost[rest]
            if prev is not None and prev > val:
                val = prev
            if best is None or val < best:
                best, best_v = val, v
        cost[mask] = best
        choice[mask] = best_v
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask &= ~(1 << v)
    order.reverse()
    return cost[full], from_elimination_order(h, order)


def pendant_pullback(g: Graph, t: TreeDecomposition) -> TreeDecomposition:
    """The pendant reduction's way back from a decomposition of M(G): delete
    every pendant vertex from every bag; the tree is unchanged."""
    n = g.n
    for bag in t.bags:
        if bag >> (2 * n):
            raise InputError("bag contains a vertex outside the extension")
    return TreeDecomposition([bag & ((1 << n) - 1) for bag in t.bags], t.tree_edges)


def separator_exists_bruteforce(h: Hypergraph, a: int, b: int, lam: Measure,
                                k, cap: int = 18) -> Optional[int]:
    """Some S with lam(S) <= k whose removal disconnects a from b, or None.

    a and b are vertex masks; S may intersect them.  Exhaustive over subsets.
    """
    n = h.n
    if n > cap:
        raise ResourceError(f"separator search cap {cap} exceeded (n={n})", n=n)
    adj = h.gaifman_adj()
    for s in range(1 << n):
        try:
            if lam(s) > k:
                continue
        except TypeError:
            continue
        if _separates(adj, n, s, a & ~s, b & ~s):
            return s
    return None


def _separates(adj, n: int, s: int, a: int, b: int) -> bool:
    if a & b:
        return False
    seen = a
    frontier = a
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        nxt &= ~(seen | s)
        if nxt & b:
            return False
        seen |= nxt
        frontier = nxt
    return True
