"""Bag measures, each written once as a per-set oracle.

Each measure is one function ``(h, s, k=None)``: with k None it returns
the exact value of S, and with k given it may stop as soon as the value is
known to exceed k and then return any value above k (alpha and mu on graphs
stop at an answer of k + 1, rho starts its branch-and-bound at k + 1, and
kappa and mu on hypergraphs ignore k).  ``WellBehavedMeasure`` wraps it:
``decide(h, s, k)`` asks the bounded question "lambda(S) <= k?", the only
one the approximation pipeline asks, and ``value(h, s)`` the exact one that
the width of a decomposition reads.  Both reject an S outside V(H) first.

A well-behaved measure assigns a value to every vertex set of a hypergraph
and satisfies five axioms (unit singletons, subadditivity, additivity across
non-adjacent parts, monotonicity, bounded-budget decidability).  Two concrete
instances are provided, and they are the ones ``MEASURES`` offers to the
approximation pipeline: independence number of the Gaifman graph (alpha) and
edge cover number (rho).

kappa (|S| - 1) and the S-intersecting minor-matching number mu are bag
measures too, used to report the width of a decomposition, but they are not
well-behaved: neither has unit singletons (kappa({v}) = 0, and mu({v}) = 0
for a vertex in no edge).  They are in ``BAG_MEASURES`` only; the pipeline
reaches mu through the L^2 reduction to alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._bits import bits
from .blocker import _closed_neighbourhood
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, _minimal_masks

ORACLE_CAP = 2_000_000


@dataclass(frozen=True)
class WellBehavedMeasure:
    """A bag measure written once, as ``fn(h, s, k=None)`` (module
    docstring): the exact value, or with k any value above k once the
    value is known to exceed k."""

    name: str
    fn: Callable[..., object]

    def decide(self, h: Hypergraph, s: int, k: int) -> bool:
        """True iff the measure of S in H is at most k."""
        _check_set(h, s)
        return self.fn(h, s, k) <= k

    def value(self, h: Hypergraph, s: int):
        """Exact measure of S (int, or math.inf for uncoverable rho)."""
        _check_set(h, s)
        return self.fn(h, s)


def _check_set(h: Hypergraph, s: int):
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")


# ---------------------------------------------------------------------------
# per-set oracles


def _alpha_search(adj, s: int, k: int | None = None) -> int:
    """alpha(G[S]) by branch-and-bound over independent sets; with k, the
    search stops at the first set larger than k (and answers 0 for k < 0).

    A branch is cut when its size plus a greedy clique cover of its
    candidates cannot beat ``best`` (each clique holds at most one vertex of
    an independent set: Tomita and Seki's colouring bound, on the
    complement).  The stack holds one frame per vertex of the current set.
    """
    if k is not None and k < 0:
        return 0
    best = 0 if k is None else k
    steps = 0
    count, cand = 0, s
    stack = []
    while True:
        if (cand and count + cand.bit_count() > best
                and _clique_cover_exceeds(adj, cand, best - count)):
            steps += 1
            if steps > ORACLE_CAP:
                raise ResourceError("alpha oracle cap exceeded",
                                    **({"best": best} if k is None else {}))
            low = cand & -cand
            cand ^= low
            stack.append((count, cand))
            count += 1
            cand &= ~adj[low.bit_length() - 1]
            if count > best:
                best = count
                if k is not None:
                    return best
        elif stack:
            count, cand = stack.pop()
        else:
            return best


def _clique_cover_exceeds(adj, cand: int, limit: int) -> bool:
    """True iff the greedy cover of ``cand`` by cliques (lowest vertex
    first, each clique grown by its lowest common neighbour) needs more than
    ``limit`` cliques."""
    cliques = 0
    while cand:
        cliques += 1
        if cliques > limit:
            return True
        low = cand & -cand
        cand ^= low
        grow = cand & adj[low.bit_length() - 1]
        while grow:
            u = grow & -grow
            cand ^= u
            grow &= adj[u.bit_length() - 1]
    return False


def _kappa(h: Hypergraph, s: int, k: int | None = None) -> int:
    """|S| - 1; H and k are read by the other measures alone."""
    return s.bit_count() - 1


def _alpha(h: Hypergraph, s: int, k: int | None = None) -> int:
    """alpha(G[S]) for the Gaifman graph G of H; with k, the search stops at
    an independent (k+1)-subset of S."""
    return _alpha_search(h.gaifman_adj(), s, k)


def _rho(h: Hypergraph, s: int, k: int | None = None):
    """rho(S), the fewest edges of H covering S, or math.inf if some vertex
    of S lies in no edge; with k, min(k + 1, rho(S)), since the search
    starts from the bound ``best`` = k + 1 instead of |S| + 1.

    Branches on the edges through the lowest uncovered vertex, the edge
    covering the most uncovered vertices first, so that the first descent
    is greedy.  A branch is cut when its edges plus a lower bound cannot
    beat ``best``.  Two bounds count edges still to come: the uncovered
    vertices over the largest edge size, and a greedy packing of uncovered
    vertices no two of which share an edge (lowest first, dropping the
    closed Gaifman neighbourhood of each pick), since each of those needs
    an edge of its own.  The search keeps its own stack of (uncovered,
    edges used) branches.
    """
    # at least 1, so that the bound below divides by a positive size when
    # every edge is empty
    rank = max(1, h.edge_sizes()[1])
    edges, inc, adj = h.edges, h.incidence(), h.gaifman_adj()
    if not all(inc[v] for v in bits(s)):
        return math.inf
    best = s.bit_count() + 1 if k is None else k + 1
    stack = [(s, 0)]
    while stack:
        uncovered, used = stack.pop()
        if used - (-uncovered.bit_count() // rank) >= best:
            continue
        if not uncovered:
            best = used
            continue
        # the packing's first pick is the lowest uncovered vertex v, the one
        # branched on below; the size bound above left used + 1 < best
        v = (uncovered & -uncovered).bit_length() - 1
        bound, rest = used + 1, uncovered & ~(adj[v] | 1 << v)
        while rest and bound < best:
            bound += 1
            u = (rest & -rest).bit_length() - 1
            rest &= ~(adj[u] | 1 << u)
        if bound >= best:
            continue
        # a child per edge through v; the one covering the most is pushed
        # last, so it is popped first
        through = inc[v]
        children = []
        while through:
            low = through & -through
            children.append(uncovered & ~edges[low.bit_length() - 1])
            through ^= low
        used += 1
        for child in sorted(children, key=int.bit_count, reverse=True):
            stack.append((child, used))
    return best


def minor_matching_intersecting(h: Hypergraph, s: int) -> int:
    """mu_H(S): the largest matching minor of cl(H) with every edge meeting S.

    Exhaustive delete/contract/keep search over the vertices of N[S], S
    plus every edge meeting it (``blocker._closed_neighbourhood``), on the
    edges inside N[S] alone; memoized on the partially reduced clutter.
    Exact, exponential in |N[S]|; meant for desk scale.

    mu_H(S) = mu_{H[N[S]]}(S).  (>=) Take a matching minor of cl(H) with
    contracted set C whose every edge f = e_f - C meets S.  Each e_f meets
    S, so it lies in N[S].  Keep the union of the f, contract the union of
    the (e_f - f), and delete the rest of N[S]: this gives the same
    matching inside H[N[S]].  (<=) Deleting every vertex outside N[S]
    drops every edge that leaves it, so a matching minor of cl(H[N[S]]) is
    one of cl(H).
    """
    near = _closed_neighbourhood(h, s, h.vertex_mask)
    edges = _minimal_masks(e for e in h.edges if not e & ~near)
    order = list(bits(near))
    best = 0
    steps = 0
    memo: dict[tuple, int] = {}

    def final_value(es) -> int:
        # es is over kept vertices only: a matching iff all edges have size 2
        # and are pairwise disjoint and each meets S
        used = 0
        for e in es:
            if e.bit_count() != 2 or e & used or not e & s:
                return -1
            used |= e
        return len(es)

    def search(es: tuple[int, ...], i: int) -> int:
        nonlocal best, steps
        key = (es, i)
        got = memo.get(key)
        if got is not None:
            return got
        steps += 1
        if steps > ORACLE_CAP:
            raise ResourceError("minor matching cap exceeded", best=best)
        if any(e == 0 for e in es):
            memo[key] = -1
            return -1
        if i == len(order):
            r = final_value(es)
            best = max(best, r)
            memo[key] = r
            return r
        if len(es) == 0:
            memo[key] = 0
            return 0
        bv = 1 << order[i]
        # keep the vertex untouched
        r = search(es, i + 1)
        # delete it
        r = max(r, search(tuple(e for e in es if not e & bv), i + 1))
        # contract it
        r = max(r, search(_minimal_masks(e & ~bv for e in es), i + 1))
        memo[key] = r
        return r

    return max(0, search(edges, 0))


def _mu(h: Hypergraph, s: int, k: int | None = None) -> int:
    """mu_H(S).  On hypergraphs this is ``minor_matching_intersecting``,
    whatever k.  On a graph G it is the largest induced matching of G with
    every matched edge meeting S, and with k the search stops at one of k + 1
    edges.

    Two edges conflict when they share a vertex or an edge of G joins them,
    so these matchings are the independent sets of the conflict graph on
    the edges that meet S.  The search runs on ``h.conflicts()``, the masks
    over all of G, from the universe ``h.edges_meeting(s)`` of the edges
    that meet S.  Restricting each mask to that universe would change no
    step: ``_alpha_search`` only removes a mask from its candidates and ANDs
    one into a subset of them, and its candidates start as the universe, so
    the bits of a mask outside it are never read."""
    if h.edges and h.edge_sizes() != (2, 2):
        return minor_matching_intersecting(h, s)
    return _alpha_search(h.conflicts(), h.edges_meeting(s), k)


# ---------------------------------------------------------------------------
# registry


KAPPA = WellBehavedMeasure("kappa", _kappa)
ALPHA = WellBehavedMeasure("alpha", _alpha)
RHO = WellBehavedMeasure("rho", _rho)
MU = WellBehavedMeasure("mu", _mu)

MEASURES = {"alpha": ALPHA, "rho": RHO}
BAG_MEASURES = {"kappa": KAPPA, **MEASURES, "mu": MU}
