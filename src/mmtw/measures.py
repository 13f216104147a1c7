"""Bag measures and their per-set oracles.

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
    name: str
    decide_fn: Callable[[Hypergraph, int, int], bool]
    value_fn: Callable[[Hypergraph, int], object]

    def decide(self, h: Hypergraph, s: int, k: int) -> bool:
        """True iff the measure of S in H is at most k."""
        return self.decide_fn(h, s, k)

    def value(self, h: Hypergraph, s: int):
        """Exact measure of S (int, or math.inf for uncoverable rho)."""
        return self.value_fn(h, s)


# ---------------------------------------------------------------------------
# per-set oracles; each rejects an S outside V(H) first


def _check_set(h: Hypergraph, s: int):
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")


def _alpha_search(adj, s: int, best: int, first: bool) -> int:
    """max(best, alpha(G[S])) by branch-and-bound over independent sets.

    A branch is cut when its size plus a greedy clique cover of its
    candidates cannot beat ``best`` (each clique holds at most one vertex of
    an independent set: Tomita and Seki's colouring bound, on the
    complement).  With ``first`` the search stops at the first set larger
    than ``best``.  The stack holds one frame per vertex of the current set.
    """
    if best < 0:
        best = 0
        if first:
            return best
    steps = 0
    count, cand = 0, s
    stack = []
    while True:
        if (cand and count + cand.bit_count() > best
                and _clique_cover_exceeds(adj, cand, best - count)):
            steps += 1
            if steps > ORACLE_CAP:
                raise ResourceError("alpha oracle cap exceeded",
                                    **({} if first else {"best": best}))
            low = cand & -cand
            cand ^= low
            stack.append((count, cand))
            count += 1
            cand &= ~adj[low.bit_length() - 1]
            if count > best:
                best = count
                if first:
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


def alpha_set(h: Hypergraph, s: int) -> int:
    """alpha(G[S]) for the Gaifman graph G of H."""
    _check_set(h, s)
    return _alpha_search(h.gaifman_adj(), s, 0, False)


def alpha_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff the Gaifman graph has no independent (k+1)-subset of S."""
    _check_set(h, s)
    return _alpha_search(h.gaifman_adj(), s, k, True) <= k


def _rho_below(h: Hypergraph, s: int, best: int):
    """min(best, rho(S)), or math.inf if some vertex of S lies in no edge.

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
    rank = max(1, h.rank)
    edges, inc, adj = h.edges, h.incidence(), h.gaifman_adj()
    if not all(inc[v] for v in bits(s)):
        return math.inf
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


def rho_set(h: Hypergraph, s: int):
    """Minimum number of edges of H covering S; math.inf if some vertex of S
    lies in no edge."""
    _check_set(h, s)
    return _rho_below(h, s, s.bit_count() + 1)


def rho_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff k edges of H cover S; false for every k if S is uncoverable."""
    _check_set(h, s)
    return _rho_below(h, s, k + 1) <= k


def induced_matching_intersecting(g: Hypergraph, s: int) -> int:
    """Maximum induced matching of the graph G with every matched edge
    meeting S (G given as a hypergraph whose edges are all pairs).

    Two edges conflict when they share a vertex or an edge of G joins them,
    so these matchings are the independent sets of the conflict graph on
    the edges that meet S.  The search runs on ``g.conflicts()``, the masks
    over all of G, from the universe ``g.edges_meeting(s)`` of the edges
    that meet S.  Restricting each mask to that universe would change no
    step: ``_alpha_search`` only removes a mask from its candidates and ANDs
    one into a subset of them, and its candidates start as the universe, so
    the bits of a mask outside it are never read."""
    return _alpha_search(g.conflicts(), g.edges_meeting(s), 0, False)


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


def _is_graph(h: Hypergraph) -> bool:
    return not h.edges or h.edge_sizes() == (2, 2)


def mu_intersecting(h: Hypergraph, s: int) -> int:
    """mu_H(S); graphs take the induced-matching fast path."""
    _check_set(h, s)
    if _is_graph(h):
        return induced_matching_intersecting(h, s)
    return minor_matching_intersecting(h, s)


def mu_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff mu_H(S) <= k; on graphs the search stops at a (k+1)-edge
    induced matching."""
    _check_set(h, s)
    if _is_graph(h):
        return _alpha_search(h.conflicts(), h.edges_meeting(s), k,
                             True) <= k
    return minor_matching_intersecting(h, s) <= k


# ---------------------------------------------------------------------------
# registry


def _kappa(h: Hypergraph, s: int) -> int:
    _check_set(h, s)
    return s.bit_count() - 1


KAPPA = WellBehavedMeasure("kappa", lambda h, s, k: _kappa(h, s) <= k, _kappa)
ALPHA = WellBehavedMeasure("alpha", alpha_decide, alpha_set)
RHO = WellBehavedMeasure("rho", rho_decide, rho_set)
MU = WellBehavedMeasure("mu", mu_decide, mu_intersecting)

MEASURES = {"alpha": ALPHA, "rho": RHO}
BAG_MEASURES = {"kappa": KAPPA, **MEASURES, "mu": MU}


def get_measure(name: str) -> WellBehavedMeasure:
    try:
        return MEASURES[name]
    except KeyError:
        raise InputError(f"unknown measure {name!r}; pick one of {sorted(MEASURES)}")
