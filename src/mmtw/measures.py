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
from dataclasses import dataclass, field
from typing import Callable

from ._bits import bits
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
        if s & ~h.vertex_mask:
            raise InputError("S contains an unknown vertex id")
        return self.decide_fn(h, s, k)

    def value(self, h: Hypergraph, s: int):
        """Exact measure of S (int, or math.inf for uncoverable rho)."""
        if s & ~h.vertex_mask:
            raise InputError("S contains an unknown vertex id")
        return self.value_fn(h, s)


# ---------------------------------------------------------------------------
# per-set oracles


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
    return _alpha_search(h.gaifman_adj(), s, 0, False)


def alpha_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff the Gaifman graph has no independent (k+1)-subset of S."""
    return _alpha_search(h.gaifman_adj(), s, k, True) <= k


def _rho_below(h: Hypergraph, s: int, best: int):
    """min(best, rho(S)), or math.inf if some vertex of S lies in no edge.

    A branch is cut when its edges plus a lower bound cannot beat ``best``.
    Two bounds count edges still to come: the uncovered vertices over the
    largest edge size, and a greedy packing of uncovered vertices no two of
    which share an edge (lowest first, dropping the span of each pick),
    since each of those needs an edge of its own.
    """
    rank = max((e.bit_count() for e in h.edges), default=1)
    covered = 0
    through = [[] for _ in range(h.n)]   # the edges through v, in order
    span = [0] * h.n   # span[v]: the union of the edges through v
    for e in h.edges:
        covered |= e
        for v in bits(e):
            through[v].append(e)
            span[v] |= e
    if s & ~covered:
        return math.inf

    def branch(uncovered: int, used: int):
        nonlocal best
        if not uncovered:
            best = used
            return
        if used - (-uncovered.bit_count() // rank) >= best:
            return
        bound, rest = used, uncovered
        while rest:
            bound += 1
            if bound >= best:
                return
            rest &= ~span[(rest & -rest).bit_length() - 1]
        low = uncovered & -uncovered
        for e in through[low.bit_length() - 1]:
            branch(uncovered & ~e, used + 1)

    branch(s, 0)
    return best


def rho_set(h: Hypergraph, s: int):
    """Minimum number of edges of H covering S; math.inf if some vertex of S
    lies in no edge."""
    return _rho_below(h, s, s.bit_count() + 1)


def rho_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff k edges of H cover S; false for every k if S is uncoverable."""
    return _rho_below(h, s, k + 1) <= k


def edge_conflicts(g: Hypergraph, s: int) -> tuple[list[int], int]:
    """Conflict graph of the edges of the graph G that meet S, as (adjacency
    masks over edge indices, mask of all indices).  Two edges conflict when
    they share a vertex or an edge of G joins them, so the induced matchings
    meeting S are its independent sets.  With S = V it is the squared line
    graph L^2(G), on the edges of G in their stored order."""
    adj = g.gaifman_adj()
    edges = [e for e in g.edges if e & s]
    at = [0] * g.n   # at[v]: indices of the edges with an end in N[v]
    for i, e in enumerate(edges):
        for v in bits(e):
            at[v] |= 1 << i
    conflicts = []
    for i, e in enumerate(edges):
        near = 0
        for v in bits(e):
            near |= adj[v] | (1 << v)
        hit = 0
        for v in bits(near):
            hit |= at[v]
        conflicts.append(hit & ~(1 << i))
    return conflicts, (1 << len(edges)) - 1


def induced_matching_intersecting(g: Hypergraph, s: int) -> int:
    """Maximum induced matching of the graph G with every matched edge
    meeting S (G given as a hypergraph whose edges are all pairs)."""
    conflicts, everything = edge_conflicts(g, s)
    return _alpha_search(conflicts, everything, 0, False)


def minor_matching_intersecting(h: Hypergraph, s: int) -> int:
    """mu_H(S): the largest matching minor of cl(H) with every edge meeting S.

    Exhaustive delete/contract/keep search over vertices, memoized on the
    partially reduced clutter.  Exact, exponential; meant for desk scale.
    """
    edges = _minimal_masks(h.edges)
    n = h.n
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

    def search(es: tuple[int, ...], v: int) -> int:
        nonlocal best, steps
        key = (es, v)
        got = memo.get(key)
        if got is not None:
            return got
        steps += 1
        if steps > ORACLE_CAP:
            raise ResourceError("minor matching cap exceeded", best=best)
        if any(e == 0 for e in es):
            memo[key] = -1
            return -1
        if v == n:
            r = final_value(es)
            best = max(best, r)
            memo[key] = r
            return r
        if len(es) == 0:
            memo[key] = 0
            return 0
        bv = 1 << v
        # keep v untouched
        r = search(es, v + 1)
        # delete v
        r = max(r, search(tuple(e for e in es if not e & bv), v + 1))
        # contract v
        r = max(r, search(_minimal_masks(e & ~bv for e in es), v + 1))
        memo[key] = r
        return r

    return max(0, search(edges, 0))


def _is_graph(h: Hypergraph) -> bool:
    return all(e.bit_count() == 2 for e in h.edges)


def mu_intersecting(h: Hypergraph, s: int) -> int:
    """mu_H(S); graphs take the induced-matching fast path."""
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")
    if _is_graph(h):
        return induced_matching_intersecting(h, s)
    return minor_matching_intersecting(h, s)


def mu_decide(h: Hypergraph, s: int, k: int) -> bool:
    """True iff mu_H(S) <= k; on graphs the search stops at a (k+1)-edge
    induced matching."""
    if _is_graph(h):
        return _alpha_search(*edge_conflicts(h, s), k, True) <= k
    return minor_matching_intersecting(h, s) <= k


# ---------------------------------------------------------------------------
# registry


def _kappa(h: Hypergraph, s: int) -> int:
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


@dataclass
class MeasureContext:
    """A hypergraph paired with a measure and a memo of exact values."""

    h: Hypergraph
    measure: WellBehavedMeasure
    _memo: dict = field(default_factory=dict)

    def value(self, s: int):
        got = self._memo.get(s)
        if got is None:
            got = self._memo[s] = self.measure.value(self.h, s)
        return got

    def at_most(self, s: int, k) -> bool:
        """lambda(S) <= k for a bound k that need not be an int.  Every
        measure is an int or infinite, so a finite bound is decided at its
        floor and an infinite one holds without asking the oracle."""
        got = self._memo.get(s)
        if got is not None:
            return got <= k
        if not isinstance(k, int):
            if k == math.inf:
                return True
            k = math.floor(k)
        return self.measure.decide(self.h, s, k)
