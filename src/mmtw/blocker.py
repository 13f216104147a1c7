"""Blocker traces by branching.

``trace_blocker`` computes tr_S(b(cl(H))) without enumerating the blocker.
A search node is a clutter, memoised on its sorted edge tuple alone: the live
vertices are the union of the edges, because deleting a pivot drops its edges
and a composition drops the pinned edge, so no edge ever leaves them.

- **Berge leaf.**  When every edge lies inside S, the trace is the blocker
  itself, and the node returns the minimal transversals from ``_berge``, each
  its own witness.  The leaf is charged to the node budget as if each
  transversal were a child: one node per transversal.  Berge's partial
  families (over a prefix of the edges) can outgrow the final one, so the
  enumeration stops as soon as one has more members than the nodes left,
  and the leaf is then charged one node past the cap, so its work grows
  with the cap, not with the blocker.
- **Cheapest pivot.**  Otherwise the pivot x is the vertex outside S with the
  fewest type-2 branches, Σ_{h∋x} |h ∩ S|, ties going to the lowest id.  The
  costs are summed in one pass over the edges, and the scan over the
  outside vertices stops at the first one that costs 0.
  The minimal transversals split into those that survive deleting x (type 1)
  and those that pin a single S-vertex z on an edge h through x (type 2),
  which recurse on the clutter composed along (h, x, z).

Candidate traces from the composition branches are verified against the
current clutter before being kept, so the returned family is exact; the
independent oracle is ``oracles.blocker_bruteforce`` followed by
``oracles.trace``.

The trace is local to S.  For a vertex set X, let N_X[S] be S together with
every edge of H[X] that meets S (``_closed_neighbourhood``).  Then

    tr_S(i(H[X])) = tr_S(i(H[N_X[S]])).

Proof.  Let M be a maximal independent set of H[X] and extend M ∩ N_X[S]
to a maximal independent set I of H[N_X[S]].  A vertex v of S \\ M is
blocked in H[X] by an edge e ∋ v with e - v ⊆ M; e meets S, so e ⊆ N_X[S]
and e - v ⊆ I, and v stays out of I: I ∩ S = M ∩ S.  Conversely, extend a
maximal independent set I of H[N_X[S]] to a maximal independent set of
H[X]; a vertex of N_X[S] \\ I is already blocked by an edge inside N_X[S],
so the extension adds only vertices outside N_X[S] and keeps I ∩ S.

The minimal transversals of cl(H[X]) are the complements in X of its
maximal independent sets, so their traces are the complements in S of the
traces above, and the same identity holds for tr_S(b(cl(H[X]))).
``trace_blocker`` therefore branches on the edges of H[N[S]] alone, N[S]
its closed neighbourhood in all of H, and a caller that wants the trace of
H[X] passes the copy of H[N_X[S]] (``dp._MergeTrace`` does): the search
costs what the neighbourhood of S costs, however large X is, and the node
budget bounds that one search.  It is the search's only budget: every node
that is not a memo hit is charged, and a child has fewer live vertices than
its parent (the pivot, and for type 2 all of h, leave them), so each frame
on the stack is a charged node and a budget of N stops every branch deeper
than N.

``enumerate_mis`` lists the maximal independent sets of an induced
subhypergraph as complements of ``_berge``'s transversals; every leaf set of
the DP in ``dp.py`` comes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, _minimal_masks

DEFAULT_NODE_CAP = 200_000


@dataclass(frozen=True)
class TraceResult:
    """The trace and the search nodes charged to the node budget."""

    traces: frozenset[int]
    nodes_explored: int


def _berge(edges, limit: int | None = None) -> tuple[int, ...] | None:
    """Minimal transversal masks, sorted; () if some edge is empty, (0,) if
    no edges, None as soon as a partial family has more than ``limit``
    members.

    The edges are added one at a time.  A transversal meeting the new edge h
    stays minimal; one missing h grows by each v ∈ h that lies outside every
    edge private to one of its vertices, since those are exactly the growths
    that keep each old vertex's private edge.  These growths are minimal and
    distinct, so a step costs O(family × edges) with nothing to minimalise.

    ``edges`` need not be a clutter.  Sorted by mask value, each edge comes
    after every edge it contains, so when a superset edge arrives every
    transversal already meets it and nothing grows; and a superset of e
    meets a transversal in a single vertex only where e meets it in that
    same vertex, so it never narrows a private-edge intersection.  The
    families, and so the ``limit`` checks, are those of the minimal edges.
    """
    trans = [0]
    done: list[int] = []
    for h in sorted(set(edges)):
        if h == 0:
            return ()
        nxt = []
        for t in trans:
            if t & h:
                nxt.append(t)
            else:
                private: dict[int, int] = {}
                for e in done:
                    m = e & t
                    if m and not m & (m - 1):
                        private[m] = private.get(m, e) & e
                grow = h
                for p in private.values():
                    grow &= ~p
                while grow:
                    b = grow & -grow
                    nxt.append(t | b)
                    grow ^= b
            if limit is not None and len(nxt) > limit:
                return None
        done.append(h)
        trans = nxt
    return tuple(sorted(trans))


def enumerate_mis(h: Hypergraph, within: int | None = None,
                  limit: int | None = None) -> list[int]:
    """Maximal independent sets of H[within] (all of H by default), as
    ambient masks in ``_berge``'s order: the complements in ``within`` of
    the minimal transversals of the edges inside it.  ResourceError as soon
    as a partial Berge family (over a prefix of those edges) has more than
    ``limit`` members."""
    if within is None:
        within = h.vertex_mask
    trans = _berge([e for e in h.edges if not e & ~within], limit)
    if trans is None:
        raise ResourceError(f"more than {limit} maximal independent sets",
                            limit=limit)
    return [within & ~t for t in trans]


def _is_minimal_transversal(t: int, edges) -> bool:
    """T hits every edge and each of its vertices has a private edge."""
    private = 0
    for e in edges:
        m = e & t
        if not m:
            return False
        if not m & (m - 1):
            private |= m
    return private == t


def _compose_masks(edges, h: int, x: int, z: int) -> tuple[int, ...]:
    """Edges of the clutter composed along (h, x, z), over the same id space.

    The composition keeps e - (h - x) for each edge e avoiding x and
    e - (h - z) for each edge avoiding z; both are e - h, so one pass keeps
    e - h for every edge that does not hold both x and z.
    """
    both = (1 << x) | (1 << z)
    return _minimal_masks([e & ~h for e in edges if e & both != both])


class _Brancher:
    """One search for one base set S.  ``memo`` maps each clutter the search
    reached to its node result, so a clutter met twice is searched once and
    charged to ``nodes`` once."""

    def __init__(self, s: int, node_cap: int):
        self.s = s
        self.node_cap = node_cap
        self.nodes = 0
        self.memo: dict[tuple[int, ...], dict[int, int]] = {}

    def _tick(self, count: int = 1):
        """Charge ``count`` search nodes to the node budget."""
        self.nodes += count
        if self.nodes > self.node_cap:
            raise ResourceError("branch node budget exceeded",
                                nodes=self.nodes)

    def _semantic_witness(self, a: int, edges) -> int | None:
        """A minimal transversal T with T & S == a, or None if none exists.

        T must be a ∪ T0 with T0 outside S: T0 has to hit every edge missing
        a, and each vertex of a needs a private edge avoiding T0.  Such an
        edge meets a in that vertex alone, so a vertex of a with no edge e
        where e ∩ a = {v} answers None before any search.  Each vertex of a
        minimal transversal T0 of the rest keeps its private edge in
        a ∪ T0, since those edges avoid a and T0 lies outside S; so
        ``_is_minimal_transversal`` decides each candidate by what a needs.
        """
        s = self.s
        alone = 0
        rest = []
        for e in edges:
            m = e & a
            if m:
                if not m & (m - 1):
                    alone |= m
                continue
            f = e & ~s
            if f == 0:
                return None
            rest.append(f)
        if alone != a:
            return None
        for t0 in _berge(rest):
            if _is_minimal_transversal(a | t0, edges):
                return a | t0
        return None

    def run(self, edges: tuple[int, ...]) -> dict[int, int]:
        """Map from trace mask to one witness minimal transversal of ``edges``.

        ``edges`` is a sorted clutter; its union is the set of live vertices.
        If every edge lies inside S, the node is a Berge leaf: it returns
        each minimal transversal as its own witness and is charged one node
        per transversal, or one node past the cap once a partial Berge
        family outgrows the nodes left.  Otherwise it branches on the pivot
        x outside S with the fewest type-2 branches
        Σ_{h∋x} |h ∩ S| (lowest id on ties; the scan stops at a cost of 0):
        type 1 recurses on the edges avoiding x, type 2 on the clutter
        composed along each edge h through x and each z in h ∩ S.
        """
        memo = self.memo
        hit = memo.get(edges)
        if hit is not None:
            return hit
        self._tick()
        s = self.s
        if not edges or edges[0] == 0:
            result = {} if edges else {0: 0}
            memo[edges] = result
            return result

        # one pass: the live vertices and each outside vertex's type-2 count
        union = 0
        cost: dict[int, int] = {}
        for e in edges:
            union |= e
            m = e & s
            if m:
                c = m.bit_count()
                out = e & ~s
                while out:
                    b = out & -out
                    cost[b] = cost.get(b, 0) + c
                    out ^= b
        outside = union & ~s
        if not outside:
            # a Berge leaf: one node per transversal
            left = self.node_cap - self.nodes
            trans = _berge(edges, left)
            self._tick(left + 1 if trans is None else len(trans))
            result = {t: t for t in trans}
            memo[edges] = result
            return result
        bx = outside & -outside
        best = cost.get(bx, 0)
        out = outside ^ bx
        while best and out:
            b = out & -out
            c = cost.get(b, 0)
            if c < best:
                bx, best = b, c
            out ^= b
        sub_edges: list[int] = []
        x_edges: list[int] = []
        for e in edges:
            if e & bx:
                x_edges.append(e)
            else:
                sub_edges.append(e)
        result = {}

        # type 1: transversals that survive deleting the pivot; such a
        # transversal already hits every edge avoiding x, so only the
        # pivot's edges decide whether x must be added
        for w in self.run(tuple(sub_edges)).values():
            for e in x_edges:
                if not e & w:
                    w |= bx
                    break
            result.setdefault(w & s, w)

        # type 2: pin an S-vertex z on an edge h through the pivot; a trace
        # with no minimal transversal here is kept in ``failed``, so later
        # children do not search for it again
        x = bx.bit_length() - 1
        failed: set[int] = set()
        for h in x_edges:
            zs = h & s
            while zs:
                bz = zs & -zs
                zs ^= bz
                sub = self.run(
                    _compose_masks(edges, h, x, bz.bit_length() - 1))
                for tr, w in sub.items():
                    a = (tr | bz) & s
                    if a in result or a in failed:
                        continue
                    cand = w | bz
                    if _is_minimal_transversal(cand, edges):
                        result[a] = cand
                    else:
                        witness = self._semantic_witness(a, edges)
                        if witness is None:
                            failed.add(a)
                        else:
                            result[a] = witness
        memo[edges] = result
        return result


def _closed_neighbourhood(h: Hypergraph, s: int, within: int) -> int:
    """N_within[S]: S plus every edge of H[within] that meets S."""
    near = s
    for e in h.edges:
        if e & s and not e & ~within:
            near |= e
    return near


def trace_blocker(h: Hypergraph, s: int,
                  node_cap: int = DEFAULT_NODE_CAP) -> TraceResult:
    """tr_S(b(cl(H))) by branching; exact, with a node budget.

    The search runs on the edges inside N[S] alone (the module docstring
    proves the trace is the same), so ``nodes_explored`` and ``node_cap``
    count that one search and nothing else.
    """
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")
    near = _closed_neighbourhood(h, s, h.vertex_mask)
    brancher = _Brancher(s, node_cap)
    res = brancher.run(_minimal_masks(e for e in h.edges if not e & ~near))
    return TraceResult(frozenset(res), brancher.nodes)
