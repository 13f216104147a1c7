"""Blocker traces by branching.

``trace_blocker`` computes tr_S(b(cl(H))) without enumerating the blocker:
at every node it picks a pivot x (outside S when possible) and splits the
minimal transversals into those that survive deleting x and those that pin a
single S-vertex z on an edge through x, recursing on the composed clutter in
the second case.  Candidate traces from the composition branches are verified
against the current clutter before being kept, so the returned family is
exact; the brute-force route (``enumerate_mis`` + restriction) is kept as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import bits
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, TraceFamily, _minimal_masks

DEFAULT_NODE_CAP = 200_000


@dataclass(frozen=True)
class BranchCaps:
    nodes: int = DEFAULT_NODE_CAP
    depth: int | None = None


@dataclass(frozen=True)
class TraceResult:
    traces: TraceFamily
    nodes_explored: int
    max_quasimatching_len: int


def _berge(edges) -> tuple[int, ...]:
    """Minimal transversal masks; () if some edge is empty, (0,) if no edges."""
    trans: tuple[int, ...] = (0,)
    for h in sorted(set(edges)):
        if h == 0:
            return ()
        nxt = []
        for t in trans:
            if t & h:
                nxt.append(t)
            else:
                nxt.extend(t | (1 << v) for v in bits(h))
        trans = _minimal_masks(nxt)
    return trans


def enumerate_mis(h: Hypergraph, cap: int = 20) -> frozenset[int]:
    """All maximal independent sets of cl(H), as complements of the blocker."""
    if h.n > cap:
        raise ResourceError(f"MIS enumeration cap {cap} exceeded (n={h.n})", n=h.n)
    full = h.vertex_mask
    return frozenset(full & ~t for t in _berge(_minimal_masks(h.edges)))


def _hits_all(t: int, edges) -> bool:
    return all(t & e for e in edges)


def _is_minimal_transversal(t: int, edges) -> bool:
    if not _hits_all(t, edges):
        return False
    for v in bits(t):
        bv = 1 << v
        if not any(e & t == bv for e in edges):
            return False
    return True


def _compose_masks(edges, h: int, x: int, z: int) -> tuple[int, ...]:
    """Edges of the clutter composed along (h, x, z), over the same id space."""
    bx, bz = 1 << x, 1 << z
    con_x = h & ~bx
    con_z = h & ~bz
    merged = [e & ~con_x for e in edges if not e & bx]
    merged += [e & ~con_z for e in edges if not e & bz]
    return _minimal_masks(merged)


class _Brancher:
    def __init__(self, s: int, caps: BranchCaps):
        self.s = s
        self.caps = caps
        self.nodes = 0
        self.max_qm = 0
        self.memo: dict[tuple, dict[int, int]] = {}

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.caps.nodes:
            raise ResourceError("branch node budget exceeded",
                                nodes=self.nodes, max_quasimatching_len=self.max_qm)

    def _semantic_witness(self, a: int, edges) -> int | None:
        """A minimal transversal T with T & S == a, or None if none exists.

        T must be a ∪ T0 with T0 outside S: T0 has to hit every edge missing
        a, and each vertex of a needs a private edge avoiding T0.
        """
        s = self.s
        rest = []
        for e in edges:
            if e & a:
                continue
            f = e & ~s
            if f == 0:
                return None
            rest.append(f)
        for t0 in _berge(_minimal_masks(rest)):
            ok = True
            for v in bits(a):
                bv = 1 << v
                if not any(e & a == bv and not e & t0 for e in edges):
                    ok = False
                    break
            if ok:
                return a | t0
        return None

    def run(self, edges: tuple[int, ...], alive: int, qm_len: int, depth: int) -> dict[int, int]:
        """Map from trace mask to one witness minimal transversal of ``edges``."""
        key = (edges, alive)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        if self.caps.depth is not None and depth > self.caps.depth:
            raise ResourceError("branch depth budget exceeded",
                                nodes=self.nodes, max_quasimatching_len=self.max_qm)
        s = self.s
        if edges and edges[0] == 0:
            result: dict[int, int] = {}
            self.memo[key] = result
            return result
        if not edges or alive == 0:
            result = {0: 0} if not edges else {}
            self.memo[key] = result
            return result

        outside = alive & ~s
        x = ((outside & -outside) if outside else (alive & -alive)).bit_length() - 1
        bx = 1 << x
        result = {}

        # type 1: transversals that survive deleting the pivot; such a
        # transversal already hits every edge avoiding x, so only the
        # pivot's edges decide whether x must be added
        sub_edges = tuple(e for e in edges if not e & bx)
        x_edges = tuple(e for e in edges if e & bx)
        for w in self.run(sub_edges, alive & ~bx, qm_len, depth + 1).values():
            lifted = w if _hits_all(w, x_edges) else w | bx
            result.setdefault(lifted & s, lifted)

        # type 2: pin an S-vertex z on an edge through the pivot
        for z in bits(alive & s & ~bx):
            bz = 1 << z
            for h in x_edges:
                if h & bz:
                    self.max_qm = max(self.max_qm, qm_len + 1)
                    comp = _compose_masks(edges, h, x, z)
                    sub = self.run(comp, alive & ~h, qm_len + 1, depth + 1)
                    for tr, w in sub.items():
                        a = (tr | bz) & s
                        if a in result:
                            continue
                        cand = w | bz
                        if _is_minimal_transversal(cand, edges):
                            result[a] = cand
                        else:
                            witness = self._semantic_witness(a, edges)
                            if witness is not None:
                                result[a] = witness
        self.memo[key] = result
        return result


def trace_blocker(h: Hypergraph, s: int, caps: BranchCaps = BranchCaps()) -> TraceResult:
    """tr_S(b(cl(H))) by branching; exact, with node/depth budgets."""
    if s & ~h.vertex_mask:
        raise InputError("S contains an unknown vertex id")
    edges = _minimal_masks(h.edges)
    brancher = _Brancher(s, caps)
    res = brancher.run(edges, h.vertex_mask, 0, 0)
    return TraceResult(TraceFamily(s, res.keys()), brancher.nodes, brancher.max_qm)
