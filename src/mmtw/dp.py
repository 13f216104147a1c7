"""Dynamic programming over tree decompositions, reading tables from the
blocker.

A problem plugs into ``run_dp`` as a BlockerReadable: tables are indexed by
p-tuples of traces of maximal independent sets, and the four operations
(leaf initialisation from i(H), restriction to a smaller base, adding an
isolated vertex, and merging across a separator) are enough to evaluate the
root table of any valid decomposition.  Three instances are provided:
maximum weighted independent set, k-colouring and uniform hypergraph
homomorphism.  All vertex sets are ambient bitmasks of the input hypergraph.

Only a problem whose merge reads the blocker trace tr_S(i(H)) pays for it:
``run_dp`` computes the trace of each merge when the problem's
``reads_trace`` is true (MWIS) and passes ``trace=None`` otherwise (the
covering tables of colouring and homomorphism).  The trace caps therefore
bound only MWIS runs.

Each trace is taken on the bag's closed neighbourhood, not on the whole
subtree.  For a vertex set X and a bag S, let N_X[S] be S together with
every edge of H[X] that meets S.  Then

    tr_S(i(H[X])) = tr_S(i(H[N_X[S]])).

Proof.  Let M be a maximal independent set of H[X] and extend M ∩ N_X[S]
to a maximal independent set I of H[N_X[S]].  A vertex v of S \\ M is
blocked in H[X] by an edge e ∋ v with e - v ⊆ M; e meets S, so e ⊆ N_X[S]
and e - v ⊆ I, and v stays out of I: I ∩ S = M ∩ S.  Conversely, extend a
maximal independent set I of H[N_X[S]] to a maximal independent set of
H[X]; a vertex of N_X[S] \\ I is already blocked by an edge inside N_X[S],
so the extension adds only vertices outside N_X[S] and keeps I ∩ S.  So
the trace of a merge costs what the bag's neighbourhood costs, however
large the subtree below it, and the node and depth caps bound that local
search.

The merges at one bag S share that search.  ``run_dp`` builds one copy of
H[N_X[S]], X the bag and all its child subtrees, and one brancher memo for
the bag; the vertices merged so far only grow and stay inside X, so merge i
traces the edges inside its own N[S] in that copy.  A brancher node's
answer depends only on its clutter once S is fixed, so the traces are the
same as with a fresh memo per merge.  The caps are not: ``nodes`` charges
each merge only for the clutters that no earlier merge at the same bag
answered, and a memo hit skips the depth check of the subtree it answers,
so ``depth`` can fire on a different merge than with a fresh memo.

MWIS weights are scaled to integers by the least common multiple of their
denominators before the DP runs, so the tables add and compare ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._bits import bits
from .blocker import BranchCaps, enumerate_mis, trace_blocker
from .decomposition import TreeDecomposition, validate
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, _remap_mask, complement_trace, induced

DEFAULT_TABLE_CAP = 200_000
# hom_decide's target F is capped by vertex count: |i(F)| is the arity of
# its tables, and leaf_init enumerates up to |i(H[bag])|^arity tuples before
# any table check, which no cap on one family bounds
TARGET_CAP = 10


class _BagCopy:
    """H[N_X[S]] for a bag S and the vertices X of the bag and its child
    subtrees, with S in its ids, the map back to H and one brancher memo.

    A merge at the bag traces in V ⊆ X, so N_V[S] ⊆ N_X[S]: every merge at
    the bag traces inside this one copy and shares the memo.  ``meets``
    pairs each edge of H[X] that meets S with its copy, so ``within`` finds
    N_V[S] in the copy's ids without mapping V.
    """

    __slots__ = ("sub", "back", "s", "meets", "memo")

    def __init__(self, h: Hypergraph, xmask: int, smask: int):
        near = smask
        meets = []
        for e in h.edges:
            if e & smask and not e & ~xmask:
                near |= e
                meets.append(e)
        self.sub, remap = induced(h, near)
        self.back = list(bits(near))
        self.s = _remap_mask(smask, remap)
        self.meets = [(e, _remap_mask(e, remap)) for e in meets]
        self.memo: dict = {}

    def within(self, vmask: int) -> int:
        """N_V[S] in the copy's ids: S plus every edge inside V meeting S."""
        out = self.s
        for e, local in self.meets:
            if not e & ~vmask:
                out |= local
        return out


def _mis_trace(h: Hypergraph, vmask: int, smask: int,
               caps: BranchCaps = BranchCaps(),
               copy: _BagCopy | None = None) -> frozenset[int]:
    """tr_S(i(H[vmask])) member masks (ambient), via the blocker trace.

    The trace is computed on H[N[S]], where N[S] is S plus every edge of
    H[vmask] that meets S; the module docstring proves it is the same
    family.  It is traced inside ``copy``, the bag's copy of H, when given
    (vmask must lie in its X), and inside a copy of its own otherwise.
    """
    if copy is None:
        copy = _BagCopy(h, vmask, smask)
    res = trace_blocker(copy.sub, copy.s, caps, copy.within(vmask), copy.memo)
    back = copy.back
    return frozenset(_remap_mask(m, back)
                     for m in complement_trace(res.traces).members)


class BlockerReadable:
    """Operational contract of a function that can be read from the blocker.

    ``merge`` receives the member masks of tr_S(i(H)) for the merged
    subtree when ``reads_trace`` is true, and ``None`` when it is false; a
    problem that never looks at the trace sets it to false and spares
    ``run_dp`` the blocker-trace computation.
    """

    reads_trace: bool = True

    def leaf_init(self, mis: list[int], s: int):
        raise NotImplementedError

    def restrict(self, table, s_old: int, s_new: int):
        raise NotImplementedError

    def add_isolated(self, table, s: int, v: int):
        raise NotImplementedError

    def merge(self, trace: frozenset[int] | None, t1, t2, s: int):
        raise NotImplementedError


def run_dp(h: Hypergraph, t: TreeDecomposition, f: BlockerReadable,
           trace_caps: BranchCaps = BranchCaps(),
           table_cap: int = DEFAULT_TABLE_CAP):
    """Table of f over the empty base set, computed bottom-up over T.

    The tree is rooted at node 0; each node's hypergraph is the subhypergraph
    of H induced by its descendant bags, and child tables are restricted to
    the shared bag part, padded with isolated vertices and merged in
    increasing child order.  Every table, leaf tables included, holds at
    most ``table_cap`` entries, and a leaf's maximal independent sets are
    enumerated under the same cap; past it, ResourceError names the bag.
    """
    ok = validate(h, t)
    if not ok:
        raise InputError(f"invalid decomposition: {ok.reason}")
    k = t.node_count
    parent = [-1] * k
    order = [0]
    seen = {0}
    for node in order:
        for nb in t.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                parent[nb] = node
                order.append(nb)
    children = [[] for _ in range(k)]
    for node in range(1, k):
        children[parent[node]].append(node)

    tables: dict[int, object] = {}
    subtree_v: dict[int, int] = {}
    for node in reversed(order):
        bag = t.bags[node]
        try:
            acc = f.leaf_init(enumerate_mis(h, bag, table_cap), bag)
        except ResourceError as exc:
            raise ResourceError(f"table cap exceeded at bag {node}",
                                bag=node, **exc.stats) from exc
        _check_table(acc, node, table_cap)
        acc_v = bag
        copy = None
        if f.reads_trace and children[node]:
            xmask = bag
            for c in children[node]:
                xmask |= subtree_v[c]
            copy = _BagCopy(h, xmask, bag)
        for c in sorted(children[node]):
            tbl = f.restrict(tables.pop(c), t.bags[c], bag & t.bags[c])
            s = bag & t.bags[c]
            for v in bits(bag & ~t.bags[c]):
                tbl = f.add_isolated(tbl, s, v)
                s |= 1 << v
            acc_v |= subtree_v[c]
            trace = None
            if f.reads_trace:
                try:
                    trace = _mis_trace(h, acc_v, bag, trace_caps, copy)
                except ResourceError as exc:
                    raise ResourceError(f"trace cap exceeded at bag {node}",
                                        bag=node, **exc.stats) from exc
            acc = f.merge(trace, acc, tbl, bag)
            _check_table(acc, node, table_cap)
        subtree_v[node] = acc_v
        tables[node] = acc
    return f.restrict(tables[0], t.bags[0], 0)


def _check_table(table, node: int, table_cap: int):
    if len(table) > table_cap:
        raise ResourceError(f"table cap exceeded at bag {node}",
                            bag=node, size=len(table))


# ---------------------------------------------------------------------------
# Maximum Weighted Independent Set


class MwisDP(BlockerReadable):
    """Arity-1 tables mapping a trace A to (best weight, witness set)."""

    def __init__(self, weights):
        # any numbers that add and compare exactly; ``mwis`` passes ints
        self.w = list(weights)
        self._wsums: dict[int, object] = {}

    def wsum(self, mask: int):
        # the masks are subsets of bags, asked for again at every merge
        got = self._wsums.get(mask)
        if got is None:
            got = self._wsums[mask] = sum(map(self.w.__getitem__, bits(mask)))
        return got

    def leaf_init(self, mis, s):
        # the leaf sets are distinct, so each is its own key
        return {j: (self.wsum(j), j) for j in mis}

    def restrict(self, table, s_old, s_new):
        out = {}
        for a, (val, wit) in table.items():
            key = a & s_new
            if key not in out or out[key][0] < val:
                out[key] = (val, wit)
        return out

    def add_isolated(self, table, s, v):
        bv = 1 << v
        return {a | bv: (val + self.w[v], wit | bv)
                for a, (val, wit) in table.items()}

    def merge(self, trace, t1, t2, s):
        # value(a1, a2) = v1 + v2 - w(a1) - w(a2) + w(a1 & a2): the first two
        # differences are per entry, and w(a1 & a2) is the same for every
        # pair with that intersection, so the best pair for an intersection
        # is found on v1 - w(a1) + v2 - w(a2) and w(a) is added once at the
        # end.  The first best pair in table order keeps its witness.
        wsum = self.wsum
        rows2 = [(a2, v2 - wsum(a2), w2 & ~s) for a2, (v2, w2) in t2.items()]
        best: dict[int, tuple] = {}
        for a1, (v1, w1) in t1.items():
            x1 = v1 - wsum(a1)
            w1 &= ~s
            for a2, x2, w2 in rows2:
                a = a1 & a2
                if a not in trace:
                    continue
                x = x1 + x2
                got = best.get(a)
                if got is None or got[0] < x:
                    best[a] = (x, w1 | w2 | a)
        return {a: (x + wsum(a), wit) for a, (x, wit) in best.items()}


def mwis(h: Hypergraph, weights, t: TreeDecomposition,
         trace_caps: BranchCaps = BranchCaps(),
         table_cap: int = DEFAULT_TABLE_CAP) -> tuple[Fraction, int]:
    """Max weight of an independent set of H and a witness set."""
    w = [Fraction(x) for x in weights] if weights is not None else \
        ([Fraction(x) for x in h.weights] if h.weights is not None
         else [Fraction(1)] * h.n)
    if len(w) != h.n:
        raise InputError("weight vector length differs from vertex count")
    neg = 0
    for v in range(h.n):
        if w[v] < 0:
            neg |= 1 << v
    h2 = Hypergraph(h.n, (e for e in h.edges if not e & neg))
    # scaling by a positive d keeps every comparison, hence every witness
    d = lcm(*(x.denominator for x in w))
    w2 = [x.numerator * (d // x.denominator) if x >= 0 else 0 for x in w]
    final = run_dp(h2, t, MwisDP(w2), trace_caps, table_cap)
    if not final:
        return Fraction(0), 0
    val, wit = final[0]
    return Fraction(val, d), wit & ~neg


# ---------------------------------------------------------------------------
# covering-style boolean tables (k-colouring, homomorphism)


class CoverDP(BlockerReadable):
    """Arity-k boolean tables compressed as antichains of dominating tuples.

    Homomorphism to a target F indexes the components by i(F) =
    {M_0..M_{k-1}}: A_i is an independent set that may hold the vertices
    sent into M_i, ``incidence[x]`` lists the i with x ∈ M_i, and a vertex
    can be sent to x when it lies in every such A_i.  A tuple evaluates
    true iff it is componentwise below some stored tuple and its coverage
    (``cover``) contains the base set; merging intersects tuples pairwise
    and refilters against the base.  k-colouring is homomorphism to K_k,
    whose maximal independent sets are its k single vertices: incidence
    [[0], ..., [k-1]].
    """

    reads_trace = False

    def __init__(self, arity: int, incidence, full_mask: int):
        self.arity = arity
        self.incidence = incidence
        self.full = full_mask

    def cover(self, tup):
        """The vertices that can be sent to some target vertex x: the union
        over x of the intersection of tup[i] over the i in incidence[x]."""
        full = self.full
        out = 0
        for idxs in self.incidence:
            c = full
            for i in idxs:
                c &= tup[i]
            out |= c
            if out == full:
                break
        return out

    def _compress(self, tuples):
        """The maximal tuples, largest total size first (ties in set order).

        Each tuple is packed into one int, component i shifted by
        i * |full| bits, so componentwise domination is one ``p & g == p``.
        A tuple dominated by another has a smaller total size and so meets
        a kept dominator earlier in the order.
        """
        shift = self.full.bit_length()
        packed = []
        for t in set(tuples):
            p = 0
            for i, x in enumerate(t):
                p |= x << (i * shift)
            packed.append((p.bit_count(), p, t))
        packed.sort(key=lambda e: e[0], reverse=True)
        kept: list[tuple[int, ...]] = []
        kept_p: list[int] = []
        for _, p, t in packed:
            for g in kept_p:
                if p & g == p:
                    break
            else:
                kept_p.append(p)
                kept.append(t)
        return kept

    def leaf_init(self, mis, s):
        # a depth-first search over mis^arity, one level per component; the
        # components not yet fixed hold ``full``, so the coverage of a
        # prefix bounds that of every completion (intersections only shrink)
        # and a prefix that cannot cover s is cut.  Each target vertex adds
        # (the rest of its intersection) & row[i], and & distributes over |,
        # so with row[i] = j the coverage is lo | (hi & j), where lo and hi
        # are the coverages with row[i] = 0 and row[i] = full
        out = []
        full = self.full
        row = [full] * self.arity

        def rec(i):
            if i == self.arity:
                out.append(tuple(row))
                return
            row[i] = 0
            lo = self.cover(row)
            row[i] = full
            hi = self.cover(row)
            for j in mis:
                if (lo | hi & j) & s == s:
                    row[i] = j
                    rec(i + 1)
            row[i] = full

        rec(0)
        # the components are maximal independent sets of H[s], so one tuple
        # dominates another only when they are equal: sorting is all that
        # ``_compress`` would do here
        return sorted(set(out), key=lambda t: sum(x.bit_count() for x in t),
                      reverse=True)

    def restrict(self, table, s_old, s_new):
        return self._compress(tuple(a & s_new for a in t) for t in table)

    def add_isolated(self, table, s, v):
        bv = 1 << v
        return [tuple(a | bv for a in t) for t in table]

    def merge(self, trace, t1, t2, s):
        out = []
        for d1 in t1:
            for d2 in t2:
                c = tuple(a & b for a, b in zip(d1, d2))
                if self.cover(c) & s == s:
                    out.append(c)
        return self._compress(out)


def chromatic_decide(h: Hypergraph, k: int, t: TreeDecomposition,
                     trace_caps: BranchCaps = BranchCaps(),
                     table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """True iff H has a colouring with k colours and no monochromatic edge."""
    if k < 1:
        raise InputError("k must be positive")
    final = run_dp(h, t, CoverDP(k, [[i] for i in range(k)], h.vertex_mask),
                   trace_caps, table_cap)
    return bool(final)


def hom_decide(h: Hypergraph, f: Hypergraph, t: TreeDecomposition,
               trace_caps: BranchCaps = BranchCaps(),
               table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """True iff there is a homomorphism from H to F (both r-uniform)."""
    ranks_h = {e.bit_count() for e in h.edges}
    ranks_f = {e.bit_count() for e in f.edges}
    if len(ranks_h) > 1 or len(ranks_f) > 1:
        raise InputError("hypergraphs must be uniform")
    if ranks_h and ranks_f and ranks_h != ranks_f:
        raise InputError("hypergraphs must be uniform of the same rank")
    if f.n > TARGET_CAP:
        raise ResourceError(f"target cap {TARGET_CAP} exceeded (n={f.n})", n=f.n)
    if h.n == 0:
        return True
    if f.n == 0:
        return False
    target_mis = sorted(enumerate_mis(f))
    arity = len(target_mis)
    if arity == 0:
        # F has an empty edge: no independent sets at all, and any map sends
        # edges of H nowhere useful; only edgeless H maps (vacuously) -- but
        # an r-uniform F with an empty edge forces r=0 for H too
        return not h.edges
    incidence = [[i for i, mi in enumerate(target_mis) if (mi >> x) & 1]
                 for x in range(f.n)]
    final = run_dp(h, t, CoverDP(arity, incidence, h.vertex_mask),
                   trace_caps, table_cap)
    return bool(final)
