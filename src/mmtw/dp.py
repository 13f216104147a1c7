"""Dynamic programming over tree decompositions, reading tables from the
blocker.

A problem plugs into ``run_dp`` through four operations (its docstring
gives the contract): tables are indexed by p-tuples of traces of maximal
independent sets, and leaf initialisation from i(H), restriction to a
smaller base, adding isolated vertices, and merging across a separator are
enough to evaluate the root table of any valid decomposition.  An empty
table is final: ``run_dp`` builds every leaf table before the first merge,
stops at the first empty leaf, and otherwise merges and stops at the first
empty merged table.  Three instances are provided: maximum weighted
independent set, k-colouring and uniform hypergraph homomorphism.  All
vertex sets are ambient bitmasks of the input hypergraph; a trace is the
frozenset of its member masks, and a ``CoverDP`` tuple is one int that
packs its components.  When each target vertex lies in exactly one
component (K_k, and any complete multipartite F), a tuple's coverage is one
fold of that int.

Only a problem whose merge reads the blocker trace tr_S(i(H)) pays for it.
When the problem's ``reads_trace`` is true (MWIS), ``run_dp`` passes each
merge a membership test for its trace, and otherwise ``trace=None`` (the
covering tables of colouring and homomorphism).  The test (``_MergeTrace``)
takes the keys of the two tables merged as members, since every candidate
is independent, and settles each other candidate trace a with a short
proof or, failing that, with a search that rests on a lemma, proved in
``_MergeTrace``'s docstring: a ∈ tr_S(i(H[V])) iff every vertex of S - a
can be blocked by an edge whose other vertices avoid S - a and, together
with a, stay independent.  The ways to block each vertex of H are indexed
once per solve (``_blocking_index``), and a merge keeps those inside V.
The search stops after |S| times as many placements as the merge has ways
to block a vertex of S, and only then is the whole trace computed, once per
merge.  Such extension problems are NP-complete in general (Casel,
Fernau, Khosravian Ghadikolaei, Monnot and Sikora, "On the complexity of
solution extension of optimization problems", TCS 2022), so the trace,
whose size the paper bounds by |S|^{O(μ)}, stays as the fallback.  The
trace's node budget therefore bounds only MWIS runs, and there only the
traces that run: an MWIS solve whose candidates all settle answers under
any budget.
``chromatic_decide`` and ``hom_decide`` take none.

A trace is local to the bag S: ``blocker.trace_blocker`` branches on the
closed neighbourhood N[S] alone, and its module docstring proves that the
trace is the same.  A merge settles its candidates on the edges of H[V]
itself, V the vertices merged so far, read through the per-solve index, so
a merge whose candidates all settle copies nothing.  A merge that traces
builds the copy of H[N_V[S]] of its own V and searches it once, so
``node_cap`` bounds that one search, in ``solve`` as in ``trace``.

The DP runs over the maximal bags.  After validating T, ``run_dp`` takes
the tree edges in sorted order and contracts each one whose two ends, as
contracted so far, have nested bags: the larger bag absorbs the smaller,
and of two equal bags the lower id absorbs the higher.  A contracted tree
is again a valid decomposition.  In one, the vertices two bags share lie in
every bag between them, so a pair of ends left uncontracted stays unnested
however far either end grows later, and a bag inside any other bag lies
inside a neighbour's.  So what remains is one node per maximal bag, the
lowest id among the nodes with that bag (Bodlaender, "A partial k-arboretum
of graphs with bounded treewidth", TCS 1998: no width is lost).  Each node
then stands for the same subhypergraph as before, so the tables describe
the same H, and a contained or repeated bag costs no leaf and no merge.  An
absorbing node keeps its input id, so a ResourceError names a node of the
input; the root is the node that holds node 0.  Validation comes first
because contraction can repair an invalid decomposition: in the tree
w - u - v with bag(u) inside bag(v), a vertex in bags w and v but not in u
has its nodes joined once u goes into v.  Leaf caps and refutations still fire
where the contained bag would fire them.  A bag B inside A has no more
maximal independent sets than A, since each extends to one of H[A] that
meets B in it, so a cap on B's sets fires at A too.  And H[B] is a
subhypergraph of H[A], so B's leaf is empty only when A's is.  A table cap
bounds the tables of the maximal bags, and a merged table over a larger bag
can go over a cap that the input tree's tables stay under.

MWIS runs on H itself, under w+ = max(w, 0): a negative weight clamps at
0, and the negative vertices, neg, leave the witness at the end.  This is
exact.  As w+ >= 0, every independent set grows to a maximal one without
losing w+ weight, so the DP's witness M, the best maximal independent set,
has the largest w+ weight of any independent set.  M - neg is independent,
and w(M - neg) = w+(M) >= w+(I) >= w(I) for every independent I.  So the
tables, leaf caps and traces depend on (H, T) alone, not on the signs of
the weights.  The weights are scaled to integers by the least common
multiple of their denominators before the DP runs, so the tables add and
compare ints.  An MWIS table stores, per key, the weight outside it, so
that only ``restrict`` adds weights.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._bits import bits
from .blocker import (DEFAULT_NODE_CAP, _closed_neighbourhood,
                      enumerate_mis, trace_blocker)
from .decomposition import TreeDecomposition, validate
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, _remap_mask, induced

DEFAULT_TABLE_CAP = 200_000
# hom_decide's target F is capped by vertex count, |V(F)| <= 10.  The
# maximal independent sets of F form an antichain, so the arity |i(F)| of
# its tables is at most C(10, 5) = 252.  That does not bound leaf_init's
# walk, which can build |i(H[bag])|^(arity - 1) prefixes before any table
# check; colouring has no target cap, but its arity is min(k, n), since a
# colouring of n vertices uses at most n colours
TARGET_CAP = 10


class _MergeTrace:
    """Membership in tr_S(i(H[V])) for one merge, V = ``vmask`` ⊇ S: each
    distinct candidate is settled once, on the edges of H[V], and the trace
    is computed only when a candidate is left undecided.

    A candidate a ⊆ S is independent (the merge's candidates are), and
    ``in`` is asked of candidates alone.  The lemma: a ∈ tr_S(i(H[V])) iff
    each v ∈ S - a has an option o_v = e_v - v, e_v an edge of H[V] through
    v, such that o_v avoids S - a and a ∪ ⋃ o_v is independent.  (⇒) Take
    a maximal independent I of H[V] with I ∩ S = a.  For v ∈ S - a, I + v
    holds an edge e_v ∋ v, and o_v = e_v - v ⊆ I avoids S - a;
    a ∪ ⋃ o_v ⊆ I is independent.  (⇐) M = a ∪ ⋃ o_v is independent with
    M ∩ S = a, and M + v holds e_v for each v ∈ S - a, so a maximal
    independent set of H[V] that contains M adds no vertex of S: its trace
    is a.  Four proofs settle a candidate:

    - table keys (``take_keys``, before any candidate is asked): the merge
      joins V1 ⊇ S and the child subtree's V_c, V = V1 ∪ V_c with
      V1 ∩ V_c ⊆ S, and every edge of H[V] lies in V1 or in V_c.  A key a1
      of the accumulated table is the trace of a maximal independent I of
      H[V1], and a maximal independent set of H[V] that contains I adds no
      vertex of S: a1 is a member.  A key a2 of the padded child table is
      (I_c ∩ S) ∪ (S - V_c), I_c maximal independent in H[V_c].  If a2 is
      independent, M = I_c ∪ a2 is independent in H[V] (its part in V1 is
      a2, its part in V_c is I_c), meets S in a2 and blocks S ∩ V_c - a2
      through I_c, so a2 is a member.  A padded key that is not independent
      is no member (with the singleton edge {1}, no trace holds 1), so the
      keys are taken as members only because ``in`` is asked of
      candidates alone;
    - certify: grow an independent M from a with M ∩ S = a.  For each
      v ∈ S - a in id order that M does not block yet (no edge e ∋ v with
      e - v ⊆ M), add e - v for the first edge e ∋ v such that e - v
      avoids S - a and M stays independent.  If every v ends up blocked, a
      maximal independent set of H[V] that contains M adds no vertex of S,
      so its trace is a;
    - refute: some v ∈ S - a has no edge e ∋ v with e - v avoiding S - a
      and (e - v) ∪ a independent.  No independent M with M ∩ S = a then
      blocks v, so M + v is independent and M is not maximal;
    - search (``_search``), for a candidate the first three leave
      undecided: certify's walk, but at a vertex that no fitting option is
      left for, go back to the last vertex given an option and try its next
      one.  A vertex that M already blocks needs none, and stays blocked as
      M grows.  The search is complete: if the o_v exist, the branch that
      takes o_v at each vertex it does not skip keeps M ⊆ a ∪ ⋃ o_v, so
      every o_v fits there, and that branch blocks all of S - a.  Its first
      descent is certify's.

    The options are the entries of the per-solve ``_blocking_index`` whose
    edge lies in V.  Certify and refute cost O(|S| d² r) per candidate, d
    the largest degree in H and r its rank.  Unbounded, the search can take
    exponential time (the module docstring says why the trace stays), so
    it gives up after |S| × (the number of options of the merge)
    placements, and only then is the trace computed.
    """

    __slots__ = ("h", "smask", "vmask", "node_cap", "options", "verdicts",
                 "trace")

    def __init__(self, h: Hypergraph, smask: int, vmask: int, node_cap: int,
                 index):
        self.h, self.smask, self.vmask = h, smask, vmask
        self.node_cap = node_cap
        self.options = [(1 << v, [(o, need) for e, o, need in index[v]
                                  if not e & ~vmask])
                        for v in bits(smask)]
        self.verdicts: dict[int, bool] = {}
        self.trace: frozenset[int] | None = None

    def take_keys(self, *tables):
        """Record the keys of the merge's two tables as members (the first
        proof of the class docstring)."""
        for table in tables:
            self.verdicts.update(dict.fromkeys(table, True))

    def __contains__(self, a: int) -> bool:
        got = self.verdicts.get(a)
        if got is None:
            got = self._settle(a)
            if got is None:
                if self.trace is None:
                    self.trace = self._trace()
                got = a in self.trace
            self.verdicts[a] = got
        return got

    def _trace(self) -> frozenset[int]:
        """tr_S(i(H[V])) member masks (ambient): the complements in S of the
        blocker trace of H[N_V[S]], searched in a copy built for it."""
        near = _closed_neighbourhood(self.h, self.smask, self.vmask)
        sub, remap = induced(self.h, near)
        s = _remap_mask(self.smask, remap)
        res = trace_blocker(sub, s, self.node_cap)
        # ``induced`` numbers the kept ids in increasing order
        back = list(remap)
        return frozenset(_remap_mask(s & ~a, back) for a in res.traces)

    def _settle(self, a: int) -> bool | None:
        """Whether a is a member, or None when the search spends its
        budget."""
        rest = self.smask & ~a
        m = a
        for i, (bv, opts) in enumerate(self.options):
            if not bv & rest:
                continue
            for o, _ in opts:
                if not o & ~m:
                    break
            else:
                for o, need in opts:
                    if not o & rest and _fits(need, m):
                        m |= o
                        break
                else:
                    # every vertex before v has an option that fits a: the
                    # refutation looks at v and the vertices after it
                    for bv, opts in self.options[i:]:
                        if bv & rest and not any(
                                not o & rest and _fits(need, a)
                                for o, need in opts):
                            return False
                    return self._search(a, rest)
        return True

    def _search(self, a: int, rest: int) -> bool | None:
        """Whether a is a member, by the search over options, or None once
        it has placed |S| times as many as the merge has; ``rest`` is S - a.
        """
        options = self.options
        budget = self.smask.bit_count() * sum(len(opts) for _, opts in options)
        # a frame: the first vertex index not yet looked at, M, and the
        # first option index not yet tried at that vertex
        stack = [(0, a, 0)]
        while stack:
            i, m, j = stack.pop()
            for i in range(i, len(options)):
                bv, opts = options[i]
                if bv & rest and all(o & ~m for o, _ in opts):
                    break
            else:
                return True
            for j in range(j, len(opts)):
                o, need = opts[j]
                if not o & rest and _fits(need, m):
                    if not budget:
                        return None
                    budget -= 1
                    stack.append((i, m, j + 1))
                    stack.append((i + 1, m | o, 0))
                    break
        return False


def _blocking_index(h: Hypergraph) -> list:
    """Per vertex v of H, the ways to block v: per edge e ∋ v in id order,
    (e, o = e - v, the sets f - o of the edges f of H that meet o).  For an
    independent m, m ∪ o is independent iff no f - o lies in m; an f
    outside V never lies in m ∪ o for m, o ⊆ V, so a merge over V keeps the
    entries with e ⊆ V and filters no need list.  An o that holds an edge
    blocks v in no H[V], and is left out."""
    edges, inc = h.edges, h.incidence()
    # one list per o, which several vertices can share
    needs: dict[int, list[int] | None] = {}
    out = []
    for v in range(h.n):
        bv = 1 << v
        opts = []
        for i in bits(inc[v]):
            e = edges[i]
            o = e ^ bv
            if o not in needs:
                need = [edges[j] & ~o for j in bits(h.edges_meeting(o))]
                needs[o] = need if all(need) else None
            if needs[o] is not None:
                opts.append((e, o, needs[o]))
        out.append(opts)
    return out


def _fits(need: list[int], m: int) -> bool:
    """No set of ``need`` lies in m."""
    for g in need:
        if not g & ~m:
            return False
    return True


def run_dp(h: Hypergraph, t: TreeDecomposition, f,
           node_cap: int = DEFAULT_NODE_CAP,
           table_cap: int = DEFAULT_TABLE_CAP):
    """Table of f over the empty base set, computed bottom-up over T.

    The problem f supplies four operations.  ``f.leaf_init(mis, s)`` builds
    the table of H[s] from its maximal independent sets,
    ``f.restrict(table, s)`` the table over the smaller base ``s``, and
    ``f.add_isolated(table, vs)`` the table with the vertices of the mask
    ``vs`` added to the base, each isolated and outside it.
    ``f.merge(trace, t1, t2, s)`` receives a membership test for
    tr_S(i(H)) of the merged subtree (``a in trace``) when
    ``f.reads_trace`` is true, and ``None`` when it is false; a problem
    that never looks at the trace sets it to false and is spared the test.
    A problem that reads the trace keys its tables by single traces
    (iterating a table yields them), and asks ``in`` only of intersections
    of two keys: the test takes the keys of both tables as members.  It
    settles each other candidate with a short proof or a bounded search,
    and computes the blocker trace, under ``node_cap``, only for a
    candidate on which the search spends its budget; a budget that runs
    out raises from inside ``merge``.

    An empty table is final: the leaf tables are built first, in
    post-order, and the first empty one is returned as the answer, over the
    empty base, with no merge run; with every leaf nonempty, the merges run
    and the first empty merged table is returned without visiting the
    remaining bags.  So an empty table at a subtree must mean an empty
    table for H.  It does for ``CoverDP``, since a homomorphism of H
    restricts to every subhypergraph, and for ``MwisDP``, whose tables are
    empty only where H[bag] holds an empty edge (in every bag, so the first
    leaf is empty) and the answer is (0, 0) anyway.

    T is validated first, and each bag that lies inside or equals a
    neighbour's bag is then contracted into it (see the module docstring),
    so the DP visits one node per maximal bag, each under the lowest input
    id that holds it.  The contracted tree is rooted at the node that holds
    node 0; each node's hypergraph is the subhypergraph of H induced by its
    descendant bags, and child tables are restricted to the shared bag part,
    padded with isolated vertices and merged in increasing child order.
    Every table, leaf tables included, holds at most ``table_cap`` entries,
    and a leaf's maximal independent sets are enumerated under the same cap;
    past it, ResourceError names the bag.

    A first pass builds the leaf tables in post-order and returns at the
    first empty one, as above.  A leaf over the cap ends that
    pass; the second pass, which merges, builds that leaf again when it
    reaches it and raises there, so a merge before it in post-order can
    still refute.  A leaf cap therefore fires where visiting the bags one by
    one, leaf then merges, would fire it, and never on a refutation by an
    earlier table.  A merged table over the cap fires only when no leaf is
    empty: every leaf is built before the first merge.
    """
    _validated(h, t)
    k = t.node_count
    bags, edges = t.bags, t.tree_edges
    # into links each node towards the node it went into, and the roots are
    # the nodes left; the edges are taken in sorted order, each between the
    # roots of its ends, and contracted when one bag holds the other, into
    # the lower id if the bags are equal
    into = list(range(k))

    def top(node):
        while into[node] != node:
            into[node] = node = into[into[node]]    # path halving
        return node

    for a, b in edges:
        a, b = sorted((top(a), top(b)))
        if not bags[b] & ~bags[a]:
            into[b] = a
        elif not bags[a] & ~bags[b]:
            into[a] = b
    # the contracted tree, walked breadth-first from the node that holds
    # node 0, each node's children in increasing order
    adj = [[] for _ in range(k)]
    for a, b in edges:
        a, b = top(a), top(b)
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    root = top(0)
    children = [[] for _ in range(k)]
    order = [root]
    for node in order:
        kids = children[node] = sorted(adj[node])
        for c in kids:
            adj[c].remove(node)
        order += kids

    post = order[::-1]
    leaves: dict[int, object] = {}
    for node in post:
        try:
            leaf = _leaf(h, bags[node], node, f, table_cap)
        except ResourceError:
            # the merges run first: this leaf raises again when they reach it
            break
        if not leaf:
            return f.restrict(leaf, 0)
        leaves[node] = leaf
    tables: dict[int, object] = {}
    subtree_v: dict[int, int] = {}
    index = None    # the blocking options, built at the first merge
    for node in post:
        bag = bags[node]
        acc = leaves.pop(node, None)
        if acc is None:
            acc = _leaf(h, bag, node, f, table_cap)
        acc_v = bag
        for c in children[node]:
            tbl = f.restrict(tables.pop(c), bag & bags[c])
            missing = bag & ~bags[c]
            if missing:
                tbl = f.add_isolated(tbl, missing)
            acc_v |= subtree_v[c]
            trace = None
            if f.reads_trace:
                if index is None:
                    index = _blocking_index(h)
                trace = _MergeTrace(h, bag, acc_v, node_cap, index)
                trace.take_keys(acc, tbl)
            try:
                acc = f.merge(trace, acc, tbl, bag)
            except ResourceError as exc:
                # only a trace run for an undecided candidate raises
                raise ResourceError(f"trace cap exceeded at bag {node}",
                                    bag=node, **exc.stats) from exc
            _check_table(acc, node, table_cap)
            if not acc:
                return f.restrict(acc, 0)
        subtree_v[node] = acc_v
        tables[node] = acc
    return f.restrict(tables[root], 0)


def _validated(h: Hypergraph, t: TreeDecomposition):
    ok = validate(h, t)
    if not ok:
        raise InputError(f"invalid decomposition: {ok.reason}")


def _leaf(h: Hypergraph, bag: int, node: int, f, table_cap: int):
    """The leaf table of ``node``; ResourceError names the bag when it, or
    the maximal independent sets it is built from, go over ``table_cap``."""
    try:
        table = f.leaf_init(enumerate_mis(h, bag, table_cap), bag)
    except ResourceError as exc:
        raise ResourceError(f"table cap exceeded at bag {node}",
                            bag=node, **exc.stats) from exc
    _check_table(table, node, table_cap)
    return table


def _check_table(table, node: int, table_cap: int):
    if len(table) > table_cap:
        raise ResourceError(f"table cap exceeded at bag {node}",
                            bag=node, size=len(table))


# ---------------------------------------------------------------------------
# Maximum Weighted Independent Set


class MwisDP:
    """Arity-1 tables mapping a trace A to (the best weight outside A,
    witness set): an entry (x, W) is the independent set W with
    W ∩ base = A and weight x + w(A).  The entries of one key are shifted
    by the same w(A), so they compare as their full weights do and keep the
    same witnesses.  ``leaf_init`` stores 0, ``add_isolated`` and ``merge``
    add no weight, ``restrict`` adds w(A - s), and over the empty base the
    weight is the full one."""

    reads_trace = True

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
        # the leaf sets are distinct, so each is its own key, with no
        # weight outside it
        return {j: (0, j) for j in mis}

    def restrict(self, table, s):
        wsum = self.wsum
        out = {}
        for a, (x, wit) in table.items():
            key = a & s
            x += wsum(a ^ key)
            got = out.get(key)
            if got is None or got[0] < x:
                out[key] = (x, wit)
        return out

    def add_isolated(self, table, vs):
        return {a | vs: (x, wit | vs) for a, (x, wit) in table.items()}

    def merge(self, trace, t1, t2, s):
        # the pair (a1, a2) has witness (W1 - S) ∪ (W2 - S) ∪ a, a = a1 & a2,
        # whose weight outside a is x1 + x2: the two parts lie outside S, in
        # disjoint subtrees.  The first best pair in table order keeps its
        # witness, and each distinct a is tested once, after the pairs
        rows2 = [(a2, x2, w2 & ~s) for a2, (x2, w2) in t2.items()]
        best: dict[int, tuple] = {}
        for a1, (x1, w1) in t1.items():
            w1 &= ~s
            for a2, x2, w2 in rows2:
                a = a1 & a2
                x = x1 + x2
                got = best.get(a)
                if got is None or got[0] < x:
                    best[a] = (x, w1 | w2 | a)
        return {a: got for a, got in best.items() if a in trace}


def mwis(h: Hypergraph, t: TreeDecomposition,
         node_cap: int = DEFAULT_NODE_CAP,
         table_cap: int = DEFAULT_TABLE_CAP) -> tuple[Fraction, int]:
    """Max weight of an independent set of H under ``h.weights`` (unit
    weights when None) and a witness set."""
    w = h.weights or [Fraction(1)] * h.n
    # scaling by a positive d keeps every comparison, hence every witness;
    # a negative weight clamps at 0 (see the module docstring)
    d = lcm(*(x.denominator for x in w))
    w2 = [x.numerator * (d // x.denominator) if x >= 0 else 0 for x in w]
    final = run_dp(h, t, MwisDP(w2), node_cap, table_cap)
    if not final:
        return Fraction(0), 0
    val, wit = final[0]
    neg = sum(1 << v for v, x in enumerate(w) if x < 0)
    return Fraction(val, d), wit & ~neg


# ---------------------------------------------------------------------------
# covering-style boolean tables (k-colouring, homomorphism)


class CoverDP:
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

    A tuple is one int, component i shifted by i * |full| bits, so a mask m
    spread over every component is ``m * ones``, two tuples intersect with
    one ``&``, and componentwise domination is one ``p & g == p``.

    When each target vertex lies in exactly one component and each
    component holds one (K_k, any complete multipartite F: its parts are
    its maximal independent sets), the coverage is the union of the
    components: ``fold`` holds the shifts i * |full| for i = 1..arity-1,
    and ``merge`` ORs the tuple shifted by each onto component 0, while
    ``leaf_init`` carries the union as it fixes components.  ``cover``, and
    so any other target (C5, a loop that lies in no component), walks
    ``parts``: per x, the shifts i * |full| of the i in incidence[x].

    The order of i(F) is free: ``hom_decide`` takes a greedy cover of V(F)
    first, so that the walk of ``leaf_init`` cuts from an early level.
    Permuting the components maps each table one-to-one onto the table
    under the other order, since the coverage reads only which components
    hold each target vertex, and ``leaf_init``, ``restrict``,
    ``add_isolated``, ``merge`` and ``_compress`` act componentwise.  So
    every table keeps its size, and the table caps and their ``size``
    fire where they did, with the same answers.
    """

    reads_trace = False

    def __init__(self, arity: int, incidence, full_mask: int):
        self.arity = arity
        self.full = full_mask
        self.shift = full_mask.bit_length()
        self.ones = sum(1 << (i * self.shift) for i in range(arity))
        self.parts = [[i * self.shift for i in idxs] for idxs in incidence]
        # the fold, when it holds (see the class docstring), else None
        once = [idxs[0] for idxs in incidence if len(idxs) == 1]
        self.fold = (tuple(i * self.shift for i in range(1, arity))
                     if len(once) == len(incidence)
                     and set(once) == set(range(arity)) else None)

    def cover(self, p: int, parts=None) -> int:
        """The vertices that can be sent to some target vertex x: the union
        over x of the intersection of the components i in incidence[x].
        ``parts`` (per x, the shifts i * |full| of those components) can
        leave out some x and some of their components, as ``leaf_init``
        does."""
        full = self.full
        out = 0
        for ats in self.parts if parts is None else parts:
            c = full
            for at in ats:
                c &= p >> at
            out |= c
            if out == full:
                break
        return out

    def _compress(self, tuples):
        """The maximal tuples, largest total size first (ties in set order).

        A tuple dominated by another has a smaller total size and so meets
        a kept dominator earlier in the order.
        """
        kept: list[int] = []
        for p in sorted(set(tuples), key=int.bit_count, reverse=True):
            for g in kept:
                if p & g == p:
                    break
            else:
                kept.append(p)
        return kept

    def leaf_init(self, mis, s):
        """Every tuple of mis^arity whose coverage holds s, largest total
        size first.

        Root check: in such a tuple every vertex of s is covered, and a
        target vertex x covers at most max |j & s| of them, being inside a
        component of i(F).  So the table is empty when |s| is above
        |V(F)| times that maximum.  A vertex in no component (incidence [],
        a loop {x} of a rank-1 F) covers all of s, and the check then never
        fires.

        The walk fixes one component per level, and the components not yet
        fixed count as ``full``, so the coverage of a prefix bounds that of
        every completion (intersections only shrink) and a prefix that
        cannot cover s is cut.  Each target vertex adds (the rest of its
        intersection) & component i, and & distributes over |, so with
        component i = j the coverage is lo | (hi & j), where lo and hi are
        the coverages with component i = 0 and = full.  hi is the coverage
        of a prefix already kept (or of the all-full row), so it holds s,
        and j is kept iff it holds s - lo.

        lo is the union, over the x that component i does not hold, of the
        intersection of x's components fixed so far (an x that i holds adds
        nothing, and a component not yet fixed is full): ``cover`` over
        those parts.  Below the first cut level, the largest over x of the
        first component that holds x, some x has no component fixed and is
        not held by i, so lo is full and every j is kept: those levels take
        all of mis without a ``cover`` call, and at the first cut level hi
        is full too.  With the fold each x has one component, so the first
        cut is the last level, and there lo is the union of the components
        fixed before it: the walk carries that union with each prefix, and
        keeps j iff it holds s minus the union.
        """
        if mis and all(self.parts):
            most = max((j & s).bit_count() for j in mis)
            if s.bit_count() > len(self.parts) * most:
                return []
        shift, last = self.shift, self.arity - 1
        if self.fold is not None:
            # (prefix, union of its components) over the levels below the
            # last
            prefixes = [(0, 0)]
            for at in range(0, last * shift, shift):
                prefixes = [(p | j << at, u | j) for p, u in prefixes
                            for j in mis]
            at = last * shift
            rows = [p | j << at for p, u in prefixes for need in (s & ~u,)
                    for j in mis if j & need == need]
        else:
            # a row holds its fixed components, and lo reads only those
            rows = [0]
            for i in range(self.arity):
                at = i * shift
                parts = [[a for a in ats if a < at] for ats in self.parts
                         if at not in ats]
                if [] in parts:     # below the first cut: lo is full
                    rows = [p | j << at for p in rows for j in mis]
                else:
                    rows = [p | j << at for p in rows
                            for need in (s & ~self.cover(p, parts),)
                            for j in mis if j & need == need]
        # the components are maximal independent sets of H[s], so one tuple
        # dominates another only when they are equal: sorting is all that
        # ``_compress`` would do here
        return sorted(rows, key=int.bit_count, reverse=True)

    def restrict(self, table, s):
        spread = s * self.ones
        return self._compress(p & spread for p in table)

    def add_isolated(self, table, vs):
        spread = vs * self.ones
        return [p | spread for p in table]

    def merge(self, trace, t1, t2, s):
        out = []
        fold = self.fold
        if fold is None:
            cover = self.cover
            for d1 in t1:
                for d2 in t2:
                    c = d1 & d2
                    if cover(c) & s == s:
                        out.append(c)
        else:
            # the fold (see the class docstring), inline; the bits it leaves
            # above component 0 lie outside s
            for d1 in t1:
                for d2 in t2:
                    c = u = d1 & d2
                    for at in fold:
                        u |= c >> at
                    if u & s == s:
                        out.append(c)
        return self._compress(out)


def chromatic_decide(h: Hypergraph, k: int, t: TreeDecomposition,
                     table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """True iff H has a colouring with k colours and no monochromatic edge."""
    if k < 1:
        raise InputError("k must be positive")
    # n colours colour every n-vertex H that k > n colours do
    k = min(k, h.n)
    if not k:
        # n = 0: any edge is empty, and every colouring leaves it
        # monochromatic
        _validated(h, t)
        return not h.edges
    final = run_dp(h, t, CoverDP(k, [[i] for i in range(k)], h.vertex_mask),
                   table_cap=table_cap)
    return bool(final)


def hom_decide(h: Hypergraph, f: Hypergraph, t: TreeDecomposition,
               table_cap: int = DEFAULT_TABLE_CAP) -> bool:
    """True iff there is a homomorphism from H to F (both r-uniform)."""
    (low, rank), (low_f, rank_f) = h.edge_sizes(), f.edge_sizes()
    if low != rank or low_f != rank_f:
        raise InputError("hypergraphs must be uniform")
    if h.edges and f.edges and rank != rank_f:
        raise InputError("hypergraphs must be uniform of the same rank")
    if f.n > TARGET_CAP:
        raise ResourceError(f"target cap {TARGET_CAP} exceeded (n={f.n})", n=f.n)
    # the answers that need no DP still need a valid decomposition.  A map
    # sends the empty edge to the empty edge, as in hom_bruteforce, so an
    # empty edge of H needs that of F.  An F with the empty edge has no
    # other (it is uniform) and no independent set for the DP to index by
    if h.n == 0 or f.n == 0 or 0 in f.edges:
        _validated(h, t)
        return (h.n == 0 or f.n > 0) and (not h.edges or 0 in f.edges)
    # i(F) in the order of a greedy cover of V(F), each set the one that
    # holds the most vertices not yet held (the first in sorted order on
    # ties), then the rest: the walk of leaf_init cuts from the level at
    # which every vertex of F has a component (C5: 2, not 3 when sorted)
    target_mis, left = sorted(enumerate_mis(f)), f.vertex_mask
    for i in range(len(target_mis)):
        best = max(target_mis[i:], key=lambda m: (m & left).bit_count())
        target_mis.remove(best)
        target_mis.insert(i, best)
        left &= ~best
    arity = len(target_mis)
    incidence = [[i for i, mi in enumerate(target_mis) if (mi >> x) & 1]
                 for x in range(f.n)]
    final = run_dp(h, t, CoverDP(arity, incidence, h.vertex_mask),
                   table_cap=table_cap)
    return bool(final)
