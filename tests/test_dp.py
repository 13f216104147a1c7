"""DP solvers over tree decompositions vs exhaustive oracles."""

from fractions import Fraction
from itertools import product

import pytest

import mmtw.dp
from mmtw._bits import bits, mask_of
from mmtw.blocker import DEFAULT_NODE_CAP, enumerate_mis, trace_blocker
from mmtw.decomposition import TreeDecomposition, single_bag, validate
from mmtw.dp import (DEFAULT_TABLE_CAP, CoverDP, MwisDP, _blocking_index,
                     _MergeTrace, chromatic_decide, hom_decide, mwis, run_dp)
from mmtw.errors import InputError, ResourceError
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_cobipartite, random_decomposition,
                           random_graph, random_hypergraph, random_weights,
                           rng_from_seed)
from mmtw.hypergraph import Graph, Hypergraph, _remap_mask, induced
from mmtw.oracles import (chromatic_bruteforce, hom_bruteforce, independent_in,
                          mwis_bruteforce)


def wsum(w, mask):
    return sum((Fraction(w[v]) for v in bits(mask)), Fraction(0))


def weighted(h, w):
    """H carrying the vertex weights ``w``, which ``mwis`` reads."""
    return type(h)(h.n, h.edges, w)


def test_mwis_examples():
    p3 = path_graph(3)
    t = TreeDecomposition([0b011, 0b110], [(0, 1)])
    assert mwis(p3, t) == (2, mask_of((0, 2)))
    k5 = complete_graph(5)
    assert mwis(weighted(k5, [1, 2, 3, 4, 5]), single_bag(k5)) == (5, 1 << 4)
    assert mwis(weighted(p3, [-1, -2, -3]), t) == (0, 0)


def test_single_bag_equals_direct():
    rng = rng_from_seed(50)
    for _ in range(30):
        n = rng.randrange(1, 9)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 2))
        w = random_weights(rng, n, lo=0)
        best = max((wsum(w, j) for j in enumerate_mis(h)), default=Fraction(0))
        assert mwis(weighted(h, w), single_bag(h))[0] == best


def test_mwis_random_vs_oracle():
    rng = rng_from_seed(51)
    for it in range(100):
        n = rng.randrange(2, 11)
        if it % 2:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
        w = random_weights(rng, n)
        t = random_decomposition(rng, h)
        val, wit = mwis(weighted(h, w), t)
        assert val == mwis_bruteforce(h, w)[0]
        assert independent_in(h, wit)
        assert wsum(w, wit) == val


def test_mwis_matches_a_search_of_every_subset(monkeypatch):
    # a reference that shares no code with the DP: the best of all 2^n
    # subsets of V that hold no edge.  The weights are signed and the
    # negative vertices lie inside edges; the DP clamps them at 0 on H
    # itself, so every leaf and merged table has the keys it has under unit
    # weights
    keys = []
    for name in ("leaf_init", "merge"):
        def spy(*args, original=getattr(MwisDP, name)):
            out = original(*args)
            keys.append(frozenset(out))
            return out

        monkeypatch.setattr(MwisDP, name, spy)
    rng = rng_from_seed(58)
    signed = 0
    for it in range(200):
        n = rng.randrange(1, 13)
        if it % 2:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
        w = random_weights(rng, n)
        t = random_decomposition(rng, h)
        signed += any(w[v] < 0 for e in h.edges for v in bits(e))
        weight = [Fraction(0)] * (1 << n)
        for sub in range(1, 1 << n):
            low = sub & -sub
            weight[sub] = weight[sub ^ low] + w[low.bit_length() - 1]
        best = max(weight[sub] for sub in range(1 << n)
                   if all(e & ~sub for e in h.edges))
        keys.clear()
        val, wit = mwis(weighted(h, w), t)
        assert val == best
        assert all(e & ~wit for e in h.edges) and weight[wit] == val
        signed_keys = list(keys)
        keys.clear()
        mwis(h, t)
        assert signed_keys == keys
    assert signed > 100


def test_chromatic_examples():
    k3 = complete_graph(3)
    assert chromatic_decide(k3, 3, single_bag(k3))
    assert not chromatic_decide(k3, 2, single_bag(k3))
    tri = Hypergraph(3, [0b111])
    assert chromatic_decide(tri, 2, single_bag(tri))
    c5 = cycle_graph(5)
    assert not chromatic_decide(c5, 2, single_bag(c5))
    assert chromatic_decide(c5, 3, single_bag(c5))
    with pytest.raises(InputError):
        chromatic_decide(k3, 0, single_bag(k3))


def test_chromatic_random_vs_oracle():
    rng = rng_from_seed(52)
    for it in range(80):
        n = rng.randrange(2, 11)
        if it % 2:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
        t = random_decomposition(rng, h)
        k = rng.randrange(1, 5)
        assert chromatic_decide(h, k, t) == chromatic_bruteforce(h, k)


def test_chromatic_far_more_colours_than_vertices():
    # a colouring of n vertices uses at most n colours, so k = 10**6 answers
    # as k = n does, without tables over 10**6 components
    rng = rng_from_seed(53)
    cases = [path_graph(3), cycle_graph(5), complete_graph(4),
             Hypergraph(3, [0b001, 0b110]), Hypergraph(2, [0, 0b11])]
    cases += [random_hypergraph(rng, 6, 5, rank=3) for _ in range(4)]
    for h in cases:
        t = random_decomposition(rng, h)
        assert chromatic_decide(h, 10**6, t) == chromatic_bruteforce(h, 10**6)


def test_chromatic_without_vertices():
    # the answers need no DP, but the decomposition is still validated
    empty, empty_edge = Hypergraph(0, []), Hypergraph(0, [0])
    assert chromatic_decide(empty, 3, single_bag(empty))
    assert not chromatic_decide(empty_edge, 3, single_bag(empty_edge))
    assert chromatic_bruteforce(empty, 3)
    assert not chromatic_bruteforce(empty_edge, 3)
    with pytest.raises(InputError):
        chromatic_decide(empty, 3, TreeDecomposition([0, 1], [(0, 1)]))


def test_hom_without_vertices_matches_the_oracle():
    # an H with no vertices maps to every F, unless it has the empty edge:
    # a map sends it to the empty edge, which F must then have
    empty, empty_edge = Hypergraph(0, []), Hypergraph(0, [0])
    targets = (Hypergraph(2, [0]), Hypergraph(2, []), Hypergraph(0, []))
    assert [hom_decide(empty_edge, f, single_bag(empty_edge))
            for f in targets] == [True, False, False]
    for h in (empty, empty_edge):
        for f in targets:
            assert hom_decide(h, f, single_bag(h)) == hom_bruteforce(h, f)


def test_hom_examples():
    p3, k2, c5 = path_graph(3), complete_graph(2), cycle_graph(5)
    assert hom_decide(p3, k2, single_bag(p3))
    assert not hom_decide(c5, k2, single_bag(c5))
    with pytest.raises(InputError):
        hom_decide(Hypergraph(3, [0b111]), k2, single_bag(Hypergraph(3, [0b111])))
    with pytest.raises(ResourceError):
        hom_decide(p3, complete_graph(11), single_bag(p3))


def test_hom_random_vs_oracle():
    rng = rng_from_seed(53)
    for name, f in (("K2", complete_graph(2)), ("K3", complete_graph(3)),
                    ("C5", cycle_graph(5))):
        for _ in range(30):
            n = rng.randrange(2, 11)
            h = random_graph(rng, n, rng.uniform(0.15, 0.6))
            t = random_decomposition(rng, h)
            assert hom_decide(h, f, t) == hom_bruteforce(h, f), name


def test_hom_k3_matches_chromatic():
    rng = rng_from_seed(54)
    k3 = complete_graph(3)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 9), 0.5)
        t = random_decomposition(rng, g)
        assert hom_decide(g, k3, t) == chromatic_decide(g, 3, t)


def test_decomposition_invariance():
    rng = rng_from_seed(55)
    for it in range(30):
        n = rng.randrange(2, 9)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 2)) if it % 2 \
            else random_graph(rng, n, 0.4)
        w = random_weights(rng, n)
        t1 = random_decomposition(rng, h)
        t2 = random_decomposition(rng, h)
        hw = weighted(h, w)
        assert mwis(hw, t1)[0] == mwis(hw, t2)[0]
        k = rng.randrange(1, 4)
        assert chromatic_decide(h, k, t1) == chromatic_decide(h, k, t2)


def test_run_dp_rejects_invalid_decomposition():
    p3 = path_graph(3)
    bad = TreeDecomposition([0b001, 0b110], [(0, 1)])
    with pytest.raises(InputError):
        mwis(p3, bad)


def test_table_cap():
    rng = rng_from_seed(56)
    h = random_graph(rng, 9, 0.3)
    t = random_decomposition(rng, h)
    with pytest.raises(ResourceError):
        chromatic_decide(h, 4, t, table_cap=0)


# the DP runs on the maximal bags: a bag inside a neighbour's bag is
# contracted into it after validation


def maximal_bags(t):
    """The nodes of T whose bags lie inside no other bag, the lowest id of
    each set of equal ones."""
    return [i for i, b in enumerate(t.bags)
            if all(b & ~c or b == c and i < j
                   for j, c in enumerate(t.bags) if j != i)]


def _with_nested_bags(rng, t):
    """T with nested bags added, numbered at random: chains of leaves, each
    bag a random part of the one it hangs from, and nodes put on a tree
    edge that hold the two ends' shared vertices and part of one end.  A
    third of the parts are the whole bag, so exact copies of a bag hang
    from it and sit on its tree edges."""
    bags, tree = list(t.bags), list(t.tree_edges)

    def part(bag):
        return bag if rng.random() < 1 / 3 else \
            bag & rng.getrandbits(bag.bit_length())

    for _ in range(rng.randrange(1, 5)):
        if tree and rng.random() < 0.4:
            a, b = tree.pop(rng.randrange(len(tree)))
            if rng.random() < 0.5:
                a, b = b, a
            bags.append(bags[a] & bags[b] | part(bags[a]))
            tree += [(a, len(bags) - 1), (len(bags) - 1, b)]
        else:
            at = rng.randrange(len(bags))
            for _ in range(rng.randrange(1, 4)):
                bags.append(part(bags[at]))
                tree.append((at, len(bags) - 1))
                at = len(bags) - 1
    perm = list(range(len(bags)))
    rng.shuffle(perm)
    renumbered = [0] * len(bags)
    for i, bag in enumerate(bags):
        renumbered[perm[i]] = bag
    return TreeDecomposition(renumbered,
                             [(perm[a], perm[b]) for a, b in tree])


def test_nested_bags_match_the_oracles(monkeypatch):
    # each solve builds one leaf per maximal bag, under the lowest input id
    # that holds it, and answers as the brute-force oracles do
    built = []
    leaf = mmtw.dp._leaf

    def spy(h, bag, node, f, table_cap):
        built.append(node)
        assert bag == t.bags[node]
        return leaf(h, bag, node, f, table_cap)

    monkeypatch.setattr(mmtw.dp, "_leaf", spy)
    rng = rng_from_seed(72)
    contracted = zero = copies = 0
    targets = (complete_graph(2), complete_graph(3), cycle_graph(5))
    for it in range(300):
        n = rng.randrange(1, 10)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 3), rank=3) \
            if it % 2 else random_graph(rng, n, rng.uniform(0.2, 0.6))
        t = _with_nested_bags(rng, random_decomposition(rng, h))
        assert validate(h, t)
        top = maximal_bags(t)
        contracted += t.node_count - len(top)
        zero += 0 not in top
        # maximal bags held by more than one node: all but the lowest id go
        copies += sum(t.bags.count(t.bags[i]) - 1 for i in top)
        w = random_weights(rng, n)
        built.clear()
        val, wit = mwis(weighted(h, w), t)
        assert val == mwis_bruteforce(h, w)[0]
        assert independent_in(h, wit) and wsum(w, wit) == val
        assert sorted(built) == top
        k = rng.randrange(1, 4)
        built.clear()
        assert chromatic_decide(h, k, t) == chromatic_bruteforce(h, k)
        assert len(set(built)) == len(built) and set(built) <= set(top)
        if not it % 2:
            f = targets[it // 2 % 3]
            built.clear()
            assert hom_decide(h, f, t) == hom_bruteforce(h, f)
            assert len(set(built)) == len(built) and set(built) <= set(top)
    assert contracted >= 800 and zero >= 100 and copies >= 200, \
        (contracted, zero, copies)


def test_nothing_contracts_on_a_path(monkeypatch):
    # P_n with bags {i, i+1}: one leaf per bag, in post-order from the far
    # end, and one merge per tree edge
    built = count_calls(monkeypatch, mmtw.dp, "_leaf")
    merged = count_calls(monkeypatch, MwisDP, "merge")
    n = 60
    t = TreeDecomposition([0b11 << i for i in range(n - 1)],
                          [(i, i + 1) for i in range(n - 2)])
    assert mwis(path_graph(n), t)[0] == n // 2
    assert [args[2] for args in built] == list(range(n - 2, -1, -1))
    assert len(merged) == n - 2


# framework property checks, on the concrete instances


def _leaf_table(h, dp, s):
    sub_mis = [m for m in enumerate_mis(h) if True]
    return dp.leaf_init(sub_mis, s)


def _colouring_table(h, k, full):
    """A k-colouring CoverDP over the ambient mask ``full``, and its leaf
    table on the vertices that some independent set of H holds (a vertex
    of a singleton edge takes no colour)."""
    dp = CoverDP(k, [[i] for i in range(k)], full)
    mis = enumerate_mis(h)
    live = 0
    for m in mis:
        live |= m
    return dp, dp.leaf_init(mis, live)


def decode(dp, table):
    """A CoverDP table as tuples: component i of a packed tuple sits at bit
    i * |full|."""
    shift = dp.full.bit_length()
    return [tuple(p >> (i * shift) & dp.full for i in range(dp.arity))
            for p in table]


def encode(dp, tuples):
    shift = dp.full.bit_length()
    return [sum(a << (i * shift) for i, a in enumerate(t)) for t in tuples]


def test_restrict_composes():
    rng = rng_from_seed(57)
    covered = 0
    for it in range(30):
        n = rng.randrange(2, 9)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        w = random_weights(rng, n, lo=0)
        dp = MwisDP(w)
        full = h.vertex_mask
        s1 = rng.getrandbits(n) & full
        s2 = s1 & rng.getrandbits(n)
        tab = _leaf_table(h, dp, full)
        a = dp.restrict(dp.restrict(tab, s1), s2)
        b = dp.restrict(tab, s2)
        assert {k: v[0] for k, v in a.items()} == {k: v[0] for k, v in b.items()}
        cdp, tab = _colouring_table(h, it % 3 + 1, full)
        a = cdp.restrict(cdp.restrict(tab, s1), s2)
        b = cdp.restrict(tab, s2)
        assert set(decode(cdp, a)) == set(decode(cdp, b))
        assert set(decode(cdp, b)) == maximal_reference(
            tuple(x & s2 for x in t) for t in decode(cdp, tab))
        covered += bool(tab)
    assert covered >= 20


def test_restrict_adds_isolated_vertices_in_the_same_pass():
    rng = rng_from_seed(58)
    covered = 0
    for it in range(30):
        n = rng.randrange(2, 8)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        w = random_weights(rng, n + 1, lo=0)
        dp = MwisDP(w)
        full = h.vertex_mask
        s1 = rng.getrandbits(n) & full
        bv = 1 << n  # a fresh vertex, outside the table's base
        tab = _leaf_table(h, dp, full)
        plain = dp.restrict(tab, s1)
        assert dp.restrict(tab, s1, bv) == {
            a | bv: (x, wit | bv) for a, (x, wit) in plain.items()}
        assert dp.restrict(tab, s1, 0) == plain
        # the colouring table's ambient set holds the fresh vertex too
        cdp, tab = _colouring_table(h, it % 3 + 1, full | bv)
        plain = cdp.restrict(tab, s1)
        padded = decode(cdp, cdp.restrict(tab, s1, bv))
        assert len(padded) == len(plain)
        assert set(padded) == {tuple(x | bv for x in t)
                               for t in decode(cdp, plain)}
        assert cdp.restrict(tab, s1, 0) == plain
        covered += bool(tab)
    assert covered >= 20


def test_merge_associative_in_value():
    # three leaves over the same base set; merge order must not matter
    rng = rng_from_seed(59)
    for _ in range(25):
        n = rng.randrange(2, 7)
        h1 = random_hypergraph(rng, n, rng.randrange(1, n + 1))
        h2 = random_hypergraph(rng, n, rng.randrange(1, n + 1))
        h3 = random_hypergraph(rng, n, rng.randrange(1, n + 1))
        w = random_weights(rng, n, lo=0)
        dp = MwisDP(w)
        full = (1 << n) - 1
        tabs = [_leaf_table(h, dp, full) for h in (h1, h2, h3)]
        union = Hypergraph(n, h1.edges + h2.edges + h3.edges)
        tr = frozenset(enumerate_mis(union))
        tr12 = frozenset(enumerate_mis(Hypergraph(n, h1.edges + h2.edges)))
        tr23 = frozenset(enumerate_mis(Hypergraph(n, h2.edges + h3.edges)))
        left = dp.merge(tr, dp.merge(tr12, tabs[0], tabs[1], full), tabs[2], full)
        right = dp.merge(tr, tabs[0], dp.merge(tr23, tabs[1], tabs[2], full), full)
        lv = {k: v[0] for k, v in left.items()}
        rv = {k: v[0] for k, v in right.items()}
        assert lv == rv


# only a solver that reads the blocker trace pays for it


def test_cover_solvers_never_compute_the_trace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("blocker trace computed for a covering DP")

    monkeypatch.setattr(mmtw.dp, "trace_blocker", refuse)
    rng = rng_from_seed(60)
    k3 = complete_graph(3)
    merges = 0
    for it in range(40):
        n = rng.randrange(3, 10)
        if it % 2:
            h = random_graph(rng, n, rng.uniform(0.2, 0.6))
            t = random_decomposition(rng, h)
            assert hom_decide(h, k3, t) == hom_bruteforce(h, k3)
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
            t = random_decomposition(rng, h)
            k = rng.randrange(1, 4)
            assert chromatic_decide(h, k, t) == chromatic_bruteforce(h, k)
        merges += t.node_count - 1
    assert merges > 0


def undecided(monkeypatch):
    """Leave every candidate to the trace, table keys included: the
    fallback runs at each merge."""
    monkeypatch.setattr(mmtw.dp._MergeTrace, "take_keys",
                        lambda self, *tables: None)
    monkeypatch.setattr(mmtw.dp._MergeTrace, "_settle", lambda self, a: None)


def test_mwis_still_computes_the_trace(monkeypatch):
    undecided(monkeypatch)
    calls = []
    original = mmtw.dp.trace_blocker

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmtw.dp, "trace_blocker", counting)
    p3 = path_graph(3)
    t = TreeDecomposition([0b011, 0b110], [(0, 1)])
    assert mwis(p3, t) == (2, mask_of((0, 2)))
    assert len(calls) == 1


# a merge settles each candidate trace with a short proof, and runs the
# blocker trace only for a candidate left undecided


def test_settled_verdicts_are_membership_in_the_trace():
    # every independent a ⊆ S, for S ⊆ V: a verdict, when given, is
    # membership in tr_S(i(H[V])), and ``in`` answers membership always
    rng = rng_from_seed(70)
    settled = left = 0
    for _ in range(3000):
        n = rng.randrange(1, 11)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 4),
                              rank=rng.randrange(1, 5))
        v = ((rng.getrandbits(n) | rng.getrandbits(n))
             & (rng.getrandbits(n) | rng.getrandbits(n)))
        s = v & rng.getrandbits(n)
        members = frozenset(m & s for m in
                            enumerate_mis(h, v, DEFAULT_TABLE_CAP))
        test = _MergeTrace(h, s, v, DEFAULT_NODE_CAP, _blocking_index(h))
        a = s
        while True:
            if all(e & ~a for e in h.edges):
                got = test._settle(a)
                if got is None:
                    left += 1
                else:
                    settled += 1
                    assert got == (a in members)
                assert (a in test) == (a in members)
            if not a:
                break
            a = (a - 1) & s
    assert settled > 8000 and left == 0


def counting_traces(monkeypatch):
    calls = []
    original = mmtw.dp.trace_blocker

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmtw.dp, "trace_blocker", counting)
    return calls


def test_a_merge_whose_candidates_all_settle_runs_no_trace(monkeypatch):
    calls = counting_traces(monkeypatch)
    p3 = path_graph(3)
    t = TreeDecomposition([0b011, 0b110], [(0, 1)])
    assert mwis(p3, t) == (2, mask_of((0, 2)))
    assert calls == []


def test_a_bag_whose_merges_all_settle_builds_no_copy(monkeypatch):
    # the merges settle on H[V] itself: no N[S] scan and no copy of H[N[S]]
    calls = []

    def spy_on(name):
        original = getattr(mmtw.dp, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(mmtw.dp, name, spy)

    spy_on("induced")
    spy_on("_closed_neighbourhood")
    p3 = path_graph(3)
    t = TreeDecomposition([0b011, 0b110], [(0, 1)])
    assert mwis(p3, t) == (2, mask_of((0, 2)))
    assert calls == []


def searchless(monkeypatch):
    """Hand every candidate the short proofs leave to the trace."""
    monkeypatch.setattr(mmtw.dp._MergeTrace, "_search",
                        lambda self, a, rest: None)


# S = {1, 2, 3} and a = {}: the greedy blocks 1 with 4, and 2 is then left
# with 0, which 4 blocks; no v ∈ S lacks a blocking edge, so neither short
# proof applies.  The search refutes a, since 4 is the only way to block 1:
# the traces are {1}, {1, 2}, {1, 3}, {2}
UNDECIDED_PAIRS = [(0, 2), (0, 3), (2, 3), (0, 4), (1, 4), (3, 4)]
UNDECIDED = Graph.from_pairs(5, UNDECIDED_PAIRS)


def test_an_undecided_candidate_runs_the_trace_once(monkeypatch):
    s, full = 0b01110, 0b11111
    index = _blocking_index(UNDECIDED)
    assert _MergeTrace(UNDECIDED, s, full, DEFAULT_NODE_CAP,
                       index)._settle(0) is False
    searchless(monkeypatch)
    assert _MergeTrace(UNDECIDED, s, full, DEFAULT_NODE_CAP,
                       index)._settle(0) is None
    # the same merge in a solve: the isolated vertex 5 keeps the bag S + 5
    # out of the child bag of all five vertices, so the two do not contract,
    # and the candidate {5} is UNDECIDED's {}
    h = Graph.from_pairs(6, UNDECIDED_PAIRS)
    calls = counting_traces(monkeypatch)
    t = TreeDecomposition([s | 1 << 5, full], [(0, 1)])
    w = [1, 2, 1, 1, 1, 1]
    assert mwis(weighted(h, w), t)[0] == mwis_bruteforce(h, w)[0]
    assert len(calls) == 1


# S = {0, 1, 3, 4} and a = {0}: the greedy blocks 1 with {2} and 3 with {5},
# and 4's only option {8} then completes the edge {2, 8}.  The search goes back
# to 1, blocks it with {7}, and then blocks 3 with {5} and 4 with {8}
BACKTRACK = Hypergraph(9, [mask_of(e) for e in ((1, 2), (1, 7), (2, 8),
                                                (3, 5), (4, 8), (6, 8))])


def test_the_search_backtracks_past_the_greedy(monkeypatch):
    calls = counting_traces(monkeypatch)
    s, a = 0b11011, 0b1
    assert a in frozenset(m & s for m in enumerate_mis(BACKTRACK))
    test = _MergeTrace(BACKTRACK, s, BACKTRACK.vertex_mask, DEFAULT_NODE_CAP,
                       _blocking_index(BACKTRACK))
    assert test._settle(a) is True
    assert a in test
    assert calls == []


def test_a_search_that_spends_its_budget_hands_over_to_the_trace(
        monkeypatch):
    # S = {0..5, 6}: each i < 6 is blocked by 7 + i or 13 + i, and 6 only by
    # 19, which shares an edge with 7 and one with 13, so {} is no member.
    # The search learns this only at 6, after trying the 2^6 choices below
    # it: 126 placements, past the budget of 7 × 13 options
    pairs = [(i, 7 + i) for i in range(6)] + [(i, 13 + i) for i in range(6)]
    h = Graph.from_pairs(20, pairs + [(6, 19), (7, 19), (13, 19)])
    s = 0b1111111
    test = _MergeTrace(h, s, h.vertex_mask, DEFAULT_NODE_CAP,
                       _blocking_index(h))
    assert test._search(0, s) is None
    calls = counting_traces(monkeypatch)
    assert 0 not in test
    assert 0 not in frozenset(m & s for m in enumerate_mis(h))
    assert len(calls) == 1


# the keys of a merge's two tables settle as members, without a proof each


def _with_padded_leaves(rng, h, t):
    """H and T with one to three leaf bags added, each a random part of the
    bag it hangs from, which its table is padded to at the merge, plus a new
    vertex, so that it lies inside no bag.  The new vertex joins edges
    inside its leaf bag."""
    n, edges = h.n, list(h.edges)
    bags, tree = list(t.bags), list(t.tree_edges)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(bags))
        bag = bags[at] & rng.getrandbits(max(bags[at].bit_length(), 1))
        for _ in range(rng.randrange(0, 3)):
            edges.append(1 << n | bag & rng.getrandbits(n))
        bags.append(bag | 1 << n)
        tree.append((at, len(bags) - 1))
        n += 1
    return Hypergraph(n, edges), TreeDecomposition(bags, tree)


def test_table_keys_that_are_candidates_are_members(monkeypatch):
    # every candidate a1 & a2 of every MWIS merge, against tr_S(i(H[V])) by
    # enumeration: the keys taken as members before the merge asks anything
    # must be members
    merge = MwisDP.merge
    seen = {"acc": 0, "child": 0}

    def spy(self, trace, t1, t2, s):
        members = frozenset(m & s for m in enumerate_mis(
            trace.h, trace.vmask, DEFAULT_TABLE_CAP))
        taken = dict(trace.verdicts)
        for a1 in t1:
            for a2 in t2:
                a = a1 & a2
                seen["acc"] += a in t1
                seen["child"] += a in t2
                assert taken.get(a, a in members) == (a in members)
                assert (a in trace) == (a in members)
        return merge(self, trace, t1, t2, s)

    monkeypatch.setattr(MwisDP, "merge", spy)
    rng = rng_from_seed(71)
    for _ in range(3000):
        n = rng.randrange(1, 12)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 4),
                              rank=rng.randrange(1, 5))
        t = random_decomposition(rng, h)
        if rng.random() < 0.5:
            h, t = _with_padded_leaves(rng, h, t)
        w = random_weights(rng, h.n)
        val, wit = mwis(weighted(h, w), t)
        assert val == mwis_bruteforce(h, w)[0]
        assert independent_in(h, wit) and wsum(w, wit) == val
    assert seen["acc"] > 10000 and seen["child"] > 7000


def test_a_padded_key_that_is_not_independent_is_never_asked(monkeypatch):
    # H has the singleton edge {1} and the edge {0, 2}.  The child bag
    # {0, 2} misses 1 of the root bag {0, 1}, so its padded keys are {0, 1}
    # and {1}, which hold the edge {1} and are no members; they are taken
    # as members all the same, and only the candidates {0} and {} are asked
    h = Hypergraph(3, [0b010, 0b101])
    t = TreeDecomposition([0b011, 0b101], [(0, 1)])
    merge = MwisDP.merge
    asked = []

    def spy(self, trace, t1, t2, s):
        assert set(t2) == {0b011, 0b010}
        assert trace.verdicts[0b010] is trace.verdicts[0b011] is True
        members = frozenset(m & s for m in enumerate_mis(h))
        assert members == {0b001, 0}
        asked.extend(a1 & a2 for a1 in t1 for a2 in t2)
        return merge(self, trace, t1, t2, s)

    monkeypatch.setattr(MwisDP, "merge", spy)
    w = [1, 5, 2]
    assert mwis(weighted(h, w), t) == mwis_bruteforce(h, w) == (2, 0b100)
    assert set(asked) == {0b001, 0}


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_the_blocking_index_is_built_once_per_solve(monkeypatch):
    # P_200 with bags {i, i+1}: 199 merges, one index.  Each merge's
    # candidates are {i} and {i+1}, keys of the bag's own table, and {},
    # the one candidate settled by a proof
    built = count_calls(monkeypatch, mmtw.dp, "_blocking_index")
    settled = count_calls(monkeypatch, mmtw.dp._MergeTrace, "_settle")
    n = 200
    p = path_graph(n)
    t = TreeDecomposition([0b11 << i for i in range(n - 1)],
                          [(i, i + 1) for i in range(n - 2)])
    for _ in range(2):
        assert mwis(p, t)[0] == n // 2
    assert len(built) == 2
    assert len(settled) == 2 * (n - 2)


def test_a_merge_whose_candidates_are_all_keys_settles_nothing(monkeypatch):
    # P_3 and the isolated vertex 3, rooted at the bag {1, 3}, whose
    # children are {0, 1} and {1, 2}; no bag lies inside another.  The root's
    # one key is {1, 3}, so each candidate is a padded key of a child,
    # {1, 3} or {3}
    settled = count_calls(monkeypatch, mmtw.dp._MergeTrace, "_settle")
    h = Graph.from_pairs(4, [(0, 1), (1, 2)])
    t = TreeDecomposition([0b1010, 0b0011, 0b0110], [(0, 1), (0, 2)])
    assert t.node_count == 3
    assert mwis(h, t) == (3, 0b1101)
    assert mwis(weighted(h, [1, 3, 1, 1]), t) == (4, 0b1010)
    assert settled == []


# the rewritten kernels against plain reference formulations


def maximal_reference(tuples):
    """Tuples not componentwise below another one of the family."""
    fam = set(tuples)

    def below(t, g):
        return all(a & b == a for a, b in zip(t, g))

    return {t for t in fam if not any(g != t and below(t, g) for g in fam)}


def test_compress_keeps_exactly_the_maximal_tuples():
    rng = rng_from_seed(61)
    for _ in range(300):
        arity = rng.randrange(1, 5)
        n = rng.randrange(1, 9)
        family = [tuple(rng.getrandbits(n) for _ in range(arity))
                  for _ in range(rng.randrange(0, 40))]
        family += [tuple(a & rng.getrandbits(n) for a in t)
                   for t in family[:10]]
        dp = CoverDP(arity, (), (1 << n) - 1)
        out = decode(dp, dp._compress(encode(dp, family)))
        assert len(out) == len(set(out))
        assert set(out) == maximal_reference(family)
        sizes = [sum(a.bit_count() for a in t) for t in out]
        assert sizes == sorted(sizes, reverse=True)
        for t in out:
            for g in out:
                assert t == g or not all(a & b == a for a, b in zip(t, g))


def test_cover_leaf_table_is_already_compressed(monkeypatch):
    seen = []
    leaf_init = CoverDP.leaf_init

    def spy(self, mis, s):
        table = leaf_init(self, mis, s)
        seen.append((self, table))
        return table

    monkeypatch.setattr(CoverDP, "leaf_init", spy)
    rng = rng_from_seed(62)
    for _ in range(30):
        h = random_graph(rng, rng.randrange(2, 10), rng.uniform(0.15, 0.6))
        t = random_decomposition(rng, h)
        chromatic_decide(h, rng.randrange(1, 4), t)
        hom_decide(h, rng.choice((complete_graph(3), cycle_graph(5))), t)
    assert {dp.arity for dp, _ in seen} >= {1, 2, 3, 5}
    for dp, packed in seen:
        table = decode(dp, packed)
        assert len(table) == len(set(table))
        assert set(table) == set(decode(dp, dp._compress(packed)))
        sizes = [sum(a.bit_count() for a in t) for t in table]
        assert sizes == sorted(sizes, reverse=True)


def test_cover_leaf_init_matches_the_filtered_product():
    # the leaf table is every tuple of mis^arity whose coverage holds the
    # bag: some target vertex x takes v when v lies in each component i
    # with x in M_i (colouring at k: x = i, incidence [[0], ..., [k-1]])
    targets = [[[i] for i in range(k)] for k in (1, 2, 3)]
    for f in (complete_graph(3), cycle_graph(5)):
        fmis = sorted(enumerate_mis(f))
        targets.append([[i for i, m in enumerate(fmis) if m >> x & 1]
                        for x in range(f.n)])
    rng = rng_from_seed(64)
    nonempty = 0
    for it in range(100):
        incidence = targets[it % len(targets)]
        arity = max(max(i) for i in incidence) + 1
        n = rng.randrange(2, 9 if arity < 5 else 7)
        h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        s = h.vertex_mask & ~(rng.getrandbits(n) & rng.getrandbits(n))
        mis = enumerate_mis(h, s)
        want = {tup for tup in product(mis, repeat=arity)
                if all(any(all(tup[i] >> v & 1 for i in idxs)
                           for idxs in incidence) for v in bits(s))}
        dp = CoverDP(arity, incidence, h.vertex_mask)
        got = decode(dp, dp.leaf_init(mis, s))
        assert len(got) == len(set(got))
        assert set(got) == want
        nonempty += bool(want)
        sizes = [sum(a.bit_count() for a in t) for t in got]
        assert sizes == sorted(sizes, reverse=True)
    assert nonempty >= 50


def test_leaf_sets_come_from_enumerate_mis(monkeypatch):
    calls = []
    original = mmtw.dp.enumerate_mis

    def spy(h, within=None, limit=None):
        calls.append(within)
        return original(h, within, limit)

    monkeypatch.setattr(mmtw.dp, "enumerate_mis", spy)
    n = 8
    p = path_graph(n)
    t = TreeDecomposition([0b11 << i for i in range(n - 1)],
                          [(i, i + 1) for i in range(n - 2)])
    assert mwis(p, t)[0] == 4
    assert sorted(calls) == sorted(t.bags)
    calls.clear()
    assert chromatic_decide(p, 2, t)
    assert sorted(calls) == sorted(t.bags)


def test_run_dp_stops_at_the_first_empty_leaf(monkeypatch):
    calls = []
    original = mmtw.dp.enumerate_mis

    def spy(h, within=None, limit=None):
        calls.append(within)
        return original(h, within, limit)

    monkeypatch.setattr(mmtw.dp, "enumerate_mis", spy)
    # a triangle 012 with the path 2-3-4, on a path of bags whose last node,
    # processed first, holds the triangle
    h = Graph.from_pairs(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    t = TreeDecomposition([0b11000, 0b01100, 0b00111], [(0, 1), (1, 2)])
    assert not chromatic_decide(h, 2, t)
    assert calls == [0b00111]
    calls.clear()
    assert chromatic_decide(h, 3, t)
    assert sorted(calls) == sorted(t.bags)
    # an empty edge lies in every bag, so the first leaf is empty
    e = Hypergraph(3, [0, 0b011])
    te = TreeDecomposition([0b011, 0b110], [(0, 1)])
    calls.clear()
    assert mwis(weighted(e, [1, 2, 3]), te) == (Fraction(0), 0)
    assert calls == [0b110]


def test_run_dp_visits_nothing_after_an_empty_table(monkeypatch):
    # the first empty leaf or merged table is the last table computed, and
    # the answers still match the oracle
    made = []
    leaf_init, merge = CoverDP.leaf_init, CoverDP.merge

    def leaf_spy(self, mis, s):
        made.append(leaf_init(self, mis, s))
        return made[-1]

    def merge_spy(self, trace, t1, t2, s):
        made.append(merge(self, trace, t1, t2, s))
        return made[-1]

    monkeypatch.setattr(CoverDP, "leaf_init", leaf_spy)
    monkeypatch.setattr(CoverDP, "merge", merge_spy)
    rng = rng_from_seed(66)
    early = 0
    for _ in range(60):
        h = random_graph(rng, rng.randrange(3, 10), rng.uniform(0.2, 0.6))
        t = random_decomposition(rng, h)
        k = rng.randrange(1, 4)
        made.clear()
        assert chromatic_decide(h, k, t) == chromatic_bruteforce(h, k)
        assert all(made[:-1])
        early += not made[-1] and len(made) < 2 * t.node_count - 1
    assert early >= 10


def test_root_check_refutes_the_cobipartite_bag(monkeypatch):
    # 40 vertices in two cliques: three colours cover at most 3 * 2 of them,
    # so the leaf is refuted before any coverage is computed
    def refuse(self, p):
        raise AssertionError("cover called")

    monkeypatch.setattr(CoverDP, "cover", refuse)
    g = random_cobipartite(rng_from_seed(40), 40, 0.3)
    assert not chromatic_decide(g, 3, single_bag(g))


class CountingList(list):
    """A list that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


def test_root_check_reads_the_leaf_sets_once():
    # the walk reads no coverage for a fold target, so the cover spy above
    # cannot see it; the leaf sets are read once, by the root check, and no
    # walk over them follows
    g = random_cobipartite(rng_from_seed(40), 40, 0.3)
    mis = CountingList(enumerate_mis(g))
    dp = CoverDP(3, [[0], [1], [2]], g.vertex_mask)
    assert dp.leaf_init(mis, g.vertex_mask) == [] and mis.loops == 1
    # a bag the root check lets through is walked
    mis = CountingList(enumerate_mis(g, 0b111))
    assert dp.leaf_init(mis, 0b111) and mis.loops > 1

def test_root_check_lets_a_loop_of_the_target_cover_everything():
    # a rank-1 F with the loop {0}: vertex 0 lies in no independent set of
    # F, so its incidence is empty and it takes every vertex of H
    for h, f in ((Hypergraph(3, [0b001, 0b010, 0b100]), Hypergraph(1, [1])),
                 (Hypergraph(4, [0b0001, 0b0010]), Hypergraph(2, [0b01])),
                 (Hypergraph(4, [0b0001, 0b0010]), Hypergraph(2, [0b10]))):
        t = single_bag(h)
        assert hom_decide(h, f, t) == hom_bruteforce(h, f) is True


def complete_multipartite(*parts):
    """The complete multipartite graph with parts of the given sizes,
    numbered part by part."""
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return Graph.from_pairs(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if side[u] != side[v]])


def target_incidence(f):
    """hom_decide's incidence of F: per vertex x, the positions of the
    sorted maximal independent sets of F that hold x."""
    fmis = sorted(enumerate_mis(f))
    return [[i for i, m in enumerate(fmis) if m >> x & 1] for x in range(f.n)]


# every vertex of these lies in exactly one maximal independent set
FOLD_TARGETS = [complete_graph(k) for k in (1, 2, 3, 4)] + [
    complete_multipartite(*parts)
    for parts in ((1, 2), (2, 2), (1, 1, 2), (2, 3), (1, 2, 2))]


def test_the_fold_matches_the_incidence_loop():
    rng = rng_from_seed(67)
    for f in FOLD_TARGETS:
        incidence = target_incidence(f)
        arity = len(enumerate_mis(f))
        for n in (1, 4, 9):
            fold = CoverDP(arity, incidence, (1 << n) - 1)
            loop = CoverDP(arity, incidence, (1 << n) - 1)
            loop.fold = None
            assert fold.fold is not None
            width = arity * fold.shift

            def tuples(count):
                return [rng.getrandbits(width) | rng.getrandbits(width)
                        for _ in range(count)]

            # the coverage is the union of the components, which the fold
            # reads in merge and leaf_init
            for p in tuples(300):
                union = 0
                for i in range(arity):
                    union |= p >> (i * fold.shift)
                assert fold.cover(p) == union & fold.full
            for _ in range(30):
                t1, t2 = tuples(rng.randrange(6)), tuples(rng.randrange(6))
                s = rng.getrandbits(n)
                assert fold.merge(None, t1, t2, s) == loop.merge(None, t1,
                                                                 t2, s)
            for _ in range(10):
                g = random_graph(rng, n, rng.uniform(0.2, 0.7))
                s = rng.getrandbits(n)
                mis = enumerate_mis(g, s)
                assert sorted(fold.leaf_init(mis, s)) == \
                    sorted(loop.leaf_init(mis, s))


def test_the_fold_is_chosen_when_each_target_vertex_is_in_one_component(
        monkeypatch):
    made = []
    leaf_init = CoverDP.leaf_init

    def spy(self, mis, s):
        made.append(self)
        return leaf_init(self, mis, s)

    monkeypatch.setattr(CoverDP, "leaf_init", spy)
    edge = complete_graph(2)
    for f, folds in [(f, True) for f in FOLD_TARGETS[1:]] + [
            (cycle_graph(5), False), (path_graph(4), False)]:
        made.clear()
        hom_decide(edge, f, single_bag(edge))
        assert (made[0].fold is not None) is folds
        assert folds is all(len(i) == 1 for i in target_incidence(f))
    # a rank-1 target with a loop: vertex 0 lies in no component
    loop = Hypergraph(2, [0b01])
    made.clear()
    hom_decide(Hypergraph(2, [0b01]), loop, single_bag(loop))
    assert made[0].fold is None
    for k in (1, 2, 3):
        made.clear()
        chromatic_decide(edge, k, single_bag(edge))
        assert made[0].fold is not None


def test_hom_to_a_fold_target_matches_brute_force():
    rng = rng_from_seed(68)
    yes = 0
    for it in range(90):
        f = FOLD_TARGETS[it % len(FOLD_TARGETS)]
        h = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.7))
        t = random_decomposition(rng, h)
        want = hom_bruteforce(h, f)
        assert hom_decide(h, f, t) == want
        yes += want
    assert 20 <= yes <= 70, yes


def covering_tuples(mis, arity, incidence, s):
    """The definition of a leaf table: every tuple of mis^arity whose
    coverage holds s, where a target vertex x takes v when v lies in each
    component i with x in M_i (in every one when x lies in none)."""
    return {tup for tup in product(mis, repeat=arity)
            if all(any(all(tup[i] >> v & 1 for i in idxs)
                       for idxs in incidence) for v in bits(s))}


def test_leaf_init_is_every_tuple_whose_coverage_holds_the_bag():
    # targets whose coverage is first cut at the last level (K_k, complete
    # multipartite), at a middle one (C5) or never (a loop in no
    # component), each under the sorted i(F) and under shuffled ones
    targets = [complete_graph(k) for k in (1, 2, 3, 4)] + [
        complete_multipartite(1, 2), complete_multipartite(2, 1, 2),
        cycle_graph(5), Hypergraph(2, [0b01])]
    rng = rng_from_seed(70)
    nonempty = cut = 0
    for it in range(192):
        f = targets[it % len(targets)]
        fmis = sorted(enumerate_mis(f))
        if it // len(targets) % 2:
            rng.shuffle(fmis)
        incidence = [[i for i, m in enumerate(fmis) if m >> x & 1]
                     for x in range(f.n)]
        arity = len(fmis)
        n = rng.randrange(2, 9 if arity < 4 else 7)
        h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        s = h.vertex_mask & ~(rng.getrandbits(n) & rng.getrandbits(n))
        mis = enumerate_mis(h, s)
        want = covering_tuples(mis, arity, incidence, s)
        dp = CoverDP(arity, incidence, h.vertex_mask)
        got = decode(dp, dp.leaf_init(mis, s))
        assert len(got) == len(set(got)) and set(got) == want
        sizes = [sum(a.bit_count() for a in t) for t in got]
        assert sizes == sorted(sizes, reverse=True)
        nonempty += bool(want)
        cut += 0 < len(want) < len(mis) ** arity
    assert nonempty >= 100 and cut >= 50, (nonempty, cut)


LOOSE_C4 = Hypergraph(8, [mask_of(e) for e in ((0, 1, 2), (2, 3, 4),
                                                 (4, 5, 6), (6, 7, 0))])


@pytest.mark.parametrize("name", ["C5", "C4", "K3", "loose-C4"])
def test_hom_matches_brute_force_whatever_the_order_of_i_f(name):
    # hom_decide picks its own order of i(F); the answer is the oracle's
    f = {"C5": cycle_graph(5), "C4": cycle_graph(4), "K3": complete_graph(3),
         "loose-C4": LOOSE_C4}[name]
    rng = rng_from_seed(71)
    answers = []
    for _ in range(40):
        n = rng.randrange(3, 9)
        if name == "loose-C4":
            h = random_hypergraph(rng, n, rng.randrange(1, 2 * n - 4),
                                  rank=3, min_size=3)
        else:
            h = random_graph(rng, n, rng.uniform(0.15, 0.6))
        t = random_decomposition(rng, h)
        want = hom_bruteforce(h, f)
        assert hom_decide(h, f, t) == want
        answers.append(want)
    assert 5 <= sum(answers) <= 35, sum(answers)


def test_every_leaf_is_built_before_the_first_merge(monkeypatch):
    # a refuting leaf after a merge in post-order is found before any merge
    events = []
    leaf_init, merge = CoverDP.leaf_init, CoverDP.merge

    def leaf_spy(self, mis, s):
        table = leaf_init(self, mis, s)
        events.append(bool(table))
        return table

    def merge_spy(self, trace, t1, t2, s):
        events.append("merge")
        return merge(self, trace, t1, t2, s)

    monkeypatch.setattr(CoverDP, "leaf_init", leaf_spy)
    monkeypatch.setattr(CoverDP, "merge", merge_spy)
    rng = rng_from_seed(69)
    merged = skipped = 0
    for _ in range(80):
        h = random_graph(rng, rng.randrange(3, 10), rng.uniform(0.2, 0.6))
        t = random_decomposition(rng, h)
        k = rng.randrange(1, 4)
        events.clear()
        assert chromatic_decide(h, k, t) == chromatic_bruteforce(h, k)
        leaves = events[:events.index("merge")] if "merge" in events \
            else events
        assert "merge" not in leaves
        assert events[len(leaves):] == ["merge"] * (len(events) - len(leaves))
        if all(leaves):
            assert len(leaves) == len(maximal_bags(t))
            merged += len(leaves) > 1
        else:
            # only the last leaf built is empty, and nothing follows it
            assert events == leaves and leaves.index(False) == len(leaves) - 1
            skipped += 1 < len(leaves)
    assert merged >= 10 and skipped >= 10, (merged, skipped)


def merge_reference(w, trace, t1, t2, s):
    """MwisDP.merge as three weight sums per pair of entries."""
    out = {}
    for a1, (v1, w1) in t1.items():
        for a2, (v2, w2) in t2.items():
            a = a1 & a2
            if a not in trace:
                continue
            val = v1 + v2 - wsum(w, a1) - wsum(w, a2) + wsum(w, a)
            if a not in out or out[a][0] < val:
                out[a] = (val, (w1 & ~s) | (w2 & ~s) | a)
    return out


def with_key_weight(w, table):
    """An MwisDP table with the weight of each key added to its entry."""
    return {a: (x + wsum(w, a), wit) for a, (x, wit) in table.items()}


def test_mwis_merge_matches_per_pair_formula():
    rng = rng_from_seed(62)
    for it in range(150):
        n = rng.randrange(2, 10)
        full = (1 << n) - 1
        # two parts V1, V2 meeting in S; every edge lies inside one part
        side = [rng.randrange(3) for _ in range(n)]
        v1 = mask_of(v for v in range(n) if side[v] != 1)
        v2 = mask_of(v for v in range(n) if side[v] != 2)
        s = v1 & v2
        edges = []
        for _ in range(rng.randrange(0, n + 3)):
            part = v1 if rng.random() < 0.5 else v2
            e = part & rng.getrandbits(n)
            if e.bit_count() >= 2:
                edges.append(e)
        h = Hypergraph(n, edges)
        w = random_weights(rng, n, lo=0)
        dp = MwisDP(w)
        tabs = []
        for part in (v1, v2):
            mis = sorted(enumerate_mis(h, part, DEFAULT_TABLE_CAP))
            tabs.append(dp.restrict(dp.leaf_init(mis, part), s))
        if it % 3 == 0:
            trace = frozenset(a1 & a2 for a1 in tabs[0] for a2 in tabs[1]
                              if rng.random() < 0.6)
        else:
            trace = _MergeTrace(h, s, full, DEFAULT_NODE_CAP,
                                _blocking_index(h))
        # a table stores the weight outside its key: the reference reads
        # full weights, so w(a) is added to both sides
        got = with_key_weight(w, dp.merge(trace, tabs[0], tabs[1], s))
        want = merge_reference(w, trace, *(with_key_weight(w, tab)
                                           for tab in tabs), s)
        assert {a: v for a, (v, _) in got.items()} == \
            {a: v for a, (v, _) in want.items()}
        for a, (val, wit) in got.items():
            assert wit & s == a
            assert independent_in(h, wit)
            assert wsum(w, wit) == val


# traces are taken on the bag's closed neighbourhood


def test_local_trace_equals_trace_of_the_whole_set():
    # tr_S(i(H[V])) = tr_S(i(H[N_V[S]])): vertices of V at distance >= 2
    # from S change no trace, so the trace of a copy of H[N_V[S]] is that
    # of H[V]
    rng = rng_from_seed(63)
    far_cases = 0
    for _ in range(600):
        n = rng.randrange(1, 12)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 4),
                              rank=rng.randrange(2, 5))
        v = rng.getrandbits(n) | rng.getrandbits(n)
        s = v & rng.getrandbits(n)
        near = s
        for e in h.edges:
            if e & s and not e & ~v:
                near |= e
        if v & ~near:
            far_cases += 1
        want = frozenset(m & s for m in enumerate_mis(h, v, DEFAULT_TABLE_CAP))
        sub, remap = induced(h, near)
        local = _remap_mask(s, remap)
        got = trace_blocker(sub, local).traces
        assert frozenset(_remap_mask(local & ~a, list(remap))
                         for a in got) == want
    assert far_cases >= 200


def test_mwis_traces_only_the_closed_neighbourhood(monkeypatch):
    undecided(monkeypatch)
    calls = []
    original = mmtw.dp.trace_blocker

    def spy(sub, s, *args, **kwargs):
        calls.append(sub.n)
        return original(sub, s, *args, **kwargs)

    monkeypatch.setattr(mmtw.dp, "trace_blocker", spy)
    n = 30
    p = path_graph(n)
    t = TreeDecomposition([0b11 << i for i in range(n - 1)],
                          [(i, i + 1) for i in range(n - 2)])
    adj = p.gaifman_adj()
    bound = max((b | mask_of(u for v in bits(b) for u in bits(adj[v])))
                .bit_count() for b in t.bags)
    assert bound == 4
    val, wit = mwis(p, t)
    assert val == n // 2 and independent_in(p, wit)
    assert len(calls) == t.node_count - 1
    assert max(calls) <= bound


def _star_of_pods(rng, n_root, pods, pod_size):
    """A graph on a root set R and ``pods`` pods outside it, each joined to
    R alone, and the decomposition whose root bag R has one child bag per
    pod (the pod and its neighbours in R).  No pod meets R's vertex 0, so
    no bag lies inside another."""
    n = n_root + pods * pod_size
    root = (1 << n_root) - 1
    edges = [(1 << u) | (1 << v) for u in range(n_root)
             for v in range(u + 1, n_root) if rng.random() < 0.4]
    bags = [root]
    for i in range(pods):
        pod = ((1 << pod_size) - 1) << (n_root + i * pod_size)
        bag = pod
        for u in bits(pod):
            for v in bits(pod | root & ~1):
                if v != u and rng.random() < 0.4:
                    edges.append((1 << u) | (1 << v))
                    bag |= 1 << v
        bags.append(bag)
    t = TreeDecomposition(bags, [(0, i) for i in range(1, pods + 1)])
    return Graph(n, edges), t


def test_each_traced_merge_copies_its_own_closed_neighbourhood(monkeypatch):
    # the root's merges run in increasing child order, so merge i traces in
    # V_i = R ∪ pod 1 ∪ ... ∪ pod i and copies N_{V_i}[R], which grows with i
    undecided(monkeypatch)
    copies = []
    original_induced = mmtw.dp.induced
    original_trace = mmtw.dp._MergeTrace._trace

    def induced_spy(h, mask):
        copies.append(mask)
        return original_induced(h, mask)

    def trace_spy(test):
        got = original_trace(test)
        assert got == frozenset(m & test.smask
                                for m in enumerate_mis(test.h, test.vmask))
        return got

    monkeypatch.setattr(mmtw.dp, "induced", induced_spy)
    monkeypatch.setattr(mmtw.dp._MergeTrace, "_trace", trace_spy)
    rng = rng_from_seed(69)
    grew = 0
    for _ in range(20):
        h, t = _star_of_pods(rng, 6, rng.randrange(3, 6), 2)
        root = t.bags[0]
        want, v = [], root
        for bag in t.bags[1:]:
            v |= bag
            near = root
            for e in h.edges:
                if e & root and not e & ~v:
                    near |= e
            want.append(near)
        w = random_weights(rng, h.n, lo=0)
        copies.clear()
        assert mwis(weighted(h, w), t)[0] == mwis_bruteforce(h, w)[0]
        assert copies == want
        grew += len(set(want)) > 1
    assert grew >= 10


# fractional weights: the DP runs on integers scaled by a common denominator


FRACTIONS = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(0),
             Fraction(-1, 3)]


def test_mwis_fractional_weights_vs_oracle():
    rng = rng_from_seed(64)
    for it in range(120):
        n = rng.randrange(1, 11)
        if it % 2:
            h = random_graph(rng, n, rng.uniform(0.2, 0.6))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
        w = [rng.choice(FRACTIONS) for _ in range(n)]
        t = random_decomposition(rng, h)
        val, wit = mwis(weighted(h, w), t)
        assert isinstance(val, Fraction)
        assert val == mwis_bruteforce(h, w)[0]
        assert independent_in(h, wit)
        assert wsum(w, wit) == val
