"""Polynomial blocker-trace computation vs brute force."""

import pytest

from mmtw._bits import bits, mask_of
from mmtw.blocker import (DEFAULT_NODE_CAP, _berge, _Brancher,
                          _compose_masks, _is_minimal_transversal,
                          enumerate_mis, trace_blocker)
from mmtw.errors import ResourceError
from mmtw.generate import (path_graph, random_clutter, random_hypergraph,
                           rng_from_seed)
from mmtw.hypergraph import (Clutter, Hypergraph, _minimal_masks, _remap_mask,
                             removal_remap)
from mmtw.oracles import blocker_bruteforce, compose, minimalize, trace


def brute_trace(h, s):
    return trace(blocker_bruteforce(minimalize(h)).edges, s)


def test_p3_trace_example():
    p3 = path_graph(3)
    res = trace_blocker(p3, mask_of((0, 2)))
    assert res.traces == {0, mask_of((0, 2))}


def test_trace_full_base_is_blocker():
    rng = rng_from_seed(7)
    for _ in range(50):
        c = random_clutter(rng, rng.randrange(1, 9), rng.randrange(0, 6))
        res = trace_blocker(c, c.vertex_mask)
        assert res.traces == set(blocker_bruteforce(c).edges)


def test_trace_matches_bruteforce_random():
    rng = rng_from_seed(8)
    for _ in range(200):
        n = rng.randrange(1, 11)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 3), rank=4)
        s = rng.getrandbits(n)
        assert trace_blocker(h, s).traces == brute_trace(h, s)


def _solve_shaped(rng, n):
    """G(n, 0.2 C(n,2)) or a rank-3 hypergraph with n edges, as in the MWIS
    benchmark pools."""
    if rng.random() < 0.5:
        pairs = [(1 << u) | (1 << v) for u in range(n) for v in range(u + 1, n)]
        return Hypergraph(n, rng.sample(pairs, round(0.2 * len(pairs))))
    return random_hypergraph(rng, n, n, rank=3, min_size=2)


def test_trace_matches_bruteforce_on_closed_neighbourhoods():
    # H restricted to N[S], the edges meeting a bag S, over the same ids
    # (vertices outside N[S] lie in no edge); plus the Berge leaf, where
    # every edge lies inside S, and an S that meets no edge
    rng = rng_from_seed(13)
    for i in range(240):
        n = rng.randrange(7, 15)
        h = _solve_shaped(rng, n)
        s = mask_of(rng.sample(range(n), rng.randrange(3, 8)))
        kind = i % 3
        if kind == 0:
            h = Hypergraph(n, [e for e in h.edges if e & s])
        elif kind == 1:
            h = Hypergraph(n, [e for e in h.edges if not e & ~s])
        else:
            s = h.vertex_mask
            for e in h.edges:
                s &= ~e
        assert trace_blocker(h, s).traces == brute_trace(h, s), (h.edges, s)


def test_berge_leaf_ticks_one_node_per_transversal():
    rng = rng_from_seed(14)
    for _ in range(60):
        c = random_clutter(rng, rng.randrange(1, 9), rng.randrange(1, 6))
        if c.edges[0] == 0:
            continue
        res = trace_blocker(c, c.vertex_mask)
        b = blocker_bruteforce(c).edges
        assert res.nodes_explored == 1 + len(b)
        with pytest.raises(ResourceError):
            trace_blocker(c, c.vertex_mask, len(b))


def _matching(k):
    return Hypergraph(2 * k, [3 << 2 * i for i in range(k)])


def test_berge_leaf_stops_at_the_node_cap():
    # a matching of k edges has 2^k minimal transversals, and its partial
    # families (2^i after i edges) never outgrow the final one, so the
    # leaf fits exactly when the cap leaves one node per transversal
    for k in (1, 4, 9):
        h = _matching(k)
        res = trace_blocker(h, h.vertex_mask, 1 + 2 ** k)
        assert len(res.traces) == 2 ** k
        with pytest.raises(ResourceError):
            trace_blocker(h, h.vertex_mask, 2 ** k)
    # the enumeration stops once a partial family outgrows the nodes left,
    # charged as one past the cap, so a 2^40-member leaf ends at once
    h = _matching(40)
    with pytest.raises(ResourceError) as err:
        trace_blocker(h, h.vertex_mask, 1)
    assert err.value.stats["nodes"] == 2
    with pytest.raises(ResourceError) as err:
        trace_blocker(h, h.vertex_mask, 1000)
    assert err.value.stats["nodes"] == 1001


def test_berge_needs_no_minimal_edges():
    # a family with supersets and repeats, sometimes an empty edge, and
    # sometimes a limit: the same transversals as its minimal edges give
    rng = rng_from_seed(18)
    supersets = 0
    for i in range(500):
        n = rng.randrange(1, 9)
        edges = [rng.getrandbits(n) | rng.getrandbits(n)
                 for _ in range(rng.randrange(0, 9))]
        edges += [e | rng.getrandbits(n) for e in edges[:3]]
        if i % 7 == 0:
            edges.append(0)
        minimal = _minimal_masks(edges)
        supersets += len(set(edges)) > len(minimal)
        limit = rng.randrange(1, 6) if i % 3 == 0 else None
        assert _berge(edges, limit) == _berge(minimal, limit), (edges, limit)
    assert supersets >= 300


def test_trace_empty_base():
    rng = rng_from_seed(9)
    for _ in range(20):
        h = random_hypergraph(rng, rng.randrange(1, 8), rng.randrange(0, 5))
        res = trace_blocker(h, 0)
        # tr_emptyset is {emptyset} unless the blocker itself is empty
        want = {0} if blocker_bruteforce(minimalize(h)).edges else set()
        assert res.traces == want


def test_node_cap_raises():
    rng = rng_from_seed(10)
    h = random_hypergraph(rng, 10, 12, rank=4)
    with pytest.raises(ResourceError):
        trace_blocker(h, h.vertex_mask, 1)


def test_enumerate_mis_complements_blocker():
    rng = rng_from_seed(12)
    stopped = 0
    for _ in range(60):
        c = random_clutter(rng, rng.randrange(1, 9), rng.randrange(0, 6))
        mis = frozenset(enumerate_mis(c))
        b = blocker_bruteforce(c)
        assert mis == frozenset(c.vertex_mask & ~t for t in b.edges)
        # H[within]: the blocker of the edges inside it, complemented there
        within = rng.getrandbits(c.n)
        inside = Clutter(c.n, [e for e in c.edges if not e & ~within])
        got = enumerate_mis(c, within)
        assert len(got) == len(set(got))
        assert frozenset(got) == frozenset(
            within & ~t for t in blocker_bruteforce(inside).edges)
        # a limit below the family size stops Berge's expansion; with no
        # edge inside, there is nothing to expand and the one set is within
        if inside.edges:
            limit = rng.randrange(len(got))
            with pytest.raises(ResourceError) as err:
                enumerate_mis(c, within, limit)
            assert err.value.stats == {"limit": limit}
            stopped += 1
    assert stopped >= 10


def test_semantic_witness_matches_a_subset_search():
    # a minimal transversal T with T & S == a, against every subset of V
    rng = rng_from_seed(16)
    found = refuted = no_private = 0
    for _ in range(400):
        n = rng.randrange(1, 9)
        c = random_clutter(rng, n, rng.randrange(0, 7))
        s = rng.getrandbits(n)
        a = s & rng.getrandbits(n)
        want = [t for t in range(1 << n)
                if t & s == a and _is_minimal_transversal(t, c.edges)]
        got = _Brancher(s, DEFAULT_NODE_CAP)._semantic_witness(a, c.edges)
        if want:
            assert got in want, (c.edges, s, a)
            found += 1
        else:
            assert got is None, (c.edges, s, a)
            refuted += 1
            alone = 0
            for e in c.edges:
                m = e & a
                if m.bit_count() == 1:
                    alone |= m
            no_private += alone != a
    assert found >= 50 and refuted >= 50 and no_private >= 20


def test_counters_reported():
    p3 = path_graph(3)
    res = trace_blocker(p3, mask_of((0, 2)))
    assert res.nodes_explored >= 1


def _compose_masks_two_lists(edges, h, x, z):
    """Reference: the composition as two lists, e - (h - x) for the edges
    avoiding x and e - (h - z) for the edges avoiding z."""
    bx, bz = 1 << x, 1 << z
    merged = [e & ~(h & ~bx) for e in edges if not e & bx]
    merged += [e & ~(h & ~bz) for e in edges if not e & bz]
    return _minimal_masks(merged)


def test_compose_masks_matches_the_two_list_formula():
    rng = rng_from_seed(13)
    checked = 0
    for _ in range(200):
        c = random_clutter(rng, rng.randrange(2, 10), rng.randrange(1, 8))
        for h in c.edges:
            for x in bits(h):
                for z in bits(h & ~(1 << x)):
                    assert _compose_masks(c.edges, h, x, z) == \
                        _compose_masks_two_lists(c.edges, h, x, z)
                    checked += 1
    assert checked > 500


def test_compose_masks_matches_the_clutter_composition():
    # the brancher's composition keeps the ids of the removed edge h; the
    # clutter algebra's drops them, so its answer is read after the remap
    rng = rng_from_seed(17)
    checked = 0
    for _ in range(300):
        c = random_clutter(rng, rng.randrange(2, 10), rng.randrange(1, 8))
        for h in c.edges:
            remap = removal_remap(c.n, h)
            for x in bits(h):
                for z in bits(h & ~(1 << x)):
                    got = sorted(_remap_mask(e, remap)
                                 for e in _compose_masks(c.edges, h, x, z))
                    assert got == sorted(compose(c, h, x, z).edges)
                    checked += 1
    assert checked > 1000
