"""Hypergraphs, clutters and graphs, and the clutter algebra of
``mmtw.oracles``: blockers, minors, joins, traces."""

import pytest

from mmtw._bits import bits, mask_of
from mmtw.errors import InputError
from mmtw.generate import random_clutter, random_hypergraph, rng_from_seed
from mmtw.hypergraph import Clutter, Graph, Hypergraph, induced, removal_remap
from mmtw.oracles import (blocker_bruteforce, compose, join, meet, minimalize,
                          minor, trace)


def C(n, *edges):
    return Clutter(n, (mask_of(e) for e in edges))


def test_clutter_rejects_nested_edges():
    with pytest.raises(InputError):
        C(3, (0,), (0, 1))


def test_minimalize_idempotent():
    h = Hypergraph(4, [0b0001, 0b0011, 0b1100])
    m = minimalize(h)
    assert m.edges == (0b0001, 0b1100)
    assert minimalize(m) == m


def test_blocker_known_values():
    # b(single edge) = its singletons; b(two disjoint edges) = cross pairs
    assert blocker_bruteforce(C(3, (0, 1, 2))).edges == (1, 2, 4)
    b = blocker_bruteforce(C(4, (0, 1), (2, 3)))
    assert set(b.edges) == {0b0101, 0b1001, 0b0110, 0b1010}


def test_blocker_degenerate_conventions():
    no_edges = Clutter(3, ())
    empty_edge = Clutter(3, (0,))
    assert blocker_bruteforce(no_edges).edges == (0,)
    assert blocker_bruteforce(empty_edge).edges == ()
    # the two conventions together keep b an involution
    assert blocker_bruteforce(blocker_bruteforce(no_edges)) == no_edges
    assert blocker_bruteforce(blocker_bruteforce(empty_edge)) == empty_edge


def test_blocker_involution_random():
    rng = rng_from_seed(2)
    for _ in range(150):
        c = random_clutter(rng, rng.randrange(1, 10), rng.randrange(0, 7))
        assert blocker_bruteforce(blocker_bruteforce(c)) == c


def test_join_meet_duality():
    rng = rng_from_seed(3)
    for _ in range(60):
        n = rng.randrange(1, 8)
        c = random_clutter(rng, n, rng.randrange(1, 5))
        f = random_clutter(rng, n, rng.randrange(1, 5))
        assert blocker_bruteforce(join(c, f)) == meet(blocker_bruteforce(c),
                                                      blocker_bruteforce(f))


def test_minor_commutes_with_order():
    rng = rng_from_seed(4)
    for _ in range(60):
        n = rng.randrange(3, 9)
        c = random_clutter(rng, n, rng.randrange(1, 6))
        u, v = rng.sample(range(n), 2)
        # delete u then contract the shifted v equals the simultaneous minor
        step = minor(minor(c, 1 << u, 0), 0, 1 << (v - (v > u)))
        assert step == minor(c, 1 << u, 1 << v)


def test_blocker_swaps_delete_and_contract():
    rng = rng_from_seed(5)
    for _ in range(60):
        n = rng.randrange(2, 9)
        c = random_clutter(rng, n, rng.randrange(1, 6))
        v = rng.randrange(n)
        assert blocker_bruteforce(minor(c, 1 << v, 0)) == \
            minor(blocker_bruteforce(c), 0, 1 << v)


def test_compose_requires_edge_members():
    c = C(4, (0, 1, 2), (2, 3))
    with pytest.raises(InputError):
        compose(c, mask_of((0, 3)), 0, 3)
    with pytest.raises(InputError):
        compose(c, mask_of((0, 1, 2)), 0, 3)
    out = compose(c, mask_of((0, 1, 2)), 0, 1)
    assert out.n == 1  # three vertices of h removed


def test_trace_and_complement():
    fam = [0b101, 0b011, 0b110]
    t = trace(fam, 0b011)
    assert t == {0b001, 0b011, 0b010}


def test_gaifman_and_induced():
    h = Hypergraph(4, [mask_of((0, 1, 2))])
    g = Graph.from_adj(h.gaifman_adj())
    assert set(g.edges) == {0b011, 0b101, 0b110}
    sub, remap = induced(h, 0b1011)
    assert sub.n == 3 and sub.edges == ()
    assert remap == {0: 0, 1: 1, 3: 2}
    sub2, _ = induced(h, 0b0111)
    assert sub2.edges == (0b111,)


def test_graph_requires_pairs():
    with pytest.raises(InputError):
        Graph(3, [0b111])
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    assert g.gaifman_adj()[1] == 0b101


def test_graph_from_adj_matches_pair_list():
    rng = rng_from_seed(46)
    for _ in range(50):
        n = rng.randrange(1, 71)
        h = random_hypergraph(rng, n, rng.randrange(0, 2 * n), rank=4)
        pairs = {(u, v) for e in h.edges for u in bits(e) for v in bits(e) if u < v}
        g = Graph.from_adj(h.gaifman_adj())
        assert g == Graph.from_pairs(n, pairs)
        assert g.gaifman_adj() == Hypergraph(n, g.edges).gaifman_adj()


def test_hypergraph_sorts_and_dedupes_wide_masks():
    rng = rng_from_seed(47)
    masks = [(1 << rng.randrange(200)) | (1 << rng.randrange(200))
             for _ in range(300)]
    listed = masks + masks
    rng.shuffle(listed)
    assert Hypergraph(200, listed).edges == tuple(sorted(set(masks)))
    assert Hypergraph(3, [5, 5, 5]).edges == (5,)
    with pytest.raises(InputError):
        Hypergraph(200, listed + [1 << 200])
    with pytest.raises(InputError):
        Hypergraph(200, listed + [-3])


def test_incidence_matches_a_scan_of_each_edge():
    rng = rng_from_seed(48)
    for _ in range(60):
        n = rng.randrange(1, 90)   # past bit 61 too
        h = random_hypergraph(rng, n, rng.randrange(0, 2 * n), rank=4)
        # an empty edge, a singleton edge and a vertex, n, in no edge
        h = Hypergraph(n + 1, [*h.edges, 0, 1 << rng.randrange(n)])
        inc = h.incidence()
        assert len(inc) == h.n
        for v in range(h.n):
            assert inc[v] == mask_of(i for i, e in enumerate(h.edges)
                                     if e >> v & 1)
        assert inc[n] == 0 and h.edges_meeting(h.vertex_mask) == \
            mask_of(i for i, e in enumerate(h.edges) if e)
        s = rng.getrandbits(h.n)
        assert h.edges_meeting(s) == mask_of(
            i for i, e in enumerate(h.edges) if e & s)
        assert h.incidence() is inc   # cached


def test_edge_sizes_match_a_scan_of_each_edge():
    rng = rng_from_seed(50)
    for it in range(120):
        n = rng.randrange(0, 12)
        h = random_hypergraph(rng, n, rng.randrange(0, 2 * n + 1),
                              rank=rng.randrange(1, 5),
                              min_size=rng.randrange(0, 2))
        for g in (h, minimalize(h)):   # the clutter sets its sizes itself
            sizes = [e.bit_count() for e in g.edges]
            want = (min(sizes), max(sizes)) if sizes else (0, 0)
            assert g.edge_sizes() == want
            assert g.edge_sizes() is g.edge_sizes()   # cached
    assert Graph.from_pairs(3, [(0, 1), (1, 2)]).edge_sizes() == (2, 2)
    assert Graph(4).edge_sizes() == (0, 0)
    with pytest.raises(InputError):
        Graph(3, [0b001, 0b110])
    with pytest.raises(InputError):
        Graph(3, [0])


def test_removal_remap_numbers_the_kept_ids_in_order():
    rng = rng_from_seed(49)
    for _ in range(40):
        n = rng.randrange(0, 80)
        removed = rng.getrandbits(n + 3)   # ids at and past n are ignored
        kept = [v for v in range(n) if not removed >> v & 1]
        assert removal_remap(n, removed) == {v: i for i, v in enumerate(kept)}
        h = random_hypergraph(rng, n, n) if n else Hypergraph(0)
        s = mask_of(kept)
        assert induced(h, s)[1] == removal_remap(n, removed)
