"""The five well-behaved-measure axioms, checked by sampling, and the bag
measure oracles against references."""

import math

import pytest

from mmtw._bits import bits, mask_of
from mmtw.decomposition import single_bag, width
from mmtw.errors import InputError, ResourceError
from mmtw.generate import (cycle_graph, path_graph, random_graph,
                           random_hypergraph, rng_from_seed)
from mmtw.hypergraph import Graph, Hypergraph, induced
from mmtw.measures import (ALPHA, BAG_MEASURES, MEASURES, MU, RHO,
                           _alpha_search, minor_matching_intersecting)
from mmtw.oracles import mwis_bruteforce, rho_bruteforce


def instances(seed, count):
    rng = rng_from_seed(seed)
    for _ in range(count):
        n = rng.randrange(1, 9)
        if rng.random() < 0.5:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        yield rng, h


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_axiom_unit_singletons(name):
    m = MEASURES[name]
    for rng, h in instances(20, 60):
        for v in range(h.n):
            val = m.value(h, 1 << v)
            if val is not math.inf:
                assert val == 1
            else:
                assert name == "rho"  # uncoverable vertex


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_axiom_subadditive(name):
    m = MEASURES[name]
    for rng, h in instances(21, 60):
        s = rng.getrandbits(h.n)
        t = rng.getrandbits(h.n)
        assert m.value(h, s | t) <= m.value(h, s) + m.value(h, t)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_axiom_additive_across_non_adjacent_parts(name):
    m = MEASURES[name]
    adj_of = lambda h: h.gaifman_adj()
    for rng, h in instances(22, 80):
        adj = adj_of(h)
        s = rng.getrandbits(h.n)
        t = rng.getrandbits(h.n) & ~s
        if any(adj[v] & t for v in bits(s)):
            continue
        assert m.value(h, s | t) == m.value(h, s) + m.value(h, t)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_axiom_monotone(name):
    m = MEASURES[name]
    for rng, h in instances(23, 80):
        s = rng.getrandbits(h.n)
        t = s & rng.getrandbits(h.n)
        assert m.value(h, t) <= m.value(h, s)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_axiom_decide_consistent_with_value(name):
    m = MEASURES[name]
    for rng, h in instances(24, 80):
        s = rng.getrandbits(h.n)
        val = m.value(h, s)
        for k in range(-1, h.n + 2):
            assert m.decide(h, s, k) == (val <= k)


def test_every_oracle_rejects_an_unknown_vertex():
    # S = {1, 3} on P3 (a graph) and on a rank-3 hypergraph over 3
    # vertices: vertex 3 is unknown
    for h in (path_graph(3), Hypergraph(3, [0b111])):
        for m in BAG_MEASURES.values():
            with pytest.raises(InputError):
                m.value(h, 0b1010)
            with pytest.raises(InputError):
                m.decide(h, 0b1010, 1)


def test_rho_exact_beyond_64_edges():
    h = Hypergraph(70, [1 << i for i in range(70)])
    v = h.vertex_mask
    assert RHO.value(h, v) == 70
    assert width(h, single_bag(h), "rho").width == 70
    assert not RHO.decide(h, v, 69)
    assert RHO.decide(h, v, 70)


def test_rho_uncoverable_is_math_inf():
    h = Hypergraph(3, [0b011])
    assert RHO.value(h, 0b100) is math.inf
    assert RHO.value(h, 0b011) == 1


def test_rho_of_the_empty_set_when_every_edge_is_empty():
    # the largest edge has size 0; the empty set is covered by no edge
    h = Hypergraph(3, [0])
    assert RHO.value(h, 0) == 0
    assert RHO.decide(h, 0, 0)
    assert RHO.value(h, 0b001) is math.inf
    assert not RHO.decide(h, 0b001, 3)


@pytest.mark.parametrize("name", list(BAG_MEASURES))
def test_bag_measure_decide_consistent_with_value(name):
    m = BAG_MEASURES[name]
    for rng, h in instances(27, 60):
        s = rng.getrandbits(h.n)
        val = m.value(h, s)
        for k in range(-1, h.n + 2):
            assert m.decide(h, s, k) == (val <= k)


@pytest.mark.parametrize("m", [ALPHA, MU], ids=["alpha", "mu"])
def test_decide_stops_at_k_plus_1(m, monkeypatch):
    # on P1200 with S = V, an answer of 2 is found in 2 steps, well under
    # the cap; the exact search climbs one step per vertex (or edge) of its
    # first set and reaches the cap first
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 5)
    p = path_graph(1200)
    assert not m.decide(p, p.vertex_mask, 1)
    with pytest.raises(ResourceError) as info:
        m.value(p, p.vertex_mask)
    assert info.value.stats["best"] == 5


def test_alpha_matches_unit_weight_mwis():
    rng = rng_from_seed(28)
    for _ in range(120):
        n = rng.randrange(1, 10)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 3))
        s = rng.getrandbits(n)
        g, _ = induced(Graph.from_adj(h.gaifman_adj()), s)
        want = mwis_bruteforce(g, [1] * g.n)[0]
        assert ALPHA.value(h, s) == want
        assert ALPHA.decide(h, s, want) and not ALPHA.decide(h, s, want - 1)


def test_minor_matching_cap_reports_best(monkeypatch):
    # the exact value is 2; a cap hit after the search has seen it says so
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 60)
    h = Hypergraph(6, [0b000111, 0b111000, 0b011110])
    with pytest.raises(ResourceError) as info:
        minor_matching_intersecting(h, 0b111111)
    assert info.value.stats["best"] == 2


def test_alpha_and_induced_matching_closed_forms():
    for n in range(3, 201):
        p, c = path_graph(n), cycle_graph(n)
        assert ALPHA.value(p, p.vertex_mask) == (n + 1) // 2
        assert ALPHA.value(c, c.vertex_mask) == n // 2
        assert MU.value(p, p.vertex_mask) == (n + 1) // 3
        assert MU.value(c, c.vertex_mask) == n // 3


def _conflict_graph(g, s):
    """Edges of g meeting s; two conflict when they share a vertex or an
    edge of g joins them (written from the definition, pair by pair)."""
    edges = [set(bits(e)) for e in g.edges if e & s]
    pairs = []
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            f = edges[j]
            if e & f or any((1 << u | 1 << v) in g.edges for u in e for v in f):
                pairs.append((i, j))
    return Graph.from_pairs(len(edges), pairs)


def test_alpha_and_mu_oracles_match_bruteforce_on_graphs():
    rng = rng_from_seed(29)
    for _ in range(150):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.uniform(0.15, 0.6))
        s = rng.getrandbits(n)
        sub, _ = induced(g, s)
        alpha = mwis_bruteforce(sub, [1] * sub.n, cap=sub.n)[0]
        assert ALPHA.value(g, s) == alpha
        conflict = _conflict_graph(g, s)
        mu = mwis_bruteforce(conflict, [1] * conflict.n, cap=conflict.n)[0]
        assert MU.value(g, s) == mu
        for k in range(-1, n + 1):
            assert ALPHA.decide(g, s, k) == (alpha <= k)
            assert MU.decide(g, s, k) == (mu <= k)


def test_oracles_on_a_long_path():
    # the search keeps its own stack, so depth in n raises no RecursionError
    p = path_graph(1200)
    assert ALPHA.value(p, p.vertex_mask) == 600
    assert MU.value(p, p.vertex_mask) == 400
    assert MU.decide(p, p.vertex_mask, 400)
    assert not MU.decide(p, p.vertex_mask, 399)


def test_mu_cap_on_graphs_reports_best(monkeypatch):
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 3)
    c = cycle_graph(30)
    with pytest.raises(ResourceError) as info:
        MU.value(c, c.vertex_mask)
    assert str(info.value) == "alpha oracle cap exceeded"
    assert info.value.stats["best"] == 3


def _mu_instances(seed, count):
    """Sparse random graphs on up to 80 vertices (past bit 61) with a
    random S each."""
    rng = rng_from_seed(seed)
    for _ in range(count):
        n = rng.randrange(2, 81)
        g = random_graph(rng, n, rng.uniform(1.0, 4.0) / n)
        yield g, rng.getrandbits(n)


def _outcome(f, *args):
    """f(*args), or the message and stats of the ResourceError it raises."""
    try:
        return f(*args)
    except ResourceError as exc:
        return ("cap", str(exc), exc.stats)


def _restricted_conflicts(g, s):
    """(conflicts, universe): universe the mask of the positions of the
    edges of G that meet S, and conflicts[i], for each position i in it, the
    conflict mask of edge i restricted to the universe."""
    conflicts, universe = g.conflicts(), g.edges_meeting(s)
    return {i: conflicts[i] & universe for i in bits(universe)}, universe


def _mu_reference(g, s, k=None):
    """The search over the conflict masks restricted to the edges meeting
    S, one dict entry per such edge."""
    conflicts, universe = _restricted_conflicts(g, s)
    return _alpha_search(conflicts, universe, k)


def test_mu_on_graphs_reads_the_whole_graph_masks_as_the_restricted_ones():
    small = 0
    for g, s in _mu_instances(32, 200):
        value = _mu_reference(g, s)
        assert MU.value(g, s) == value
        for k in range(4):
            assert MU.decide(g, s, k) == (_mu_reference(g, s, k) <= k)
        if g.n <= 9:
            assert minor_matching_intersecting(g, s) == value
            small += 1
    assert small >= 5


def test_mu_on_graphs_hits_the_oracle_cap_where_the_restricted_search_does(
        monkeypatch):
    # the unrestricted masks take the same steps, so a cap fires at the
    # same inputs and reports the same best
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 3)
    seen = {"value": [0, 0], "decide": [0, 0]}
    for g, s in _mu_instances(32, 200):
        got = _outcome(MU.value, g, s)
        assert got == _outcome(_mu_reference, g, s)
        seen["value"][isinstance(got, tuple)] += 1
        for k in range(4):
            got = _outcome(MU.decide, g, s, k)
            assert got == _outcome(lambda: _mu_reference(g, s, k) <= k)
            seen["decide"][isinstance(got, tuple)] += 1
    # both outcomes, answered and capped, are reached by both oracles
    assert all(count >= 20 for pair in seen.values() for count in pair)


def test_rho_matches_bruteforce_and_closed_forms():
    rng = rng_from_seed(41)
    for _ in range(150):
        n = rng.randrange(1, 13)
        if rng.random() < 0.5:
            h = random_graph(rng, n, rng.uniform(0.15, 0.6))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3))
        s = rng.getrandbits(n)
        want = rho_bruteforce(h, s)
        assert RHO.value(h, s) == want
        for k in range(-1, n + 1):
            assert RHO.decide(h, s, k) == (want <= k)
    # the packing bound keeps long paths and cycles fast, and the search
    # keeps its own stack, so depth in n raises no RecursionError
    for n in [*range(3, 41), 60, 100, 150, 200, 1200]:
        p, c = path_graph(n), cycle_graph(n)
        assert RHO.value(p, p.vertex_mask) == (n + 1) // 2
        assert RHO.value(c, c.vertex_mask) == (n + 1) // 2


def test_edge_conflicts_match_the_pairwise_rule():
    rng = rng_from_seed(30)
    checked = 0
    for _ in range(100):
        n = rng.randrange(2, 80)   # past bit 61 too
        g = random_graph(rng, n, rng.uniform(1.0, 4.0) / n)
        s = rng.getrandbits(n)
        if s == g.vertex_mask:
            continue
        conflicts, universe = _restricted_conflicts(g, s)
        edge_set = set(g.edges)
        meeting = [i for i, e in enumerate(g.edges) if e & s]
        assert universe == mask_of(meeting)
        assert sorted(conflicts) == meeting
        for i in meeting:
            e = g.edges[i]
            want = mask_of(
                j for j in meeting if j != i and (
                    g.edges[j] & e or any(
                        (1 << u | 1 << v) in edge_set
                        for u in bits(e) for v in bits(g.edges[j]))))
            assert conflicts[i] == want
            checked += 1
    assert checked > 1000


class _CountingEdges(tuple):
    """A tuple (of edges or adjacency masks) that counts the passes made
    over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_edge_conflicts_on_small_bags_read_the_edge_list_once_per_index():
    # the bags {i, i+1} of a path: the edges meeting a bag come from the
    # graph's cached indexes, not from a scan of every edge per call
    g = path_graph(300)
    g.edges = _CountingEdges(g.edges)
    universes = [_restricted_conflicts(g, 3 << i)[1] for i in range(299)]
    assert g.edges.passes <= 2
    assert universes == [mask_of(range(max(0, i - 1), min(299, i + 2)))
                         for i in range(299)]


def test_rho_on_small_bags_never_walks_the_gaifman_adjacency():
    # the packing bound reads the neighbourhoods of its picks by index, not
    # from a per-vertex list built on each call
    g = path_graph(300)
    g._gaifman_adj = _CountingEdges(g.gaifman_adj())
    values = [RHO.value(g, 3 << i) for i in range(299)]
    assert g._gaifman_adj.passes == 0
    assert values == [1] * 299


def test_mu_on_small_bags_reads_the_edge_list_once_per_index():
    # whether H is a graph comes from its cached edge sizes, not from a scan
    # of every edge per call
    g = path_graph(300)
    g.edges = _CountingEdges(g.edges)
    values = [MU.value(g, 3 << i) for i in range(299)]
    assert g.edges.passes <= 2
    assert values == [1] * 299
