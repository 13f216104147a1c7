"""Pendant extension and squared line graph, with decomposition pullbacks."""

from mmtw._bits import bits
from mmtw.approx import Refutation
from mmtw.decomposition import single_bag, validate, width
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_cobipartite, random_decomposition,
                           random_graph, rng_from_seed)
from mmtw.hypergraph import Graph
from mmtw.measures import alpha_set, mu_intersecting
from mmtw.reductions import (approximate_mu_tw, line_square,
                             line_square_pullback, pendant_extend,
                             pendant_pullback)


def test_pendant_identity():
    rng = rng_from_seed(40)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7), 0.5)
        x = pendant_extend(g)
        for s in range(1 << g.n):
            assert alpha_set(g, s) == mu_intersecting(x.extended, s)


def test_pendant_pullback_valid():
    rng = rng_from_seed(41)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 8), 0.4)
        x = pendant_extend(g)
        t = random_decomposition(rng, x.extended)
        back = pendant_pullback(x, t)
        assert validate(g, back)


def test_line_square_identity():
    rng = rng_from_seed(42)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7), 0.5)
        x = line_square(g)
        for s in range(1 << g.n):
            assert mu_intersecting(g, s) == alpha_set(x.line, x.lmap(s))


def test_line_square_pullback_valid():
    rng = rng_from_seed(43)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), 0.4)
        x = line_square(g)
        t = random_decomposition(rng, x.line) if x.line.n else single_bag(x.line)
        back, isolated = line_square_pullback(x, t)
        assert validate(g, back)
        for v in bits(isolated):
            assert g.adj[v] == 0


def test_approximate_mu_tw_small():
    rng = rng_from_seed(44)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        out = approximate_mu_tw(g, 2)
        assert not isinstance(out, Refutation)
        assert validate(g, out)
        assert width(g, out, "mu").width <= 33


def test_approximate_mu_tw_families():
    # complete graphs have mu-tw 1; co-bipartite graphs have mu-tw <= 2
    g = complete_graph(12)
    out = approximate_mu_tw(g, 1)
    assert validate(g, out) and width(g, out, "mu").width <= 10
    rng = rng_from_seed(45)
    cb = random_cobipartite(rng, 14)
    out = approximate_mu_tw(cb, 2)
    assert validate(cb, out) and width(cb, out, "mu").width <= 33


def test_pendant_ids():
    g = path_graph(3)
    x = pendant_extend(g)
    assert x.extended.n == 6
    assert x.pendant_of(1) == 4
    assert x.extended.adj[4] == 0b000010


def _pair_rule_l2(g):
    """L^2(G) pair by pair: edges e, f of G are adjacent when they meet or
    an edge of G joins them."""
    es = g.edges
    edge_set = set(es)
    pairs = []
    for i, e in enumerate(es):
        for j in range(i + 1, len(es)):
            f = es[j]
            if e & f or any((1 << u) | (1 << v) in edge_set
                            for u in bits(e) for v in bits(f)):
                pairs.append((i, j))
    return Graph.from_pairs(len(es), pairs)


def test_line_square_matches_pair_rule():
    rng = rng_from_seed(45)
    graphs = []
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.6))
        graphs.append(Graph(g.n + 2, g.edges))  # two isolated vertices
    # more than 61 edges and vertices: masks wider than one hash period
    graphs += [path_graph(70), cycle_graph(80)]
    graphs += [random_graph(rng, n, 2.5 / n) for n in (70, 85, 100)]
    for g in graphs:
        x = line_square(g)
        want = _pair_rule_l2(g)
        assert x.edge_of == g.edges
        assert x.line == want
        assert x.line.adj == want.adj
