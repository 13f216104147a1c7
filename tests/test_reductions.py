"""Pendant extension and squared line graph, with decomposition pullbacks."""

from mmtw._bits import bits, mask_of
from mmtw.decomposition import (TreeDecomposition, single_bag, validate,
                                width)
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_cobipartite, random_decomposition,
                           random_graph, rng_from_seed)
from mmtw.hypergraph import Graph
from mmtw.measures import ALPHA, MU
from mmtw.oracles import pendant_pullback
from mmtw.reductions import (approximate_mu_tw, line_square,
                             line_square_pullback, pendant_extend)


def test_pendant_identity():
    rng = rng_from_seed(40)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7), 0.5)
        m = pendant_extend(g)
        for s in range(1 << g.n):
            assert ALPHA.value(g, s) == MU.value(m, s)


def test_pendant_pullback_valid():
    rng = rng_from_seed(41)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 8), 0.4)
        t = random_decomposition(rng, pendant_extend(g))
        back = pendant_pullback(g, t)
        assert validate(g, back)


def test_line_square_identity():
    rng = rng_from_seed(42)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7), 0.5)
        x = line_square(g)
        for s in range(1 << g.n):
            assert MU.value(g, s) == ALPHA.value(x.line, g.edges_meeting(s))


def test_line_square_pullback_valid():
    rng = rng_from_seed(43)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), 0.4)
        x = line_square(g)
        t = random_decomposition(rng, x.line) if x.line.n else single_bag(x.line)
        back = line_square_pullback(x, t)
        assert validate(g, back)
        for v in range(g.n):
            if g.gaifman_adj()[v] == 0:
                assert (back.bags[0] >> v) & 1


def test_approximate_mu_tw_small():
    rng = rng_from_seed(44)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        out = approximate_mu_tw(g, 2)
        assert out is not None
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
    m = pendant_extend(g)
    assert m.n == 6
    # the pendant of v is v + n, joined to v alone
    assert [m.gaifman_adj()[v + 3] for v in range(3)] == [1, 2, 4]


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
        assert x.line == want
        assert x.line.gaifman_adj() == want.gaifman_adj()


def _old_lmap(x, s):
    """L(S) by a scan of every edge of G."""
    return mask_of(i for i, e in enumerate(x.original.edges) if e & s)


def _old_pullback_bags(x, t):
    """The pullback's bags by a scan of every vertex of G per bag: the
    vertices whose incident edges all lie in the bag, isolated vertices
    added to bag 0."""
    g = x.original
    incident = [mask_of(i for i, e in enumerate(x.original.edges) if e >> v & 1)
                for v in range(g.n)]
    bags = [mask_of(v for v in range(g.n)
                    if incident[v] and not incident[v] & ~bag)
            for bag in t.bags]
    bags[0] |= mask_of(v for v in range(g.n) if not incident[v])
    return bags


def test_lmap_and_pullback_match_the_old_rules():
    rng = rng_from_seed(46)
    for _ in range(300):
        n = rng.randrange(1, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        g = Graph(n + rng.randrange(3), g.edges)   # isolated vertices
        x = line_square(g)
        for _ in range(4):
            s = rng.getrandbits(g.n)
            assert g.edges_meeting(s) == _old_lmap(x, s)
        t = random_decomposition(rng, x.line) if x.line.n else single_bag(x.line)
        back = line_square_pullback(x, t)
        want = TreeDecomposition(_old_pullback_bags(x, t), t.tree_edges)
        assert (back.bags, back.tree_edges) == (want.bags, want.tree_edges)
