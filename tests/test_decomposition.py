"""Tree decompositions, validity checking and bag measures."""

import math

import pytest

from mmtw._bits import mask_of, reach
from mmtw.decomposition import (TreeDecomposition, from_elimination_order,
                                single_bag, validate, width)
from mmtw.errors import InputError
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_decomposition, random_graph,
                           random_hypergraph, rng_from_seed)
from mmtw.hypergraph import Graph, Hypergraph
from mmtw.measures import ALPHA, MU, RHO, minor_matching_intersecting
from mmtw.oracles import _fill_neighborhood, independent_in


def test_constructor_rejects_non_trees():
    with pytest.raises(InputError):
        TreeDecomposition([1, 2, 4], [(0, 1)])  # disconnected
    with pytest.raises(InputError):
        TreeDecomposition([1, 2, 4], [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(InputError):
        TreeDecomposition([], [])


def test_validate_positive_and_negative():
    p3 = path_graph(3)
    good = TreeDecomposition([0b011, 0b110], [(0, 1)])
    assert validate(p3, good)
    missing = Hypergraph(3, p3.edges)
    bad_cov = TreeDecomposition([0b001, 0b110], [(0, 1)])
    v = validate(missing, bad_cov)
    assert not v and v.reason == "edge (0, 1) covered by no bag"
    t2 = TreeDecomposition([0b101, 0b010], [(0, 1)])
    v2 = validate(p3, t2)
    assert not v2  # edge {0,1} in no bag
    disconn = TreeDecomposition([0b001, 0b010, 0b101], [(0, 1), (1, 2)])
    assert not validate(Hypergraph(3, []), disconn)


def _validate_reference(h, t):
    """validate() with the edge-cover check written against every bag."""
    nodes_of = [0] * h.n
    for i, bag in enumerate(t.bags):
        for v in range(h.n):
            if bag >> v & 1:
                nodes_of[v] |= 1 << i
    for v, nodes in enumerate(nodes_of):
        if not nodes:
            return (False, f"vertex {v} appears in no bag")
        if reach(t._adj, nodes & -nodes, nodes) != nodes:
            return (False, f"bags containing vertex {v} are disconnected")
    adj = h.gaifman_adj()
    for u in range(h.n):
        for v in range(u + 1, h.n):
            pair = (1 << u) | (1 << v)
            if adj[u] >> v & 1 and not any(bag & pair == pair for bag in t.bags):
                return (False, f"edge ({u}, {v}) covered by no bag")
    return (True, "")


def test_validate_matches_reference_on_invalid_decompositions():
    # every vertex gets a connected set of nodes, so most failures are
    # uncovered Gaifman edges; the two vertex failures come from dropping a
    # vertex from a bag and from adding one to a node far from its nodes
    rng = rng_from_seed(15)
    kinds = {True: 0, "edge": 0, "no bag": 0, "disconnected": 0}
    for _ in range(400):
        n = rng.randrange(1, 11)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 4), rank=3)
        k = rng.randrange(1, 7)
        tree = [(i, rng.randrange(i)) for i in range(1, k)]
        adj = [0] * k
        for a, b in tree:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        bags = [0] * k
        spans = []
        for v in range(n):
            nodes = 1 << rng.randrange(k)
            for _ in range(rng.randrange(3)):
                nb = 0
                for i in range(k):
                    if nodes >> i & 1:
                        nb |= adj[i]
                if nb & ~nodes:
                    nodes |= 1 << rng.choice([i for i in range(k) if (nb & ~nodes) >> i & 1])
            for i in range(k):
                if nodes >> i & 1:
                    bags[i] |= 1 << v
            spans.append(nodes)
        r = rng.random()
        if n and r < 0.25:
            # which may leave it in no bag, or split its nodes apart
            bags[rng.randrange(k)] &= ~(1 << rng.randrange(n))
        elif n and r < 0.45:
            # a node that its nodes neither hold nor touch disconnects them
            v = rng.randrange(n)
            near = spans[v]
            for i in range(k):
                if spans[v] >> i & 1:
                    near |= adj[i]
            far = [i for i in range(k) if not near >> i & 1]
            if far:
                bags[rng.choice(far)] |= 1 << v
        t = TreeDecomposition(bags, tree)
        got = validate(h, t)
        want = _validate_reference(h, t)
        assert (bool(got), got.reason) == want
        kinds[True if want[0] else "edge" if want[1].startswith("edge") else
              "no bag" if want[1].endswith("no bag") else "disconnected"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_from_elimination_order_always_valid():
    rng = rng_from_seed(13)
    for _ in range(80):
        n = rng.randrange(1, 11)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 2))
        order = list(range(n))
        rng.shuffle(order)
        assert validate(h, from_elimination_order(h, order))


def test_random_decomposition_valid():
    rng = rng_from_seed(14)
    for _ in range(40):
        h = random_graph(rng, rng.randrange(1, 12), 0.4)
        assert validate(h, random_decomposition(rng, h))


def test_alpha_values():
    c5 = cycle_graph(5)
    assert ALPHA.value(c5, c5.vertex_mask) == 2
    k5 = complete_graph(5)
    assert ALPHA.value(k5, k5.vertex_mask) == 1
    assert ALPHA.value(c5, 0) == 0


def test_rho_values():
    p3 = path_graph(3)
    assert RHO.value(p3, p3.vertex_mask) == 2
    assert RHO.value(p3, 0) == 0
    isolated = Hypergraph(2, [0b01])
    assert RHO.value(isolated, 0b10) == math.inf


def test_mu_values():
    # nK2 has mu = n on its full vertex set
    for n in (1, 2, 3):
        g = Graph.from_pairs(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
        assert MU.value(g, g.vertex_mask) == n
    k5 = complete_graph(5)
    assert MU.value(k5, k5.vertex_mask) == 1
    # C5 has no induced 2K2: any two disjoint edges are bridged
    c5 = cycle_graph(5)
    assert MU.value(c5, c5.vertex_mask) == 1


def test_induced_matching_on_graphs_matches_mu():
    rng = rng_from_seed(15)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 9), 0.4)
        s = rng.getrandbits(g.n)
        assert MU.value(g, s) == minor_matching_intersecting(g, s)


def test_width_report():
    k5 = complete_graph(5)
    t = single_bag(k5)
    assert width(k5, t, "kappa").width == 4
    assert width(k5, t, "alpha").width == 1
    assert width(k5, t, "mu").width == 1
    assert width(k5, t, "rho").width == 3  # ceil(5/2) edges cover K5
    with pytest.raises(InputError):
        width(k5, t, "nope")


def test_measures_monotone_in_s():
    rng = rng_from_seed(16)
    for _ in range(50):
        h = random_hypergraph(rng, rng.randrange(1, 9), rng.randrange(1, 6))
        s = rng.getrandbits(h.n)
        t = s & rng.getrandbits(h.n)
        assert ALPHA.value(h, t) <= ALPHA.value(h, s)
        assert RHO.value(h, t) <= RHO.value(h, s)
        assert MU.value(h, t) <= MU.value(h, s)


def _neighbours(adj, u):
    return {w for w in range(len(adj)) if (adj[u] >> w) & 1}


def test_reach_matches_set_bfs():
    rng = rng_from_seed(17)
    for _ in range(200):
        n = rng.randrange(1, 13)
        adj = random_graph(rng, n, rng.uniform(0.1, 0.5)).gaifman_adj()
        seeds = rng.getrandbits(n)
        s = rng.getrandbits(n)
        for allowed in (s, ~s):
            inside = {v for v in range(n) if (allowed >> v) & 1}
            seen = {v for v in inside if (seeds >> v) & 1}
            stack = list(seen)
            while stack:
                for w in (_neighbours(adj, stack.pop()) & inside) - seen:
                    seen.add(w)
                    stack.append(w)
            assert reach(adj, seeds, allowed) == mask_of(seen)


def test_fill_neighborhood_matches_path_search():
    rng = rng_from_seed(18)
    for _ in range(200):
        n = rng.randrange(1, 11)
        adj = random_graph(rng, n, rng.uniform(0.1, 0.5)).gaifman_adj()
        v = rng.randrange(n)
        eliminated = rng.getrandbits(n) & ~(1 << v)
        want = set()

        def walk(u, path):
            # every simple path from v whose inner vertices are eliminated
            for w in _neighbours(adj, u) - path:
                if (eliminated >> w) & 1:
                    walk(w, path | {w})
                else:
                    want.add(w)

        walk(v, {v})
        assert _fill_neighborhood(adj, v, eliminated) == mask_of(want)
