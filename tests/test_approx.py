"""Closure, atoms, 2-SAT, separators and the approximation pipeline."""

import math
from itertools import islice

import pytest

from mmtw import approx
from mmtw._bits import mask_of
from mmtw.approx import (Refutation, SeparatorResult, TwoSatFormula,
                         _independent_sets_upto, atoms,
                         balanced_split, closure, find_separator,
                         approx_decomposition, two_sat_solve, width_bound)
from mmtw.decomposition import validate, width
from mmtw.errors import InputError
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_graph, random_hypergraph, rng_from_seed)
from mmtw.hypergraph import Graph
from mmtw.measures import ALPHA, RHO, MeasureContext
from mmtw.oracles import (_separates, lambda_tw_exact,
                          separator_exists_bruteforce)


def test_width_bound_constants():
    assert width_bound(1) == 10
    assert width_bound(2) == 33


def test_closure_fixpoint_and_supergraph():
    rng = rng_from_seed(30)
    for _ in range(30):
        h = random_graph(rng, rng.randrange(2, 9), 0.4)
        k = rng.randrange(1, 4)
        cg = closure(h, k, ALPHA)
        gaif = h.gaifman_adj()
        for v in range(h.n):
            assert gaif[v] & ~cg.adj[v] == 0  # never loses edges
        # added edges really have a large-measure common neighborhood
        # (checked on the final closure graph; monotonicity preserves it)
        for pair in cg.added:
            u, v = [b for b in range(h.n) if (pair >> b) & 1]
            common = cg.adj[v] & cg.adj[u] & ~pair
            assert ALPHA.value(h, common) > k


def test_atoms_examples():
    k5 = complete_graph(5)
    assert atoms(k5.adj, k5.vertex_mask) == [k5.vertex_mask]
    p4 = path_graph(4)
    got = sorted(atoms(p4.adj, p4.vertex_mask))
    assert got == sorted([0b0011, 0b0110, 0b1100])
    c4 = cycle_graph(4)
    assert atoms(c4.adj, c4.vertex_mask) == [c4.vertex_mask]


def test_atoms_cover_and_no_clique_cutset():
    rng = rng_from_seed(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 10), 0.4)
        parts = atoms(g.adj, g.vertex_mask)
        cover = 0
        for a in parts:
            cover |= a
        assert cover == g.vertex_mask
        # every original edge lies inside some atom
        for e in g.edges:
            assert any(e & ~a == 0 for a in parts)


def test_two_sat():
    # (x0 or x1) and (not x0 or x1) forces x1
    f = TwoSatFormula(2, [((0, True), (1, True)), ((0, False), (1, True))], [])
    model = two_sat_solve(f)
    assert model is not None and model[1] is True
    # contradiction: x0 and not x0
    g = TwoSatFormula(1, [((0, True), (0, True)), ((0, False), (0, False))], [])
    assert two_sat_solve(g) is None
    # forced literal conflicts with a clause
    h = TwoSatFormula(1, [((0, False), (0, False))], [0])
    assert two_sat_solve(h) is None


def test_find_separator_soundness():
    rng = rng_from_seed(32)
    for _ in range(60):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        a = rng.getrandbits(n) or 1
        b = rng.getrandbits(n) or (1 << (n - 1))
        out = find_separator(g, a, b, k, ALPHA)
        bound = k * k * (k + 1) // 2
        if out.separator is not None:
            s = out.separator
            assert ALPHA.value(g, s) <= bound
            assert _separates(g.gaifman_adj(), n, s, a & ~s, b & ~s)
        else:
            # the refutation is a disjunction; either disjunct may hold
            assert out.refutation in ("not separable", "lambda-tw exceeded")
            no_sep = separator_exists_bruteforce(
                g, a, b, lambda m: ALPHA.value(g, m), k) is None
            val, _ = lambda_tw_exact(g, lambda m: ALPHA.value(g, m))
            assert no_sep or val > k


def test_balanced_split_contract():
    rng = rng_from_seed(33)
    for _ in range(40):
        n = rng.randrange(4, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        w = rng.getrandbits(n) or 1
        r = max(ALPHA.value(g, w), 3 * k)
        ctx = MeasureContext(g, ALPHA)
        out = balanced_split(g, w, k, ALPHA, r, ctx)
        if not out.ok:
            val, _ = lambda_tw_exact(g, lambda m: ALPHA.value(g, m))
            assert val > k
        else:
            from fractions import Fraction
            cap = Fraction(2, 3) * r + k
            s = out.separator
            assert out.a | out.b == w and out.a & out.b == 0
            assert ALPHA.value(g, out.a & ~s) <= cap
            assert ALPHA.value(g, out.b & ~s) <= cap
            assert ALPHA.value(g, s) <= k * k * (k + 1) // 2
            assert _separates(g.gaifman_adj(), n, s, out.a & ~s, out.b & ~s)


def _independent_sets_eager(adj, universe, size):
    """Reference: the whole list, built recursively."""
    out = [0]

    def grow(current, count, candidates):
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = current | low
            out.append(nxt)
            if count + 1 < size:
                grow(nxt, count + 1, rest & ~adj[low.bit_length() - 1])

    if size >= 1:
        grow(0, 0, universe)
    return out


def test_independent_sets_match_eager_reference():
    rng = rng_from_seed(36)
    for _ in range(60):
        n = rng.randrange(0, 11)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        universe = rng.getrandbits(n) if rng.random() < 0.5 else g.vertex_mask
        for size in range(0, 5):
            assert list(_independent_sets_upto(g.adj, universe, size)) == \
                _independent_sets_eager(g.adj, universe, size)


def test_independent_sets_are_lazy_and_iterative():
    p = path_graph(1200)
    first = list(islice(_independent_sets_upto(p.adj, p.vertex_mask, 1200),
                        5000))
    assert len(first) == 5000
    assert first[600] == sum(1 << v for v in range(0, 1200, 2))


def test_balanced_split_builds_closure_once_and_tries_each_side_once(
        monkeypatch):
    built = []
    sides = []
    closure_fn, find_fn = approx.closure, approx.find_separator

    def counting_closure(*args):
        built.append(args)
        return closure_fn(*args)

    def counting_find(h, a, b, *rest):
        sides.append(a)
        return find_fn(h, a, b, *rest)

    monkeypatch.setattr(approx, "closure", counting_closure)
    monkeypatch.setattr(approx, "find_separator", counting_find)
    g = path_graph(30)
    # this W and r make the split reject 8 sides before it finds one
    out = balanced_split(g, 0x3E04C310, 1, ALPHA, 5, MeasureContext(g, ALPHA))
    assert out.ok
    assert len(built) == 1
    assert len(sides) == len(set(sides)) == 9


def test_approx_decomposition_alpha():
    rng = rng_from_seed(34)
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        out = approx_decomposition(g, k, ALPHA)
        if isinstance(out, Refutation):
            val, _ = lambda_tw_exact(g, lambda m: ALPHA.value(g, m))
            assert val > k
        else:
            assert validate(g, out)
            assert width(g, out, "alpha").width <= width_bound(k)


def test_approx_decomposition_rho():
    rng = rng_from_seed(35)
    for _ in range(25):
        n = rng.randrange(2, 9)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        k = rng.randrange(1, 3)
        out = approx_decomposition(h, k, RHO)
        if isinstance(out, Refutation):
            def lam(m):
                return RHO.value(h, m)
            val, _ = lambda_tw_exact(h, lam)
            assert val is math.inf or val > k
        else:
            assert validate(h, out)
            assert width(h, out, "rho").width <= width_bound(k)


def test_approx_rejects_bad_k():
    g = path_graph(3)
    with pytest.raises(InputError):
        approx_decomposition(g, 0, ALPHA)


def test_approx_decomposition_scales_on_paths():
    for n, k in ((200, 1), (60, 2)):
        g = path_graph(n)
        out = approx_decomposition(g, k, ALPHA)
        assert validate(g, out)
        assert width(g, out, "alpha").width <= width_bound(k)
