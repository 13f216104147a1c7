"""Closure, atoms, 2-SAT, separators and the approximation pipeline."""

import math
from itertools import combinations, islice, product

import pytest

from mmtw import approx
from mmtw._bits import bits, mask_of, reach
from mmtw.approx import (SeparatorResult, _big_k,
                         _independent_sets_with_neighbourhoods,
                         _min_fill_elimination, _recurse, atoms,
                         balanced_split, closure, find_separator,
                         approx_decomposition, two_sat_solve, width_bound)
from mmtw.decomposition import (elimination_tree, from_elimination_order,
                                single_bag, validate, width)
from mmtw.errors import InputError, ResourceError
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_graph, random_hypergraph, rng_from_seed)
from mmtw.hypergraph import Graph, Hypergraph
from mmtw.measures import ALPHA, KAPPA, MU, RHO, WellBehavedMeasure
from mmtw.reductions import line_square
from mmtw.oracles import (_fill_neighborhood, _separates, lambda_tw_exact,
                          separator_exists_bruteforce)
from mmtw.reductions import approximate_mu_tw


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
        for v in range(h.n):
            for u in bits(cg.adj[v] & ~gaif[v]):
                pair = (1 << u) | (1 << v)
                common = cg.adj[v] & cg.adj[u] & ~pair
                assert ALPHA.value(h, common) > k


def test_atoms_examples():
    k5 = complete_graph(5)
    assert atoms(k5.gaifman_adj(), k5.vertex_mask) == [k5.vertex_mask]
    p4 = path_graph(4)
    got = sorted(atoms(p4.gaifman_adj(), p4.vertex_mask))
    assert got == sorted([0b0011, 0b0110, 0b1100])
    c4 = cycle_graph(4)
    assert atoms(c4.gaifman_adj(), c4.vertex_mask) == [c4.vertex_mask]


def test_atoms_cover_and_no_clique_cutset():
    rng = rng_from_seed(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 10), 0.4)
        parts = atoms(g.gaifman_adj(), g.vertex_mask)
        cover = 0
        for a in parts:
            cover |= a
        assert cover == g.vertex_mask
        # every original edge lies inside some atom
        for e in g.edges:
            assert any(e & ~a == 0 for a in parts)


def test_two_sat():
    # (x0 or x1) and (not x0 or x1) forces x1
    model = two_sat_solve(
        2, [((0, True), (1, True)), ((0, False), (1, True))], [])
    assert model is not None and model[1] is True
    # contradiction: x0 and not x0
    assert two_sat_solve(
        1, [((0, True), (0, True)), ((0, False), (0, False))], []) is None
    # forced literal conflicts with a clause
    assert two_sat_solve(1, [((0, False), (0, False))], [0]) is None


def _two_sat_models(n, clauses, forced):
    """Every assignment of the n variables (bit v: variable v) that sets
    each forced variable and satisfies every clause."""
    for model in range(1 << n):
        if all((model >> v) & 1 for v in forced) and all(
                any((model >> var) & 1 == pol for var, pol in clause)
                for clause in clauses):
            yield model


def test_two_sat_matches_exhaustive_search():
    rng = rng_from_seed(41)
    sat = 0
    for _ in range(3000):
        n = rng.randrange(1, 9)
        clauses = [tuple((rng.randrange(n), rng.random() < 0.5)
                         for _ in range(2))
                   for _ in range(rng.randrange(2 * n + 2))]
        forced = {v for v in range(n) if rng.random() < 0.15}
        model = two_sat_solve(n, clauses, forced)
        assert (model is None) == (
            next(_two_sat_models(n, clauses, forced), None) is None)
        if model is not None:
            sat += 1
            assert len(model) == n and all(model[v] for v in forced)
            assert all(any(model[var] == pol for var, pol in clause)
                       for clause in clauses)
    assert 1000 < sat < 2900
    # the closure of x0 holds x1 and not x1, so x0 falls back to false
    assert two_sat_solve(
        2, [((0, False), (1, True)), ((0, False), (1, False))], []) == \
        [False, True]
    # the closure of x0 holds not x1 alone, which negates the forced x1:
    # the forced closure sets x0 false before x0's turn
    assert two_sat_solve(2, [((0, False), (1, False))], [1]) == [False, True]


def test_find_separator_soundness():
    rng = rng_from_seed(32)
    for _ in range(60):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        a = rng.getrandbits(n) or 1
        b = rng.getrandbits(n) or (1 << (n - 1))
        out = find_separator(closure(g, k, ALPHA), a, b)
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


def test_find_separator_rejects_sides_outside_the_vertex_set():
    g = path_graph(4)
    with pytest.raises(InputError):
        find_separator(closure(g, 1, ALPHA), 1 << g.n, 1)
    with pytest.raises(InputError):
        find_separator(closure(g, 1, ALPHA), 1, 1 << g.n)


def test_balanced_split_contract():
    rng = rng_from_seed(33)
    for _ in range(40):
        n = rng.randrange(4, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        w = rng.getrandbits(n) or 1
        r = max(ALPHA.value(g, w), 3 * k)
        out = balanced_split(g, w, k, ALPHA, r)
        if out is None:
            val, _ = lambda_tw_exact(g, lambda m: ALPHA.value(g, m))
            assert val > k
        else:
            from fractions import Fraction
            cap = Fraction(2, 3) * r + k
            a, b, s = out
            assert a | b == w and a & b == 0
            assert ALPHA.value(g, a & ~s) <= cap
            assert ALPHA.value(g, b & ~s) <= cap
            assert ALPHA.value(g, s) <= k * k * (k + 1) // 2
            assert _separates(g.gaifman_adj(), n, s, a & ~s, b & ~s)


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
            got = list(_independent_sets_with_neighbourhoods(
                g.gaifman_adj(), universe, size))
            assert [i_set for i_set, _ in got] == \
                _independent_sets_eager(g.gaifman_adj(), universe, size)
            for i_set, closed in got:
                assert closed == mask_of(
                    u for v in bits(i_set) for u in range(n)
                    if u == v or (g.gaifman_adj()[v] >> u) & 1)


def test_independent_sets_are_lazy_and_iterative():
    p = path_graph(1200)
    first = [i_set for i_set, _ in islice(
        _independent_sets_with_neighbourhoods(p.gaifman_adj(), p.vertex_mask,
                                              1200),
        5000)]
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

    def counting_find(cg, a, b):
        sides.append(a)
        return find_fn(cg, a, b)

    monkeypatch.setattr(approx, "closure", counting_closure)
    monkeypatch.setattr(approx, "find_separator", counting_find)
    g = path_graph(30)
    # this W and r make the split reject 8 sides before it finds one
    out = balanced_split(g, 0x3E04C310, 1, ALPHA, 5)
    assert out is not None
    assert len(built) == 1
    assert len(sides) == len(set(sides)) == 9


def _find_separator_reference(h, a, b, k, m):
    """Reference: every guess (I, K_v, J1) built from scratch, with the
    clauses and forced set in the order ``find_separator`` gives them."""
    adj2 = closure(h, k, m).adj
    for i_set, _ in _independent_sets_with_neighbourhoods(
            adj2, h.vertex_mask, k):
        members = list(bits(i_set))
        x_mask = 0
        for u, v in combinations(members, 2):
            x_mask |= adj2[u] & adj2[v]
        choices = []
        for v in members:
            n_v = (adj2[v] & ~x_mask) | (1 << v)
            choices.append(atoms(tuple(av & n_v for av in adj2), n_v))
        for k_v in product(*choices):
            z = x_mask
            for km in k_v:
                z |= km
            var_of = {v: i for i, v in enumerate(bits(z & ~x_mask))}
            outside = [c for c in range(h.n) if not (z >> c) & 1]
            reach_a = reach(adj2, a, ~z)
            reach_b = reach(adj2, b, ~z)

            def linked(u, v):
                # adjacent, or both next to one component outside Z
                if (adj2[u] >> v) & 1:
                    return True
                return any(adj2[u] & reach(adj2, 1 << c, ~z)
                           and adj2[v] & reach(adj2, 1 << c, ~z)
                           for c in outside)

            for j1 in range(1 << len(members)):
                k1 = k2 = bad = 0
                for i, km in enumerate(k_v):
                    if (j1 >> i) & 1:
                        k1 |= km
                        seed, near = b, reach_b
                    else:
                        k2 |= km
                        seed, near = a, reach_a
                    for u in bits(km):
                        if (seed >> u) & 1 or adj2[u] & near:
                            bad |= 1 << u
                clauses = [((var_of[u], True), (var_of[v], True))
                           for u in bits(k1) for v in bits(k2)
                           if u != v and linked(u, v)]
                clauses += [((var_of[u], False), (var_of[v], False))
                            for km in k_v
                            for u, v in combinations(bits(km), 2)
                            if not (adj2[u] >> v) & 1]
                model = two_sat_solve(len(var_of), clauses,
                                      {var_of[u] for u in bits(bad)})
                if model is None:
                    continue
                s_prime = sum(1 << v for v, i in var_of.items() if model[i])
                if not all(m.decide(h, s_prime & km, k) for km in k_v):
                    return SeparatorResult(refutation="lambda-tw exceeded")
                sep = s_prime | x_mask
                if _separates(h.gaifman_adj(), h.n, sep, a & ~sep, b & ~sep):
                    return SeparatorResult(separator=sep)
    return SeparatorResult(refutation="not separable")


# (n, edges, A, B) at k = 2 where the forced set decides which separator
# comes first: a wrong reach of A or B changes the answer
_FORCED_SET_CASES = [
    (9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (0, 6), (2, 6),
         (3, 6), (4, 6), (5, 6), (0, 7), (1, 7), (3, 7), (2, 8), (5, 8),
         (6, 8), (7, 8)], 0x64, 0x14F),
    (11, [(1, 4), (2, 4), (3, 4), (1, 7), (4, 7), (6, 7), (1, 8), (2, 8),
          (3, 8), (4, 8), (6, 8), (0, 9), (2, 9), (3, 9), (7, 9), (0, 10),
          (1, 10), (6, 10)], 0x202, 0x3D4),
    (11, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4),
          (0, 5), (1, 5), (4, 5), (1, 6), (2, 6), (4, 6), (5, 6), (3, 7),
          (6, 7), (2, 8), (4, 8), (5, 8), (6, 8), (7, 8), (2, 9), (4, 9),
          (5, 9), (8, 9), (0, 10), (4, 10)], 0x415, 0x36A),
]


def test_find_separator_on_a_shared_closure_matches_the_reference():
    rng = rng_from_seed(37)
    cases = []
    for _ in range(24):
        n = rng.randrange(3, 13)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        for k in (1, 2):
            sides = []
            for _ in range(8):
                a = rng.getrandbits(n)
                b = rng.getrandbits(n)
                if rng.random() < 0.7:
                    b &= ~a
                sides.append((a, b))
            cases.append((g, k, sides))
    for n, pairs, a, b in _FORCED_SET_CASES:
        g = Graph.from_pairs(n, pairs)
        cases.append((g, 2, [(a, b), (b, a), (a, b)]))
    for g, k, sides in cases:
        cg = closure(g, k, ALPHA)
        for a, b in sides:
            shared = find_separator(cg, a, b)
            assert shared == find_separator(closure(g, k, ALPHA), a, b)
            assert shared == _find_separator_reference(g, a, b, k, ALPHA)


def _caterpillar(spine, legs):
    pairs = [(i, i + 1) for i in range(spine - 1)]
    pairs += [(v, spine + j) for j, v in enumerate(legs)]
    return Graph.from_pairs(spine + len(legs), pairs)


def test_balanced_split_builds_atoms_once_per_independent_set(monkeypatch):
    built = []
    sides = []
    atoms_fn, find_fn = approx.atoms, approx.find_separator

    def counting_atoms(*args):
        built.append(args[1])
        return atoms_fn(*args)

    def counting_find(cg, a, b):
        sides.append(a)
        return find_fn(cg, a, b)

    monkeypatch.setattr(approx, "atoms", counting_atoms)
    monkeypatch.setattr(approx, "find_separator", counting_find)
    g = _caterpillar(10, [3, 6, 7, 8, 9])
    # this W and r make the split try 5 sides on one closure
    out = balanced_split(g, 0x3D7F, 1, ALPHA, 5)
    assert out is not None
    assert len(sides) == 5
    # with k = 1 each I has one member, so one atoms call per I
    cg = closure(g, 1, ALPHA)
    sets = list(_independent_sets_with_neighbourhoods(
        cg.adj, g.vertex_mask, 1))
    assert len(built) <= len(sets) - 1


def _grow_wstar_by_values(h, m, w, big_k):
    """Reference: W* grown on exact measure values."""
    full = h.vertex_mask
    wstar = w
    while wstar != full and m.value(h, wstar) < big_k:
        rest = full & ~wstar
        wstar |= rest & -rest
        if m.value(h, wstar) > big_k:
            return wstar, True
    return wstar, False


def test_grow_wstar_matches_exact_values():
    rng = rng_from_seed(38)
    graphs = [path_graph(n) for n in (3, 8, 15)]
    graphs += [cycle_graph(n) for n in (4, 9, 16)]
    graphs += [random_graph(rng, rng.randrange(2, 12), rng.uniform(0.05, 0.6))
               for _ in range(20)]
    for g in graphs:
        for m in (ALPHA, RHO, MU):
            for _ in range(4):
                w = rng.getrandbits(g.n)
                big_k = rng.randrange(0, 8)
                assert approx._grow_wstar(g, m, w, big_k) == \
                    _grow_wstar_by_values(g, m, w, big_k)


def test_guess_cap_counts_guesses_and_the_plan_builds_what_it_reads(
        monkeypatch):
    built = []
    atoms_fn = approx.atoms

    def counting_atoms(*args):
        built.append(args[1])
        return atoms_fn(*args)

    monkeypatch.setattr(approx, "atoms", counting_atoms)
    c20 = cycle_graph(20)
    assert approx_decomposition(c20, 1, ALPHA) is None
    assert len(built) == 20
    # a search stopped by the cap has built the atoms of the guesses it
    # read, and no more
    built.clear()
    monkeypatch.setattr(approx, "GUESS_CAP", 30)
    with pytest.raises(ResourceError,
                       match="separator guess cap exceeded") as info:
        approx_decomposition(c20, 1, ALPHA)
    assert info.value.stats["guesses"] == 31
    assert len(built) == 8


def test_long_cycles_are_refuted():
    assert approx_decomposition(cycle_graph(40), 1, ALPHA) is None
    assert approximate_mu_tw(cycle_graph(30), 1) is None


def test_approx_decomposition_alpha():
    rng = rng_from_seed(34)
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        out = approx_decomposition(g, k, ALPHA)
        if out is None:
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
        if out is None:
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


# ---------------------------------------------------------------------------
# the min-fill first pass


def _interval_graph(rng, n):
    ivs = []
    for _ in range(n):
        a = rng.uniform(0, n)
        ivs.append((a, a + rng.uniform(0.5, 2.5)))
    return Graph.from_pairs(n, [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]])


def _random_tree(rng, n):
    return Graph.from_pairs(n, [(rng.randrange(v), v) for v in range(1, n)])


def _no_recursion(*args, **kwargs):
    raise AssertionError("the recursion ran")


def test_first_pass_answers_chordal_inputs_with_their_exact_width(
        monkeypatch):
    monkeypatch.setattr(approx, "balanced_split", _no_recursion)
    rng = rng_from_seed(40)
    graphs = [path_graph(n) for n in (20, 41, 60)]
    for spine in (14, 20, 27, 33, 40):
        graphs.append(_caterpillar(
            spine, sorted(rng.sample(range(spine), spine // 2))))
    graphs += [_interval_graph(rng, rng.randrange(20, 61)) for _ in range(8)]
    graphs += [_random_tree(rng, rng.randrange(20, 61)) for _ in range(8)]
    first_pass = 0
    for g in graphs:
        out = approx_decomposition(g, 1, ALPHA)
        assert validate(g, out)
        if ALPHA.value(g, g.vertex_mask) > _big_k(1):
            first_pass += 1
            assert width(g, out, "alpha").width == 1
    assert first_pass >= 20


def _first_pass_cases(seed, count):
    rng = rng_from_seed(seed)
    for _ in range(count):
        k = rng.randrange(1, 3)
        shape = rng.random()
        if shape < 0.25:
            # a small core with pendant leaves, so that alpha(V) can pass
            # big_K(1) = 9 at n <= 12
            core = rng.randrange(2, 5)
            pairs = [(u, v) for u in range(core) for v in range(u + 1, core)
                     if rng.random() < 0.6]
            pairs += [(rng.randrange(core), v) for v in range(core, 12)]
            h = Graph.from_pairs(12, pairs)
        elif shape < 0.5:
            h = random_graph(rng, rng.randrange(2, 13), rng.uniform(0.1, 0.6))
        else:
            n = rng.randrange(2, 13)
            h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        yield h, k


def _check_first_pass(h, k, m, name, out) -> str:
    """``out`` is approx_decomposition's answer on (h, k, m).  It refutes iff
    the recursion run alone refutes; a min-fill elimination that passes at k
    validates with width at most k, and the recursion never refutes it.
    Where lambda(V) <= big_K, the answer is one bag iff lambda(V) <= k or a
    bag of the whole min-fill elimination measures lambda(V) or more, else
    that elimination, and never wider than lambda(V).  Returns "k" if the
    answer is the elimination checked at k, "narrower" if it is the one
    that replaced one bag, else ""."""
    eliminated = _min_fill_elimination(h, k, m)
    recursed = _recurse(h, k, m, 0)
    assert (out is None) == (recursed is None)
    if m.decide(h, h.vertex_mask, _big_k(k)):
        lam = m.value(h, h.vertex_mask)
        # kappa at n passes every bag, so the whole order is built
        order, bags = _min_fill_elimination(h, h.n, KAPPA)
        one_bag = lam <= k or max(m.value(h, b) for b in bags) >= lam
        assert (out == single_bag(h)) == one_bag
        if not one_bag:
            assert out == elimination_tree(order, bags)
        assert width(h, out, name).width <= lam
        if eliminated is None and not one_bag:
            return "narrower"
    if eliminated is None:
        return ""
    td = elimination_tree(*eliminated)
    assert validate(h, td)
    assert width(h, td, name).width <= k
    assert recursed is not None
    if m.decide(h, h.vertex_mask, k):
        return ""
    assert td == out
    return "k"


def test_first_pass_refutes_iff_the_recursion_refutes():
    answered, refuted = {"k": 0, "narrower": 0, "": 0}, 0
    for h, k in _first_pass_cases(41, 80):
        for m in (ALPHA, RHO):
            out = approx_decomposition(h, k, m)
            answered[_check_first_pass(h, k, m, m.name, out)] += 1
            refuted += out is None
    assert answered["k"] >= 4 and answered["narrower"] >= 4 and refuted >= 5


def test_first_pass_through_the_line_square_refutes_iff_the_recursion_does():
    # mu reaches the pipeline as alpha on L^2(G)
    graphs = 0
    for h, k in _first_pass_cases(42, 80):
        if any(e.bit_count() != 2 for e in h.edges):
            continue
        graphs += 1
        g = Graph(h.n, h.edges)
        line = line_square(g).line
        out = approx_decomposition(line, k, ALPHA)
        _check_first_pass(line, k, ALPHA, "alpha", out)
        mu_out = approximate_mu_tw(g, k)
        assert (mu_out is None) == (out is None)
        if mu_out is not None:
            assert width(g, mu_out, "mu").width <= width_bound(k)
    assert graphs >= 20


def test_one_bag_gives_way_only_to_a_narrower_elimination():
    # alpha at k = 1, where big_K = 9 bounds alpha(V) and the min-fill
    # bags fail at k: C6 (alpha 3, bags of alpha 2) takes the elimination
    # checked at alpha(V) - 1; C4 (alpha 2 = k + 1) and K_{3,3} (a bag
    # holds one whole side) keep one bag
    c6 = cycle_graph(6)
    out = approx_decomposition(c6, 1, ALPHA)
    assert out == elimination_tree(*_min_fill_elimination(c6, 2, ALPHA))
    assert width(c6, out, "alpha").width == 2
    k33 = Graph.from_pairs(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for h, lam in ((cycle_graph(4), 2), (k33, 3)):
        assert _min_fill_elimination(h, 1, ALPHA) is None
        assert approx_decomposition(h, 1, ALPHA) == single_bag(h)
        assert ALPHA.value(h, h.vertex_mask) == lam


def test_first_pass_stops_at_its_first_failing_bag(monkeypatch):
    checks = []
    decide = WellBehavedMeasure.decide

    def counted(self, h, s, k):
        checks.append(k)
        return decide(self, h, s, k)

    monkeypatch.setattr(WellBehavedMeasure, "decide", counted)
    c40 = cycle_graph(40)
    assert _min_fill_elimination(c40, 1, ALPHA) is None
    assert 0 < len(checks) < 40


def test_first_pass_bags_match_the_elimination_order():
    rng = rng_from_seed(43)
    for _ in range(60):
        n = rng.randrange(1, 16)
        if rng.random() < 0.5:
            h = random_graph(rng, n, rng.uniform(0.1, 0.6))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        # kappa at k = n - 1 passes every bag, so the whole order is built
        order, bags = _min_fill_elimination(h, n, KAPPA)
        assert sorted(order) == list(range(n))
        assert elimination_tree(order, bags) == from_elimination_order(h, order)
        adj = h.gaifman_adj()
        eliminated = 0
        for v, bag in zip(order, bags):
            assert bag == (1 << v) | _fill_neighborhood(adj, v, eliminated)
            eliminated |= 1 << v


def test_first_pass_takes_min_fill_steps():
    # C4 plus a pendant vertex 4 on 0: 4 (fill 0) goes first, then the
    # cycle's lowest id; every bag of the cycle holds a fill edge or two
    g = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    order, bags = _min_fill_elimination(g, 4, KAPPA)
    assert order[:2] == [4, 0]
    assert bags[:2] == [0b10001, 0b01011]


# ---------------------------------------------------------------------------
# the paper's recursion, driven on its own


def _grid(rows, cols):
    pairs = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                pairs.append((v, v + 1))
            if i + 1 < rows:
                pairs.append((v, v + cols))
    return Graph.from_pairs(rows * cols, pairs)


def _hyperedge_chain(m, extra=0):
    """m rank-3 hyperedges, each sharing one vertex with the next, plus
    ``extra`` vertices in no edge."""
    return Hypergraph(2 * m + 1 + extra,
                      [0b111 << (2 * i) for i in range(m)])


def test_recursion_alone_on_paths_cycles_grids_and_chains():
    cases = [(path_graph(n), ALPHA, 1) for n in (12, 14, 30, 60)]
    cases += [(path_graph(60), ALPHA, 2), (path_graph(40), RHO, 1)]
    cases += [(cycle_graph(n), ALPHA, 1) for n in (10, 14, 20, 24)]
    cases += [(cycle_graph(60), ALPHA, 2)]
    cases += [(_grid(r, c), ALPHA, 1)
              for r, c in ((2, 5), (2, 7), (3, 4), (2, 20), (3, 10), (3, 20))]
    cases += [(_hyperedge_chain(m), m_, 1)
              for m in (6, 20, 29) for m_ in (ALPHA, RHO)]
    cases += [(_hyperedge_chain(29), RHO, 2), (_hyperedge_chain(6, 1), RHO, 1)]
    recursed = refuted = 0
    for h, m, k in cases:
        recursed += not m.decide(h, h.vertex_mask, _big_k(k))
        out = _recurse(h, k, m, 0)
        if out is None:
            refuted += 1
            if h.n <= 14:
                val, _ = lambda_tw_exact(h, lambda s: m.value(h, s))
                assert val > k
            continue
        assert validate(h, out)
        assert width(h, out, m.name).width <= width_bound(k)
    assert recursed >= 15 and refuted >= 4
