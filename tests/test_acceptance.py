"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion shows up as
its own pass/fail line.  Every check compares primary-path code against an
independent exhaustive oracle.
"""

import math
import time
from fractions import Fraction

from mmtw._bits import bits
from mmtw.approx import closure, find_separator, width_bound
from mmtw.blocker import trace_blocker
from mmtw.decomposition import validate, width
from mmtw.dp import chromatic_decide, hom_decide, mwis
from mmtw.formats import (parse_hypergraph, parse_td, serialize_hypergraph,
                          serialize_td)
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_clutter, random_cobipartite,
                           random_decomposition, random_graph,
                           random_hypergraph, random_weights, rng_from_seed)
from mmtw.hypergraph import Hypergraph
from mmtw.measures import ALPHA, MU, RHO
from mmtw.oracles import (_separates, blocker_bruteforce, chromatic_bruteforce,
                          hom_bruteforce, independent_in, lambda_tw_exact,
                          minimalize, mwis_bruteforce,
                          separator_exists_bruteforce, trace)
from mmtw.reductions import (approximate_mu_tw, line_square, pendant_extend)

DECOMPOSE_BUDGET_SECONDS = 300.0


def _report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_blocker_duality():
    rng = rng_from_seed(101)
    start = time.time()
    failures = 0
    for _ in range(500):
        c = random_clutter(rng, rng.randrange(1, 11), rng.randrange(0, 8))
        if blocker_bruteforce(blocker_bruteforce(c)) != c:
            failures += 1
    elapsed = time.time() - start
    _report(1, failures == 0 and elapsed < 60,
            f"b(b(H))=H on 500 clutters, {failures} failures, {elapsed:.1f}s")


def test_criterion_2_trace_oracle():
    rng = rng_from_seed(102)
    failures = 0
    for _ in range(500):
        n = rng.randrange(1, 13)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 4), rank=4)
        s = rng.getrandbits(n)
        got = trace_blocker(h, s).traces
        want = trace(blocker_bruteforce(minimalize(h)).edges, s)
        if got != want:
            failures += 1
    _report(2, failures == 0,
            f"trace_blocker vs brute force on 500 (H,S), {failures} failures")


def test_criterion_3_matching_lower_bound():
    rng = rng_from_seed(103)
    failures = checked = 0
    for _ in range(300):
        n = rng.randrange(1, 11)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 3), rank=4)
        s = rng.getrandbits(n)
        mu = MU.value(h, s)
        checked += 1
        got = trace_blocker(h, s).traces
        if len(got) < 2 ** mu:
            failures += 1
    _report(3, failures == 0,
            f"|tr_S(b(H))| >= 2^mu on {checked} instances, {failures} violations")


def test_criterion_4_reduction_identities():
    rng = rng_from_seed(104)
    failures = 0
    for _ in range(100):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        pend = pendant_extend(g)
        ls = line_square(g)
        for s in range(1 << n):
            if ALPHA.value(g, s) != MU.value(pend, s):
                failures += 1
            if MU.value(g, s) != ALPHA.value(ls.line, g.edges_meeting(s)):
                failures += 1
    _report(4, failures == 0,
            f"alpha/mu reduction identities, all S on 100 graphs, {failures} failures")


def test_criterion_5_dp_vs_oracle():
    rng = rng_from_seed(105)
    failures = 0

    def instance():
        n = rng.randrange(2, 11)
        if rng.random() < 0.5:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 3), rank=3)
        return h, random_decomposition(rng, h)

    for _ in range(300):
        h, t = instance()
        w = random_weights(rng, h.n)
        val, wit = mwis(Hypergraph(h.n, h.edges, w), t)
        if (val != mwis_bruteforce(h, w)[0] or not independent_in(h, wit)
                or sum((Fraction(w[v]) for v in bits(wit)), Fraction(0)) != val):
            failures += 1
    for _ in range(300):
        h, t = instance()
        k = rng.randrange(1, 5)
        if chromatic_decide(h, k, t) != chromatic_bruteforce(h, k):
            failures += 1
    for f in (complete_graph(2), complete_graph(3), cycle_graph(5)):
        for _ in range(100):
            n = rng.randrange(2, 11)
            g = random_graph(rng, n, rng.uniform(0.15, 0.6))
            t = random_decomposition(rng, g)
            if hom_decide(g, f, t) != hom_bruteforce(g, f):
                failures += 1
    _report(5, failures == 0,
            "mwis/chromatic/hom vs oracle, 300 instances each, "
            f"{failures} mismatches")


def test_criterion_6_approximation_soundness():
    rng = rng_from_seed(106)
    failures = 0
    worst = 0.0
    for it in range(200):
        n = rng.randrange(4, 41)
        g = complete_graph(n) if it % 2 else random_cobipartite(rng, n)
        start = time.time()
        out = approximate_mu_tw(g, 2)
        elapsed = time.time() - start
        worst = max(worst, elapsed)
        if (out is None or not validate(g, out)
                or width(g, out, "mu").width > 33
                or elapsed > DECOMPOSE_BUDGET_SECONDS):
            failures += 1
    _report(6, failures == 0,
            "decompose -k 2 on 200 complete/co-bipartite graphs n<=40, "
            f"{failures} failures, worst instance {worst:.1f}s")


def test_criterion_7_separator_bound():
    rng = rng_from_seed(107)
    failures = 0
    for _ in range(120):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        k = rng.randrange(1, 3)
        a = rng.getrandbits(n) or 1
        b = rng.getrandbits(n) or (1 << (n - 1))
        out = find_separator(closure(g, k, ALPHA), a, b)
        lam = lambda m: ALPHA.value(g, m)
        if out.separator is not None:
            s = out.separator
            if (ALPHA.value(g, s) > k * k * (k + 1) // 2
                    or not _separates(g.gaifman_adj(), n, s, a & ~s, b & ~s)):
                failures += 1
        else:
            # no refutation allowed when both certificates exist
            has_sep = separator_exists_bruteforce(g, a, b, lam, k) is not None
            tw_ok = lambda_tw_exact(g, lam)[0] <= k
            if has_sep and tw_ok:
                failures += 1
    _report(7, failures == 0,
            f"find_separator bound + disconnection on 120 instances, "
            f"{failures} failures")


def test_criterion_8_well_behaved_axioms():
    rng = rng_from_seed(108)
    failures = 0
    for _ in range(1000):
        n = rng.randrange(1, 9)
        if rng.random() < 0.5:
            h = random_graph(rng, n, rng.uniform(0.2, 0.7))
        else:
            h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        s = rng.getrandbits(n)
        t = rng.getrandbits(n)
        adj = h.gaifman_adj()
        for m in (ALPHA, RHO):
            vs, vt = m.value(h, s), m.value(h, t)
            vst = m.value(h, s | t)
            for v in range(n):  # unit singletons (rho may be inf)
                val = m.value(h, 1 << v)
                if val is not math.inf and val != 1:
                    failures += 1
                if val is math.inf and m is not RHO:
                    failures += 1
            if vst > vs + vt:  # subadditive
                failures += 1
            td = t & ~s
            if not any(adj[v] & td for v in bits(s)):  # additive when apart
                if m.value(h, s | td) != vs + m.value(h, td):
                    failures += 1
            if m.value(h, s & t) > vs:  # monotone
                failures += 1
            k = rng.randrange(0, n + 2)  # bounded-budget decide
            if m.decide(h, s, k) != (vs <= k):
                failures += 1
    _report(8, failures == 0,
            f"five axioms for alpha and rho on 1000 triples, {failures} violations")


def test_criterion_9_format_round_trips():
    rng = rng_from_seed(109)
    corpus = [
        Hypergraph(0, []),
        Hypergraph(1, []),
        Hypergraph(3, [0]),
        Hypergraph(5, [0b00011]),
        Hypergraph(2, [0b01, 0b10]),
        path_graph(3),
        cycle_graph(5),
        complete_graph(4),
    ]
    while len(corpus) < 50:
        n = rng.randrange(1, 14)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 3), rank=5)
        if rng.random() < 0.3:
            h = Hypergraph(h.n, h.edges, tuple(random_weights(rng, n)))
        corpus.append(h)
    failures = 0
    for h in corpus:
        text = serialize_hypergraph(h)
        if parse_hypergraph(text) != h or serialize_hypergraph(parse_hypergraph(text)) != text:
            failures += 1
        t = random_decomposition(rng, h)
        td_text = serialize_td(t, h.n)
        t2 = parse_td(td_text)
        if t2.bags != t.bags or t2.tree_edges != t.tree_edges \
                or serialize_td(t2, h.n) != td_text:
            failures += 1
    _report(9, failures == 0,
            f"parse/serialize round trips on a 50-file corpus, {failures} failures")
