"""Approximation pipeline for well-behaved width measures.

Given a hypergraph H, a budget k and a well-behaved measure lambda, the
entry point ``approx_decomposition`` either builds a tree decomposition of
lambda-width at most 2k^3 + 2k^2 + 3k + 3 or correctly concludes that
lambda-tw(H) > k.  The machinery: a saturated "closure" supergraph of the
Gaifman graph, clique-separator atoms from a minimal triangulation, a 2-SAT
driven (A,B)-separator search, and a balanced split of a working set W.
One walk, ``_bits.reach``, serves the components, the atoms, the
separator checks, the sides of a split in ``_recurse`` and the 2-SAT
solver, an implication closure (``two_sat_solve``).
Unless lambda(V) <= k, the bags of one min-fill elimination (Bodlaender
and Koster, "Treewidth computations I. Upper bounds", 2010) are checked
against k, and the elimination answers if each fits.  The recursion runs
only when a bag does not and lambda(V) > big_K, so it alone refutes.  Where
lambda(V) <= big_K, the same walk goes on under a limit raised one at a
time, and the elimination answers in place of one bag if every bag
measures below lambda(V).  The pipeline reads the measure only through the
bounded-budget question lambda(S) <= k?, which
``WellBehavedMeasure.decide`` answers.

One ``balanced_split`` builds one closure graph for its (H, k, lambda)
and asks ``find_separator`` for many sides (A, B) on it.  The guesses (I,
K_v, J1) come from one generator, ``_guesses``, and the ``ClosureGraph``
keeps the ones read so far in one lazily read list.  Each guess is built
when a call first reads it, with every fact about it that depends on the
closure alone: the atoms of its independent set I, the components outside
Z = X + K_v with their neighbourhoods, the 2-SAT variables and clauses of
its J1, and the 2-SAT answer (with its measure check) per forced set.  The
closure graph also keeps the components of the Gaifman graph minus each
separator tried.  Per side, a call computes only which of those components
meet A or B and the forced set they imply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from ._bits import bits, mask_of, reach
from .decomposition import (TreeDecomposition, _mcs_m, elimination_tree,
                            eliminate, single_bag)
from .errors import InputError, ResourceError
from .hypergraph import Hypergraph, _remap_mask, induced
from .measures import WellBehavedMeasure

GUESS_CAP = 200_000


class ClosureGraph:
    """Gaifman graph of H saturated with edges between vertices whose common
    neighborhood (at insertion time) has measure m above k.

    It is built for one (H, k, m) and holds what ``find_separator`` found on
    it, for every side: ``built`` the guesses read so far, in the order
    ``_guesses`` yields them (a call that stops early builds no more than it
    reads), and ``split`` the components of the Gaifman graph without each
    separator tried.
    """

    def __init__(self, h: Hypergraph, k: int, m: WellBehavedMeasure,
                 adj: tuple[int, ...]):
        self.h, self.k, self.m = h, k, m
        self.adj = adj
        self.built: list[_Guess] = []
        self.pending = _guesses(adj, h.vertex_mask, k)
        self.split: dict[int, list[int]] = {}

    def guess(self, i: int) -> Optional[_Guess]:
        """Guess i, built now if no call has read it yet; None past the
        last one.  Calls read the guesses in order, from guess 0."""
        if i == len(self.built):
            got = next(self.pending, None)
            if got is None:
                return None
            self.built.append(got)
        return self.built[i]

    def separates(self, sep: int, a: int, b: int) -> bool:
        """S separates A from B: A cap B inside S, and no component of the
        Gaifman graph minus S meets both."""
        if a & b & ~sep:
            return False
        comps = self.split.get(sep)
        if comps is None:
            comps = self.split[sep] = list(
                _components(self.h.gaifman_adj(), self.h.vertex_mask & ~sep))
        for comp in comps:
            if comp & a and comp & b:
                return False
        return True


def closure(h: Hypergraph, k: int, m: WellBehavedMeasure) -> ClosureGraph:
    """Add uv (lex-first, repeated passes) while lambda_H(N(u) cap N(v)) > k.

    The measure is always evaluated against the original H.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    adj = list(h.gaifman_adj())
    fits: dict[int, bool] = {}  # m.decide(h, common, k) per common mask
    changed = True
    while changed:
        changed = False
        for u in range(h.n):
            for v in range(u + 1, h.n):
                if (adj[u] >> v) & 1:
                    continue
                common = adj[u] & adj[v]
                fit = fits.get(common)
                if fit is None:
                    fit = fits[common] = m.decide(h, common, k)
                if not fit:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    changed = True
    return ClosureGraph(h, k, m, tuple(adj))


# ---------------------------------------------------------------------------
# clique-separator atoms


def _is_clique(adj, mask: int) -> bool:
    for v in bits(mask):
        if mask & ~(adj[v] | (1 << v)):
            return False
    return True


def _components(adj, allowed: int):
    rest = allowed
    while rest:
        comp = reach(adj, rest & -rest, allowed)
        yield comp
        rest &= ~comp


def atoms(adj, universe: int) -> list[int]:
    """Clique-separator decomposition leaves of the graph on ``universe``.

    At most |universe| sets; every clique lies inside some member, and for
    every member K and clique C, K minus C stays within one component of the
    graph minus C.
    """
    if universe == 0:
        return [0]
    fill, alpha = _mcs_m(adj, universe)
    meo = sorted(alpha, key=alpha.__getitem__)
    vprime = universe
    out = []
    for x in meo[:-1]:
        higher = 0
        for y in bits(fill[x]):
            if alpha[y] > alpha[x]:
                higher |= 1 << y
        if not _is_clique(adj, higher):
            continue
        if not (vprime >> x) & 1:
            continue
        comp = reach(adj, 1 << x, vprime & ~higher & universe)
        if vprime & ~(higher | comp) == 0:
            continue  # the clique does not separate what remains
        out.append(higher | comp)
        vprime &= ~comp
    out.append(vprime)
    return out


# ---------------------------------------------------------------------------
# 2-SAT


def two_sat_solve(n: int, clauses, forced_true) -> Optional[list[bool]]:
    """A satisfying assignment of the clauses over variables 0..n-1 with
    every variable of ``forced_true`` true, or None.  A clause is a pair of
    literals, and a literal a (variable, polarity) pair.

    Even, Itai and Shamir's implication closure ("On the complexity of
    timetable and multicommodity flow problems", SIAM J. Comput. 1976) on
    ``reach``: literal 2v is v true and 2v + 1 is v false, and a clause
    (a or b) gives the implications not a -> b and not b -> a.  The closure
    of the forced literals is set first; then each variable v not yet set
    takes the closure of v, or else of not v, whichever holds no
    complementary pair (None if both fail).  A closure never negates a
    literal l already set: v -> not l is l -> not v, and the set literals
    are closed, so v would be set.

    Exact.  A consistent closure satisfies every clause it touches, since a
    false literal of a clause implies the other one, which is then in the
    closure too; every variable ends in some closure, so the answer is a
    model.  None is right too.  Let T be the literals set so far, and some
    model make T true.  If the closure C of v (or not v) is consistent,
    that model changed to make C true still satisfies the clauses, as C
    satisfies those it touches and leaves the others alone, and makes T
    and C true.  If both closures fail, no model makes T true: a model
    makes v or not v true, and with it every literal of that closure.
    """
    adj = [0] * (2 * n)
    for a, b in clauses:
        if not (0 <= a[0] < n and 0 <= b[0] < n):
            raise InputError("clause references an undeclared variable")
        la, lb = 2 * a[0] + (not a[1]), 2 * b[0] + (not b[1])
        adj[la ^ 1] |= 1 << lb
        adj[lb ^ 1] |= 1 << la
    odd = ((1 << 2 * n) - 1) // 3 << 1   # the negative literals
    true = reach(adj, mask_of(2 * v for v in forced_true), -1)
    if true & odd & (true << 1):
        return None
    for v in range(n):
        if (true >> 2 * v) & 3:
            continue
        for lit in (2 * v, 2 * v + 1):
            closed = reach(adj, 1 << lit, -1)
            if not closed & odd & (closed << 1):
                true |= closed
                break
        else:
            return None
    return [bool((true >> 2 * v) & 1) for v in range(n)]


# ---------------------------------------------------------------------------
# separator search


@dataclass(frozen=True)
class SeparatorResult:
    separator: Optional[int] = None
    refutation: Optional[str] = None  # "lambda-tw exceeded" | "not separable"

    @property
    def ok(self) -> bool:
        return self.separator is not None


def _independent_sets_with_neighbourhoods(adj, universe: int, size: int):
    """Yield (I, N[I]) for every independent set I of the graph with at
    most ``size`` vertices, the empty set first, then depth first by
    smallest added vertex.

    Lazy, so a caller that stops at the first useful set builds no others;
    the stack holds one frame [set, size of its extensions, candidates left,
    closed neighbourhood of the set] per vertex of the current set, at most
    ``size`` frames.
    """
    yield 0, 0
    if size < 1:
        return
    stack = [[0, 1, universe, 0]]
    while stack:
        frame = stack[-1]
        rest = frame[2]
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        rest ^= low
        frame[2] = rest
        nxt = frame[0] | low
        near = adj[low.bit_length() - 1]
        closed = frame[3] | near | low
        yield nxt, closed
        if frame[1] < size:
            stack.append([nxt, frame[1] + 1, rest & ~near, closed])


_UNSAT = -1      # verdict: the 2-SAT formula has no solution
_EXCEEDED = -2   # verdict: a solution's part in some atom has measure > k


def find_separator(cg: ClosureGraph, a: int, b: int) -> SeparatorResult:
    """(A,B)-separator with lambda at most C(k+1,2)*k, or a refutation, for
    the (H, k, lambda) the closure ``cg`` was built for.

    The refutation is the disjunction "no separator with lambda <= k exists,
    or lambda-tw(H) > k"; the two causes are not distinguished, except that
    a 2-SAT solution whose part in some atom has measure above k
    (``_EXCEEDED``) reports "lambda-tw exceeded" on its own.

    The guesses are read from ``cg``, which builds each one on first read,
    so calls on one closure share them and what they need apart from the
    side (atoms, components outside Z, 2-SAT clauses, 2-SAT answers and
    their measure checks, components of the Gaifman graph minus a
    separator).  Per atom choice, a call ORs the neighbourhoods of the
    components outside Z that meet A (resp. B); per guess it reads the
    forced set off those masks and checks separation against the cached
    components.  Every guess counts towards ``GUESS_CAP``, cached or not.
    """
    if (a | b) & ~cg.h.vertex_mask:
        raise InputError("A or B contains an unknown vertex id")
    guesses = 0
    combo = None
    while (guess := cg.guess(guesses)) is not None:
        guesses += 1
        if guesses > GUESS_CAP:
            raise ResourceError("separator guess cap exceeded",
                                guesses=guesses)
        if guess.combo is not combo:
            # A (resp. B) plus the neighbours of its reach outside Z: an
            # atom vertex there must join S when its member sits on the
            # other side
            combo = guess.combo
            near_a, near_b = a, b
            for comp, touch in combo.comps:
                if comp & a:
                    near_a |= touch
                if comp & b:
                    near_b |= touch
        bad = (guess.k1 & near_b) | (guess.k2 & near_a)
        sep = guess.verdicts.get(bad)
        if sep is None:
            sep = guess.verdicts[bad] = _verdict(guess, bad, cg)
        if sep == _EXCEEDED:
            return SeparatorResult(refutation="lambda-tw exceeded")
        if sep >= 0 and cg.separates(sep, a, b):
            return SeparatorResult(separator=sep)
    return SeparatorResult(refutation="not separable")


def _verdict(guess: _Guess, bad: int, cg: ClosureGraph) -> int:
    """The separator candidate S' + X of one guess with forced set ``bad``,
    or ``_UNSAT`` or ``_EXCEEDED``."""
    combo = guess.combo
    var_of = combo.var_of
    assignment = two_sat_solve(len(var_of), guess.clauses,
                               {var_of[u] for u in bits(bad)})
    if assignment is None:
        return _UNSAT
    s_prime = 0
    for v, i in var_of.items():
        if assignment[i]:
            s_prime |= 1 << v
    for km in combo.k_v:
        if not cg.m.decide(cg.h, s_prime & km, cg.k):
            return _EXCEEDED
    return s_prime | combo.x_mask


def _guesses(adj2, universe: int, k: int):
    """Yield one ``_Guess`` per (I, K_v, J1) of the closure ``adj2``: I an
    independent set of at most k vertices, K_v one atom of N[v] - X per
    member v of I, where X holds the common neighbours of two members, and
    J1 the members whose atoms sit on side A.  The guesses of one choice of
    atoms share one ``_AtomChoice``; a set's atoms are built when its first
    guess is read."""
    for i_set, _ in _independent_sets_with_neighbourhoods(adj2, universe, k):
        members = list(bits(i_set))
        x_mask = 0
        for ii, u in enumerate(members):
            for v in members[ii + 1:]:
                x_mask |= adj2[u] & adj2[v]
        choices = []
        for v in members:
            n_v = (adj2[v] & ~x_mask) | (1 << v)
            choices.append(atoms(tuple(av & n_v for av in adj2), n_v))
        for k_v in product(*choices):
            combo = _AtomChoice(adj2, universe, x_mask, k_v)
            for j1 in range(1 << len(k_v)):
                yield _Guess(combo, j1)


class _AtomChoice:
    """What every J1/J2 guess over one choice of atoms K_v shares, given
    Z = X plus the atoms: the components outside Z with their
    neighbourhoods, the 2-SAT variables (Z minus X), the components each
    variable touches and the same-atom clauses."""

    def __init__(self, adj2, universe: int, x_mask: int,
                 k_v: tuple[int, ...]):
        self.adj2 = adj2
        self.x_mask = x_mask
        self.k_v = k_v
        z = x_mask
        for km in k_v:
            z |= km
        var_mask = z & ~x_mask
        self.var_of = var_of = {v: i for i, v in enumerate(bits(var_mask))}
        # near[u]: the components outside Z that u touches; u and v are
        # linked when adjacent or when both touch one component
        self.near = near = dict.fromkeys(var_of, 0)
        self.comps = []
        for comp in _components(adj2, universe & ~z):
            touching = 0
            for x in bits(comp):
                touching |= adj2[x]
            self.comps.append((comp, touching))
            for u in bits(touching & var_mask):
                near[u] |= comp
        self.inner = []   # no two non-adjacent vertices of one atom in S
        for km in k_v:
            for u1 in bits(km):
                for u2 in bits(km & ~((1 << (u1 + 1)) - 1)):
                    if not (adj2[u1] >> u2) & 1:
                        self.inner.append(((var_of[u1], False),
                                           (var_of[u2], False)))


class _Guess:
    """One guess (I, K_v, J1) over ``combo``, its atom choice (bit i of J1:
    member i sits on side A's atom part): K1, K2, the 2-SAT clauses and the
    verdict of ``_verdict`` per forced set."""

    __slots__ = ("combo", "k1", "k2", "clauses", "verdicts")

    def __init__(self, combo: _AtomChoice, j1: int):
        self.combo = combo
        k1 = k2 = 0
        for i, km in enumerate(combo.k_v):
            if (j1 >> i) & 1:
                k1 |= km
            else:
                k2 |= km
        self.k1, self.k2 = k1, k2
        adj2, var_of = combo.adj2, combo.var_of
        # bad pairs across J1/J2 atoms: adjacent, or connected outside Z
        clauses = []
        for u in bits(k1):
            linked_to = adj2[u]
            near = combo.near[u]
            for v in bits(k2):
                if u != v and ((linked_to >> v) & 1 or adj2[v] & near):
                    clauses.append(((var_of[u], True), (var_of[v], True)))
        self.clauses = clauses + combo.inner
        self.verdicts: dict[int, int] = {}


# ---------------------------------------------------------------------------
# balanced split and the recursive decomposition


def balanced_split(h: Hypergraph, w: int, k: int, m: WellBehavedMeasure,
                   r: int) -> Optional[tuple[int, int, int]]:
    """(A, B, S): a partition (A,B) of W plus an (A,B)-separator S with
    lambda(S) bounded by C(k+1,2)*k and lambda(A\\S), lambda(B\\S) at most
    (2/3)r + k; or None, the refutation lambda-tw(H) > k.  Measures are
    ints, so the side bound is decided at its floor."""
    if k < 1:
        raise InputError("k must be at least 1")
    if w & ~h.vertex_mask:
        raise InputError("W contains an unknown vertex id")
    max_i = 2 * r // 3
    side_cap = max_i + k
    gaif = h.gaifman_adj()
    cg = None
    # b = W \ a, so a side that was tried before fails the same way again
    tried = set()
    for _, gamma in _independent_sets_with_neighbourhoods(
            gaif, h.vertex_mask, max_i):
        a = gamma & w
        if a in tried:
            continue
        tried.add(a)
        b = w & ~gamma
        if not m.decide(h, a, side_cap) or not m.decide(h, b, side_cap):
            continue
        if cg is None:
            cg = closure(h, k, m)
        res = find_separator(cg, a, b)
        if res.ok:
            return a, b, res.separator
        if res.refutation == "lambda-tw exceeded":
            return None
    return None


def width_bound(k: int) -> int:
    return 2 * k ** 3 + 2 * k ** 2 + 3 * k + 3


def _grow_wstar(h: Hypergraph, m: WellBehavedMeasure, w: int, big_k: int):
    """Greedy min-id growth of W until lambda hits big_k or W covers V.

    Returns (W*, overshoot) where overshoot means a single vertex pushed the
    measure past big_k (only possible for measures with infinite jumps)."""
    full = h.vertex_mask
    wstar = w
    while wstar != full and m.decide(h, wstar, big_k - 1):
        rest = full & ~wstar
        wstar |= rest & -rest
        if not m.decide(h, wstar, big_k):
            return wstar, True
    return wstar, False


def _fill_in(adj, v: int, live: int) -> int:
    """Pairs of v's live neighbours that are not adjacent in ``adj``."""
    near = rest = adj[v] & live
    # each neighbour u counts itself once in near & ~adj[u]; the walk is
    # inline, as a bits() generator per call cost more than the count
    missing = -near.bit_count()
    while rest:
        low = rest & -rest
        missing += (near & ~adj[low.bit_length() - 1]).bit_count()
        rest ^= low
    return missing // 2


def _min_fill(h: Hypergraph):
    """Yield (vertex, bag) for each step of a min-fill elimination of the
    Gaifman graph, lazily, so a caller that stops early forms no more bags.

    Each step eliminates the live vertex whose neighbours need the fewest
    fill edges, the lowest id on ties; a vertex with fill 0 is taken as soon
    as the scan meets it.  Its bag is the vertex plus its live neighbours in
    the filled graph.  A fill count is recomputed only after a step that
    changed the vertex's neighbourhood: it is a neighbour of the eliminated
    vertex or adjacent to one.
    """
    adj = list(h.gaifman_adj())
    live = h.vertex_mask
    fill: list[Optional[int]] = [None] * h.n
    while live:
        best = best_fill = None
        for v in bits(live):
            f = fill[v]
            if f is None:
                f = fill[v] = _fill_in(adj, v, live)
            if best_fill is None or f < best_fill:
                best, best_fill = v, f
                if f == 0:
                    break
        bag = eliminate(adj, best, live)
        yield best, bag
        live &= ~(1 << best)
        stale = bag
        for u in bits(bag):
            stale |= adj[u]
        for u in bits(stale & live):
            fill[u] = None


def _big_k(k: int) -> int:
    """big_K: the measure up to which a part of the recursion is one bag."""
    return (3 * (k ** 3 + k ** 2)) // 2 + 3 * k + 3


def approx_decomposition(h: Hypergraph, k: int, m: WellBehavedMeasure):
    """Tree decomposition of lambda-width <= 2k^3+2k^2+3k+3, or None, the
    refutation lambda-tw(H) > k.

    With V the vertex set: one bag if lambda(V) <= k.  Otherwise the bags
    of one min-fill elimination (``_min_fill``) are taken in turn under a
    limit that starts at k.  Invariant: lambda(V) > limit, and every bag
    taken measures at most limit.  The first bag above k sends the input to
    the paper's recursion if lambda(V) > big_K, so every refutation comes
    from it, and exactly when a bag exceeds k and lambda(V) > big_K.  Else
    each bag above the limit raises it by one; if then lambda(V) <= limit,
    one bag answers, and if not the bag is checked again.  The elimination
    answers once every bag is taken.

    So the answer is the elimination if each of its bags measures at most
    k, which proves lambda-tw(H) <= k.  Else, with k < lambda(V) <= big_K,
    it is the elimination if each bag measures below lambda(V), and one bag
    otherwise.  Proof: the limit rises by one at a time and only while
    lambda(V) exceeds it, so one bag answers exactly when it reaches
    lambda(V).  It rises from L only past a bag above L, so it never
    exceeds the largest bag, and a bag is a subset of V, so it measures at
    most lambda(V); the limit therefore reaches lambda(V) iff some bag
    measures lambda(V).  No answer is wider than lambda(V), or than the one
    bag the recursion would give.  Every call asks the bounded question
    lambda(S) <= limit?, and one whose answer is no stops at its first
    witness; the elimination is built once, and only as far as it is read.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    full = h.vertex_mask
    if m.decide(h, full, k):
        return single_bag(h)
    limit, order, bags = k, [], []
    for v, bag in _min_fill(h):
        while not m.decide(h, bag, limit):
            if limit == k and not m.decide(h, full, _big_k(k)):
                return _recurse(h, k, m, 0)
            limit += 1
            if m.decide(h, full, limit):
                return single_bag(h)
        order.append(v)
        bags.append(bag)
    return elimination_tree(order, bags)


def _recurse(h: Hypergraph, k: int, m: WellBehavedMeasure, w: int):
    """A TreeDecomposition whose bag 0 contains w, or None, a refutation."""
    full = h.vertex_mask
    big_k = _big_k(k)
    if m.decide(h, full, big_k):
        return single_bag(h)
    wstar, overshoot = _grow_wstar(h, m, w, big_k)
    if overshoot:
        # a single vertex has unbounded measure; no decomposition of width k
        return None
    split = balanced_split(h, wstar, k, m, r=big_k)
    if split is None:
        return None
    a, b, sep = split
    # V1: the components of the Gaifman graph minus S that meet A
    v1 = reach(h.gaifman_adj(), a, full & ~sep)
    v2 = full & ~(v1 | sep)
    root_bag = wstar | sep
    bags = [root_bag]
    tree = []
    for vi, ai in ((v1, a), (v2, b)):
        if vi & ~ai == 0:
            continue
        # a separator keeps A and B in different components, so
        # Ai + S lies inside Vi + S
        sub, remap = induced(h, vi | sep)
        td = _recurse(sub, k, m, _remap_mask(ai | sep, remap))
        if td is None:
            return None
        offset = len(bags)
        # ``induced`` numbers the kept ids in increasing order
        back = list(remap)
        bags.extend(_remap_mask(bmask, back) for bmask in td.bags)
        tree.extend((x + offset, y + offset) for x, y in td.tree_edges)
        tree.append((0, offset))
    return TreeDecomposition(bags, tree)
