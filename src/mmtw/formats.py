"""Text formats for hypergraphs and tree decompositions.

Hypergraph format: header ``p hg <n> <m>``, then m lines ``e <v1> <v2> ...``
with 1-based vertex ids, optional ``w <v> <rational>`` weight lines, and ``c``
comment lines.  Decomposition format (PACE-inspired): header
``s td <#bags> <max_bag_size> <n>``, bag lines ``b <bag_id> <v1> ...`` with
bag ids contiguous from 1, and remaining ``<id1> <id2>`` lines as tree edges.
In-memory ids are 0-based.
"""

from __future__ import annotations

from fractions import Fraction

from ._bits import bits, mask_of
from .decomposition import TreeDecomposition
from .errors import InputError
from .hypergraph import Hypergraph


def parse_hypergraph(text: str) -> Hypergraph:
    n = m = None
    edges = []
    weights = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0][0] == "c":
            continue
        if toks[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(toks) != 4 or toks[1] != "hg":
                raise InputError(f"line {lineno}: expected 'p hg <n> <m>'")
            try:
                n, m = int(toks[2]), int(toks[3])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer header field")
            if n < 0 or m < 0:
                raise InputError(f"line {lineno}: negative count")
        elif toks[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            edges.append(_vertices(toks[1:], n, lineno))
        elif toks[0] == "w":
            if n is None:
                raise InputError(f"line {lineno}: weight before header")
            if len(toks) != 3:
                raise InputError(f"line {lineno}: expected 'w <v> <rational>'")
            if weights is None:
                weights = [Fraction(1)] * n
            v = _vertex(toks[1], n, lineno)
            try:
                weights[v] = Fraction(int(toks[2]) if toks[2].isdecimal()
                                      else toks[2])
            except (ValueError, ZeroDivisionError):
                raise InputError(f"line {lineno}: bad rational {toks[2]!r}")
        else:
            raise InputError(f"line {lineno}: unknown record {toks[0]!r}")
    if n is None:
        raise InputError("missing 'p hg' header")
    if len(edges) != m:
        raise InputError(f"header declares {m} edges, found {len(edges)}")
    return Hypergraph(n, edges, tuple(weights) if weights else None)


def _vertices(toks: list[str], n: int, lineno: int) -> int:
    """The mask of the 1-based vertex tokens, read in one loop; on a bad
    token, the error ``_vertex`` raises for it."""
    m = 0
    try:
        for t in toks:
            v = int(t)
            if not 0 < v <= n:
                break
            m |= 1 << v
        else:
            return m >> 1
    except ValueError:
        pass
    return mask_of(_vertex(t, n, lineno) for t in toks)


def _vertex(tok: str, n: int, lineno: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise InputError(f"line {lineno}: non-integer vertex {tok!r}")
    if not 1 <= v <= n:
        raise InputError(f"line {lineno}: vertex {v} out of range 1..{n}")
    return v - 1


def serialize_hypergraph(h: Hypergraph) -> str:
    out = [f"p hg {h.n} {len(h.edges)}"]
    for e in h.edges:
        out.append("e " + " ".join(str(v + 1) for v in bits(e)) if e else "e")
    if h.weights is not None:
        for v, w in enumerate(h.weights):
            out.append(f"w {v + 1} {w}")
    return "\n".join(out) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    header = None
    bags: dict[int, int] = {}
    tree = []
    nbags = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if len(toks) == 2 and nbags:
            # a tree edge, read at once when both ids are in range; any
            # other line (a comment, a bag without vertices, a bad id)
            # goes on to the branches below
            try:
                a, b = int(toks[0]), int(toks[1])
            except ValueError:
                pass
            else:
                if 0 < a <= nbags and 0 < b <= nbags:
                    tree.append((a - 1, b - 1))
                    continue
        if not toks or toks[0][0] == "c":
            continue
        if toks[0] == "s":
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(toks) != 5 or toks[1] != "td":
                raise InputError(f"line {lineno}: expected 's td <#bags> <max_bag_size> <n>'")
            try:
                header = tuple(int(t) for t in toks[2:])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer header field")
            nbags = header[0]
        elif toks[0] == "b":
            if header is None:
                raise InputError(f"line {lineno}: bag before header")
            if len(toks) < 2:
                raise InputError(f"line {lineno}: bag line without id")
            try:
                bid = int(toks[1])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer bag id")
            if not 1 <= bid <= header[0]:
                raise InputError(f"line {lineno}: bag id {bid} out of range")
            if bid in bags:
                raise InputError(f"line {lineno}: duplicate bag {bid}")
            bags[bid] = _vertices(toks[2:], header[2], lineno)
        else:
            # a tree-edge line that the fast path above did not take
            if header is None:
                raise InputError(f"line {lineno}: tree edge before header")
            if len(toks) != 2:
                raise InputError(f"line {lineno}: expected '<id1> <id2>'")
            try:
                a, b = int(toks[0]), int(toks[1])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer bag id")
            raise InputError(f"line {lineno}: unknown bag id "
                             f"{b if 0 < a <= nbags else a}")
    if header is None:
        raise InputError("missing 's td' header")
    if len(bags) != nbags:
        raise InputError(f"header declares {nbags} bags, found {len(bags)}")
    bag_list = [bags[i + 1] for i in range(nbags)]
    for bag in bag_list:
        if bag.bit_count() > header[1]:
            raise InputError("bag larger than declared max bag size")
    return TreeDecomposition(bag_list, tree)


def serialize_td(t: TreeDecomposition, n: int) -> str:
    maxbag = max((b.bit_count() for b in t.bags), default=0)
    out = [f"s td {t.node_count} {maxbag} {n}"]
    names = [str(v + 1) for v in range(n)]
    for i, bag in enumerate(t.bags):
        out.append(" ".join(["b", str(i + 1), *[names[v] for v in bits(bag)]]))
    for a, b in t.tree_edges:
        out.append(f"{a + 1} {b + 1}")
    return "\n".join(out) + "\n"
