"""Command-line front-end.

Subcommands: decompose, validate, width, trace, solve, reduce, stats,
selftest.  Exit codes: 0 ok, 10 refuted, 20 resource cap exceeded, 2 invalid
input.  With --json the report goes to stdout as a single JSON object with a
"schema" field; diagnostics always go to stderr.

``--caps`` exists on trace and solve only, the two subcommands that read it:
nodes and depth bound the blocker trace, table bounds DP tables.  The other
caps (separator guesses in decompose, per-set oracle steps) are fixed module
constants and still exit 20 when hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from ._bits import bits
from .approx import Refutation, approx_decomposition, width_bound
from .blocker import DEFAULT_NODE_CAP, BranchCaps, trace_blocker
from .decomposition import validate, width
from .dp import (DEFAULT_TABLE_CAP, chromatic_decide, hom_decide, mwis)
from .errors import InputError, ResourceError
from .formats import (parse_hypergraph, parse_td, serialize_hypergraph,
                      serialize_td)
from .hypergraph import Graph, Hypergraph
from .measures import BAG_MEASURES, MEASURES, get_measure
from .reductions import approximate_mu_tw, line_square, pendant_extend

EXIT_OK = 0
EXIT_REFUTED = 10
EXIT_RESOURCE = 20
EXIT_INVALID = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    p = argparse.ArgumentParser(
        prog="mmtw",
        description="Minor-matching hypertree width: decompositions, blocker "
                    "traces and DP solvers.")
    p.add_argument("--version", action="version", version=f"mmtw {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
        sp.add_argument("-o", "--output", metavar="PATH",
                        help="write the main payload to PATH instead of stdout")

    def caps(sp):
        sp.add_argument("--caps", metavar="K=V[,K=V...]", default="",
                        help="resource caps: nodes=N (branch nodes, default "
                             f"{DEFAULT_NODE_CAP}), depth=N (branch depth, "
                             "default unlimited), table=N (DP table entries, "
                             f"default {DEFAULT_TABLE_CAP}); nodes and depth "
                             "bound the blocker trace, which solve runs only "
                             "for mwis")

    sp = sub.add_parser("decompose", help="approximate a bounded-width "
                        "decomposition or refute the width bound")
    sp.add_argument("hypergraph")
    sp.add_argument("-k", type=int, required=True,
                    help="target width parameter (output width is at most "
                         "2k^3+2k^2+3k+3)")
    sp.add_argument("--measure", choices=sorted(MEASURES),
                    help="well-behaved measure for the generic pipeline; "
                         "without it, 2-uniform inputs get the mu-width "
                         "reduction")
    common(sp)

    sp = sub.add_parser("validate", help="check a decomposition against a "
                        "hypergraph")
    sp.add_argument("hypergraph")
    sp.add_argument("decomposition")
    common(sp)

    sp = sub.add_parser("width", help="per-bag measure values and the width")
    sp.add_argument("hypergraph")
    sp.add_argument("decomposition")
    sp.add_argument("--measure", choices=tuple(BAG_MEASURES), default="mu")
    common(sp)

    sp = sub.add_parser("trace", help="trace of the blocker on a vertex set")
    sp.add_argument("hypergraph")
    sp.add_argument("-S", required=True, metavar="V1,V2,...",
                    help="comma-separated 1-based vertex ids (empty for S=∅)")
    common(sp)
    caps(sp)

    sp = sub.add_parser("solve", help="run a DP solver over a decomposition")
    sp.add_argument("hypergraph")
    sp.add_argument("decomposition")
    sp.add_argument("--problem", choices=("mwis", "color", "hom"),
                    required=True)
    sp.add_argument("-k", type=int, help="colour count (color)")
    sp.add_argument("--target", metavar="PATH",
                    help="target hypergraph file (hom)")
    common(sp)
    caps(sp)

    sp = sub.add_parser("reduce", help="apply a width-preserving reduction")
    sp.add_argument("hypergraph")
    sp.add_argument("kind", choices=("m", "l2"),
                    help="m: pendant extension (alpha -> mu); l2: squared "
                         "line graph (mu -> alpha)")
    common(sp)

    sp = sub.add_parser("stats", help="basic facts about a hypergraph")
    sp.add_argument("hypergraph")
    common(sp)

    sp = sub.add_parser("selftest", help="run a built-in consistency battery")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    return p


def _parse_caps(spec: str) -> dict:
    caps = {"nodes": DEFAULT_NODE_CAP, "depth": None, "table": DEFAULT_TABLE_CAP}
    if not spec:
        return caps
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"bad --caps entry {part!r}, expected key=value")
        key, _, val = part.partition("=")
        if key not in caps:
            raise InputError(f"unknown cap {key!r}; known: nodes, depth, table")
        try:
            caps[key] = int(val)
        except ValueError:
            raise InputError(f"bad cap value {val!r}")
        if caps[key] < 0:
            raise InputError(f"bad cap value {val!r}, expected >= 0")
    return caps


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")


def _load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(_read(path))


def _as_graph(h: Hypergraph) -> Graph:
    try:
        return Graph(h.n, h.edges, h.weights)
    except InputError:
        raise InputError("input is not 2-uniform; pass --measure for the "
                         "generic pipeline")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if x == float("inf"):
        return "inf"
    return x


class _Report:
    """Collects the payload and renders it once, as JSON or plain text."""

    def __init__(self, args):
        self.args = args
        self.status = "ok"
        self.fields: dict = {}
        self.payload_text: str | None = None

    def emit(self) -> int:
        code = {"ok": EXIT_OK, "refuted": EXIT_REFUTED,
                "resource-exceeded": EXIT_RESOURCE,
                "invalid-input": EXIT_INVALID}[self.status]
        if self.args.json:
            doc = {"schema": 1, "status": self.status}
            doc.update({k: _jsonable(v) for k, v in self.fields.items()})
            if self.payload_text is not None:
                doc["payload"] = self.payload_text
            print(json.dumps(doc, sort_keys=True))
            if self.args.output and self.payload_text is not None:
                with open(self.args.output, "w", encoding="utf-8") as fh:
                    fh.write(self.payload_text)
            return code
        lines = [f"status: {self.status}"]
        lines += [f"{k}: {_jsonable(v)}" for k, v in self.fields.items()]
        if self.payload_text is not None and not self.args.output:
            # keep stdout clean for the payload; report goes to stderr
            print("\n".join(lines), file=sys.stderr)
            print(self.payload_text, end="")
        else:
            print("\n".join(lines))
            if self.payload_text is not None:
                with open(self.args.output, "w", encoding="utf-8") as fh:
                    fh.write(self.payload_text)
        return code


def _cmd_decompose(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    if args.k < 1:
        raise InputError("-k must be at least 1")
    if args.measure is None:
        g = _as_graph(h)
        out = approximate_mu_tw(g, args.k)
        measure_name = "mu"
    else:
        m = get_measure(args.measure)
        out = approx_decomposition(h, args.k, m)
        measure_name = args.measure
    if isinstance(out, Refutation):
        report.status = "refuted"
        report.fields["reason"] = out.message
        report.fields["k"] = args.k
        return
    ok = validate(h, out)
    if not ok:
        raise RuntimeError(f"internal: emitted decomposition invalid: {ok.reason}")
    rep = width(h, out, measure_name)
    bound = width_bound(args.k)
    if not isinstance(rep.width, float) and rep.width > bound:
        raise RuntimeError("internal: emitted decomposition exceeds the bound")
    report.fields["k"] = args.k
    report.fields["measure"] = measure_name
    report.fields["width"] = rep.width
    report.fields["width_bound"] = bound
    report.fields["bags"] = out.node_count
    report.payload_text = serialize_td(out, h.n)


def _cmd_validate(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    t = parse_td(_read(args.decomposition))
    ok = validate(h, t)
    report.fields["valid"] = bool(ok)
    if not ok:
        report.status = "invalid-input"
        report.fields["reason"] = ok.reason


def _cmd_width(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    t = parse_td(_read(args.decomposition))
    rep = width(h, t, args.measure)
    report.fields["measure"] = rep.measure
    report.fields["width"] = rep.width
    report.fields["witness_bag"] = rep.witness_bag + 1
    report.fields["per_bag"] = [_jsonable(v) for v in rep.per_bag]


def _cmd_trace(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    caps = _parse_caps(args.caps)
    s = 0
    text = args.S.strip()
    if text:
        for tok in text.split(","):
            try:
                v = int(tok)
            except ValueError:
                raise InputError(f"bad vertex id {tok!r} in -S")
            if not 1 <= v <= h.n:
                raise InputError(f"vertex {v} out of range 1..{h.n}")
            s |= 1 << (v - 1)
    res = trace_blocker(h, s, BranchCaps(caps["nodes"], caps["depth"]))
    members = [sorted(v + 1 for v in bits(a)) for a in res.traces]
    report.fields["S"] = sorted(v + 1 for v in bits(s))
    report.fields["members"] = members
    report.fields["count"] = len(members)
    report.fields["nodes_explored"] = res.nodes_explored
    report.fields["max_quasimatching_len"] = res.max_quasimatching_len


def _cmd_solve(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    t = parse_td(_read(args.decomposition))
    caps = _parse_caps(args.caps)
    tc = BranchCaps(caps["nodes"], caps["depth"])
    if args.problem == "mwis":
        val, wit = mwis(h, None, t, tc, caps["table"])
        report.fields["problem"] = "mwis"
        report.fields["value"] = val
        report.fields["witness"] = sorted(v + 1 for v in bits(wit))
    elif args.problem == "color":
        if args.k is None:
            raise InputError("color needs -k")
        ans = chromatic_decide(h, args.k, t, tc, caps["table"])
        report.fields["problem"] = "color"
        report.fields["k"] = args.k
        report.fields["colorable"] = ans
        if not ans:
            report.status = "refuted"
    else:
        if not args.target:
            raise InputError("hom needs --target")
        f = _load_hypergraph(args.target)
        ans = hom_decide(h, f, t, tc, caps["table"])
        report.fields["problem"] = "hom"
        report.fields["homomorphic"] = ans
        if not ans:
            report.status = "refuted"


def _cmd_reduce(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    g = _as_graph(h)
    if args.kind == "m":
        x = pendant_extend(g)
        out = x.extended
        maps = [f"c map {v + g.n + 1} pendant-of {v + 1}" for v in range(g.n)]
        report.fields["kind"] = "pendant-extension"
    else:
        x = line_square(g)
        out = x.line
        maps = [f"c map {i + 1} edge " +
                " ".join(str(v + 1) for v in bits(e))
                for i, e in enumerate(x.edge_of)]
        report.fields["kind"] = "squared-line-graph"
    report.fields["n"] = out.n
    report.fields["m"] = len(out.edges)
    report.payload_text = serialize_hypergraph(out) + "".join(s + "\n" for s in maps)


def _cmd_stats(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    adj = h.gaifman_adj()
    report.fields["n"] = h.n
    report.fields["m"] = len(h.edges)
    report.fields["rank"] = h.rank
    report.fields["gaifman_edges"] = sum(a.bit_count() for a in adj) // 2
    report.fields["isolated"] = sum(1 for v in range(h.n)
                                    if adj[v] == 0 and
                                    not any((e >> v) & 1 for e in h.edges))
    report.fields["weighted"] = h.weights is not None


def _cmd_selftest(args, report: _Report) -> None:
    from .generate import (random_clutter, random_decomposition, random_graph,
                           random_hypergraph, random_weights, rng_from_seed)
    from .hypergraph import blocker_bruteforce
    from .oracles import chromatic_bruteforce, mwis_bruteforce
    from .hypergraph import trace as trace_of, Clutter

    rng = rng_from_seed(args.seed)
    checks = 0
    for _ in range(25):
        c = random_clutter(rng, rng.randrange(1, 9), rng.randrange(1, 6))
        if blocker_bruteforce(blocker_bruteforce(c)) != Clutter(c.n, c.edges):
            raise RuntimeError("selftest: blocker involution failed")
        s = rng.getrandbits(c.n)
        got = trace_blocker(c, s).traces
        want = trace_of(blocker_bruteforce(c).edges, s)
        if got != want:
            raise RuntimeError("selftest: trace mismatch")
        checks += 2
    for _ in range(25):
        n = rng.randrange(2, 9)
        h = random_hypergraph(rng, n, rng.randrange(1, n + 2))
        # non-integer weights, so the check covers mwis's integer scaling
        w = tuple(x / rng.randint(1, 6) for x in random_weights(rng, n))
        t = random_decomposition(rng, h)
        if mwis(h, w, t)[0] != mwis_bruteforce(h, w)[0]:
            raise RuntimeError("selftest: mwis mismatch")
        k = rng.randrange(1, 4)
        if chromatic_decide(h, k, t) != chromatic_bruteforce(h, k):
            raise RuntimeError("selftest: colouring mismatch")
        checks += 2
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 8), 0.5)
        out = approximate_mu_tw(g, 2)
        if isinstance(out, Refutation) or not validate(g, out):
            raise RuntimeError("selftest: decompose failed on a small graph")
        checks += 1
    report.fields["seed"] = args.seed
    report.fields["checks"] = checks


_DISPATCH = {
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "width": _cmd_width,
    "trace": _cmd_trace,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "stats": _cmd_stats,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = _Report(args)
    try:
        _DISPATCH[args.command](args, report)
    except InputError as exc:
        report.status = "invalid-input"
        report.fields = {"error": str(exc)}
        report.payload_text = None
        print(f"error: {exc}", file=sys.stderr)
    except (ResourceError, RecursionError) as exc:
        # an input deeper than the interpreter's stack is a resource limit too
        report.status = "resource-exceeded"
        report.fields = {"error": str(exc), **getattr(exc, "stats", {})}
        report.payload_text = None
        print(f"error: {exc}", file=sys.stderr)
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
