"""Command-line front-end.

Subcommands: decompose, validate, width, trace, solve, reduce, stats.  Exit
codes: 0 ok, 10 refuted, 20 resource cap exceeded, 2 invalid input.  With
--json the report goes to stdout as a single JSON object with a "schema"
field, and the payload of decompose or reduce is its "payload" field;
without it, that payload is all of stdout and the report goes to stderr.
Diagnostics always go to stderr.

``--caps`` exists on trace and solve only, the two subcommands that read it:
nodes bounds the blocker trace, and table, which solve alone takes, bounds
DP tables.  The trace has no depth cap, since nodes bounds its depth too
(see ``errors.ResourceError``).  The other caps (separator guesses in
decompose, per-set oracle steps) are fixed module constants and still exit
20 when hit.  A cap that fires at a bag names it by its 1-based id, as the
``b`` lines of a ``.td`` file do.  A memory limit set on the process (such
as ``RLIMIT_AS``) counts as a cap: running out of memory exits 20 too.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from ._bits import bits
from .approx import approx_decomposition, width_bound
from .blocker import DEFAULT_NODE_CAP, trace_blocker
from .decomposition import validate, width
from .dp import (DEFAULT_TABLE_CAP, chromatic_decide, hom_decide, mwis)
from .errors import InputError, ResourceError
from .formats import (parse_hypergraph, parse_td, serialize_hypergraph,
                      serialize_td)
from .hypergraph import Hypergraph
from .measures import BAG_MEASURES, MEASURES
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

    def caps(sp, more=""):
        sp.add_argument("--caps", metavar="K=V[,K=V...]", default="",
                        help="resource caps: nodes=N (branch nodes, default "
                             f"{DEFAULT_NODE_CAP})" + more)

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
    caps(sp, f", table=N (DP table entries, default {DEFAULT_TABLE_CAP}); "
             "nodes bounds the blocker trace, which solve runs only for mwis")

    sp = sub.add_parser("reduce", help="apply a width-preserving reduction")
    sp.add_argument("hypergraph")
    sp.add_argument("kind", choices=("m", "l2"),
                    help="m: pendant extension (alpha -> mu); l2: squared "
                         "line graph (mu -> alpha)")
    common(sp)

    sp = sub.add_parser("stats", help="basic facts about a hypergraph")
    sp.add_argument("hypergraph")
    common(sp)
    return p


# the caps each subcommand reads, with their defaults
TRACE_CAPS = {"nodes": DEFAULT_NODE_CAP}
SOLVE_CAPS = {**TRACE_CAPS, "table": DEFAULT_TABLE_CAP}


def _parse_caps(spec: str, defaults: dict) -> dict:
    """``defaults`` updated from a ``--caps`` spec; a key outside them is
    unknown."""
    caps = dict(defaults)
    if not spec:
        return caps
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"bad --caps entry {part!r}, expected key=value")
        key, _, val = part.partition("=")
        if key not in caps:
            raise InputError(f"unknown cap {key!r}; known: {', '.join(caps)}")
        try:
            caps[key] = int(val)
        except ValueError:
            raise InputError(f"bad cap value {val!r}")
        if caps[key] < 0:
            raise InputError(f"bad cap value {val!r}, expected >= 0")
    return caps


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    # the parsers split lines with str.splitlines, so "\r\n" needs no
    # newline translation
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text")


def _load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(_read(path))


def _check_graph(h: Hypergraph) -> None:
    """Raise unless every edge of ``h`` has two vertices: the parser has
    already put the edges in canonical form, so ``h`` is the graph."""
    if h.edges and h.edge_sizes() != (2, 2):
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

    def fail(self, status: str, exc: Exception) -> None:
        """Replace the report by the error ``exc`` under ``status``."""
        self.status = status
        self.fields = {"error": str(exc), **getattr(exc, "stats", {})}
        self.payload_text = None
        print(f"error: {exc}", file=sys.stderr)

    def emit(self) -> int:
        code = {"ok": EXIT_OK, "refuted": EXIT_REFUTED,
                "resource-exceeded": EXIT_RESOURCE,
                "invalid-input": EXIT_INVALID}[self.status]
        text = self.payload_text
        if self.args.json:
            doc = {"schema": 1, "status": self.status}
            doc.update({k: _jsonable(v) for k, v in self.fields.items()})
            if text is not None:
                doc["payload"] = text
            print(json.dumps(doc, sort_keys=True))
        else:
            lines = [f"status: {self.status}"]
            lines += [f"{k}: {_jsonable(v)}" for k, v in self.fields.items()]
            if text is not None:
                # keep stdout clean for the payload; report goes to stderr
                print("\n".join(lines), file=sys.stderr)
                print(text, end="")
            else:
                print("\n".join(lines))
        return code


def _cmd_decompose(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    if args.k < 1:
        raise InputError("-k must be at least 1")
    measure_name = args.measure or "mu"
    if args.measure is None:
        # the width check below runs on this h too, so it reads the
        # conflict index that line_square built
        _check_graph(h)
        out = approximate_mu_tw(h, args.k)
    else:
        out = approx_decomposition(h, args.k, MEASURES[args.measure])
    if out is None:
        report.status = "refuted"
        report.fields["reason"] = ("mu-tw exceeds k" if args.measure is None
                                   else "lambda-tw exceeds k")
        report.fields["k"] = args.k
        return
    try:
        # width validates the decomposition first, so it is checked once
        rep = width(h, out, measure_name)
    except InputError as exc:
        raise RuntimeError(f"internal: emitted {exc}") from exc
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
    rep = width(h, parse_td(_read(args.decomposition)), args.measure)
    report.fields["measure"] = args.measure
    report.fields["width"] = rep.width
    report.fields["witness_bag"] = rep.per_bag.index(rep.width) + 1
    report.fields["per_bag"] = [_jsonable(v) for v in rep.per_bag]


def _cmd_trace(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    caps = _parse_caps(args.caps, TRACE_CAPS)
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
    res = trace_blocker(h, s, caps["nodes"])
    members = [sorted(v + 1 for v in bits(a)) for a in sorted(res.traces)]
    report.fields["S"] = sorted(v + 1 for v in bits(s))
    report.fields["members"] = members
    report.fields["count"] = len(members)
    report.fields["nodes_explored"] = res.nodes_explored


def _cmd_solve(args, report: _Report) -> None:
    # each problem reads its own option; another problem's is an error, not
    # an option silently ignored
    if args.k is not None and args.problem != "color":
        raise InputError(f"-k is read by color only, not {args.problem}")
    if args.target is not None and args.problem != "hom":
        raise InputError(f"--target is read by hom only, not {args.problem}")
    h = _load_hypergraph(args.hypergraph)
    t = parse_td(_read(args.decomposition))
    caps = _parse_caps(args.caps, SOLVE_CAPS)
    if args.problem == "mwis":
        val, wit = mwis(h, t, caps["nodes"], caps["table"])
        report.fields["problem"] = "mwis"
        report.fields["value"] = val
        report.fields["witness"] = sorted(v + 1 for v in bits(wit))
    elif args.problem == "color":
        if args.k is None:
            raise InputError("color needs -k")
        ans = chromatic_decide(h, args.k, t, caps["table"])
        report.fields["problem"] = "color"
        report.fields["k"] = args.k
        report.fields["colorable"] = ans
        if not ans:
            report.status = "refuted"
    else:
        if not args.target:
            raise InputError("hom needs --target")
        f = _load_hypergraph(args.target)
        ans = hom_decide(h, f, t, caps["table"])
        report.fields["problem"] = "hom"
        report.fields["homomorphic"] = ans
        if not ans:
            report.status = "refuted"


def _cmd_reduce(args, report: _Report) -> None:
    g = _load_hypergraph(args.hypergraph)
    _check_graph(g)
    if args.kind == "m":
        out = pendant_extend(g)
        maps = [f"c map {v + g.n + 1} pendant-of {v + 1}" for v in range(g.n)]
        report.fields["kind"] = "pendant-extension"
    else:
        out = line_square(g).line
        maps = [f"c map {i + 1} edge " +
                " ".join(str(v + 1) for v in bits(e))
                for i, e in enumerate(g.edges)]
        report.fields["kind"] = "squared-line-graph"
    report.fields["n"] = out.n
    report.fields["m"] = len(out.edges)
    report.payload_text = serialize_hypergraph(out) + "".join(s + "\n" for s in maps)


def _cmd_stats(args, report: _Report) -> None:
    h = _load_hypergraph(args.hypergraph)
    adj = h.gaifman_adj()
    report.fields["n"] = h.n
    report.fields["m"] = len(h.edges)
    report.fields["rank"] = h.edge_sizes()[1]
    report.fields["gaifman_edges"] = sum(a.bit_count() for a in adj) // 2
    # a vertex is isolated when it lies in no edge, a singleton edge included
    touched = 0
    for e in h.edges:
        touched |= e
    report.fields["isolated"] = h.n - touched.bit_count()
    report.fields["weighted"] = h.weights is not None


_DISPATCH = {
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "width": _cmd_width,
    "trace": _cmd_trace,
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "stats": _cmd_stats,
}


def _file_bag_id(exc: ResourceError) -> ResourceError:
    """``exc`` naming its bag by the 1-based id of the ``b`` lines of a
    ``.td`` file, as ``witness_bag`` does: node i is the line ``b i+1``.
    The library names it by its 0-based node id, in the ``bag`` field and at
    the end of the message."""
    node = exc.stats.get("bag")
    if node is None:
        return exc
    stem, bag = str(exc).removesuffix(f" {node}"), node + 1
    return ResourceError(f"{stem} {bag}", **{**exc.stats, "bag": bag})


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser would, but a first word that
    names a subcommand sends the rest straight to that subcommand's parser:
    the top-level parse would only scan every word for its own options
    before handing them on.  An unrecognized argument is then reported under
    the subcommand's usage."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    commands = parser._subparsers._group_actions[0].choices
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    report = _Report(args)
    try:
        _DISPATCH[args.command](args, report)
    except InputError as exc:
        report.fail("invalid-input", exc)
    except ResourceError as exc:
        report.fail("resource-exceeded", _file_bag_id(exc))
    except RecursionError as exc:
        # an input deeper than the interpreter's stack is a resource limit too
        report.fail("resource-exceeded", exc)
    except MemoryError:
        # and so is a memory limit set on the process; a MemoryError seldom
        # carries a message, so the report names the cause
        report.fail("resource-exceeded", MemoryError("out of memory"))
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
