"""Source hygiene that no installed linter checks: every name a module of
``mmtw`` imports is used in that module, every private function, method and
class of ``mmtw`` is read somewhere in ``mmtw`` outside its own definition,
every module-level definition and method of a program module is reached by
a walk of what ``cli.main`` runs or listed with why it stays, and so is
every name the benchmark's tracer patches, every function of ``mmtw`` that calls
itself is listed with what bounds its depth, every parameter that a
function of ``mmtw`` never reads is listed with why it is kept, and the
measures and reductions build no per-vertex index and no per-edge conflict
masks of their own, no function keeps a memo from one request to the
next, every option of a subcommand is read by that subcommand's handler,
and every module stays under the parser's 4,096-token buffer."""

import argparse
import ast
import importlib.util
import io
import tokenize
import types
from pathlib import Path

from mmtw.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmtw"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` (``from __future__`` aside)
    that no other line of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom fractions import Fraction\n"
              "from math import floor as fl, lcm\n"
              "def f(x):\n    return os.path.join(x, str(lcm(2, 3)))\n")
    assert unused_imports(source) == ["Fraction", "fl"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: left for name, left in found.items() if left} == {}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(tree) -> set[str]:
    """The names and attribute names that ``tree`` reads, a read inside a
    definition of the same name aside."""
    read = set()

    def visit(node, inside: frozenset):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, inside | {child.name})
                continue
            if isinstance(getattr(child, "ctx", None), ast.Load):
                name = child.id if isinstance(child, ast.Name) else \
                    getattr(child, "attr", None)
                if name not in inside:
                    read.add(name)
            visit(child, inside)

    visit(tree, frozenset())
    return read


def unread_private_definitions(sources: list[str]) -> list[str]:
    """Names of the private functions, methods and classes (one leading
    underscore) defined in ``sources`` that no name or attribute read in
    ``sources`` names, reads inside their own definitions aside."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFINITIONS)
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    return sorted(defined - set().union(*map(names_read, trees)))


def test_unread_private_definitions_are_caught():
    module_a = ("def _used(x):\n    return x\n"
                "def _orphan():\n    return _orphan()\n"
                "def _stored():\n    pass\n"
                "class _Box:\n    def _tick(self):\n        pass\n"
                "    def _drop(self):\n        self._drop = 1\n"
                "    def __len__(self):\n        return 0\n"
                "def public():\n    return _used(_Box()._tick)\n")
    module_b = "from a import _stored\nkeep = [_stored]\n"
    assert unread_private_definitions([module_a, module_b]) == [
        "_drop", "_orphan"]


def test_every_private_definition_is_read_in_the_package():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))]
    assert unread_private_definitions(sources) == []


# The program modules of mmtw are all but the reference oracles and the
# random instance generators, which the tests and the benchmark read.
REFERENCE_MODULES = ("oracles", "generate")

# The program runs from cli.main.
ENTRY = "cli.main"

# Each definition of a program module that cli.main does not reach, with
# why it stays where it is.
KEPT_UNREACHED = {
    "decomposition.from_elimination_order":
        "generate.random_decomposition and perfbench/workloads.py build "
        "decompositions with it",
    "hypergraph.Graph.from_pairs":
        "generate.py and perfbench/workloads.py build graphs with it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Program:
    """The module-level definitions (functions, classes, assigned names)
    and the methods of the modules of one package, keyed ``module.name``
    and ``module.Class.method``, with what each module's imported names are
    bound to."""

    def __init__(self, sources: dict[str, str]):
        self.nodes = {}     # qualified name -> (module, defining node)
        self.methods = {}   # method name -> qualified names
        self.imported = {}  # (module, name) -> (module, name) it binds
        self.siblings = {}  # (module, name) -> package module it binds
        for module, source in sources.items():
            for node in ast.parse(source).body:
                if isinstance(node, DEFINITIONS):
                    self.nodes[f"{module}.{node.name}"] = (module, node)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, FUNCTIONS):
                            name = f"{module}.{node.name}.{item.name}"
                            self.nodes[name] = (module, item)
                            self.methods.setdefault(item.name, []).append(name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name):
                            self.nodes[f"{module}.{t.id}"] = (module, node)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    for alias in node.names:
                        key = (module, alias.asname or alias.name)
                        if node.module is None and alias.name in sources:
                            self.siblings[key] = alias.name
                        else:
                            self.imported[key] = (node.module or "__init__",
                                                  alias.name)

    def resolve(self, module: str, name: str):
        """The qualified name of the definition that a bare ``name`` read
        in ``module`` is bound to, through its own definitions and its
        ``from .x import`` lines, or None."""
        while f"{module}.{name}" not in self.nodes:
            if (module, name) not in self.imported:
                return None
            module, name = self.imported[module, name]
        return f"{module}.{name}"

    def reach(self, entry: str):
        """``(reached, globals_read)``: the qualified names of the
        definitions reached from ``entry``, and the ``(module, name)`` of
        each bare name that reached code reads and that resolves.

        A reached definition reads what its code names: a bare name
        resolves as ``resolve`` says (a local that shadows a module-level
        name counts as a read of it), ``mod.name`` resolves in ``mod`` when
        ``mod`` is an imported module of the package, and any other
        attribute read reaches every method or property of that name.  A
        reached class reads its bases, decorators and class-level
        statements, and reaches its dunder methods; its other methods are
        reached by name."""
        reached, todo, globals_read = {entry}, [entry], set()

        def visit(name):
            if name is not None and name not in reached:
                reached.add(name)
                todo.append(name)

        while todo:
            qualified = todo.pop()
            module, node = self.nodes[qualified]
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if not isinstance(item, FUNCTIONS):
                        parts.append(item)
                    elif item.name.startswith("__") \
                            and item.name.endswith("__"):
                        visit(f"{qualified}.{item.name}")
            for part in parts:
                for read in ast.walk(part):
                    if not isinstance(getattr(read, "ctx", None), ast.Load):
                        continue
                    if isinstance(read, ast.Name):
                        target = self.resolve(module, read.id)
                        if target is not None:
                            globals_read.add((module, read.id))
                        visit(target)
                    elif isinstance(read, ast.Attribute):
                        sibling = self.siblings.get((module, read.value.id)) \
                            if isinstance(read.value, ast.Name) else None
                        if sibling is not None:
                            visit(self.resolve(sibling, read.attr))
                        else:
                            for name in self.methods.get(read.attr, ()):
                                visit(name)
        return reached, globals_read


def test_the_walk_misses_what_only_tests_read():
    sources = {
        "text": ("def join(parts):\n    return '+'.join(parts)\n"
                 "def shout(s):\n    return s.upper()\n"
                 "def hush(s):\n    return s.lower()\n"),
        "shapes": ("class Line:\n"
                   "    def __init__(self, n):\n        self.n = n\n"
                   "    def __len__(self):\n        return self.n\n"
                   "    def ends(self):\n        return 2\n"
                   "    def lmap(self, s):\n        return s\n"
                   "def reference():\n    return Line(1).lmap(0)\n"),
        "cli": ("from . import text\n"
                "from .shapes import Line\n"
                "from .text import hush as quiet\n"
                "def _cmd_run(args):\n"
                "    return (','.join(args), text.shout('a'), quiet('B'),\n"
                "            Line(2).ends())\n"
                "_DISPATCH = {'run': _cmd_run}\n"
                "def main(argv):\n    return _DISPATCH[argv[0]](argv[1:])\n"),
    }
    program = Program(sources)
    reached, globals_read = program.reach("cli.main")
    assert sorted(set(program.nodes) - reached) == [
        "shapes.Line.lmap", "shapes.reference", "text.join"]
    assert "shapes.Line.__len__" in reached
    # text.shout is read as an attribute of the module, not as a name of cli
    assert ("cli", "quiet") in globals_read
    assert ("cli", "shout") not in globals_read


def program_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def test_cli_main_reaches_every_program_definition():
    program = Program(program_sources())
    reached, _ = program.reach(ENTRY)
    unreached = [name for name in program.nodes if name not in reached
                 and name.split(".")[0] not in REFERENCE_MODULES]
    assert sorted(unreached) == sorted(KEPT_UNREACHED)


def test_every_kept_definition_has_a_reader_outside_the_program():
    readers = (SRC / "generate.py", ROOT / "perfbench" / "workloads.py")
    read = set().union(*(names_read(ast.parse(path.read_text(
        encoding="utf-8"))) for path in readers))
    assert sorted(name for name in KEPT_UNREACHED
                  if name.rsplit(".", 1)[1] not in read) == []


def test_every_patched_name_is_reached_from_cli_main():
    # perfbench/tracing.py wraps each (owner, name) of PATCHES where its
    # caller looks it up: a module global intercepts the calls that the
    # module's own code makes by that name, and a class attribute the calls
    # of that method.  A name that the program stopped looking up there
    # would count 0 calls without failing.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    program = Program(program_sources())
    reached, globals_read = program.reach(ENTRY)

    def looked_up(owner, name: str) -> bool:
        if isinstance(owner, types.ModuleType):
            return (owner.__name__.rsplit(".", 1)[1], name) in globals_read
        module = owner.__module__.rsplit(".", 1)[1]
        return f"{module}.{owner.__qualname__}.{name}" in reached

    assert [f"{owner.__name__}.{name} ({layer})"
            for layer, owner, name, _ in tracing.PATCHES
            if not looked_up(owner, name)] == []


# Each function of mmtw that calls itself, with what bounds its recursion
# depth.  A new entry needs a bound that does not grow with n, or a reason.
RECURSIVE = {
    "approx._recurse": "split levels",
    "blocker._Brancher.run":
        "the vertices of N[S] outside S, the only ones branched on (open: "
        "deep neighbourhoods, ROADMAP.md)",
    "measures.minor_matching_intersecting.search":
        "|N[S]|, the vertices searched (open: deep neighbourhoods, "
        "ROADMAP.md)",
    "oracles.chromatic_bruteforce.assign": "n: reference code for small n",
    "oracles.hom_bruteforce.assign": "n: reference code for small n",
}


def self_calls(source: str) -> list[str]:
    """Qualified names of the functions of ``source`` that call themselves:
    a function by its name, a method as ``self.<name>``."""
    found = []

    def visit(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                callee = f"self.{name}" if in_class else name
                if any(isinstance(call, ast.Call)
                       and ast.unparse(call.func) == callee
                       for call in ast.walk(child)):
                    found.append(prefix + name)
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), "", False)
    return found


def test_self_calls_are_caught():
    source = ("def walk(n):\n    return 0 if n == 0 else walk(n - 1)\n"
              "def outer():\n    def inner(k):\n        inner(k)\n"
              "    return outer\n"
              "class C:\n    def run(self, x):\n        self.run(x)\n"
              "    def go(self):\n        run(1)\n")
    assert self_calls(source) == ["walk", "outer.inner", "C.run"]


def test_every_recursive_function_is_listed_with_its_depth_bound():
    found = {f"{path.stem}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in self_calls(path.read_text(encoding="utf-8"))}
    assert found == set(RECURSIVE)


# Each parameter of a function of mmtw that its body never reads, with why
# it is kept.  An entry names a parameter, or a function or class whose
# parameters all stay unread.
UNREAD = {
    "dp.MwisDP.leaf_init.s":
        "the interface passes the bag; the leaf sets already lie in it",
    "dp.CoverDP.merge.trace":
        "the interface passes the trace; CoverDP sets reads_trace false",
    "measures._kappa":
        "the interface passes H and k; kappa reads |S| alone",
    "oracles._separates.n": "reference code, which its test callers pass n",
}


def unread_parameters(source: str) -> list[str]:
    """Qualified names ``function.parameter`` of the parameters of the
    functions of ``source`` (``self`` and ``cls`` aside) that the body
    never reads, nested functions included."""
    found = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a for a in (*args.posonlyargs, *args.args,
                                      args.vararg, *args.kwonlyargs,
                                      args.kwarg) if a]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}.{a.arg}" for a in params
                             if a.arg not in ("self", "cls")
                             and a.arg not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_unread_parameters_are_caught():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + len(kw)\n"
              "class C:\n    def m(self, x, y):\n        def g(z):\n"
              "            return x\n        y = 2\n        return g\n")
    assert unread_parameters(source) == [
        "f.b", "f.rest", "f.c", "C.m.y", "C.m.g.z"]


def test_every_unread_parameter_is_listed_with_its_reason():
    found = [f"{path.stem}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in unread_parameters(path.read_text(encoding="utf-8"))]
    covers = [(key, name) for key in UNREAD for name in found
              if name == key or name.startswith(key + ".")]
    assert sorted(set(found) - {name for _, name in covers}) == []
    # and no entry outlives the parameters it names
    assert sorted(set(UNREAD) - {key for key, _ in covers}) == []


def per_vertex_lists(source: str) -> list[str]:
    """The expressions of ``source`` that build a list with one entry per
    vertex: ``[...] * <x>.n`` (either order), a list comprehension over
    ``range(<x>.n)``, or one over ``enumerate(...)`` of a per-vertex index
    (``<x>.gaifman_adj()`` or ``<x>.incidence()``, or a name bound to
    one)."""
    tree = ast.parse(source)

    def vertex_count(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "n"

    def index_call(node) -> bool:
        return isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("gaifman_adj", "incidence")

    def call_of(node, name: str):
        """The single argument of a call ``name(...)``, else None."""
        if isinstance(node, ast.Call) and ast.unparse(node.func) == name \
                and len(node.args) == 1:
            return node.args[0]
        return None

    indexes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = zip(target.elts, node.value.elts) \
                    if isinstance(target, ast.Tuple) \
                    and isinstance(node.value, ast.Tuple) \
                    else [(target, node.value)]
                indexes.update(t.id for t, v in pairs
                               if isinstance(t, ast.Name) and index_call(v))

    def per_vertex_index(node) -> bool:
        return index_call(node) or (isinstance(node, ast.Name)
                                    and node.id in indexes)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            hit = any(isinstance(a, ast.List) and vertex_count(b)
                      for a, b in ((node.left, node.right),
                                   (node.right, node.left)))
        elif isinstance(node, ast.ListComp):
            hit = any(vertex_count(call_of(gen.iter, "range"))
                      or per_vertex_index(call_of(gen.iter, "enumerate"))
                      for gen in node.generators)
        else:
            hit = False
        if hit:
            found.append(ast.unparse(node))
    return found


def test_per_vertex_lists_are_caught():
    source = ("a = [0] * h.n\nb = [[] for _ in range(g.n)]\n"
              "c = g.n * [None]\nd = [v for v in range(x.original.n)]\n"
              "e = [0] * len(h.edges)\nf = 2 * h.n\n"
              "g = [0 for _ in range(n)]\nh = [a | 1 for a in h.adj]\n"
              "edges, adj = h.edges, h.gaifman_adj()\n"
              "i = [a | 1 << v for v, a in enumerate(adj)]\n"
              "j = [m for v, m in enumerate(g.incidence())]\n"
              "k = [e for i, e in enumerate(edges)]\n")
    assert per_vertex_lists(source) == [
        "[0] * h.n", "[[] for _ in range(g.n)]", "g.n * [None]",
        "[v for v in range(x.original.n)]",
        "[a | 1 << v for v, a in enumerate(adj)]",
        "[m for v, m in enumerate(g.incidence())]"]


def test_measures_and_reductions_read_the_hypergraph_index():
    # a per-vertex edge index is Hypergraph.incidence(), built once per
    # hypergraph; the oracles and the L^2 pullback read it, not a copy
    found = {name: per_vertex_lists((SRC / name).read_text(encoding="utf-8"))
             for name in ("measures.py", "reductions.py")}
    assert found == {"measures.py": [], "reductions.py": []}


def edges_meeting_loops(source: str) -> list[str]:
    """The first lines of the loops of ``source`` (``for`` and ``while``
    statements and comprehensions) that call ``edges_meeting``, in source
    order: such a loop over the edges builds the per-edge conflict masks
    that ``Hypergraph.conflicts()`` caches."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, loops)
             and any(isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Attribute)
                     and call.func.attr == "edges_meeting"
                     for call in ast.walk(node))]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [ast.unparse(node).splitlines()[0] for node in found]


def test_edges_meeting_loops_are_caught():
    # the loop that measures.edge_conflicts once ran on every call
    old_edge_conflicts = (
        "def edge_conflicts(g, s):\n"
        "    adj = g.gaifman_adj()\n"
        "    universe = g.edges_meeting(s)\n"
        "    conflicts = {}\n"
        "    for i in bits(universe):\n"
        "        near = 0\n"
        "        for v in bits(g.edges[i]):\n"
        "            near |= adj[v] | (1 << v)\n"
        "        conflicts[i] = g.edges_meeting(near) & universe & ~(1 << i)\n"
        "    return conflicts, universe\n")
    assert edges_meeting_loops(old_edge_conflicts) == [
        "for i in bits(universe):"]
    source = ("a = [g.edges_meeting(e) for e in g.edges]\n"
              "while todo:\n    todo = h.edges_meeting(todo) & ~seen\n"
              "b = g.edges_meeting(s)\n"
              "for bag in bags:\n    print(bag)\n")
    assert edges_meeting_loops(source) == [
        "[g.edges_meeting(e) for e in g.edges]", "while todo:"]


def test_measures_and_reductions_read_the_conflict_index():
    # the conflict masks of a graph's edges are Hypergraph.conflicts(),
    # built once per graph; mu and L^2 read them, not a copy per call
    found = {name: edges_meeting_loops((SRC / name).read_text(
                 encoding="utf-8"))
             for name in ("measures.py", "reductions.py")}
    assert found == {"measures.py": [], "reductions.py": []}


# Each function of mmtw that keeps state from one call to the next, with why
# it may.  A request is answered from its inputs alone: a memo that outlived
# it would answer a repeated request from the first one's work.
KEPT_MEMOS = {
    "cli._build_parser":
        "the argument parser, built from constants: the same for every "
        "request, and no answer depends on it",
}

MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "remove", "discard", "clear", "__setitem__"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "deque", "collections.defaultdict",
                   "collections.OrderedDict", "collections.Counter"}
CACHE_DECORATORS = {"cache", "lru_cache", "functools.cache",
                    "functools.lru_cache"}


def lasting_memos(source: str) -> list[str]:
    """Qualified names of the functions of ``source`` that keep state past
    a call: those under ``functools.cache`` or ``lru_cache``, those that
    declare a name ``global``, and those that write into a dict, list or set
    bound at module level (an item stored or deleted, or a mutating method
    called) and not shadowed by a local of the same name; a function counts
    the writes of the functions nested in it."""
    tree = ast.parse(source)
    shared = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) and node.value \
            else []
        value = getattr(node, "value", None)
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call)
                and ast.unparse(value.func) in CONTAINER_CALLS):
            shared.update(t.id for t in targets if isinstance(t, ast.Name))

    def writes_shared(fn) -> bool:
        args = fn.args
        local = {a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                 *args.kwonlyargs, args.kwarg) if a}
        local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        names = shared - local

        def is_shared(node) -> bool:
            return isinstance(node, ast.Name) and node.id in names

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                return True
            if isinstance(node, ast.Subscript) and is_shared(node.value) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                return True
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS \
                    and is_shared(node.func.value):
                return True
        return False

    def cached(fn) -> bool:
        return any(ast.unparse(d.func if isinstance(d, ast.Call) else d)
                   in CACHE_DECORATORS for d in fn.decorator_list)

    found = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if cached(child) or writes_shared(child):
                    found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_lasting_memos_are_caught():
    source = ("import functools\nfrom functools import lru_cache\n"
              "SEEN = {}\nORDER: list = []\nKNOWN = set()\n"
              "TABLE = {'a': 1}\nLIMIT = 3\n"
              "@functools.cache\ndef parser():\n    return 1\n"
              "@lru_cache(maxsize=8)\ndef small(x):\n    return x\n"
              "def remember(x):\n    SEEN[x] = 1\n    return x\n"
              "def forget(x):\n    del SEEN[x]\n"
              "def stash(x):\n    return SEEN.setdefault(x, [x])\n"
              "def tick():\n    global LIMIT\n    LIMIT += 1\n"
              "def local(x):\n    SEEN = {}\n    SEEN[x] = 1\n"
              "    return SEEN\n"
              "def reads(x):\n    return TABLE[x] + len(SEEN) + (x in KNOWN)\n"
              "def copies(x):\n    out = list(ORDER)\n    out.append(x)\n"
              "    return out\n"
              "class Box:\n    def keep(self, x):\n        KNOWN.add(x)\n"
              "    def inner(self):\n        def go(x):\n"
              "            ORDER.append(x)\n        return go\n")
    assert lasting_memos(source) == [
        "parser", "small", "remember", "forget", "stash", "tick",
        "Box.keep", "Box.inner", "Box.inner.go"]


def test_no_memo_outlives_a_request():
    found = [f"{path.stem}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in lasting_memos(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(KEPT_MEMOS)


# The options every subcommand has, read for all of them by cli._Report.
SHARED_OPTIONS = {"help", "json"}


def unread_options(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """``command.dest`` for each option of a subcommand of ``parser``
    (``SHARED_OPTIONS`` aside) that the function ``_cmd_<command>`` of
    ``source`` never reads as ``args.<dest>``.  A read in one branch only
    counts as a read."""
    handlers = {node.name: node for node in ast.walk(ast.parse(source))
                if isinstance(node, FUNCTIONS)}
    found = []
    for command, sub in parser._subparsers._group_actions[0].choices.items():
        handler = handlers.get(f"_cmd_{command}")
        read = set() if handler is None else {
            node.attr for node in ast.walk(handler)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
        found += [f"{command}.{action.dest}" for action in sub._actions
                  if action.dest not in SHARED_OPTIONS | read]
    return found


def test_unread_options_are_caught():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    sp = sub.add_parser("run")
    sp.add_argument("path")
    sp.add_argument("-v", "--verbose", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp = sub.add_parser("show")
    sp.add_argument("-k", type=int)
    source = ("def _cmd_run(args, report):\n    return open(args.path)\n"
              "def _cmd_show(args, report):\n"
              "    return report.k if args.json else 0\n")
    assert unread_options(parser, source) == ["run.verbose", "show.k"]


def test_every_option_is_read_by_its_subcommand():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert unread_options(_build_parser(), source) == []


# CPython's parser doubles its token buffer past 4,096 tokens, and a module
# that crosses it costs memory at every import: ``dp.py`` at 4,199 tokens
# took 1,734 KB to compile against 1,413 KB, and the benchmark's
# ``decompose_sparse`` ``peak_rss_mb`` rose from 30.33 to 30.57 MB.  The
# count is that of CHANGES.md: the tokenize tokens without COMMENT and NL.
TOKEN_LIMIT = 4096


def token_count(source: str) -> int:
    """The tokens of ``source`` other than comments and non-logical line
    ends."""
    skip = (tokenize.COMMENT, tokenize.NL)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(t.type not in skip for t in tokens)


def test_token_count_skips_comments_and_blank_lines():
    source = "x = 1  # one\n\n# two\ny = (x,\n     2)\n"
    # x = 1 NEWLINE, y = ( x , 2 ) NEWLINE, ENDMARKER
    assert token_count(source) == 13


def test_every_module_stays_under_the_token_buffer():
    counts = {path.name: token_count(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n >= TOKEN_LIMIT} == {}
