"""Source hygiene that no installed linter checks: every name a module of
``mmtw`` imports is used in that module, and every function of ``mmtw``
that calls itself is listed with what bounds its depth."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmtw"


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


# Each function of mmtw that calls itself, with what bounds its recursion
# depth.  A new entry needs a bound that does not grow with n, or a reason.
RECURSIVE = {
    "approx._recurse": "split levels",
    "blocker._Brancher.run":
        "the vertices of N[S] outside S, the only ones branched on (open: "
        "deep neighbourhoods, ROADMAP.md)",
    "measures.minor_matching_intersecting.search":
        "n, the vertices searched (open: deep inputs, ROADMAP.md)",
    "dp.CoverDP.leaf_init.rec": "the table arity",
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
