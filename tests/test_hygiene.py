"""Source hygiene that no installed linter checks: every name a module of
``mmtw`` imports is used in that module."""

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
