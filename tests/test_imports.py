"""No library module keeps an import it never uses.

No linter is a test dependency, so this reads each module of ``centrel``
(the package ``__init__``, which imports to re-export, aside) with ``ast``:
every name a module-level import binds must appear as a name in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "centrel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    ``Name`` node in it reads; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - named)


def test_unused_imports_finds_each_kind():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import gcd, lcm as l\n"
              "def f(x: gcd) -> None:\n    return l(x, 2)\n")
    assert unused_imports(source) == ["os", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
