"""Every module-level import in the package is used.

An ast walk over src/friezes/*.py: a name a module imports at top level must
be read somewhere in that module, or be listed in its __all__.  The one
exception is synthesis.validate, which the bench tracer patches by name
(perfbench/tracing.py) although synthesis no longer calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "friezes"
ALLOWED = {("synthesis", "validate")}


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports of a module that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_unused_import_is_caught():
    source = "from itertools import accumulate, chain\nimport os\nprint(chain(os.sep))\n"
    assert unused_imports(source) == ["accumulate"]
    assert unused_imports("import os.path\n__all__ = ['os']\n") == []


def test_package_has_no_unused_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [f"{path.stem}.{name}" for path in modules
              for name in unused_imports(path.read_text())
              if (path.stem, name) not in ALLOWED]
    assert unused == []
