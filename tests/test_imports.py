"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys as system\n"
                          "from math import pi, tau\nprint(pi, system)\n") \
        == [(1, "os"), (3, "tau")]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nx: os.PathLike\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert unused_imports(path.read_text()) == []
