"""Only steady._MomentTable evaluates a moment spline: bisect_right, the
interval search of its float lookup, is reached nowhere else in the package, so
a shot or any other reader calls the table and grows no second copy of the
lookup."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))
OWNER = "_MomentTable"
# bisect.bisect is bisect_right under another name
SEARCHES = {"bisect_right", "bisect"}


def bisect_uses(source: str) -> list:
    """Lines of every reach of bisect_right outside class _MomentTable: its
    name, an attribute lookup of it (bisect.bisect_right, bisect.bisect), and
    an import that binds it under another name or as bisect."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == OWNER:
            inside.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bisect":
            if any(alias.name == "*" or alias.name == "bisect" or alias.asname
                   for alias in node.names):
                found.append((node.lineno, "import"))
        elif id(node) in inside:
            continue
        elif isinstance(node, ast.Name) and node.id == "bisect_right":
            found.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr in SEARCHES:
            found.append((node.lineno, "attribute"))
    return sorted(found)


def test_guard_sees_a_second_lookup():
    planted = ("import bisect\n"
               "from bisect import bisect_right\n"
               "from bisect import bisect_left, bisect_right as br\n"
               "class _MomentTable:\n"
               "    def lookup(self, knots, zeta):\n"
               "        return bisect_right(knots, zeta, 0, len(knots) - 1) - 1\n"
               "def shoot(knots, zeta):\n"
               "    k = bisect_right(knots, zeta) - 1\n"
               "    j = bisect.bisect_right(knots, zeta)\n"
               "    return k + j + bisect.bisect(knots, zeta) + br(knots, zeta)\n"
               "from bisect import *\n"
               "from bisect import bisect\n"
               "class Other:\n"
               "    search = bisect_right\n"
               "bisect_left(knots, zeta)\n")
    assert bisect_uses(planted) == [(3, "import"), (8, "name"), (9, "attribute"),
                                    (10, "attribute"), (11, "import"), (12, "import"),
                                    (14, "name")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_moment_table_evaluates_a_moment(path):
    assert bisect_uses(path.read_text()) == []


def test_the_moment_table_holds_the_search():
    source = (Path(gravlasov.__file__).parent / "steady.py").read_text()
    assert any(isinstance(node, ast.Name) and node.id == "bisect_right"
               for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) and cls.name == OWNER
               for node in ast.walk(cls))
