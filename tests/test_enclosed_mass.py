"""Only radial.py reaches scipy's cumulative_simpson: the enclosed mass and the
potential of a radial source have one implementation, radial.enclosed_mass and
radial.poisson_operator, and every other module calls them."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))


def cumulative_simpson_uses(source: str) -> list:
    """Lines and kinds of imports of cumulative_simpson by name and of
    attribute lookups of it, as in scipy.integrate.cumulative_simpson."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "cumulative_simpson" for alias in node.names):
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.Attribute) and node.attr == "cumulative_simpson":
            found.append((node.lineno, "attribute"))
    return found


def test_guard_sees_cumulative_simpson():
    planted = ("import scipy.integrate\n"
               "from scipy import integrate\n"
               "from scipy.integrate import simpson, cumulative_trapezoid\n"
               "from scipy.integrate import cumulative_simpson\n"
               "from scipy.integrate import quad, cumulative_simpson as cs\n"
               "integrate.cumulative_simpson(y, dx=h)\n"
               "scipy.integrate.cumulative_simpson(y, x=r)\n"
               "simpson(y, dx=h)\n")
    assert cumulative_simpson_uses(planted) == [(4, "import"), (5, "import"),
                                                (6, "attribute"), (7, "attribute")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "radial.py"],
                         ids=lambda p: p.name)
def test_only_radial_integrates_the_enclosed_mass(path):
    assert cumulative_simpson_uses(path.read_text()) == []
