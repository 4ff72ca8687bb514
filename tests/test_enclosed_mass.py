"""Only radial.py reaches scipy's cumulative integrals, cumulative_simpson and
cumulative_trapezoid: the enclosed mass and the potential of a radial source
have one implementation, radial.enclosed_mass and radial.poisson_operator, and
every other module calls them."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))
CUMULATIVE = {"cumulative_simpson", "cumulative_trapezoid"}


def cumulative_integral_uses(source: str) -> list:
    """Lines and kinds of imports of a cumulative integral by name and of
    attribute lookups of one, as in scipy.integrate.cumulative_simpson."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name in CUMULATIVE for alias in node.names):
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.Attribute) and node.attr in CUMULATIVE:
            found.append((node.lineno, "attribute"))
    return sorted(found)


def test_guard_sees_cumulative_simpson():
    planted = ("import scipy.integrate\n"
               "from scipy import integrate\n"
               "from scipy.integrate import simpson, trapezoid\n"
               "from scipy.integrate import cumulative_simpson\n"
               "from scipy.integrate import quad, cumulative_simpson as cs\n"
               "integrate.cumulative_simpson(y, dx=h)\n"
               "scipy.integrate.cumulative_simpson(y, x=r)\n"
               "simpson(y, dx=h)\n"
               "from scipy.integrate import cumulative_trapezoid as ct\n"
               "integrate.cumulative_trapezoid(y, x=r, initial=0.0)\n")
    assert cumulative_integral_uses(planted) == [(4, "import"), (5, "import"),
                                                 (6, "attribute"), (7, "attribute"),
                                                 (9, "import"), (10, "attribute")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "radial.py"],
                         ids=lambda p: p.name)
def test_only_radial_integrates_the_enclosed_mass(path):
    assert cumulative_integral_uses(path.read_text()) == []
