"""Every exception class the package raises is a GravlasovError."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import gravlasov
from gravlasov.errors import GravlasovError, PreconditionError

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))
# _parse_value turns the ValueError of cli._finite into a ConfigError
EXEMPT = {"cli.py": {"_finite"}}


def _resolve(node, namespace: dict):
    """The object a name or dotted name refers to in namespace, else None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def foreign_raises(source: str, namespace: dict, exempt=frozenset()) -> list:
    """(line, name) of each raise of a class that is not a GravlasovError,
    outside the functions named in exempt. A raise of a name that is not a
    class re-raises an error object made elsewhere, so it is not judged here;
    a call to anything but a GravlasovError class is."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Raise) and child.exc is not None
                    and function not in exempt):
                called = isinstance(child.exc, ast.Call)
                target = child.exc.func if called else child.exc
                cls = _resolve(target, namespace)
                is_class = isinstance(cls, type)
                if ((called or is_class)
                        and not (is_class and issubclass(cls, GravlasovError))):
                    found.append((child.lineno, ast.unparse(target)))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_a_foreign_raise():
    source = ("def parse(raw):\n"
              "    raise ValueError('bad')\n"
              "def check(x):\n"
              "    if x:\n"
              "        raise KeyError\n"
              "    raise PreconditionError('named')\n"
              "def rethrow(errors):\n"
              "    try:\n"
              "        pass\n"
              "    except OSError:\n"
              "        raise\n"
              "    for exc in errors:\n"
              "        raise exc\n"
              "def helper():\n"
              "    raise ValueError('exempt')\n"
              "raise make_error()\n")
    namespace = {"PreconditionError": PreconditionError}
    assert foreign_raises(source, namespace, {"helper"}) == [
        (2, "ValueError"), (5, "KeyError"), (16, "make_error")]
    assert foreign_raises(source, namespace) == [
        (2, "ValueError"), (5, "KeyError"), (15, "ValueError"), (16, "make_error")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raised_class_is_a_library_error(path):
    module = importlib.import_module(f"gravlasov.{path.stem}"
                                     if path.stem != "__init__" else "gravlasov")
    assert foreign_raises(path.read_text(), vars(module),
                          EXEMPT.get(path.name, frozenset())) == []
