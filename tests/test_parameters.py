"""Every parameter of a function or lambda in the package is read by its body."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))


def unused_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter its body never reads.

    A read inside a nested function or lambda counts. The commands named in a
    module-level _HANDLERS dict share one (config, outdir) signature, so those
    two parameters are exempt there.
    """
    tree = ast.parse(source)
    handlers = {value.id for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_HANDLERS" for t in node.targets)
                for value in node.value.values}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        exempt = {"config", "outdir"} if name in handlers else set()
        found += [(node.lineno, name, p) for p in params if p not in read | exempt]
    return sorted(found)


def test_guard_sees_an_unused_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    def g():\n"
              "        return a + kw['x']\n"
              "    b = 2\n"
              "    return g()\n"
              "h = lambda x, y: x\n"
              "def cmd_run(config, outdir):\n"
              "    return {}\n"
              "def other(config, outdir):\n"
              "    return config\n"
              "_HANDLERS = {'run': cmd_run}\n")
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "rest"),
        (6, "<lambda>", "y"), (9, "other", "outdir")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
