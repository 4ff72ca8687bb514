"""Only radial.py writes files: every CSV and JSON output goes through its
two writers, so each output format has one implementation."""

import ast
from pathlib import Path

import pytest

import gravlasov

MODULES = sorted(Path(gravlasov.__file__).parent.glob("*.py"))


def file_writes(source: str) -> list:
    """Lines and names of open(...) calls whose mode writes, appends or
    creates, and of json.dump calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax")
                   for m in modes):
                found.append((node.lineno, "open"))
        elif (isinstance(func, ast.Attribute) and func.attr == "dump"
              and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append((node.lineno, "json.dump"))
    return found


def test_guard_sees_a_file_write():
    planted = ("import json\n"
               "open(p)\n"
               "open(p, 'r', newline='')\n"
               "open(p, 'w')\n"
               "open(p, mode='ab')\n"
               "open(p, 'x')\n"
               "open(p, kind)\n"
               "json.load(fh)\n"
               "json.dumps(doc)\n"
               "json.dump(doc, fh)\n")
    assert file_writes(planted) == [(4, "open"), (5, "open"), (6, "open"),
                                    (7, "open"), (10, "json.dump")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "radial.py"],
                         ids=lambda p: p.name)
def test_only_radial_writes_files(path):
    assert file_writes(path.read_text()) == []
