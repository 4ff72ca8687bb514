"""Every config key is read: each key of cli._KEYS occurs as a string
constant in cli.py outside the _KEYS table, so a key that nothing reads
cannot stay in the table."""

import ast
from pathlib import Path

from gravlasov import cli


def unread_keys(source: str) -> list:
    """Keys of the module's _KEYS dict literal that no string constant
    outside that literal names, in table order."""
    tree = ast.parse(source)
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_KEYS" for t in node.targets))
    inside = {id(node) for node in ast.walk(table)}
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and id(node) not in inside}
    return [key.value for key in table.keys if key.value not in named]


def test_guard_sees_an_unread_key():
    planted = ('_KEYS = {"a.x": _Key(int, None, "x"), "a.y": _Key(int, None, "y"),\n'
               '         "a.w": _Key(str, "a.y", "w"), "a.z": _Key(str, None, "z")}\n'
               'def use(config):\n'
               '    return config["a.x"], config.get("a.z"), config["a.w"]\n'
               'FLAG = "y"\n')
    assert unread_keys(planted) == ["a.y"]


def test_cli_reads_every_key():
    assert unread_keys(Path(cli.__file__).read_text()) == []
