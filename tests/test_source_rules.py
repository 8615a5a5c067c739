"""Rules on the package source, read from its syntax trees: each refusal
message is built at one site, and one helper makes cached tables
read-only."""

import ast
from collections import defaultdict
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "bch3"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def _writeable_flags(tree: ast.AST) -> list[ast.Attribute]:
    """Every `<expr>.flags.writeable` under tree."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "writeable"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "flags"
    ]


def test_each_raised_message_is_built_once():
    sites = defaultdict(list)
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                sites[ast.unparse(node.exc.args[0])].append(f"{name}:{node.lineno}")
    assert {message: where for message, where in sites.items() if len(where) > 1} == {}


def test_only_readonly_sets_the_writeable_flag():
    [helper] = [
        node for node in TREES["gf2m.py"].body if isinstance(node, ast.FunctionDef) and node.name == "_readonly"
    ]
    inside = {id(node) for node in _writeable_flags(helper)}
    assert len(inside) == 1
    outside = [
        f"{name}:{node.lineno}" for name, tree in TREES.items() for node in _writeable_flags(tree) if id(node) not in inside
    ]
    assert outside == []
