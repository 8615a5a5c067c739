"""Rules on the package source, read from its syntax trees: each refusal
message is built at one site, one helper makes cached tables read-only,
and the oracle imports nothing from the closed form it checks."""

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


def _package_imports(tree: ast.AST) -> set[str]:
    """Modules of the package that tree imports, by every spelling:
    `from . import a`, `from .a import x`, `from bch3 import a`,
    `from bch3.a import x` and `import bch3.a`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "bch3" and not module.startswith("bch3."):
                    continue
                module = module.removeprefix("bch3").removeprefix(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("bch3."))
    return names


def test_oracle_imports_neither_curves_nor_coset():
    assert _package_imports(TREES["oracle.py"]) & {"curves", "coset"} == set()


def test_import_rule_sees_the_cli_import_both():
    # the control: cli.py imports both with `from . import ...`, so the rule
    # above cannot pass by reading no import at all
    assert {"curves", "coset"} <= _package_imports(TREES["cli.py"])
    spellings = ["from . import coset", "from .coset import N_of", "from bch3 import coset", "import bch3.coset"]
    assert all(_package_imports(ast.parse(line)) == {"coset"} for line in spellings)
