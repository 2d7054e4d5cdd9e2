"""The package's import graph, read from the source with ast.

`stablekron/__init__.py` imports every module, so `sys.modules` cannot
tell which module needs which; the relative imports can.
"""

import ast
from pathlib import Path

import stablekron

PACKAGE = Path(stablekron.__file__).parent


def reachable(module: str) -> set:
    """The package modules `module` imports, directly or transitively,
    through `from .x import ...` and `from . import x, y`."""
    seen: set = set()
    stack = [module]
    while stack:
        tree = ast.parse((PACKAGE / f"{stack.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
                stack += [name for name in names if name not in seen]
                seen.update(names)
    return seen


def test_oracle_and_lr_are_independent_of_the_counting_rule():
    for module in ("oracle", "lr"):
        assert not reachable(module) & {"tableaux", "branching"}, module


def test_partitions_imports_nothing_from_the_package():
    assert reachable("partitions") == set()


def test_walk_follows_imports():
    assert reachable("oracle") == {"lr", "partitions"}
    assert {"branching", "lr", "partitions"} <= reachable("tableaux")
    assert {"verify", "tableaux", "diagalg", "oracle"} <= reachable("cli")
