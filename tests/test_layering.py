"""Module layering: no fracred module reaches into another's private names."""

import ast
from pathlib import Path

import fracred

PACKAGE = Path(fracred.__file__).parent


def private_imports(path: Path) -> list:
    """``from <fracred module> import _name`` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fracred"
        for alias in node.names if internal else ():
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_cross_module_private_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in private_imports(path)]
    assert offenders == []
