"""The oracle routes in tests/oracles.py must never call the code under test."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def test_oracles_import_nothing_from_latzeta():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    offending = [
        name
        for name in _imported_modules(tree)
        if name == "latzeta" or name.startswith("latzeta.")
    ]
    assert offending == [], f"tests/oracles.py imports {offending}"
