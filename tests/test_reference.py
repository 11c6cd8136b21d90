"""The scalar oracle stays independent of the package it checks."""

import ast
from pathlib import Path


def test_reference_imports_nothing_from_pinchsim():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the walk found no imports at all"
    assert not [name for name in imported
                if name.split(".")[0] in ("pinchsim", "")], imported
