"""The package exposes no public name that only its tests use.

Every public module-level function or class, and every public method or
property, must be referenced by name somewhere in the package (outside
__init__), or be imported by the acceptance tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "raycensus"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def public_definitions() -> list[str]:
    """Module-level functions and classes, and methods of classes, as names."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def referenced_names() -> set[str]:
    """Names and attributes used in package modules other than __init__."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def acceptance_imports() -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_is_used_by_the_package():
    used = referenced_names() | acceptance_imports()
    unused = [name for name in public_definitions() if name.split(".")[-1] not in used]
    assert unused == []
