"""The package exposes no public name that only its tests use.

Every public module-level function or class, and every public method or
property, must be referenced by name somewhere in the package (outside
__init__), or be imported by the acceptance tests.  Nor does a package
module import a name it never reads, nor a public dataclass hold a field
that nothing reads.
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


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_import_guard_sees_module_level_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\nprint(np.zeros(1), tau)\n")
    assert unused_imports(source) == ["os", "pi"]


def test_no_unused_imports():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path.read_text()))}
    assert unused == {}


def dataclass_fields(source: str) -> list[str]:
    """Public fields of the module's public dataclasses, as Class.field."""
    fields = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields += [f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_")]
    return fields


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_field_guard_sees_dataclass_fields_and_reads():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n    _z: int = 0\n"
              "@dataclass\nclass B:\n    w: int\nclass C:\n    v: int\n"
              "@dataclass\nclass _D:\n    u: int\n"
              "def f(a):\n    a.y = 1\n    return a.w\n")
    assert dataclass_fields(source) == ["A.x", "A.y", "B.w"]
    assert attributes_read(source) == {"w"}


def test_every_public_dataclass_field_is_read():
    """Each public dataclass field is read as an attribute in package code
    outside __init__ or in the acceptance tests.

    The guard matches names, not objects: a read of `args.horizon` counts
    for every field named `horizon`.  Such collisions hid unread fields
    before (`TailContext.horizon`, `SeparationAudit.window`,
    `SingularFate.detail` and the fields of the sampled-ray record), so a
    field the guard passes may still be unread.
    """
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = attributes_read(ACCEPTANCE.read_text()).union(
        *(attributes_read(source) for name, source in modules.items() if name != "__init__.py"))
    unread = [name for source in modules.values() for name in dataclass_fields(source)
              if name.split(".")[1] not in read]
    assert unread == []
