"""Checks on the package's source text."""
from __future__ import annotations

import ast
from pathlib import Path

import rulerverse

PACKAGE = Path(rulerverse.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The imports of `source` whose name it never uses, as "line N: name".  A
    name listed in `__all__` counts as used, and so does one in a quoted
    annotation."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_import_in_the_package():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_flags_a_planted_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os as system\n"
        "from pathlib import Path\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "def f(x: 'Path') -> None:\n"
        "    json.dumps(x)  # Path and Any are used, system is not\n"
    )
    assert unused_imports(source) == ["line 3: system"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes in `sources` (module name to source
    text) that no code names outside their own body, as "module.name".  A name
    counts when it is used, imported, read as an attribute or quoted as an
    identifier (an annotation, a getattr).  Dunder names are left out."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, node.name))
            named |= names
    return [f"{module}.{name}" for module, name in defined if name not in named]


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    # `cli.entry` is named only by the console script in pyproject.toml
    assert [d for d in unreferenced_definitions(sources) if d != "cli.entry"] == []


def test_unreferenced_definition_check_flags_a_planted_definition():
    sources = {
        "a": (
            "def used():\n"
            "    pass\n"
            "def planted():\n"
            "    return planted()  # its own body does not count\n"
            "def __getattr__(name):\n"
            "    pass\n"
        ),
        "b": (
            "from .a import used as _used  # names `used`\n"
            "class Quoted:\n"
            "    pass\n"
            "class Attribute:\n"
            "    pass\n"
            "def f(x: 'Quoted') -> None:\n"
            "    return _used(x.Attribute)\n"
        ),
    }
    assert unreferenced_definitions(sources) == ["a.planted", "b.f"]
