"""The public API carries no name that only its own tests use."""

import ast
from pathlib import Path

import softgrasp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(softgrasp.__file__).resolve().parent


def exported_names() -> list[str]:
    """Names softgrasp/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names(node, skip: str):
    """Every name and attribute the code under node refers to, outside the
    function or class named skip (a name's own definition is no use of it)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from referenced_names(child, skip)


def test_every_export_has_a_non_test_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "pipebench").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sources]
    names = exported_names()
    assert "frame_quality" in names
    unused = [
        name for name in names
        if not any(name in referenced_names(tree, name) for tree in trees)
    ]
    assert unused == []
