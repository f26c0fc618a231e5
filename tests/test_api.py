"""The package carries no public name that only its own tests use."""

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


def package_modules() -> list[Path]:
    """The package's modules, bar __init__.py (the export list)."""
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def parse(paths) -> list:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def program_trees() -> list:
    """The code a public name needs a use in: the package and pipebench."""
    return parse(package_modules() + sorted((ROOT / "pipebench").glob("*.py")))


def public_definitions(tree) -> list[str]:
    """Public top-level functions and classes, and the public methods and
    properties of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def unused(names, trees) -> list[str]:
    return [
        name for name in names
        if not any(name in referenced_names(tree, name) for tree in trees)
    ]


def test_every_export_has_a_non_test_caller():
    trees = program_trees()
    names = exported_names()
    assert "frame_quality" in names
    assert unused(names, trees) == []


def test_every_public_definition_has_a_non_test_caller():
    names = sorted({name for tree in parse(package_modules()) for name in public_definitions(tree)})
    assert {"frame_quality", "TetMesh", "num_nodes"} <= set(names)
    assert unused(names, program_trees()) == []


def caught_names(tree) -> set[str]:
    """The exception names the except clauses under tree catch, alone or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {n.id for n in caught if isinstance(n, ast.Name)}
    return names


def test_every_error_type_has_a_handler():
    # a type is worth declaring only when some code handles it apart from its base
    (errors,) = parse([PACKAGE / "errors.py"])
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert {"SoftGraspError", "HullError"} <= set(defined)
    caught = set().union(*map(caught_names, parse(package_modules())))
    assert [name for name in defined if name != "SoftGraspError" and name not in caught] == []
