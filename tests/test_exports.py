"""The package's export list names only what the package defines and
what the library or the benchmark uses."""

import ast
from pathlib import Path

import linlab


def test_every_exported_name_resolves():
    missing = [name for name in linlab.__all__ if not hasattr(linlab, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(linlab.__all__) == len(set(linlab.__all__))


ROOT = Path(__file__).resolve().parents[1]


def _defines(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def used_names() -> set:
    """Every identifier the library (outside __init__.py) or the
    benchmark refers to outside the top-level statement that defines it:
    as a name, an attribute, or a dotted part of a string, which is how
    the benchmark's tracer names what it wraps."""
    files = [p for p in (ROOT / "src" / "linlab").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    used = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.update(node.value.split("."))
            used |= refs - _defines(stmt)
    return used


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    # a name only the tests use belongs in the tests, not the package
    assert sorted(set(linlab.__all__) - used_names()) == []
