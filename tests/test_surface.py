"""The package ships only what a command, the report, a script or the benchmark reaches.

Every public module-level function and class of src/graphent, and every
public method of its public classes, must be reached from outside the tests:
from scripts/, from perfbench/ (where the traced names of tracing.SPANS count
too), or from module-level code of the package, directly or through the
definitions and methods those reach.  graphent/__init__.py only re-exports,
so its imports reach nothing.  Code that only the tests reach belongs beside
the tests.  Only calls, imports and functions handed to a call count as uses
of a module-level name, so that a field read such as summary.min_vertex_cover
does not stand in for a function of that name.  A method counts as used only
through an attribute: a call obj.name(...) or a reference Class.name, so that
a variable called size is no use of Decomposition.size.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphent"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Names called, imported, or passed as an argument of a call in tree, plus
    ".name" for each call obj.name(...) and "Class.name" for each attribute
    read off a bare name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                used.add(func.id)
            elif isinstance(func, ast.Attribute):
                used.update((func.attr, f".{func.attr}"))
            args = node.args + [kw.value for kw in node.keywords]
            used.update(arg.id for arg in args if isinstance(arg, ast.Name))
    return used


def _traced_names() -> set[str]:
    """The attribute names that perfbench/tracing.py's SPANS wraps."""
    for stmt in _parse(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in stmt.targets):
            return {attr for _, _, attr in ast.literal_eval(stmt.value)}
    raise AssertionError("perfbench/tracing.py defines no SPANS")


def unreached_public_names() -> list[str]:
    """module.name (module.Class.method for a method) of every public
    definition of the package that nothing but the tests reaches."""
    roots = _traced_names()
    for directory in (ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(directory.glob("*.py")):
            roots |= _used_names(_parse(path))
    # definition name -> names its body uses; a public method is a definition
    # of its own, "Class.method", which the use ".method" reaches too
    uses: dict[str, set[str]] = {}
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                roots |= _used_names(stmt)
                continue
            methods = []
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                methods = [f for f in stmt.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                stmt.body = [part for part in stmt.body if part not in methods]
            uses.setdefault(stmt.name, set()).update(_used_names(stmt) - {stmt.name})
            if not stmt.name.startswith("_"):
                public.append((path.stem, stmt.name))
            for method in methods:
                key = f"{stmt.name}.{method.name}"
                uses[key] = _used_names(method)
                uses.setdefault(f".{method.name}", set()).add(key)
                public.append((path.stem, key))
    reached, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(uses.get(name, ()))
    return sorted(f"{module}.{name}" for module, name in public if name not in reached)


def test_every_public_name_of_the_package_is_reached():
    unreached = unreached_public_names()
    assert not unreached, f"reached only by the tests: {unreached}"
