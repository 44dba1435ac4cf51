"""Every top-level function and class of the package has a caller.

The source, the tests and the benchmark are parsed with ``ast``; a name
counts as used when some other top-level statement reads it as a name or
an attribute.  Its own definition (recursive calls included) and the
re-exports in ``gradedvb/__init__.py`` do not count.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedvb")
INIT = os.path.join(PACKAGE, "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def python_files():
    for top in ("src", "tests", "perfbench"):
        for here, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(here, name)


def parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def unreferenced_definitions():
    defined = {}  # name -> set of (path, name) that define it
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if name.endswith(".py") and path != INIT:
            for stmt in parse(path).body:
                if isinstance(stmt, DEFS):
                    defined.setdefault(stmt.name, set()).add((path, stmt.name))
    used = set()
    for path in python_files():
        if path == INIT:
            continue
        for stmt in parse(path).body:
            owner = (path, stmt.name) if isinstance(stmt, DEFS) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if owner not in defined.get(ref, ()):
                    used.add(ref)
    return sorted(set(defined) - used)


def test_every_package_definition_is_referenced():
    assert unreferenced_definitions() == []
