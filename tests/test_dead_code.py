"""Every top-level function and class of the package, and every method
and property of its top-level classes, has a caller.

The source, the tests and the benchmark are parsed with ``ast``; a name
counts as used when some other top-level statement or method reads it as
a name or an attribute (a method or property: as an attribute).  Its own
definition (recursive calls included), the body of its class for a class
name, and the re-exports in ``gradedvb/__init__.py`` do not count.
Dunder methods are exempt: the language calls them.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedvb")
INIT = os.path.join(PACKAGE, "__init__.py")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


def python_files():
    for top in ("src", "tests", "perfbench"):
        for here, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(here, name)


def parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def units(path):
    """(definitions the code belongs to, code) for each top-level
    statement; a top-level class is split into its methods and the rest."""
    for stmt in parse(path).body:
        own = {(path, stmt.name)} if isinstance(stmt, DEFS) else set()
        if not isinstance(stmt, ast.ClassDef):
            yield own, stmt
            continue
        for item in stmt.body:
            if isinstance(item, FUNCS):
                yield own | {(path, f"{stmt.name}.{item.name}")}, item
            else:
                yield own, item
        for node in stmt.bases + stmt.keywords + stmt.decorator_list:
            yield own, node


def unreferenced_definitions():
    defined = {}  # name -> set of (path, qualified name) that define it
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if not name.endswith(".py") or path == INIT:
            continue
        for stmt in parse(path).body:
            if isinstance(stmt, DEFS):
                defined.setdefault(stmt.name, set()).add((path, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, FUNCS) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        defined.setdefault(item.name, set()).add(
                            (path, f"{stmt.name}.{item.name}"))
    used = set()  # (name, read as an attribute)
    for path in python_files():
        if path == INIT:
            continue
        for owners, code in units(path):
            for node in ast.walk(code):
                if isinstance(node, ast.Name):
                    ref = (node.id, False)
                elif isinstance(node, ast.Attribute):
                    ref = (node.attr, True)
                else:
                    continue
                if not owners & defined.get(ref[0], set()):
                    used.add(ref)
    # a method or property is reached only through an attribute
    return sorted(qual for name, defs in defined.items() for _, qual in defs
                  if (name, True) not in used
                  and ("." in qual or (name, False) not in used))

def test_every_package_definition_is_referenced():
    assert unreferenced_definitions() == []
