"""Every top-level function, class and assigned name of the package,
and every method and property of its top-level classes, has a reader,
every local that a package function assigns is read, every default
of a package function is overridden somewhere outside the tests, and
each package module imports only the modules of earlier layers.

The source, the tests and the benchmark are parsed with ``ast``; a name
counts as used when some other top-level statement or method reads it as
a name or an attribute (a method or property: as an attribute).  Its own
definition (recursive calls included), the body of its class for a class
name, and the re-exports in ``gradedvb/__init__.py`` do not count.
Dunder names are exempt: the language reads them.  A local counts as read
when its function, or a function nested in it, reads it as a name;
locals named with a leading ``_`` are exempt.

A parameter with a default is a knob; it counts as used when some call
in ``src/``, ``scripts/`` or ``perfbench/`` passes it, by position or
by keyword.  A call matches a function by its name or attribute name, a
class's ``__init__`` by the class name, and a method's positions start
after ``self``.  A call that unpacks ``*args`` passes every later
position, and one that unpacks ``**kwargs`` every keyword.  A default
that only the tests override is a knob for the tests.
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


def assigned(node):
    """The names an assignment binds; none for any other node."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def top_level_names(stmt):
    """The names a top-level statement defines or assigns."""
    return [stmt.name] if isinstance(stmt, DEFS) else assigned(stmt)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def units(path):
    """(definitions the code belongs to, code) for each top-level
    statement; a top-level class is split into its methods and the rest."""
    for stmt in parse(path).body:
        own = {(path, name) for name in top_level_names(stmt)}
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
            for name in top_level_names(stmt):
                if not is_dunder(name):
                    defined.setdefault(name, set()).add((path, name))
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, FUNCS) and not is_dunder(item.name):
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


def unread_locals():
    """``file:function:name`` for each local that a package function
    assigns and that neither it nor a function nested in it reads."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        for func in ast.walk(parse(os.path.join(PACKAGE, name))):
            if not isinstance(func, FUNCS):
                continue
            stored, read = [], set()
            for node in ast.walk(func):
                stored += assigned(node)
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    read.add(node.id)
            found += sorted({f"{name}:{func.name}:{local}" for local in stored
                             if local not in read
                             and not local.startswith("_")})
    return found


def test_every_package_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_every_assigned_local_is_read():
    assert unread_locals() == []


def defaulted_parameters():
    """``(file:function:parameter, name a call uses, position)`` for each
    parameter with a default of each package function; keyword-only
    parameters have no position."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        tree = parse(os.path.join(PACKAGE, name))
        methods = {item: cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, FUNCS)}
        for func in ast.walk(tree):
            if not isinstance(func, FUNCS):
                continue
            cls = methods.get(func)
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in func.decorator_list)
            skip = 1 if cls and not static else 0
            called = cls if func.name == "__init__" else func.name
            args = func.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            where = f"{name}:{func.name}"
            found += [(f"{where}:{p.arg}", called, k - skip)
                      for k, p in enumerate(params) if k >= first]
            found += [(f"{where}:{p.arg}", called, None)
                      for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
    return found


def passes(call, param, position):
    """Whether ``call`` passes the parameter ``param`` at ``position``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def unset_knobs():
    """``file:function:parameter`` for each default that no call in
    ``src/``, ``scripts/`` or ``perfbench/`` passes."""
    calls = {}  # called name -> calls
    for top in ("src", "scripts", "perfbench"):
        for here, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                for node in ast.walk(parse(os.path.join(here, name))):
                    if isinstance(node, ast.Call):
                        f = node.func
                        called = getattr(f, "id", None) or getattr(
                            f, "attr", None)
                        calls.setdefault(called, []).append(node)
    return [label for label, called, position in defaulted_parameters()
            if not any(passes(call, label.rsplit(":", 1)[1], position)
                       for call in calls.get(called, []))]


def test_every_default_is_overridden_outside_the_tests():
    assert defaulted_parameters()
    assert unset_knobs() == []


# each module may import only package modules listed before it
LAYERS = ("weights", "linalg", "algebra", "tangent", "linearize", "analysis",
          "specfile", "cli")


def package_imports(path):
    """The package modules that the module at ``path`` imports, by a
    relative import or by their ``gradedvb.`` name."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"gradedvb.{module}" if module else "gradedvb"
            names = [module] if module != "gradedvb" else [
                f"gradedvb.{a.name}" for a in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names
                     if n.startswith("gradedvb."))
    return found


def test_modules_import_in_layer_order():
    wrong = []
    for name in sorted(os.listdir(PACKAGE)):
        module = name[:-3]
        if not name.endswith(".py") or module in ("__init__", "__main__"):
            continue
        if module not in LAYERS:
            wrong.append(f"{module} has no layer")
            continue
        earlier = LAYERS[:LAYERS.index(module)]
        wrong += [f"{module} imports {dep}" for dep in sorted(
            package_imports(os.path.join(PACKAGE, name)))
            if dep not in earlier]
    assert wrong == []
