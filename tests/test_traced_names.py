"""Every name the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` lists its targets as ``(group, module, attribute)``
and fails at install time when one is missing, so a rename in the package
would only show when the benchmark runs traced.  The list is read with
``ast``; nothing under ``perfbench/`` is imported.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def traced_targets():
    with open(TRACER, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=TRACER)
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and getattr(stmt.targets[0], "id", None) == "TARGETS"):
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for _, module_name, attr in targets:
        module = importlib.import_module(f"gradedvb.{module_name}")
        if "." in attr:
            # methods are wrapped on the class that defines them
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
