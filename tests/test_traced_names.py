"""Every name the benchmark tracer wraps exists in the package, and the
certificate reaches its checks through those names.

``perfbench/tracer.py`` lists its targets as ``(group, module, attribute)``
and fails at install time when one is missing, so a rename in the package
would only show when the benchmark runs traced.  The list is read with
``ast``; nothing under ``perfbench/`` is imported.  The tracer wraps a
module attribute, so a check called by another route than its module
name would run but leave no span.
"""

import ast
import importlib
import io
import json
import os
import sys
from collections import Counter
from contextlib import redirect_stdout

from gradedvb import analysis, cli, linearize_chart
from conftest import rank1_chart

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


# what check_all_properties calls, by the names the tracer wraps
CERTIFICATE_CHECKS = ("is_nondegenerate", "check_decomposition",
                      "check_cocycle", "check_kernel_preservation",
                      "kernel_intersection")


def test_certificate_calls_the_traced_checks(monkeypatch):
    traced = {attr for _, module, attr in traced_targets()
              if module == "analysis"}
    assert set(CERTIFICATE_CHECKS) <= traced
    calls = Counter()
    for name in CERTIFICATE_CHECKS:
        def counted(*args, _name=name, _real=getattr(analysis, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(analysis, name, counted)
    lc = linearize_chart(rank1_chart(4, [1, 2, 1, 1, 1]))
    assert analysis.check_all_properties(lc.chart, lc.operators).all_passed
    assert [n for n in CERTIFICATE_CHECKS if not calls[n]] == []


# what ``linearize --fibers --json`` must reach, by the names the tracer wraps
LINEARIZE_PATH = ("weights.validate", "weights.linearized_system",
                  "weights.delta_prime_fiber", "linearize.linearize_chart",
                  "linearize.coordinate_table")


def assert_command_reaches(monkeypatch, path, argv):
    """Run ``argv`` through ``cli.main`` with every name of ``path``
    counted in every package namespace that binds it, as the tracer
    patches it, and require a call to each."""
    traced = {f"{module}.{attr}" for _, module, attr in traced_targets()}
    assert set(path) <= traced
    calls = Counter()
    for label in path:
        module_name, attr = label.split(".")
        real = getattr(importlib.import_module(f"gradedvb.{module_name}"), attr)

        def counted(*args, _label=label, _real=real, **kwargs):
            calls[_label] += 1
            return _real(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "gradedvb" or name.startswith("gradedvb."):
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, counted)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    assert json.loads(buf.getvalue())["command"] == argv[0]
    assert [label for label in path if not calls[label]] == []


M2_SPEC = os.path.join(ROOT, "tests", "data", "m2.spec")


def test_linearize_reaches_the_traced_names(monkeypatch):
    assert_command_reaches(monkeypatch, LINEARIZE_PATH,
                           ["linearize", M2_SPEC, "--fibers", "--json"])


# what ``reconstruct --json`` must reach, by the names the tracer wraps
RECONSTRUCT_PATH = ("analysis.reconstruct_degree2", "linearize.linearize_chart",
                    "algebra.component_basis")


def test_reconstruct_reaches_the_traced_names(monkeypatch):
    assert_command_reaches(monkeypatch, RECONSTRUCT_PATH,
                           ["reconstruct", M2_SPEC, "--json"])


def test_reconstruct_lists_fibers_through_component_basis(monkeypatch):
    """The reconstruction lists its fiber monomials with the traced
    ``algebra.component_basis``, on the fiber part of a chart, so the
    tracer counts those listings and times them under ``algebra``."""
    real = analysis.component_basis
    charts = []

    def counted(chart, *args):
        charts.append(chart)
        return real(chart, *args)
    monkeypatch.setattr(analysis, "component_basis", counted)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["reconstruct", M2_SPEC, "--json"]) == 0
    assert json.loads(buf.getvalue())["command"] == "reconstruct"
    assert any(chart.coordinates and not any(
        c.weight.is_zero for c in chart.coordinates) for chart in charts)
