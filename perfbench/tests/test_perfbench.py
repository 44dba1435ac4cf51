"""Tests of the benchmark itself: inputs, tracer and output checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from gradedvb import cli
from tracer import FOLDED, TARGETS, Tracer

BENCH = Path(run.__file__).resolve().parent


def smoke_cases(workload, k=3):
    """The ``k`` shortest spec files of a workload: a tiny, cheap slice."""
    cases = workloads.generate(workload, 5)
    return sorted(cases, key=lambda c: (len(c.spec), c.key()))[:k]


def write(cases, tmp_path):
    paths = []
    for i, case in enumerate(cases):
        path = tmp_path / f"case{i}.spec"
        path.write_text(case.spec, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    assert [c.key() for c in first] == [c.key() for c in again]
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(first) != \
        workloads.inputs_digest(workloads.generate(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(workload, tmp_path):
    cases = smoke_cases(workload)
    results, _, _ = run.run_passes(cli, cases, write(cases, tmp_path), 0)
    attempted, failed, reasons, _ = run.check_results(cases, results)
    assert attempted == len(cases)
    assert failed == 0, reasons


@pytest.mark.parametrize("passes", range(run.MIN_PASSES, 12))
def test_tail_is_taken_over_calls_on_a_fixed_case(passes):
    # 41 cases that take about 1..41 ms, each called once per pass
    n = 41
    times = [(ms + k / 100) / 1000 for k in range(passes)
             for ms in range(1, n + 1)]
    tail, pct, above = run.tail_latency(times, n)
    assert above >= run.TAIL_ABOVE
    assert sum(t > tail for t in times) == above
    # the same case, TAIL_ABOVE / MIN_PASSES + 1 places from the slowest,
    # and the same percentile however many passes fit
    assert round(tail * 1000) == n - run.TAIL_ABOVE // run.MIN_PASSES
    assert pct == run.tail_latency(times[:n * run.MIN_PASSES], n)[1]


def test_checker_rejects_wrong_outputs():
    checker = workloads.Checker()
    inv = smoke_cases("invert-family", 1)[0]
    data = {"command": "invert", "solution": "0"}
    assert checker.check(inv, 0, json.dumps(data)) is not None
    chk = smoke_cases("check-ladder", 1)[0]
    assert checker.check(chk, 0, json.dumps({"all_passed": False}))
    assert checker.check(chk, 1, json.dumps({"all_passed": True}))
    assert checker.check(chk, 0, "not json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass over a few cases of every workload, plus a degree-4
    certificate so the cocycle and kernel-preservation checks run."""
    cases = [c for w in workloads.WORKLOADS for c in smoke_cases(w, 2)]
    cases.append(workloads.Case(
        "check", workloads.rank1_spec(4, (1, 1, 1, 1, 1), 0, 3)))
    paths = write(cases, tmp_path_factory.mktemp("traced"))
    tracer = Tracer()
    tracer.install()
    try:
        results, _, _ = run.run_passes(cli, cases, paths, 0, tracer)
    finally:
        tracer.uninstall()
    return tracer, cases, results


def test_every_wrapped_function_records_calls(traced):
    tracer, _, _ = traced
    calls = tracer.calls_by_label()
    assert len(calls) == len(TARGETS)
    assert [name for name, n in calls.items() if n == 0] == []


def test_tracing_leaves_outputs_unchanged(traced, tmp_path):
    _, cases, results = traced
    plain, _, _ = run.run_passes(cli, cases, write(cases, tmp_path), 0)
    assert [r[1:3] for r in plain[0]] == [r[1:3] for r in results[0]]


def test_uninstall_restores_every_binding(traced):
    import gradedvb
    from gradedvb import algebra, analysis, linalg, tangent

    for fn in (gradedvb.component_basis, analysis.component_basis,
               algebra.component_basis, linalg.rref, tangent.multiply,
               analysis.multiply, cli.multiply, cli.main,
               tangent.Derivation.apply, gradedvb.Weight.__add__):
        assert not hasattr(fn, "__wrapped__")


def test_metric_names_match_benchmark_json(traced):
    tracer, cases, results = traced
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end(cases, results, [1.0], [0.1], 1024)
    layers = run.per_module(tracer, 1, 0.0)
    for got, listed in ((e2e, bench["end_to_end"]),
                        (layers, bench["per_layer"])):
        assert list(got) == [m["name"] for m in listed]
        assert [m["unit"] for m in got.values()] == \
            [m["unit"] for m in listed]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_is_never_negative(traced):
    tracer, _, _ = traced
    assert min(tracer.self_s) >= 0
    children = {}
    for sid, parent, _, _, start, end in tracer.spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    for sid, _, _, _, start, end in tracer.spans:
        assert (end - start) - children.get(sid, 0.0) >= -1e-9


def test_spans_carry_case_and_parent(traced):
    tracer, cases, _ = traced
    ids = {s[0] for s in tracer.spans}
    mains = [s for s in tracer.spans if tracer.names[s[3]] == "cli.main"]
    assert sorted(s[2] for s in mains) == list(range(len(cases)))
    assert all(s[1] == -1 for s in mains)
    assert all(s[1] in ids for s in tracer.spans if s not in mains)
    assert all(tracer.groups[s[3]] not in FOLDED for s in tracer.spans)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
