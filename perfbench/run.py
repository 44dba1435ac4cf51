"""gradedvb benchmark: one workload, end to end or traced per module.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload check-ladder --seed 1 --seconds 55 --trace 0

The runner builds the workload's fixed case list from ``--seed``, writes
the spec files, then drives ``gradedvb.cli.main(argv)`` in this process,
one call at a time (a closed loop with one client and one thread), with
stdout and stderr captured.  Every call parses its spec file afresh, so
the per-object memo caches start cold, as they do for a CLI user.  It
repeats the whole case list while another pass fits in ``--seconds``
(at least ``MIN_PASSES`` times), checks every output outside the timed
spans, and prints its metrics by name with their units; the last line of
stdout is one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes with the per-module wrappers of
``tracer.py`` installed, and reports the per-module metrics, every one of
them per pass of the case list, plus the tracing overhead.
"""

from time import perf_counter

T_START = perf_counter()

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# set-up is timed in this process and in this many more fresh processes;
# setup_s is the median of all of them
EXTRA_SETUPS = 2
# Every run makes at least this many passes over the case list.
# case_tail_ms is taken over all timed calls at a percentile fixed per
# workload: the one that leaves TAIL_ABOVE / MIN_PASSES + 1/2 cases' worth
# of calls above it.  That is at least TAIL_ABOVE calls in every run.
# Each case makes up the same share of the calls however many passes fit,
# so the tail falls on the same case in every run, and the half puts it in
# the middle of that case's calls rather than on the boundary with the
# next, cheaper case.  With a fixed count of calls above it, the tail
# would move to a cheaper case whenever one more pass fits.
MIN_PASSES = 2
TAIL_ABOVE = 10

# Functions each workload's CLI command calls directly.  A traced run in
# which one of them records no call has lost a wrapper and fails.  Calls
# further down are reported as measured, zero included, because an
# optimisation may legitimately remove them.
REQUIRED_CALLS = {
    "check-ladder": ("cli.main", "specfile.parse_spec",
                     "linearize.linearize_chart",
                     "analysis.check_all_properties", "algebra.multiply",
                     "tangent.Derivation.apply"),
    "invert-family": ("cli.main", "specfile.parse_spec",
                      "linearize.linearize_chart", "specfile.parse_polynomial",
                      "analysis.solve_inverse"),
    "linearize-sweep": ("cli.main", "specfile.parse_spec", "weights.validate",
                        "weights.linearized_system",
                        "weights.delta_prime_fiber",
                        "linearize.linearize_chart",
                        "linearize.coordinate_table"),
    "reconstruct-deg2": ("cli.main", "specfile.parse_spec",
                         "linearize.linearize_chart",
                         "analysis.reconstruct_degree2"),
}

MODULES = ("weights", "algebra", "tangent", "linearize", "analysis", "linalg",
           "specfile", "cli")
LINALG = ("rref", "matvec", "matmul", "nullspace", "solve", "inv", "rank")
ANALYSIS = ("check_all_properties", "is_nondegenerate", "check_decomposition",
            "check_cocycle", "check_kernel_preservation",
            "kernel_intersection", "solve_inverse", "reconstruct_degree2")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for the setup_s median
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------

def run_case(cli, argv):
    """One CLI call: (seconds, exit code or None if it raised, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crashing case is a failed case, not a dead run
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def run_passes(cli, cases, paths, seconds, tracer=None, min_passes=1):
    """Run the case list while another pass fits in ``seconds``; at least
    ``min_passes`` times.  Returns the per-pass results, the pass wall
    times and the peak resident set size in KiB after the first pass."""
    results, walls = [], []
    begin = perf_counter()
    while True:
        gc.collect()
        start = perf_counter()
        one = []
        for case, path in zip(cases, paths):
            if tracer is not None:
                tracer.begin_case()
            one.append(run_case(cli, case.argv(path)))
        walls.append(perf_counter() - start)
        results.append(one)
        if len(results) == 1:
            # later passes reuse freed memory, so the peak after one pass
            # does not depend on how many passes fit in the run
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if len(results) >= min_passes and \
                perf_counter() - begin + statistics.median(walls) > seconds:
            return results, walls, peak_kb


def check_results(cases, results):
    """Check every call of every pass.  Returns (attempted, failed, first
    failure reasons, digest of the first pass's outputs)."""
    checker = workloads.Checker()
    verdicts = {}
    attempted = failed = 0
    reasons = []
    first = results[0]
    for one in results:
        for i, (case, (_, code, out, err)) in enumerate(zip(cases, one)):
            attempted += 1
            if code is None:
                reason = "raised: " + err.strip().splitlines()[-1]
            elif (code, out) != first[i][1:3]:
                reason = "output differs between passes"
            else:
                key = (i, code, out)
                if key not in verdicts:
                    verdicts[key] = checker.check(case, code, out)
                reason = verdicts[key]
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"case {i} ({case.command}): {reason}")
    digest = hashlib.sha256()
    for _, code, out, _ in first:
        digest.update(f"{code}\n{out}\0".encode())
    return attempted, failed, reasons, digest.hexdigest()


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_latency(times, cases):
    """(seconds, percentile, calls above it) of the tail over all calls
    of a run of ``cases`` cases: see MIN_PASSES."""
    times = sorted(times)
    share = (TAIL_ABOVE / MIN_PASSES + 0.5) / cases
    above = int(share * len(times) + 1e-9)
    return times[len(times) - above - 1], 100 * (1 - share), above


def end_to_end(cases, results, walls, setups, peak_kb):
    n = len(cases)
    calls = [r[0] for one in results for r in one]
    tail, pct, above = tail_latency(calls, n)
    metrics = {
        "cases_per_s": metric(len(calls) / sum(walls), "1/s"),
        "case_p50_ms": metric(statistics.median(calls) * 1000, "ms"),
        "case_tail_ms": metric(tail * 1000, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    notes = {
        "case_p50_ms": f"median of {len(calls)} calls: {n} cases x "
                       f"{len(results)} passes",
        "case_tail_ms": f"p{pct:.2f} of {len(calls)} calls, {above} calls "
                        f"above it",
        "cases_per_s": f"{len(calls)} calls in {sum(walls):.3f} s "
                       f"of pass wall time",
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes


def per_module(tracer, passes, overhead_s):
    groups = tracer.group_totals()

    def per_pass(x):
        return x // passes if isinstance(x, int) and x % passes == 0 \
            else x / passes

    def count(group):
        return metric(per_pass(groups[group][0]), "count")

    def secs(*names):
        return metric(sum(groups[g][1] for g in names) / passes, "s")

    def module_self(prefix):
        return secs(*(g for g in groups if g.split(".")[0] == prefix))

    basis_calls = groups["algebra.component_basis"][0]
    m = {
        "weights.build.calls": count("weights.build"),
        "weights.self_s": module_self("weights"),
        "algebra.component_basis.calls": count("algebra.component_basis"),
        "algebra.component_basis.s": secs("algebra.component_basis"),
        "algebra.component_basis.monomials":
            metric(per_pass(tracer.basis_monomials), "count"),
        "algebra.component_basis.repeat_frac":
            metric(tracer.basis_repeats / basis_calls if basis_calls else 0.0,
                   "ratio"),
        "algebra.multiply.calls": count("algebra.multiply"),
        "algebra.multiply.s": secs("algebra.multiply"),
        "algebra.in_chart.calls": count("algebra.in_chart"),
        "algebra.in_chart.s": secs("algebra.in_chart"),
        "algebra.self_s": module_self("algebra"),
        "tangent.apply.calls": count("tangent.apply"),
        "tangent.apply.s": secs("tangent.apply"),
        "tangent.lift.s": secs("tangent.lift"),
        "tangent.self_s": module_self("tangent"),
        "linearize.linearize_chart.calls": count("linearize.linearize_chart"),
        "linearize.linearize_chart.s": secs("linearize.linearize_chart"),
        "linearize.coordinate_table.s": secs("linearize.coordinate_table"),
        "linearize.morphism_apply.s": secs("linearize.morphism_apply"),
        "linearize.self_s": module_self("linearize"),
    }
    for name in ANALYSIS:
        m[f"analysis.{name}.s"] = secs(f"analysis.{name}")
    m["analysis.self_s"] = module_self("analysis")
    for name in LINALG:
        m[f"linalg.{name}.calls"] = count(f"linalg.{name}")
        m[f"linalg.{name}.s"] = secs(f"linalg.{name}")
    m["linalg.cells"] = metric(per_pass(tracer.cells), "count")
    m["linalg.nonzero_frac"] = metric(
        tracer.nonzeros / tracer.cells if tracer.cells else 0.0, "ratio")
    m["linalg.self_s"] = module_self("linalg")
    m["specfile.parse_spec.s"] = secs("specfile.parse_spec")
    m["specfile.parse_polynomial.s"] = secs("specfile.parse_polynomial")
    m["specfile.self_s"] = module_self("specfile")
    m["cli.self_s"] = module_self("cli")
    m["trace.bookkeeping_s"] = metric(tracer.bookkeeping_s / passes, "s")
    m["trace.overhead_s"] = metric(overhead_s, "s")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradedvb" / "__init__.py").is_file():
        print(f"error: gradedvb sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gradedvb import cli

    cases = workloads.generate(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, case in enumerate(cases):
            path = workdir / f"case{i:04d}.spec"
            path.write_text(case.spec, encoding="utf-8")
            paths.append(str(path))
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"workload {args.workload}, seed {args.seed}: {len(cases)} "
              f"cases, distinct share "
              f"{workloads.distinct_share(cases):.3f}, inputs sha256 "
              f"{workloads.inputs_digest(cases)}")
        if args.trace:
            return traced_run(args, cli, cases, paths)
        return untraced_run(args, cli, cases, paths, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(attempted, failed, reasons, digest, metrics, notes):
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} "
          "calls failed)")
    print(f"outputs sha256 {digest}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def untraced_run(args, cli, cases, paths, setup_s) -> int:
    results, walls, peak_kb = run_passes(cli, cases, paths, args.seconds,
                                         min_passes=MIN_PASSES)
    attempted, failed, reasons, digest = check_results(cases, results)
    setups = setup_samples(args, setup_s)
    metrics, notes = end_to_end(cases, results, walls, setups, peak_kb)
    print(f"passes {len(results)}, pass wall "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    report(attempted, failed, reasons, digest, metrics, notes)
    return 0


def traced_run(args, cli, cases, paths) -> int:
    # untraced and traced passes alternate, so that a drift in machine
    # speed does not show up as tracing overhead
    base, base_walls, results, walls = [], [], [], []
    tracer = Tracer()
    begin = perf_counter()
    while True:
        one, wall, _ = run_passes(cli, cases, paths, 0)
        base += one
        base_walls += wall
        tracer.install()
        try:
            one, wall, _ = run_passes(cli, cases, paths, 0, tracer)
        finally:
            tracer.uninstall()
        results += one
        walls += wall
        pair = statistics.median(base_walls) + statistics.median(walls)
        if perf_counter() - begin + pair > args.seconds:
            break
    calls = tracer.calls_by_label()
    missing = [name for name in REQUIRED_CALLS[args.workload]
               if calls.get(name, 0) == 0]
    if missing:
        print("error: traced functions the workload calls recorded no "
              "calls: " + ", ".join(missing), file=sys.stderr)
        return 3
    overhead = statistics.median(walls) - statistics.median(base_walls)
    metrics = per_module(tracer, len(results), overhead)
    attempted, failed, reasons, digest = check_results(cases, base + results)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(trace_path), {"workload": args.workload,
                                  "seed": args.seed,
                                  "passes": len(results)})
    total = sum(metrics[f"{m}.self_s"]["value"] for m in MODULES)
    print(f"traced passes {len(results)}, pass wall "
          + ", ".join(f"{w:.3f}" for w in walls)
          + " s; untraced pass wall "
          + ", ".join(f"{w:.3f}" for w in base_walls)
          + f" s; spans in {trace_path}")
    print("self time share per pass: " + ", ".join(
        f"{m} {100 * metrics[f'{m}.self_s']['value'] / total:.1f}%"
        for m in MODULES))
    report(attempted, failed, reasons, digest, metrics, {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
