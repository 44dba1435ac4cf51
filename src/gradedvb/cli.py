"""Command-line front end.

Subcommands: validate | linearize | check | invert | dualize | reconstruct.
Text tables and ``--json`` output come from the same data, every output is
deterministic for a fixed input and flags, and the effective truncation
degree is recorded in the header of any output that used one.

Exit codes: 0 success, 1 failed check, unsolvable inverse or invalid
weight system, 2 parse or usage error (including ``--trunc`` below 1).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import analysis
from .algebra import (AlgebraError, Chart, TruncationOverflow, chart_dump,
                      multiply)
from .linearize import coordinate_table, linearize_chart
from .specfile import SpecParseError, parse_polynomial, parse_spec, parse_weight_row
from .weights import (
    WeightError,
    WeightSystem,
    dualize,
    is_multiplicity_free,
    linearized_system,
    max_multiplicities,
    delta_prime_fiber,
    validate,
)


def _read_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except SpecParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _system_json(ws: WeightSystem) -> dict:
    return {
        "rank": ws.rank,
        "basis": [s.label for s in ws.basis],
        "parities": [s.parity for s in ws.basis],
        "elements": [[w.coeff(s) for s in ws.basis] for w in ws.sorted_elements()],
        "labels": [w.label for w in ws.sorted_elements()],
    }


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows
              else len(header[c]) for c in range(len(header))]
    def fmt(cells):
        return "  " + " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [fmt(header)]
    for r in rows:
        out.append(fmt(r))
    return [line.rstrip() for line in out]


def _truncation(args, spec) -> int | None:
    """The effective truncation degree: ``--trunc``, else the chart
    block's value, else 3.  Prints an error and returns None when
    ``--trunc`` is below 1."""
    if args.trunc is not None:
        if args.trunc < 1:
            print(f"error: --trunc must be >= 1, got {args.trunc}",
                  file=sys.stderr)
            return None
        return args.trunc
    return 3 if spec.truncation is None else spec.truncation


def _reject_invalid(ws: WeightSystem) -> bool:
    """Print an error and return True when ``ws`` is not a valid system."""
    if validate(ws).is_valid:
        return False
    print("error: input system is not valid; run validate", file=sys.stderr)
    return True


def _elements_line(ws: WeightSystem) -> str:
    labels = [w.label for w in ws.sorted_elements()]
    return f"elements ({len(labels)}): " + ", ".join(labels)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = _read_spec(args.file)
    ws = spec.system
    rep = validate(ws)
    mf = is_multiplicity_free(ws)
    data = {
        "command": "validate",
        "system": _system_json(ws),
        "finite": rep.finite,
        "has_zero_and_units": rep.has_zero and rep.has_units,
        "nonnegative": rep.is_nonnegative,
        "valid": rep.is_valid,
        "multiplicity_free": mf,
    }
    mults = max_multiplicities(ws) if rep.is_valid else None
    if mults is not None:
        data["max_multiplicities"] = {s.label: n for s, n in mults.by_symbol}
        data["extra_lifts"] = mults.extra
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if rep.is_valid else 1
    print("# gradedvb validate")
    print(f"rank: {ws.rank}")
    print("parities: " + " ".join(str(s.parity) for s in ws.basic_symbols))
    print(_elements_line(ws))
    print(f"condition 1 (finite): {'PASS' if rep.finite else 'FAIL'}")
    c2 = rep.has_zero and rep.has_units
    detail = ""
    if not rep.has_zero:
        detail = "  [zero weight missing]"
    elif rep.missing_units:
        detail = "  [missing: " + ", ".join(s.label for s in rep.missing_units) + "]"
    print(f"condition 2 (zero and unit weights): {'PASS' if c2 else 'FAIL'}{detail}")
    neg = ""
    if rep.negative_elements:
        neg = "  [negative: " + ", ".join(w.label for w in rep.negative_elements) + "]"
    print(f"condition 3 (non-negative): {'PASS' if rep.is_nonnegative else 'FAIL'}{neg}")
    print(f"valid: {'yes' if rep.is_valid else 'no'}")
    print(f"multiplicity-free: {'yes' if mf else 'no'}")
    if mults is not None:
        pairs = " ".join(f"{s.label}={n}" for s, n in mults.by_symbol)
        print(f"max multiplicities: {pairs} (extra lifts: {mults.extra})")
    return 0 if rep.is_valid else 1


def cmd_linearize(args) -> int:
    spec = _read_spec(args.file)
    ws = spec.system
    if _reject_invalid(ws):
        return 1
    trunc = _truncation(args, spec)
    if trunc is None:
        return 2
    derived = linearized_system(ws)
    fibers = [(d, delta_prime_fiber(ws, d)) for d in ws.sorted_elements()]
    data = {
        "command": "linearize",
        "truncation": trunc,
        "input": _system_json(ws),
        "derived": _system_json(derived),
        "fibers": [
            {"delta": d.label, "fiber": [w.label for w in fib]}
            for d, fib in fibers
        ],
    }
    lc = None
    if spec.has_chart:
        lc = linearize_chart(spec.chart(trunc))
        table = coordinate_table(lc)
        data["generators"] = [
            {
                "weight": e.delta_prime.label,
                "name": e.generator.name,
                "from": e.delta.label,
                "composition": [s.label for s in e.composition],
            }
            for e in table
        ]
        data["operators"] = {
            sym.label: {c.name: op.of(c).text()
                        for c in lc.chart.coordinates if not op.of(c).is_zero}
            for sym, op in sorted(lc.operators.items(),
                                  key=lambda kv: kv[0].sort_key)
        }
        data["chart"] = chart_dump(lc.chart)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print("# gradedvb linearize")
    print(f"# truncation: {trunc}")
    print(f"input: rank {ws.rank}; parities " +
          " ".join(str(s.parity) for s in ws.basic_symbols))
    print(_elements_line(ws))
    print(f"derived: rank {derived.rank}; basis " +
          " ".join(s.label for s in derived.basis))
    print(_elements_line(derived))
    if args.fibers:
        print("fibers:")
        rows = [[d.label, ", ".join(w.label for w in fib)] for d, fib in fibers]
        for line in _table(rows, ["delta", "fiber"]):
            print(line)
    if lc is not None:
        print("generators:")
        rows = [[e.delta_prime.label, e.generator.name, e.delta.label,
                 " o ".join(f"D[{s.label}]" for s in e.composition) or "id"]
                for e in table]
        for line in _table(rows, ["weight", "name", "from", "composition"]):
            print(line)
        print("operators:")
        for sym, op in sorted(lc.operators.items(), key=lambda kv: kv[0].sort_key):
            for c in lc.chart.coordinates:
                img = op.of(c)
                if not img.is_zero:
                    print(f"  D[{sym.label}]({c.name}) = {img.text()}")
    return 0


def _spot_checks(lc, seed: int) -> bool:
    """Seeded random Leibniz and square-zero checks of the lift
    derivations on the quotient chart, where every answer uses them: they
    preserve the negative-weight ideal, so they descend to it."""
    rng = random.Random(seed)
    chart = lc.quotient
    coords = list(chart.coordinates)
    ok = True
    for _ in range(5):
        c1, c2 = rng.choice(coords), rng.choice(coords)
        p = chart.gen(c1, rng.choice([1, 2, -1, 3]))
        q = chart.gen(c2)
        for sym in lc.lift_sequence:
            d = lc.quotient_derivations[sym]
            lhs = d.apply(multiply(p, q))
            sign = -1 if c1.parity else 1
            rhs = multiply(d.apply(p), q) + multiply(p, d.apply(q)).scale(sign)
            ok = ok and (lhs == rhs) and d.apply(d.apply(p)).is_zero
    return ok


def cmd_check(args) -> int:
    spec = _read_spec(args.file)
    if not spec.has_chart:
        print("error: check needs a chart block", file=sys.stderr)
        return 2
    trunc = _truncation(args, spec)
    if trunc is None:
        return 2
    try:
        lc = linearize_chart(spec.chart(trunc))
        rep = analysis.check_all_properties(lc.chart, lc.operators)
    except (WeightError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spot = _spot_checks(lc, args.seed)
    data = rep.to_json()
    data.update({"command": "check", "truncation": trunc, "seed": args.seed,
                 "spot_checks": spot})
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if rep.all_passed and spot else 1
    print("# gradedvb check")
    print(f"# truncation: {trunc}")
    print(f"# seed: {args.seed}")
    for k, name, status, count, witness in rep.summary_rows():
        line = f"property {k} ({name}): {status} (checked {count})"
        if witness:
            line += f"  witness: {witness}"
        print(line)
    print(f"spot checks (seed {args.seed}): {'PASS' if spot else 'FAIL'}")
    print(f"result: {'ALL PASS' if rep.all_passed and spot else 'FAIL'}")
    return 0 if rep.all_passed and spot else 1


def cmd_invert(args) -> int:
    spec = _read_spec(args.file)
    if not spec.has_chart:
        print("error: invert needs a chart block", file=sys.stderr)
        return 2
    if _reject_invalid(spec.system):
        return 1
    trunc = _truncation(args, spec)
    if trunc is None:
        return 2
    lc = linearize_chart(spec.chart(trunc))
    syms = []
    for label in args.lam.split(","):
        label = label.strip()
        sym = next((s for s in lc.lift_sequence if s.label == label), None)
        if sym is None:
            print(f"error: unknown operator {label!r}", file=sys.stderr)
            return 2
        syms.append(sym)
    try:
        f = parse_polynomial(lc.quotient, args.rhs)
        F = analysis.solve_inverse(lc, tuple(syms), f)
    except (AlgebraError, analysis.AnalysisError) as exc:
        if args.json:
            print(json.dumps({"command": "invert", "truncation": trunc,
                              "error": str(exc)}, indent=2))
        else:
            print("# gradedvb invert")
            print(f"# truncation: {trunc}")
            print(f"error: {exc}")
        return 1
    if args.json:
        print(json.dumps({"command": "invert", "truncation": trunc,
                          "lam": [s.label for s in syms],
                          "rhs": f.text(), "solution": F.text()}, indent=2))
        return 0
    print("# gradedvb invert")
    print(f"# truncation: {trunc}")
    print("composition: " + " o ".join(f"d[{s.label}]" for s in syms))
    print(f"rhs: {f.text()}")
    print(f"solution: {F.text()}")
    return 0


def cmd_dualize(args) -> int:
    spec = _read_spec(args.file)
    ws = spec.system
    base = []
    try:
        for k, row in enumerate(args.base.split(";")):
            base.append(parse_weight_row(row.strip(), ws, k + 1))
    except SpecParseError as exc:
        print(f"error: --base: {exc}", file=sys.stderr)
        return 2
    try:
        res = dualize(ws, base)
    except WeightError as exc:
        if args.json:
            print(json.dumps({"command": "dualize", "error": str(exc)}, indent=2))
        else:
            print("# gradedvb dualize")
            print(f"error: {exc}")
        return 1
    data = {
        "command": "dualize",
        "fiber_direction": res.fiber_symbol.label,
        "dual": _system_json(res.system),
        "suggested_basis": [w.label for w in res.suggested_basis],
        "suggestion_valid": res.suggestion_valid,
    }
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print("# gradedvb dualize")
    print(f"fiber direction: {res.fiber_symbol.label}")
    print(_elements_line(res.system))
    print("suggested basis: " + ", ".join(w.label for w in res.suggested_basis)
          + f" (valid: {'yes' if res.suggestion_valid else 'no'})")
    return 0


def cmd_reconstruct(args) -> int:
    spec = _read_spec(args.file)
    if not spec.has_chart:
        print("error: reconstruct needs a chart block", file=sys.stderr)
        return 2
    ws = spec.system
    if _reject_invalid(ws):
        return 1
    mults = max_multiplicities(ws)
    if ws.rank != 1 or mults.extra != 1 or len(ws.elements) != 3:
        print("error: reconstruct expects a degree-2 system {0, a1, 2a1}",
              file=sys.stderr)
        return 2
    trunc = _truncation(args, spec)
    if trunc is None:
        return 2
    chart = spec.chart(trunc)
    lc = linearize_chart(chart)
    (b21,) = lc.chart.system.additional_symbols
    try:
        res = analysis.reconstruct_degree2(lc.chart, lc.operators[b21])
    except analysis.AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    same = res.m2.dims == chart.dims
    def dimline(c: Chart) -> str:
        return " ".join(f"{w.label}:{n}" for w, n in
                        sorted(c.dims.items(), key=lambda x: x[0].sort_key))
    data = {
        "command": "reconstruct",
        "truncation": trunc,
        "input_dims": dimline(chart),
        "double_bundle_dims": dimline(lc.chart),
        "reconstructed_dims": dimline(res.m2),
        "round_trip_dims_match": same,
        "isomorphism_verified": res.verified,
    }
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if res.verified and same else 1
    print("# gradedvb reconstruct")
    print(f"# truncation: {trunc}")
    print(f"input dims: {dimline(chart)}")
    print(f"double-bundle dims: {dimline(lc.chart)}")
    print(f"reconstructed dims: {dimline(res.m2)}")
    print(f"round trip dims match: {'yes' if same else 'no'}")
    print(f"isomorphism verified: {'yes' if res.verified else 'no'}")
    return 0 if res.verified and same else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # the shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a subparser from clobbering a value parsed up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS, help="machine output")
    common.add_argument("--trunc", type=int, default=argparse.SUPPRESS,
                        help="truncation degree, at least 1 (default: chart "
                             "block value or 3)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized spot checks")

    ap = argparse.ArgumentParser(
        prog="gradedvb",
        parents=[common],
        description="Linearize multi-graded charts into vector-bundle charts "
                    "and verify the induced operator family.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the weight-system conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("linearize", parents=[common],
                       help="derived system, fibers, chart table")
    p.add_argument("file")
    p.add_argument("--fibers", action="store_true",
                   help="print the per-weight fiber table")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("check", parents=[common],
                       help="run the six-property certification")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invert", parents=[common],
                       help="solve a composite differential")
    p.add_argument("file")
    p.add_argument("--lam", required=True,
                   help="comma-separated operator labels, e.g. b2_1,b3_1")
    p.add_argument("--rhs", required=True,
                   help="right-hand side in polynomial text form")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("dualize", parents=[common],
                       help="dualize along a bundle direction")
    p.add_argument("file")
    p.add_argument("--base", required=True,
                   help="semicolon-separated base weight rows, e.g. '0,0;1,0'")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="degree-2 round trip through the double bundle")
    p.add_argument("file")
    p.set_defaults(func=cmd_reconstruct)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, value in (("json", False), ("trunc", None), ("seed", 0)):
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        return args.func(args)
    except TruncationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())
