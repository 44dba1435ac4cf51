"""Command-line front end.

Subcommands: validate | linearize | check | invert | dualize | reconstruct.
Each subcommand builds its ``--json`` data and its text lines from the
same values; every output is deterministic for a fixed input and flags,
and the effective truncation degree is recorded in the header of any
output that used one.

Errors take one of two forms.  A usage or input error is one
``error: ...`` line on stderr with nothing on stdout: exit 2 for a parse
or usage error (including ``--trunc`` below 1), exit 1 for an invalid
weight system or an input the computation cannot carry (a truncation
that would drop terms).  A failed check or solve is a report on stdout,
text or ``--json``, with exit 1; success exits 0.
"""

from __future__ import annotations

import argparse
import random
import sys
from json.encoder import encode_basestring_ascii

from . import analysis
from .algebra import AlgebraError, Chart, aligned_table, chart_dump, multiply
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


class CliError(Exception):
    """A usage or input error: ``main`` prints ``error: <message>`` on
    stderr and exits with ``code``."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message, code)


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


def _load(args, chart: bool):
    """The spec of ``args.file`` and the effective truncation degree:
    ``--trunc``, else the chart block's value, else 3.  Stops with exit 2
    when ``chart`` is set and the spec has no chart block, then with exit
    1 on an invalid system, then with exit 2 when ``--trunc`` is below 1."""
    spec = _read_spec(args.file)
    if chart and not spec.has_chart:
        raise CliError(f"{args.command} needs a chart block")
    if not validate(spec.system).is_valid:
        raise CliError("input system is not valid; run validate", 1)
    if args.trunc is not None and args.trunc < 1:
        raise CliError(f"--trunc must be >= 1, got {args.trunc}")
    return spec, args.trunc or spec.truncation or 3


def _system_json(ws: WeightSystem) -> dict:
    return {
        "rank": ws.rank,
        "basis": [s.label for s in ws.basis],
        "parities": [s.parity for s in ws.basis],
        "elements": [[w.coeff(s) for s in ws.basis] for w in ws.sorted_elements()],
        "labels": [w.label for w in ws.sorted_elements()],
    }


def _elements_line(ws: WeightSystem) -> str:
    labels = [w.label for w in ws.sorted_elements()]
    return f"elements ({len(labels)}): " + ", ".join(labels)


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, --json data, text lines)
# ---------------------------------------------------------------------------

Result = tuple[int, dict, list[str]]


def cmd_validate(args) -> Result:
    ws = _read_spec(args.file).system
    rep = validate(ws)
    mf = is_multiplicity_free(ws)
    c2 = rep.has_zero and rep.has_units
    data = {
        "command": "validate",
        "system": _system_json(ws),
        "finite": rep.finite,
        "has_zero_and_units": c2,
        "nonnegative": rep.is_nonnegative,
        "valid": rep.is_valid,
        "multiplicity_free": mf,
    }
    detail = ""
    if not rep.has_zero:
        detail = "  [zero weight missing]"
    elif rep.missing_units:
        detail = "  [missing: " + ", ".join(s.label for s in rep.missing_units) + "]"
    neg = ""
    if rep.negative_elements:
        neg = "  [negative: " + ", ".join(w.label for w in rep.negative_elements) + "]"
    lines = [
        "# gradedvb validate",
        f"rank: {ws.rank}",
        "parities: " + " ".join(str(s.parity) for s in ws.basic_symbols),
        _elements_line(ws),
        f"condition 1 (finite): {'PASS' if rep.finite else 'FAIL'}",
        f"condition 2 (zero and unit weights): {'PASS' if c2 else 'FAIL'}{detail}",
        f"condition 3 (non-negative): {'PASS' if rep.is_nonnegative else 'FAIL'}{neg}",
        f"valid: {'yes' if rep.is_valid else 'no'}",
        f"multiplicity-free: {'yes' if mf else 'no'}",
    ]
    if rep.is_valid:
        mults = max_multiplicities(ws)
        data["max_multiplicities"] = {s.label: n for s, n in mults.by_symbol}
        data["extra_lifts"] = mults.extra
        pairs = " ".join(f"{s.label}={n}" for s, n in mults.by_symbol)
        lines.append(f"max multiplicities: {pairs} (extra lifts: {mults.extra})")
    return (0 if rep.is_valid else 1), data, lines


def cmd_linearize(args) -> Result:
    spec, trunc = _load(args, chart=False)
    ws = spec.system
    derived = linearized_system(ws)
    data = {
        "command": "linearize",
        "truncation": trunc,
        "input": _system_json(ws),
        "derived": _system_json(derived),
        "fibers": [
            {"delta": d.label,
             "fiber": [w.label for w in delta_prime_fiber(ws, d)]}
            for d in ws.sorted_elements()
        ],
    }
    lines = [
        "# gradedvb linearize",
        f"# truncation: {trunc}",
        f"input: rank {ws.rank}; parities "
        + " ".join(str(s.parity) for s in ws.basic_symbols),
        _elements_line(ws),
        f"derived: rank {derived.rank}; basis "
        + " ".join(s.label for s in derived.basis),
        _elements_line(derived),
    ]
    if args.fibers:
        lines.append("fibers:")
        lines += aligned_table(["delta", "fiber"], [
            [f["delta"], ", ".join(f["fiber"])] for f in data["fibers"]])
    if spec.has_chart:
        lc = linearize_chart(spec.chart(trunc))
        data["generators"] = [
            {
                "weight": e.delta_prime.label,
                "name": e.generator.name,
                "from": e.delta.label,
                "composition": [s.label for s in e.composition],
            }
            for e in coordinate_table(lc)
        ]
        data["operators"] = {
            sym.label: {c.name: op.of(c).text()
                        for c in lc.chart.coordinates if not op.of(c).is_zero}
            for sym, op in sorted(lc.operators.items(),
                                  key=lambda kv: kv[0].sort_key)
        }
        data["chart"] = chart_dump(lc.chart)
        lines.append("generators:")
        lines += aligned_table(["weight", "name", "from", "composition"], [
            [g["weight"], g["name"], g["from"],
             " o ".join(f"D[{s}]" for s in g["composition"]) or "id"]
            for g in data["generators"]])
        lines.append("operators:")
        lines += [f"  D[{sym}]({name}) = {img}"
                  for sym, images in data["operators"].items()
                  for name, img in images.items()]
    return 0, data, lines


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


def cmd_check(args) -> Result:
    spec, trunc = _load(args, chart=True)
    lc = linearize_chart(spec.chart(trunc))
    rep = analysis.check_all_properties(lc.chart, lc.operators)
    spot = _spot_checks(lc, args.seed)
    ok = rep.all_passed and spot
    data = rep.to_json()
    data.update({"command": "check", "truncation": trunc, "seed": args.seed,
                 "spot_checks": spot})
    lines = ["# gradedvb check", f"# truncation: {trunc}", f"# seed: {args.seed}"]
    for p in data["properties"]:
        line = (f"property {p['index']} ({p['name']}): {p['status']} "
                f"(checked {p['checked']})")
        if p["witness"]:
            line += f"  witness: {p['witness']}"
        lines.append(line)
    lines.append(f"spot checks (seed {args.seed}): {'PASS' if spot else 'FAIL'}")
    lines.append(f"result: {'ALL PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), data, lines


def cmd_invert(args) -> Result:
    spec, trunc = _load(args, chart=True)
    lc = linearize_chart(spec.chart(trunc))
    by_label = {s.label: s for s in lc.lift_sequence}
    syms = []
    for label in args.lam.split(","):
        label = label.strip()
        if label not in by_label:
            raise CliError(f"unknown operator {label!r}")
        syms.append(by_label[label])
    try:
        f = parse_polynomial(lc.quotient, args.rhs)
    except AlgebraError as exc:
        raise CliError(f"--rhs: {exc}")
    data = {"command": "invert", "truncation": trunc}
    lines = ["# gradedvb invert", f"# truncation: {trunc}"]
    try:
        F = analysis.solve_inverse(lc, tuple(syms), f)
    except (AlgebraError, analysis.AnalysisError) as exc:
        data["error"] = str(exc)
        return 1, data, lines + [f"error: {exc}"]
    data.update({"lam": [s.label for s in syms], "rhs": f.text(),
                 "solution": F.text()})
    return 0, data, lines + [
        "composition: " + " o ".join(f"d[{s}]" for s in data["lam"]),
        f"rhs: {data['rhs']}",
        f"solution: {data['solution']}",
    ]


def cmd_dualize(args) -> Result:
    ws = _read_spec(args.file).system
    try:
        base = [parse_weight_row(row.strip(), ws, k + 1)
                for k, row in enumerate(args.base.split(";"))]
    except SpecParseError as exc:
        raise CliError(f"--base: {exc}")
    data = {"command": "dualize"}
    lines = ["# gradedvb dualize"]
    try:
        res = dualize(ws, base)
    except WeightError as exc:
        data["error"] = str(exc)
        return 1, data, lines + [f"error: {exc}"]
    data.update({
        "fiber_direction": res.fiber_symbol.label,
        "dual": _system_json(res.system),
        "suggested_basis": [w.label for w in res.suggested_basis],
        "suggestion_valid": res.suggestion_valid,
    })
    return 0, data, lines + [
        f"fiber direction: {data['fiber_direction']}",
        _elements_line(res.system),
        "suggested basis: " + ", ".join(data["suggested_basis"])
        + f" (valid: {'yes' if res.suggestion_valid else 'no'})",
    ]


def cmd_reconstruct(args) -> Result:
    spec, trunc = _load(args, chart=True)
    ws = spec.system
    if ws.rank != 1 or max_multiplicities(ws).extra != 1 or len(ws.elements) != 3:
        raise CliError("reconstruct expects a degree-2 system {0, a1, 2a1}")
    chart = spec.chart(trunc)
    lc = linearize_chart(chart)
    (b21,) = lc.chart.system.additional_symbols
    res = analysis.reconstruct_degree2(lc.chart, lc.operators[b21])
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
    lines = [
        "# gradedvb reconstruct",
        f"# truncation: {trunc}",
        f"input dims: {data['input_dims']}",
        f"double-bundle dims: {data['double_bundle_dims']}",
        f"reconstructed dims: {data['reconstructed_dims']}",
        f"round trip dims match: {'yes' if same else 'no'}",
        f"isomorphism verified: {'yes' if res.verified else 'no'}",
    ]
    return (0 if res.verified and same else 1), data, lines


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


def dump_json(o, indent: str = "\n") -> str:
    """``json.dumps(o, indent=2)``, written directly: with an indent the
    ``json`` module takes its pure-Python encoder, and this is faster.

    Only what the commands emit is written: ``str``, ``int``, ``bool``,
    ``None``, and ``list``, ``tuple`` and ``dict`` with ``str`` keys,
    these exact types.  Anything else raises ``TypeError``, as
    ``json.dumps`` does for a type it cannot write, so the text never
    differs from the ``json`` module's.
    """
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        items = [encode_basestring_ascii(v) if type(v) is str
                 else dump_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not o:
            return "{}"
        # a key that is not a str makes encode_basestring_ascii raise
        items = [encode_basestring_ascii(k) + ": "
                 + (encode_basestring_ascii(v) if type(v) is str
                    else dump_json(v, inner)) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON "
                    "serializable")


# one parser serves every call in a process: parse_args keeps no state
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    for dest, value in (("json", False), ("trunc", None), ("seed", 0)):
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        code, data, lines = args.func(args)
        print(dump_json(data) if args.json else "\n".join(lines))
        return code
    except CliError as exc:
        message, code = exc.args
    except (AlgebraError, WeightError, analysis.AnalysisError) as exc:
        message, code = str(exc), 1   # e.g. a TruncationOverflow
    except BrokenPipeError:  # pragma: no cover
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
