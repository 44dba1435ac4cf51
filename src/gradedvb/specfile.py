"""Text format for weight systems and chart specs, plus polynomial parsing.

A spec file holds one header line ``rank r; parities p1 .. pr``, one weight
per line as comma-separated coefficients over the basic symbols, and an
optional chart block::

    rank 2; parities 0 1
    0,0
    1,0
    0,1
    1,1

    chart
    trunc 3
    base_dim 2
    dim 1,0: 1
    dim 0,1: 1
    dim 1,1: 1

Parsing is strict and reports line/column positions; serialization
round-trips modulo whitespace normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (AlgebraError, Chart, Monomial, Polynomial,
                      monomial_poly, normalize)
from .weights import Weight, WeightSystem, ZERO, system_from_rows, weight


class SpecParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SpecFile:
    system: WeightSystem
    dims: dict | None          # Weight -> int, None when no chart block
    truncation: int | None

    @property
    def has_chart(self) -> bool:
        return self.dims is not None

    def chart(self, truncation: int | None = None) -> Chart:
        if self.dims is None:
            raise AlgebraError("spec file carries no chart block")
        if truncation is None:
            truncation = 3 if self.truncation is None else self.truncation
        return Chart.from_dims(self.system, self.dims, truncation)


_HEADER = re.compile(r"^rank\s+(\d+)\s*;\s*parities((?:\s+[01])+)\s*$")
_DIM = re.compile(r"^dim\s+([-\d,\s]+):\s*(\d+)\s*$")


def parse_weight_row(text: str, system: WeightSystem, line: int) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(system.basic_symbols):
        raise SpecParseError(f"expected {len(system.basic_symbols)} "
                             f"coefficients, got {len(parts)}", line)
    coeffs = []
    for k, p in enumerate(parts):
        try:
            coeffs.append(int(p))
        except ValueError:
            col = text.find(p) + 1
            raise SpecParseError(f"malformed integer {p!r}", line, col) from None
    return weight(zip(system.basic_symbols, coeffs))


def parse_spec(text: str) -> SpecFile:
    lines = text.splitlines()
    header = None
    idx = 0
    while idx < len(lines):
        raw = lines[idx].strip()
        idx += 1
        if raw and not raw.startswith("#"):
            header = raw
            break
    if header is None:
        raise SpecParseError("empty spec file", 1)
    m = _HEADER.match(header)
    if not m:
        raise SpecParseError("expected header 'rank r; parities p1 .. pr'", idx)
    rank = int(m.group(1))
    parities = [int(p) for p in m.group(2).split()]
    if len(parities) != rank:
        raise SpecParseError(f"rank {rank} but {len(parities)} parities", idx)

    rows: list[tuple[int, str]] = []
    chart_lines: list[tuple[int, str]] = []
    in_chart = False
    for off, raw in enumerate(lines[idx:], start=idx + 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if s == "chart":
            if in_chart:
                raise SpecParseError("duplicate chart block", off)
            in_chart = True
            continue
        (chart_lines if in_chart else rows).append((off, s))
    if not rows:
        raise SpecParseError("no weight rows", idx)

    system = system_from_rows(parities, [[0] * rank])  # basis carrier
    weights = []
    for ln, s in rows:
        weights.append(parse_weight_row(s, system, ln))
    system = WeightSystem(system.basis, frozenset(weights))

    dims = None
    truncation = None
    if in_chart:
        dims = {}
        base_dim = None
        for ln, s in chart_lines:
            if s.startswith("trunc"):
                try:
                    truncation = int(s.split(None, 1)[1])
                except (IndexError, ValueError):
                    raise SpecParseError("malformed trunc line", ln) from None
                if truncation < 1:
                    raise SpecParseError("trunc must be >= 1", ln)
                continue
            if s.startswith("base_dim"):
                try:
                    base_dim = int(s.split(None, 1)[1])
                except (IndexError, ValueError):
                    raise SpecParseError("malformed base_dim line", ln) from None
                continue
            dm = _DIM.match(s)
            if not dm:
                raise SpecParseError(f"unrecognized chart line {s!r}", ln)
            w = parse_weight_row(dm.group(1), system, ln)
            if w not in system.elements:
                raise SpecParseError(f"dim for {w.label}, which is not an "
                                     "element", ln)
            dims[w] = int(dm.group(2))
        if base_dim is not None:
            if ZERO not in system.elements:
                raise SpecParseError("base_dim given but zero weight missing",
                                     chart_lines[0][0])
            dims[ZERO] = base_dim
    return SpecFile(system, dims, truncation)


def serialize_spec(spec: SpecFile) -> str:
    syms = spec.system.basic_symbols
    out = [f"rank {len(syms)}; parities " +
           " ".join(str(s.parity) for s in syms)]
    for w in spec.system.sorted_elements():
        out.append(",".join(str(w.coeff(s)) for s in syms))
    if spec.dims is not None:
        out.append("")
        out.append("chart")
        if spec.truncation is not None:
            out.append(f"trunc {spec.truncation}")
        out.append(f"base_dim {spec.dims.get(ZERO, 0)}")
        for w in sorted(spec.dims, key=lambda u: u.sort_key):
            if w.is_zero:
                continue
            row = ",".join(str(w.coeff(s)) for s in syms)
            out.append(f"dim {row}: {spec.dims[w]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# polynomial text parsing (inverse of Polynomial.text())
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^(x\d+|xi\{[^{}]*\}_\d+)(\[[^\[\]]*\])?(?:\^(\d+))?$")


def _split_terms(body: str) -> list[str]:
    """Split on '+' at brace/bracket depth zero; weight labels inside
    coordinate names may themselves contain '+'."""
    terms = []
    depth = 0
    cur = []
    for ch in body:
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    return terms


def parse_polynomial(chart: Chart, text: str) -> Polynomial:
    """Parse the deterministic term format ``coeff * factor * ...`` with
    terms joined by '+'; a term without a leading rational gets
    coefficient 1, and a term of degree above the chart's truncation is
    refused."""
    poly = chart.zero()
    body = text.strip()
    if not body or body == "0":
        return poly
    for term in _split_terms(body):
        term = term.strip()
        if not term:
            raise AlgebraError("empty term in polynomial text")
        parts = [p.strip() for p in term.split("*")]
        coeff = Fraction(1)
        start = 0
        if re.match(r"^-?\d+(/\d+)?$", parts[0]):
            try:
                coeff = Fraction(parts[0])
            except ZeroDivisionError:
                raise AlgebraError(f"malformed coefficient {parts[0]!r}") from None
            except ValueError:  # more digits than int() converts
                raise AlgebraError(f"coefficient of {len(parts[0])} "
                                   "characters is too large") from None
            start = 1
        elif parts[0].startswith("-"):
            coeff = Fraction(-1)
            parts[0] = parts[0][1:].strip()
        powers = []
        for p in parts[start:]:
            fm = _FACTOR.match(p)
            if not fm:
                raise AlgebraError(f"malformed factor {p!r}")
            name = fm.group(1) + (fm.group(2) or "")
            c = chart.coordinate(name)
            try:
                powers.append((c, int(fm.group(3) or 1)))
            except ValueError:  # more digits than int() converts
                raise AlgebraError(f"exponent of {name} is too large") from None
        # the chart holds no term above its truncation, and a huge exponent
        # must not be expanded into a factor list first
        degree = sum(e for _, e in powers)
        if degree > chart.truncation:
            raise AlgebraError(f"term degree {degree} exceeds truncation "
                               f"{chart.truncation}")
        raw = [c for c, e in powers for _ in range(e)]
        if not raw:
            poly = poly + monomial_poly(chart, Monomial(()), coeff)
            continue
        mono, sign = normalize(raw)
        if sign == 0:
            continue
        poly = poly + monomial_poly(chart, mono, coeff * sign)
    return poly
