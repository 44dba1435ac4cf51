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

from .algebra import AlgebraError, Chart, Monomial, Polynomial, normalize
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


_HEADER = re.compile(r"^rank\s+([0-9]+)\s*;\s*parities((?:\s+[01])+)\s*$")
_DIM = re.compile(r"^dim\s+([-0-9,\s]+):\s*([0-9]+)\s*$")
_INT = re.compile(r"-?[0-9]+")


def _spec_int(text: str) -> int | None:
    """The integer that ``text`` spells as ASCII ``-?[0-9]+``, else None.
    Every integer of a spec is read here: :func:`int` would also take
    ``+1``, ``1_0``, surrounding space and other scripts' digits."""
    if _INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def parse_weight_row(text: str, system: WeightSystem, line: int,
                     column: int = 1) -> Weight:
    """The weight of the comma-separated coefficients ``text``, which
    starts at ``column`` of ``line``; a wrong number of coefficients is
    reported there, a malformed coefficient at its own column."""
    parts = text.split(",")
    if len(parts) != len(system.basic_symbols):
        raise SpecParseError(f"expected {len(system.basic_symbols)} "
                             f"coefficients, got {len(parts)}", line, column)
    coeffs = []
    for raw in parts:
        p = raw.strip()
        v = _spec_int(p)
        if v is None:
            col = column + len(raw) - len(raw.lstrip())
            raise SpecParseError(f"malformed integer {p!r}", line, col)
        coeffs.append(v)
        column += len(raw) + 1
    return weight(zip(system.basic_symbols, coeffs))


def parse_spec(text: str) -> SpecFile:
    # each line that is not blank or a comment as (line, column of its
    # first character, stripped text); the first is the header
    entries = [(ln, len(raw) - len(raw.lstrip()) + 1, raw.strip())
               for ln, raw in enumerate(text.splitlines(), start=1)
               if raw.strip() and not raw.strip().startswith("#")]
    if not entries:
        raise SpecParseError("empty spec file", 1)
    idx, hcol, header = entries[0]
    m = _HEADER.match(header)
    rank = _spec_int(m.group(1)) if m else None
    if rank is None:
        raise SpecParseError("expected header 'rank r; parities p1 .. pr'",
                             idx, hcol)
    parities = [int(p) for p in m.group(2).split()]
    if len(parities) != rank:
        raise SpecParseError(f"rank {rank} but {len(parities)} parities", idx,
                             hcol + m.start(1))

    rows: list[tuple[int, int, str]] = []
    chart_lines: list[tuple[int, int, str]] = []
    in_chart = False
    for off, col, s in entries[1:]:
        if s == "chart":
            if in_chart:
                raise SpecParseError("duplicate chart block", off)
            in_chart = True
            continue
        (chart_lines if in_chart else rows).append((off, col, s))
    if not rows:
        raise SpecParseError("no weight rows", idx, hcol)

    system = system_from_rows(parities, [[0] * rank])  # basis carrier
    weights = []
    for ln, col, s in rows:
        weights.append(parse_weight_row(s, system, ln, col))
    system = WeightSystem(system.basis, frozenset(weights))

    # a chart line's error names the column of its value when the value
    # is at fault, else the column where the line starts
    dims = None
    truncation = None
    if in_chart:
        dims = {}  # each weight given a dim, and "trunc" -> its value
        first: dict = {}  # the same keys -> the (line, column) giving them
        for ln, col, s in chart_lines:
            key, *arg = s.split(None, 1)
            if key in ("trunc", "base_dim"):
                claim, what = ZERO if key == "base_dim" else key, key
                text = arg[0] if arg else ""
                at = col + len(s) - len(text) if text else col
            elif dm := _DIM.match(s):
                w = parse_weight_row(dm.group(1), system, ln, col + dm.start(1))
                if w not in system.elements:
                    raise SpecParseError(f"dim for {w.label}, which is not an "
                                         "element", ln, col)
                claim, what, text = w, f"dim for {w.label}", dm.group(2)
                at = col + dm.start(2)
            else:
                raise SpecParseError(f"unrecognized chart line {s!r}", ln,
                                     col)
            # a chart block gives each key once; base_dim is the zero dim
            if claim in first:
                raise SpecParseError(f"{what} repeats line {first[claim][0]}",
                                     ln, col)
            first[claim] = (ln, col)
            dims[claim] = _spec_int(text)
            if dims[claim] is None:
                raise SpecParseError(f"malformed {key} line", ln, at)
            low = 1 if key == "trunc" else 0
            if dims[claim] < low:
                raise SpecParseError(f"{key} must be >= {low}", ln, at)
        truncation = dims.pop("trunc", None)
        if ZERO in dims and ZERO not in system.elements:
            raise SpecParseError("base_dim given but zero weight missing",
                                 *first[ZERO])
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


def _parsed_terms(chart: Chart, text: str):
    """Yield ``(monomial, coefficient)`` for each term of ``text`` in
    order, raising at the first malformed term; a term whose odd factor
    repeats is zero and yields nothing."""
    body = text.strip()
    if not body or body == "0":
        return
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
            yield Monomial(()), coeff
            continue
        mono, sign = normalize(raw)
        if sign:
            yield mono, coeff * sign


def parse_polynomial(chart: Chart, text: str) -> Polynomial:
    """Parse the deterministic term format ``coeff * factor * ...`` with
    terms joined by '+'; a term without a leading rational gets
    coefficient 1, and a term of degree above the chart's truncation is
    refused.  The terms are summed in one dict, so parsing is linear in
    the number of terms."""
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in _parsed_terms(chart, text):
        v = acc.get(mono, 0) + coeff
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)
    return Polynomial(chart, acc)
