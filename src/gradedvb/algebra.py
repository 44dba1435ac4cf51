"""Free super-commutative polynomial algebra on weighted chart coordinates.

Coordinates carry a weight, a parity, and a tag set recording which lifts
have been applied to them.  Monomials are kept in a canonical sorted form
with the sign bookkeeping of odd transpositions done once, at
normalization time; polynomials are finite maps from canonical monomials
to exact rational coefficients, truncated at a fixed total degree.

Truncation never happens silently: any operation that drops an over-degree
term marks its result, and downstream exact computations refuse flagged
input.

The weight-0 coordinates are the functions on the base.  Setting them to
zero leaves the fiber part of a chart, a chart in its own right
(:attr:`Chart.fibers`), whose bases hold the monomials with no weight-0
factor, in the order of the chart's own.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .weights import (
    ZERO,
    BasisSymbol,
    Weight,
    WeightSystem,
)


class AlgebraError(ValueError):
    """Raised when an algebra operation's precondition fails."""


class TruncationOverflow(AlgebraError):
    """An exact computation would be contaminated by dropped terms."""


def _name_key(name: str) -> tuple:
    # natural order: x2 before x10
    stem = name.rstrip("0123456789")
    digits = name[len(stem):]
    return (stem, int(digits) if digits else -1)


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateId:
    """Base name plus the ordered tuple of lifts already applied."""

    base_name: str
    tags: tuple[BasisSymbol, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.tags)) != len(self.tags):
            raise AlgebraError("duplicate lift tag on a coordinate")

    @property
    def name(self) -> str:
        if not self.tags:
            return self.base_name
        inner = ",".join(t.label for t in sorted(self.tags, key=lambda s: s.sort_key))
        return f"{self.base_name}[{inner}]"


@dataclass(frozen=True)
class Coordinate:
    """A single chart generator: id, weight, parity.

    ``sort_key`` orders coordinates by weight, then natural base name,
    then tags; it is computed once and takes no part in equality.  The
    hash is that of ``sort_key``, which equal coordinates share: one tuple
    hash in place of the generated one, which calls the hashes of the id
    and the weight, for every image and membership lookup.
    """

    cid: CoordinateId
    weight: Weight
    parity: int
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.parity != self.weight.parity:
            raise AlgebraError(f"coordinate {self.cid.name}: parity does not "
                               "match its weight")
        object.__setattr__(self, "sort_key", (
            self.weight.sort_key,
            _name_key(self.cid.base_name),
            tuple(sorted(t.sort_key for t in self.cid.tags))))

    def __hash__(self) -> int:
        return hash(self.sort_key)

    @property
    def name(self) -> str:
        return self.cid.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def _coordinate_names(system_weight: Weight, k: int) -> str:
    if system_weight.is_zero:
        return f"x{k}"
    return f"xi{{{system_weight.label}}}_{k}"


@dataclass(frozen=True)
class Chart:
    """A local model: a weight system, concrete coordinates, a truncation.

    ``applied_lifts`` records the lift symbols in application order; it is
    empty for charts that were never lifted.  ``coordinate_set`` holds the
    same coordinates as ``coordinates``, for membership tests, and
    ``coordinate_names`` maps each coordinate's name to it.
    ``basis_memo`` holds the component bases already listed and
    ``search_index`` the coordinates grouped for that search, built on the
    chart's first search (see :func:`component_basis`).
    """

    system: WeightSystem
    coordinates: tuple[Coordinate, ...]
    truncation: int
    applied_lifts: tuple[BasisSymbol, ...] = ()
    coordinate_set: frozenset = field(init=False, repr=False, compare=False)
    coordinate_names: dict = field(init=False, repr=False, compare=False)
    basis_memo: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    search_index: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise AlgebraError("truncation degree must be >= 1")
        coords = tuple(sorted(self.coordinates, key=lambda c: c.sort_key))
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "coordinate_set", frozenset(coords))
        names = {c.name: c for c in coords}
        if len(names) != len(coords):
            raise AlgebraError("duplicate coordinate names in chart")
        object.__setattr__(self, "coordinate_names", names)
        for c in coords:
            for s, _ in c.weight.items:
                if s not in self.system.basis:
                    raise AlgebraError(f"coordinate {c.name} uses symbol "
                                       f"{s.label} outside the system basis")

    @classmethod
    def from_dims(cls, system: WeightSystem, dims: dict[Weight, int],
                  truncation: int = 3) -> "Chart":
        """Build a chart with ``dims[w]`` generators at each weight ``w``.

        Weight-0 generators are named ``x1, x2, ...``; generators of weight
        ``w`` are named ``xi{<label>}_k``.
        """
        for w in dims:
            if w not in system.elements:
                raise AlgebraError(f"dims keyed by {w.label}, which is not a "
                                   "system element")
        coords = []
        for w in sorted(dims, key=lambda u: u.sort_key):
            for k in range(1, dims[w] + 1):
                coords.append(Coordinate(CoordinateId(_coordinate_names(w, k)),
                                         w, w.parity))
        return cls(system, tuple(coords), truncation)

    @property
    def dims(self) -> dict[Weight, int]:
        out: dict[Weight, int] = {}
        for c in self.coordinates:
            out[c.weight] = out.get(c.weight, 0) + 1
        return out

    @property
    def base_dim(self) -> int:
        return sum(1 for c in self.coordinates if c.weight.is_zero)

    @cached_property
    def fibers(self) -> "Chart":
        """The fiber part: this chart with its weight-0 coordinates set to
        zero, that is dropped, on the same system, truncation and lifts.
        Built on first read."""
        return Chart(self.system, tuple(c for c in self.coordinates
                                        if not c.weight.is_zero),
                     self.truncation, self.applied_lifts)

    def coordinate(self, name: str) -> Coordinate:
        c = self.coordinate_names.get(name)
        if c is None:
            raise AlgebraError(f"no coordinate named {name!r}")
        return c

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {Monomial(()): Fraction(1)})

    def gen(self, c: Coordinate, coeff: Fraction | int = 1) -> "Polynomial":
        if c not in self.coordinate_set:
            raise AlgebraError(f"{c.name} is not a coordinate of this chart")
        return Polynomial(self, {Monomial._trusted(((c, 1),), c.weight,
                                                   c.parity, 1): Fraction(coeff)})


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

class Monomial:
    """A canonical product of coordinate powers.

    Factors are sorted by the global coordinate order; odd coordinates
    appear with exponent exactly 1.  Weight, parity and degree are
    precomputed: the constructor checks the factors and sums their
    weights, while :meth:`_trusted` takes all three from a caller that
    knows them.
    """

    __slots__ = ("factors", "weight", "parity", "degree", "_key", "_hash")

    def __init__(self, factors: tuple[tuple[Coordinate, int], ...]):
        keys = [c.sort_key for c, _ in factors]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise AlgebraError("monomial factors must be sorted and unique")
        w = ZERO
        par = 0
        deg = 0
        for c, e in factors:
            if e < 1:
                raise AlgebraError("exponents must be >= 1")
            if c.parity and e > 1:
                raise AlgebraError(f"odd coordinate {c.name} squared")
            w = w + c.weight * e
            par += e * c.parity
            deg += e
        self._fill(factors, w, par % 2, deg)

    @classmethod
    def _trusted(cls, factors: tuple[tuple[Coordinate, int], ...],
                 weight: Weight, parity: int, degree: int) -> "Monomial":
        """A monomial of canonical ``factors`` whose weight, parity and
        degree the caller already knows; for the algebra's own products
        and searches, never for outside input."""
        m = cls.__new__(cls)
        m._fill(factors, weight, parity, degree)
        return m

    def _fill(self, factors: tuple[tuple[Coordinate, int], ...],
              weight: Weight, parity: int, degree: int) -> None:
        self.factors = factors
        self.weight = weight
        self.parity = parity
        self.degree = degree
        self._key = tuple([(c.sort_key, e) for c, e in factors])
        self._hash = hash(self._key)

    @property
    def sort_key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_one(self) -> bool:
        return not self.factors

    def text(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for c, e in self.factors:
            parts.append(c.name if e == 1 else f"{c.name}^{e}")
        return " * ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.text()


def normalize(raw: Iterable[Coordinate]) -> tuple[Monomial | None, int]:
    """Sort a raw factor list into canonical form.

    Returns the canonical monomial and the sign picked up from odd-odd
    transpositions, or ``(None, 0)`` when an odd coordinate repeats: the
    factors are merged in one at a time, by :func:`merge_factors`.
    """
    factors: tuple[tuple[Coordinate, int], ...] = ()
    sign = 1
    for c in raw:
        factors, s = merge_factors(factors, ((c, 1),))
        if not s:
            return None, 0
        sign *= s
    return Monomial(factors), sign


def merge_factors(fa: tuple[tuple[Coordinate, int], ...],
                  fb: tuple[tuple[Coordinate, int], ...],
                  ) -> tuple[tuple[tuple[Coordinate, int], ...] | None, int]:
    """Merge two canonical factor tuples; the sign counts the odd factors
    of ``fb`` that cross odd factors of ``fa`` on their way to place."""
    if not fa:
        return fb, 1
    if not fb:
        return fa, 1
    suffix_odd = [0] * (len(fa) + 1)
    for k in range(len(fa) - 1, -1, -1):
        c, e = fa[k]
        suffix_odd[k] = suffix_odd[k + 1] + (e * c.parity)
    out: list[tuple[Coordinate, int]] = []
    swaps = 0
    i = j = 0
    while i < len(fa) and j < len(fb):
        ca, ea = fa[i]
        cb, eb = fb[j]
        ka, kb = ca.sort_key, cb.sort_key
        if ka < kb:
            out.append(fa[i])
            i += 1
        elif kb < ka:
            swaps += cb.parity * eb * suffix_odd[i]
            out.append(fb[j])
            j += 1
        else:
            if ca.parity:
                return None, 0
            out.append((ca, ea + eb))
            i += 1
            j += 1
    out.extend(fa[i:])
    out.extend(fb[j:])
    return tuple(out), (-1) ** (swaps % 2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Finite map from canonical monomials to exact rationals.

    ``truncated`` is sticky: it marks that some ancestor computation
    dropped a term above the chart's truncation degree, so exact kernel
    arguments must not trust this value.
    """

    __slots__ = ("chart", "terms", "truncated")

    def __init__(self, chart: Chart, terms: dict[Monomial, Fraction],
                 truncated: bool = False):
        self.chart = chart
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self.truncated = truncated

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m, Fraction(0)) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return Polynomial(self.chart, acc, self.truncated or other.truncated)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.chart, {m: -c for m, c in self.terms.items()},
                          self.truncated)

    def scale(self, k: Fraction | int) -> "Polynomial":
        k = Fraction(k)
        return Polynomial(self.chart, {m: k * c for m, c in self.terms.items()},
                          self.truncated)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set[Weight]:
        return {m.weight for m in self.terms}

    def homogeneous_weight(self) -> Weight:
        ws = self.weights()
        if len(ws) != 1:
            raise AlgebraError("polynomial is not weight-homogeneous")
        return next(iter(ws))

    def parity_of(self) -> int:
        ps = {m.parity for m in self.terms}
        if len(ps) != 1:
            raise AlgebraError("polynomial is not parity-homogeneous")
        return next(iter(ps))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key)

    def in_chart(self, chart: Chart) -> "Polynomial":
        """Reinterpret over another chart sharing these coordinates."""
        have = chart.coordinate_set
        for m in self.terms:
            for c, _ in m.factors:
                if c not in have:
                    raise AlgebraError(f"coordinate {c.name} does not exist "
                                       "in the target chart")
        return Polynomial(chart, dict(self.terms), self.truncated)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = str(c) if m.is_one else f"{c} * {m.text()}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.text()


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Bilinear product with odd-transposition signs, truncated at the
    chart degree.  Dropped terms flag the result."""
    if p.chart is not q.chart and p.chart != q.chart:
        raise AlgebraError("polynomials live on different charts")
    cap = p.chart.truncation
    acc: dict[Monomial, Fraction] = {}
    dropped = False
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            if ma.degree + mb.degree > cap:
                dropped = True
                continue
            factors, sign = merge_factors(ma.factors, mb.factors)
            if sign == 0:
                continue
            m = Monomial._trusted(factors, ma.weight + mb.weight,
                                  (ma.parity + mb.parity) % 2,
                                  ma.degree + mb.degree)
            v = acc.get(m, Fraction(0)) + sign * ca * cb
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    return Polynomial(p.chart, acc, p.truncated or q.truncated or dropped)


def monomial_poly(chart: Chart, m: Monomial, coeff: Fraction | int = 1) -> Polynomial:
    return Polynomial(chart, {m: Fraction(coeff)})


# ---------------------------------------------------------------------------
# component bases
# ---------------------------------------------------------------------------

def _dense(w: Weight, index: dict[BasisSymbol, int]) -> tuple[int, ...] | None:
    """``w`` as an int tuple over the basis ``index`` numbers, or None if
    ``w`` uses a symbol outside it."""
    out = [0] * len(index)
    for s, c in w.items:
        k = index.get(s)
        if k is None:
            return None
        out[k] = c
    return tuple(out)


def _search_index(chart: Chart) -> dict:
    """The chart's coordinates grouped for :func:`component_basis`, built
    on its first search and kept in its ``search_index`` field.

    ``position`` numbers the basis symbols.  ``runs`` lists the sorted
    coordinates of each distinct weight, in coordinate order; coordinates
    are sorted by weight first, so each weight's coordinates form one run.
    ``vecs`` holds each run's weight as an int tuple over ``position``,
    ``odd`` its parity, and ``run_of`` maps such a tuple back to its run.
    ``nonneg`` says that no entry of ``vecs`` is negative; then
    ``below[j][t]`` is the set of runs whose entry ``j`` is at most ``t``,
    for ``t`` up to the largest such entry.
    """
    index = chart.search_index
    if not index:
        position = {s: k for k, s in enumerate(chart.system.basis)}
        groups: dict[Weight, list[Coordinate]] = {}
        for c in chart.coordinates:
            groups.setdefault(c.weight, []).append(c)
        vecs = [_dense(u, position) for u in groups]
        nonneg = all(x >= 0 for v in vecs for x in v)
        below = [[frozenset(k for k, v in enumerate(vecs) if v[j] <= t)
                  for t in range(max((v[j] for v in vecs), default=0) + 1)]
                 for j in range(len(position))] if nonneg else None
        index.update(
            position=position, runs=list(groups.values()), vecs=vecs,
            odd=[u.parity for u in groups],
            run_of={v: k for k, v in enumerate(vecs)},
            nonneg=nonneg, below=below)
    return index


def _count_vectors(index: dict, target: tuple[int, ...], cap: int,
                   ) -> list[tuple[tuple[int, int], ...]]:
    """Every count vector ``n`` over the runs of ``index`` with
    ``sum(n[k] * vecs[k]) == target``, at most ``len(runs[k])`` for an
    odd run, and ``sum(n) <= cap``, as its nonzero entries ``(k, n[k])``
    in increasing ``k``.

    The search picks the next run with a nonzero count, so it spends no
    step on a run that counts zero.  The last step of a count vector is
    found by lookup: ``n`` copies of one later run close the remainder
    exactly when ``run_of`` holds ``rem / n``.  When no entry of ``vecs``
    is negative, the remainder only shrinks: a run above the target in
    some entry is never used (the index's ``below`` sets give the others),
    and a remainder with a negative entry ends its branch."""
    runs, vecs, run_of = index["runs"], index["vecs"], index["run_of"]
    nonneg = index["nonneg"]
    limits = [len(run) if odd else cap for run, odd in zip(runs, index["odd"])]
    if not nonneg:
        usable = list(range(len(runs)))
    elif min(target, default=0) < 0:
        usable = []
    else:
        usable = sorted(set(range(len(runs))).intersection(
            *(below_j[min(t, len(below_j) - 1)]
              for below_j, t in zip(index["below"], target))))
    out: list[tuple[tuple[int, int], ...]] = [()] if not any(target) else []

    def search(start: int, last: int, rem: tuple[int, ...], budget: int,
               picked: tuple) -> None:
        for n in range(1, budget + 1):
            if any(x % n for x in rem):
                continue
            k = run_of.get(tuple(x // n for x in rem))
            if k is not None and k > last and n <= limits[k]:
                out.append(picked + ((k, n),))
        if budget < 2:
            return
        for i in range(start, len(usable)):
            k = usable[i]
            left = rem
            # a step that leaves no budget can only close the remainder,
            # which the lookup above has done
            for n in range(1, min(limits[k], budget - 1) + 1):
                left = tuple(map(operator.sub, left, vecs[k]))
                if nonneg and min(left, default=0) < 0:
                    break
                search(i + 1, k, left, budget - n, picked + ((k, n),))

    search(0, -1, target, cap, ())
    return out


def _powers(multiset: tuple[Coordinate, ...]) -> tuple[tuple[Coordinate, int], ...]:
    """The factors of a sorted run of coordinates, repeats as exponents."""
    return tuple((c, len(list(g))) for c, g in itertools.groupby(multiset))


def component_basis(chart: Chart, w: Weight, max_degree: int | None = None,
                    ) -> list[Monomial]:
    """All canonical monomials of weight ``w`` and total degree at most the
    chart truncation (or ``max_degree``), in a deterministic order.

    The search runs over the chart's distinct coordinate weights, as int
    tuples over the system basis, read from the chart's search index (see
    :func:`_search_index`); a search converts only ``w``.  First it finds
    every count vector: how many factors each weight contributes, with the
    weights summing to ``w`` within the degree cap.  Then it expands each
    count vector into monomials, one multiset of coordinates per weight
    (an odd coordinate at most once), combined over the weights.  Each
    monomial is built with the weight ``w``, its parity and the degree
    the count vector gives, so no factor weights are summed again.  A
    weight using a symbol outside the basis, or a negative cap, has no
    monomials.  On :attr:`Chart.fibers` the search has no weight-0 run, so
    it lists the monomials with no weight-0 factor and builds no other.

    Results are memoized in the chart's declared ``basis_memo`` field,
    keyed by weight and degree cap; the memo and the index are pure
    functions of the chart's immutable data, and every call returns a
    fresh list.
    """
    cap = chart.truncation if max_degree is None else max_degree
    key = (w, cap)
    hit = chart.basis_memo.get(key)
    if hit is not None:
        return list(hit)
    index = _search_index(chart)
    target = _dense(w, index["position"])
    out: list[Monomial] = []
    if target is not None and cap >= 0:
        # one multiset per run, joined in run order, lists the factors of
        # a monomial in sorted order
        runs, odd, parity = index["runs"], index["odd"], w.parity
        for counts in _count_vectors(index, target, cap):
            choices = []
            for k, n in counts:
                pick = (itertools.combinations if odd[k]
                        else itertools.combinations_with_replacement)
                choices.append([_powers(ms) for ms in pick(runs[k], n)])
            degree = sum(n for _, n in counts)
            for parts in itertools.product(*choices):
                out.append(Monomial._trusted(
                    tuple(itertools.chain.from_iterable(parts)), w, parity,
                    degree))
    out.sort(key=lambda m: m.sort_key)
    chart.basis_memo[key] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# chart dumps
# ---------------------------------------------------------------------------

def chart_dump(chart: Chart) -> list[dict]:
    """One record per coordinate: name, applied tags, weight (vector over
    the chart's basis, plus a readable label), parity."""
    basis = chart.system.basis
    return [
        {
            "name": c.name,
            "tags": [t.label for t in c.cid.tags],
            "weight": [c.weight.coeff(s) for s in basis],
            "label": c.weight.label,
            "parity": c.parity,
        }
        for c in chart.coordinates
    ]


def aligned_table(header: list[str], rows: list[list[str]]) -> list[str]:
    """The lines ``"  a | b"`` of a table whose columns are padded to
    their widest cell, trailing spaces stripped."""
    widths = [max(len(c) for c in col) for col in zip(header, *rows)]
    return ["  " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            for cells in [header, *rows]]
