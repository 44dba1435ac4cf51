"""Chart-level linearization into a multi-fold vector bundle chart.

The pipeline: apply one shifted tangent lift per multiplicity step, in the
canonical sequence order; divide by the negative-weight ideal; restrict to
the coordinates of multiplicity-free weight.  The lifts' odd derivations
descend to a commuting family of odd operators on the restricted chart,
one per additional symbol.

Morphisms of source charts prolong through the lifts and descend to
morphisms of linearized charts that commute with the operator families;
the correspondence preserves identities and composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    AlgebraError,
    Chart,
    Coordinate,
    CoordinateId,
    Monomial,
    Polynomial,
    monomial_poly,
    multiply,
)
from .tangent import (
    de_rham,
    multiplicity_free_restriction,
    quotient_chart,
    quotient_polynomial,
    tangent_lift,
)
from .weights import (
    ZERO,
    BasisSymbol,
    Weight,
    WeightError,
    lift_shift,
    linearized_system,
    lift_symbols,
    validate,
    weight,
)


# ---------------------------------------------------------------------------
# the linearized chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearizedChart:
    """Result of linearizing a chart.

    ``chart`` is the multiplicity-free restriction carrying the induced
    operator family; ``lifted`` keeps the full iterated lift (with its
    negative-weight coordinates) because inverse solves need
    representatives before the quotient, and ``quotient`` is the lift
    modulo the negative-weight ideal.
    """

    source: Chart
    lifted: Chart
    quotient: Chart
    chart: Chart
    operators: dict  # BasisSymbol -> Derivation on `chart`
    lifted_derivations: dict  # BasisSymbol -> Derivation on `lifted`

    @property
    def lift_sequence(self) -> tuple[BasisSymbol, ...]:
        return self.lifted.applied_lifts


def linearize_chart(src: Chart) -> LinearizedChart:
    """Run the full linearization pipeline on one chart."""
    rep = validate(src.system)
    if not rep.is_valid:
        raise WeightError("source system must be valid and non-negative")
    if src.applied_lifts:
        raise AlgebraError("source chart must not carry earlier lifts")
    lifted = src
    for tag in lift_symbols(src.system):
        lifted = tangent_lift(lifted, tag)
    quotient = quotient_chart(lifted)
    dchart = multiplicity_free_restriction(quotient)
    expected = linearized_system(src.system)
    if frozenset(dchart.system.elements) != expected.elements:
        raise AlgebraError("restricted chart system differs from the derived "
                           "weight system")
    # normalize to the derived system (same elements, basis in canonical order)
    dchart = Chart(expected, dchart.coordinates, dchart.truncation,
                   dchart.applied_lifts)
    applied = lifted.applied_lifts
    operators = {tag: de_rham(dchart, tag) for tag in applied}
    lifted_ds = {tag: de_rham(lifted, tag) for tag in applied}
    return LinearizedChart(src, lifted, quotient, dchart, operators, lifted_ds)


# ---------------------------------------------------------------------------
# composite operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeOperator:
    """An ordered composition of lift derivations, taken after the quotient.

    ``symbols = (g1, .., gs)`` denotes the composition ``d_g1 o ... o d_gs``
    (rightmost applied first) followed by the negative-weight quotient.  It
    maps the weight-``w`` component of the source algebra into the
    component at ``w`` shifted by every ``g - a`` step.
    """

    lc: LinearizedChart
    symbols: tuple[BasisSymbol, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise AlgebraError("composite operator with duplicate symbols")
        for s in self.symbols:
            if s not in self.lc.lift_sequence:
                raise AlgebraError(f"{s.label} is not an applied lift")

    @property
    def weight_action(self) -> Weight:
        shift = ZERO
        for s in self.symbols:
            shift = shift + lift_shift(s)
        return shift

    def of_weight(self, delta: Weight) -> Weight:
        return delta + self.weight_action

    def apply(self, p: Polynomial) -> Polynomial:
        """Apply to a polynomial over the source chart (or the lift)."""
        q = p.in_chart(self.lc.lifted)
        for s in reversed(self.symbols):
            q = self.lc.lifted_derivations[s].apply(q)
        return quotient_polynomial(self.lc.quotient, q)


def compose_DLambda(lc: LinearizedChart, symbols: tuple[BasisSymbol, ...]
                    ) -> CompositeOperator:
    return CompositeOperator(lc, tuple(symbols))


def descending(symbols) -> tuple[BasisSymbol, ...]:
    """Composition order whose rightmost (first applied) symbol is the
    canonically smallest; this is the sign normalization used for the
    coordinate table."""
    return tuple(sorted(symbols, key=lambda s: s.sort_key, reverse=True))


# ---------------------------------------------------------------------------
# coordinate table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableEntry:
    delta: Weight
    delta_prime: Weight
    generator: Coordinate
    composition: tuple[BasisSymbol, ...]  # descending; empty = identity


def coordinate_table(lc: LinearizedChart) -> list[TableEntry]:
    """Generators of the linearized chart, grouped by source weight.

    For each source weight ``delta`` and fiber weight ``delta'`` the
    generators are the images of the weight-``delta`` coordinates under
    the composition of the operators named by the additional support of
    ``delta'``; composing in descending order fixes the sign, and with
    that convention each generator is exactly the tagged coordinate.
    """
    from .weights import delta_prime_fiber

    lookup = {c.cid: c for c in lc.chart.coordinates}
    entries = []
    for delta in lc.source.system.sorted_elements():
        fiber = delta_prime_fiber(lc.source.system, delta)
        base_coords = [c for c in lc.source.coordinates if c.weight == delta]
        for dp in fiber:
            tags = tuple(s for s in lc.lift_sequence if dp.coeff(s) != 0)
            for c in base_coords:
                cid = CoordinateId(c.cid.base_name, tags)
                gen = lookup.get(cid)
                if gen is None:
                    raise AlgebraError(f"table generator {cid.name} missing")
                entries.append(TableEntry(delta, dp, gen, descending(tags)))
    return entries


# ---------------------------------------------------------------------------
# chart morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChartMorphism:
    """A weight- and parity-preserving algebra map, given by a pullback.

    ``pullback`` sends each target coordinate to a polynomial over the
    source chart.  ``symbol_map`` translates target basis symbols to
    source symbols for the weight check when the two charts name their
    gradings differently; it defaults to the identity.
    """

    source: Chart
    target: Chart
    pullback: dict  # Coordinate -> Polynomial over source
    symbol_map: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for c in self.target.coordinates:
            if c not in self.pullback:
                raise AlgebraError(f"pullback missing for {c.name}")
        for c, img in self.pullback.items():
            if img.is_zero:
                continue
            if img.homogeneous_weight() != self._map_weight(c.weight):
                raise AlgebraError(f"pullback of {c.name} does not preserve "
                                   "weight")
            if img.parity_of() != c.parity:
                raise AlgebraError(f"pullback of {c.name} does not preserve "
                                   "parity")

    def _map_weight(self, w: Weight) -> Weight:
        if not self.symbol_map:
            return w
        return weight({self.symbol_map.get(s, s): c for s, c in w.items})

    def apply(self, p: Polynomial) -> Polynomial:
        """Push a polynomial over the target through the pullback."""
        out_zero = self.source.zero()
        acc = out_zero
        for m, coeff in p.terms.items():
            term = monomial_poly(self.source, Monomial(()), coeff)
            for c, e in m.factors:
                img = self.pullback[c]
                for _ in range(e):
                    term = multiply(term, img)
            acc = acc + term
        if p.truncated:
            acc = Polynomial(acc.chart, acc.terms, True)
        return acc

    def then(self, g: "ChartMorphism") -> "ChartMorphism":
        """Composite morphism: self followed by ``g`` (pullbacks compose
        the other way around)."""
        if g.source != self.target:
            raise AlgebraError("morphisms do not compose")
        pb = {c: self.apply(g.pullback[c]) for c in g.target.coordinates}
        merged = dict(g.symbol_map)
        for k, v in list(merged.items()):
            merged[k] = self.symbol_map.get(v, v)
        return ChartMorphism(self.source, g.target, pb, merged)


def identity_morphism(chart: Chart) -> ChartMorphism:
    return ChartMorphism(chart, chart, {c: chart.gen(c) for c in chart.coordinates})


def lift_morphism(psi: ChartMorphism,
                  lc_source: LinearizedChart | None = None,
                  lc_target: LinearizedChart | None = None) -> ChartMorphism:
    """Prolong a morphism of source charts to the linearized charts.

    Each tagged generator of the linearized target pulls back to the same
    composition of source-side lift derivations applied to the pullback of
    its untagged base, taken modulo the negative-weight ideal.  The result
    commutes with the induced operator families.
    """
    if psi.source.system.elements != psi.target.system.elements:
        raise AlgebraError("morphism endpoints must share one weight system")
    lc_s = lc_source or linearize_chart(psi.source)
    lc_t = lc_target or linearize_chart(psi.target)
    pb = {}
    for c in lc_t.chart.coordinates:
        base = psi.target.coordinate(c.cid.base_name)
        img = psi.pullback[base].in_chart(lc_s.lifted)
        for tag in c.cid.tags:  # application order: first applied first
            img = lc_s.lifted_derivations[tag].apply(img)
        img = quotient_polynomial(lc_s.quotient, img).in_chart(lc_s.chart)
        pb[c] = img
    return ChartMorphism(lc_s.chart, lc_t.chart, pb, dict(psi.symbol_map))
