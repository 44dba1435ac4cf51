"""Chart-level linearization into a multi-fold vector bundle chart.

The pipeline: apply one shifted tangent lift per multiplicity step, in the
canonical sequence order, dividing by the negative-weight ideal after each
step; then restrict to the coordinates of multiplicity-free weight.  A lift
adds ``b - a<i>`` to a weight, which raises no basic coefficient, so the
partner of a negative-weight coordinate is again of negative weight: the
ideal is stable under every later lift and under every lift derivation.
Dividing it out step by step therefore gives the quotient of the full
iterated lift, which is never built.  The steps take one pass
(:func:`~gradedvb.tangent.lifted_quotient`): each lift keeps only the
non-negative partners of the coordinates and weights kept so far, and one
chart is built at the end; the restricted chart is built once, on the
derived weight system.  The lift derivations descend to the quotient
chart, where every consumer applies them.  They further descend to a
commuting family of odd operators on the restricted chart, one per
additional symbol.  Both families are built on first read.

Morphisms of source charts prolong through the lifts and descend to
morphisms of linearized charts that commute with the operator families;
the correspondence preserves identities and composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
from .tangent import de_rham, lifted_quotient
from .weights import (
    ZERO,
    BasisSymbol,
    Weight,
    WeightError,
    delta_prime_fiber,
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

    ``quotient`` is the iterated lift modulo the negative-weight ideal,
    built in one pass (see the module docstring), and ``chart`` is its
    multiplicity-free restriction, which carries the induced operator
    family.  Both operator families are built on first read.
    """

    source: Chart
    quotient: Chart
    chart: Chart

    @cached_property
    def operators(self) -> dict:
        """The induced operators on ``chart``, by lift symbol; solving an
        inverse never reads them."""
        return {tag: de_rham(self.chart, tag) for tag in self.lift_sequence}

    @cached_property
    def quotient_derivations(self) -> dict:
        """The lift derivations on ``quotient``, by lift symbol; linearizing
        alone never applies them."""
        return {tag: de_rham(self.quotient, tag) for tag in self.lift_sequence}

    @property
    def lift_sequence(self) -> tuple[BasisSymbol, ...]:
        return self.quotient.applied_lifts


def linearize_chart(src: Chart) -> LinearizedChart:
    """Run the full linearization pipeline on one chart."""
    rep = validate(src.system)
    if not rep.is_valid:
        raise WeightError("source system must be valid and non-negative")
    if src.applied_lifts:
        raise AlgebraError("source chart must not carry earlier lifts")
    quotient = lifted_quotient(src, lift_symbols(src.system))
    expected = linearized_system(src.system)
    if frozenset(w for w in quotient.system.elements
                 if w.is_multiplicity_free) != expected.elements:
        raise AlgebraError("restricted chart system differs from the derived "
                           "weight system")
    # the restriction, on the derived system (same basis in canonical order)
    dchart = Chart(expected, tuple(c for c in quotient.coordinates
                                   if c.weight.is_multiplicity_free),
                   quotient.truncation, quotient.applied_lifts)
    return LinearizedChart(src, quotient, dchart)


# ---------------------------------------------------------------------------
# composite operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeOperator:
    """An ordered composition of lift derivations on the quotient chart.

    ``symbols = (g1, .., gs)`` denotes the composition ``d_g1 o ... o d_gs``
    (rightmost applied first) after the negative-weight quotient.  It
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
        """Apply to a polynomial over the source or the quotient chart.

        Every source coordinate lies in the quotient, and the lift
        derivations preserve the negative-weight ideal, so applying the
        quotient's derivations gives the quotient of the lifted composite.
        """
        q = p.in_chart(self.lc.quotient)
        for s in reversed(self.symbols):
            q = self.lc.quotient_derivations[s].apply(q)
        return q


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


def lift_morphism(psi: ChartMorphism, lc_source: LinearizedChart,
                  lc_target: LinearizedChart) -> ChartMorphism:
    """Prolong a morphism of source charts to their linearized charts
    ``lc_source`` and ``lc_target``.

    Each tagged generator of the linearized target pulls back to the same
    composition of source-side lift derivations applied to the pullback of
    its untagged base.  The lift derivations preserve the negative-weight
    ideal, so they are applied on the source's quotient chart, where the
    untagged pullback already lives.  The result commutes with the
    induced operator families.
    """
    if psi.source.system.elements != psi.target.system.elements:
        raise AlgebraError("morphism endpoints must share one weight system")
    pb = {}
    for c in lc_target.chart.coordinates:
        base = psi.target.coordinate(c.cid.base_name)
        img = psi.pullback[base].in_chart(lc_source.quotient)
        for tag in c.cid.tags:  # application order: first applied first
            img = lc_source.quotient_derivations[tag].apply(img)
        pb[c] = img.in_chart(lc_source.chart)
    return ChartMorphism(lc_source.chart, lc_target.chart, pb,
                         dict(psi.symbol_map))
