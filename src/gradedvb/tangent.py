"""Shifted tangent lifts and odd de Rham derivations.

A lift by an additional symbol ``b`` over direction ``i`` doubles the
coordinates of a chart: each coordinate ``c`` gains a partner carrying the
extra tag ``b``, with weight shifted by ``b - a<i>`` and parity flipped.
The associated odd derivation sends ``c`` to its tagged partner, with a
sign counting the later-applied tags already present; that convention
makes all the derivations square to zero and anticommute while coordinates
stay indexed by unordered tag sets.

Lifted charts contain coordinates of negative weight.  Dividing by the
ideal they generate (substituting zero for each of them) restores
non-negative grading; restricting further to multiplicity-free weights
produces the chart of the associated multi-fold vector bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Chart,
    Coordinate,
    CoordinateId,
    Monomial,
    Polynomial,
    merge_factors,
    multiply,  # noqa: F401 - perfbench/tests reads tangent.multiply
    tagged_coordinate,
)
from .weights import BasisSymbol, Weight, WeightSystem, lift_shift


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """A graded derivation of a chart algebra, given on generators.

    ``images`` maps coordinates to polynomials over the same chart;
    missing coordinates map to zero.  Every nonzero image is checked to be
    homogeneous of the coordinate's weight plus ``weight_shift`` and of
    its parity plus ``parity``, which lets :meth:`apply` build each
    product monomial told its weight.  The derivation extends to products
    by the graded Leibniz rule, written once, in :meth:`leibniz`, which
    :meth:`apply` and the analysis layer's component matrices read.
    ``matrix_memo`` holds the matrices already built for this derivation.
    """

    chart: Chart
    weight_shift: Weight
    parity: int
    images: dict  # Coordinate -> Polynomial
    matrix_memo: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        for c, img in self.images.items():
            if c not in self.chart.coordinate_set:
                raise AlgebraError(f"image given for foreign coordinate {c.name}")
            if img.is_zero:
                continue
            if img.chart is not self.chart and img.chart != self.chart:
                raise AlgebraError(f"image of {c.name} lives on another chart")
            if img.homogeneous_weight() != c.weight + self.weight_shift:
                raise AlgebraError(f"image of {c.name} is not homogeneous of "
                                   "the shifted weight")
            if img.parity_of() != (c.parity + self.parity) % 2:
                raise AlgebraError(f"image of {c.name} has the wrong parity")

    def of(self, c) -> Polynomial:
        return self.images.get(c, self.chart.zero())

    def leibniz(self, m: Monomial) -> tuple[dict, dict, bool]:
        """The image of one monomial ``m`` by the graded Leibniz rule.

        Each factor with a nonzero image is taken out of ``m`` once, and
        the cofactor is merged with each image term, scaled by the
        factor's exponent and signed for moving the derivation past the
        factors before it and the image past those after it.  Returns the
        image coefficients keyed by merged sort key (the key a
        :class:`Monomial` hashes), the factor tuple and degree of each
        key, stored on its first insert, and the truncation flag: set by a
        product above the chart truncation, even one whose merge
        vanishes, and by the flagged image of a factor, even one with no
        terms left.
        """
        factors = m.factors
        room = self.chart.truncation - m.degree + 1
        values: dict[tuple, Fraction] = {}
        shapes: dict[tuple, tuple] = {}
        truncated = False
        before = 0
        for k, (c, e) in enumerate(factors):
            img = self.images.get(c)
            if img is not None and (img.terms or img.truncated):
                truncated = truncated or img.truncated
                after = m.parity - before - c.parity
                sign_exp = self.parity * before + (self.parity + c.parity) * after
                scale = -e if sign_exp % 2 else e
                rest = factors[:k] + (((c, e - 1),) if e > 1 else ()) \
                    + factors[k + 1:]
                for t, tc in img.terms.items():
                    if t.degree > room:
                        truncated = True
                        continue
                    merged, sign = merge_factors(rest, t.factors)
                    if sign == 0:
                        continue
                    key = tuple([(f.sort_key, n) for f, n in merged])
                    v = sign * scale * tc
                    old = values.get(key)
                    if old is None:
                        shapes[key] = (merged, m.degree - 1 + t.degree)
                    else:
                        v += old
                        if not v:
                            del values[key]
                            continue
                    values[key] = v
            before += c.parity * e
        return values, shapes, truncated

    def apply(self, p: Polynomial) -> Polynomial:
        """The image of ``p``: the :meth:`leibniz` image of each term,
        scaled by its coefficient and summed, flagged when ``p`` or a term
        image is.  Every product of a term has the term's weight plus
        ``weight_shift`` and its parity plus ``parity``, as
        ``__post_init__`` checked for every image, so each product
        monomial is built told them, with one weight sum per term.
        """
        if p.chart is not self.chart and p.chart != self.chart:
            p = p.in_chart(self.chart)
        acc: dict[Monomial, Fraction] = {}
        truncated = p.truncated
        for m, coeff in p.terms.items():
            values, shapes, over = self.leibniz(m)
            truncated = truncated or over
            if not values:
                continue
            weight = m.weight + self.weight_shift
            parity = (m.parity + self.parity) % 2
            for key, v in values.items():
                merged, degree = shapes[key]
                mono = Monomial._trusted(merged, weight, parity, degree)
                acc[mono] = acc.get(mono, 0) + coeff * v
        return Polynomial(self.chart, acc, truncated)  # drops zero sums

    def with_zeroed(self, coord) -> "Derivation":
        """Copy with one generator image replaced by zero (mutation tests)."""
        imgs = dict(self.images)
        imgs[coord] = self.chart.zero()
        return Derivation(self.chart, self.weight_shift, self.parity, imgs)


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------

def tangent_lift_unchecked(chart: Chart, tag: BasisSymbol) -> Chart:
    """Lift without the canonical-order check; for reorder experiments."""
    if tag.kind != "additional":
        raise AlgebraError(f"lift tag must be an additional symbol, got {tag.label}")
    if tag in chart.applied_lifts:
        raise AlgebraError(f"lift {tag.label} already applied")
    shift = lift_shift(tag)
    new_coords = list(chart.coordinates)
    for c in chart.coordinates:
        new_coords.append(tagged_coordinate(c, tag))
    basis = tuple(sorted(set(chart.system.basis) | {tag},
                         key=lambda s: s.sort_key))
    elements = set(chart.system.elements)
    elements.update(w + shift for w in chart.system.elements)
    system = WeightSystem(basis, frozenset(elements))
    return Chart(system, tuple(new_coords), chart.truncation,
                 chart.applied_lifts + (tag,))


def tangent_lift(chart: Chart, tag: BasisSymbol) -> Chart:
    """Apply one shifted tangent lift.

    The public constructor insists on canonical order: every previously
    applied lift must precede ``tag`` in the canonical symbol order.  Use
    :func:`tangent_lift_unchecked` to experiment with other orders.
    """
    for prev in chart.applied_lifts:
        if not prev.sort_key < tag.sort_key:
            raise AlgebraError(f"lift {tag.label} applied out of canonical "
                               f"order (after {prev.label})")
    return tangent_lift_unchecked(chart, tag)


def de_rham(chart: Chart, tag: BasisSymbol) -> Derivation:
    """The odd derivation of one applied lift.

    Sends each coordinate without the tag to its tagged partner (with the
    reordering sign) and kills coordinates that already carry the tag.
    On a quotient or restricted chart a partner of negative weight was
    divided out, so the coordinate maps to zero; a non-negative partner
    always survives the restriction, and a missing one is an error.
    """
    applied = chart.applied_lifts
    if tag not in applied:
        raise AlgebraError(f"lift {tag.label} was not applied to this chart")
    images = {}
    lookup = {c.cid: c for c in chart.coordinates}
    pos = {t: k for k, t in enumerate(applied)}
    shift = lift_shift(tag)
    for c in chart.coordinates:
        if tag in c.cid.tags:
            continue
        # the partner's tags are in application order, as the chart's are
        have = set(c.cid.tags)
        have.add(tag)
        partner = CoordinateId(c.cid.base_name,
                               tuple(t for t in applied if t in have))
        target = lookup.get(partner)
        if target is None:
            if not (c.weight + shift).is_nonnegative:
                continue
            raise AlgebraError(f"missing partner coordinate {partner.name}")
        # moving the differential into place passes the later-applied tags
        later = sum(1 for t in c.cid.tags if pos[t] > pos[tag])
        images[c] = chart.gen(target, (-1) ** (later % 2))
    return Derivation(chart, shift, 1, images)


# ---------------------------------------------------------------------------
# quotient by the negative-weight ideal, multiplicity-free restriction
# ---------------------------------------------------------------------------

def quotient_chart(chart: Chart) -> Chart:
    """Drop every coordinate whose weight has a negative coefficient."""
    coords = tuple(c for c in chart.coordinates if c.weight.is_nonnegative)
    elements = frozenset(w for w in chart.system.elements if w.is_nonnegative)
    system = WeightSystem(chart.system.basis, elements)
    return Chart(system, coords, chart.truncation, chart.applied_lifts)


def lifted_quotient(chart: Chart, tags: tuple[BasisSymbol, ...]) -> Chart:
    """``quotient_chart(tangent_lift(..., tag))`` for each of ``tags`` in
    turn, built in one pass.

    ``chart`` must be free of negative weights, so every coordinate and
    element kept is non-negative: each lift adds the partners of the ones
    kept so far whose weight is non-negative, and one system and one chart
    are built at the end.  The tags must be additional symbols, in
    canonical order after the lifts already applied.
    """
    if not tags:
        return chart
    lifts = chart.applied_lifts + tuple(tags)
    if any(t.kind != "additional" for t in tags) or any(
            not a.sort_key < b.sort_key for a, b in zip(lifts, lifts[1:])):
        raise AlgebraError("lifts must be new additional symbols in "
                           "canonical order")
    coords = list(chart.coordinates)
    elements = set(chart.system.elements)
    if not all(w.is_nonnegative for w in elements.union(
            c.weight for c in coords)):
        raise AlgebraError("lift a chart free of negative weights")
    for tag in tags:
        shift = lift_shift(tag)
        for c in list(coords):
            w = c.weight + shift  # the partner's weight, tested first
            if w.is_nonnegative:  # then built as tagged_coordinate does
                coords.append(Coordinate(
                    CoordinateId(c.cid.base_name, c.cid.tags + (tag,)),
                    w, 1 - c.parity))
        elements.update([w for w in (e + shift for e in elements)
                         if w.is_nonnegative])
    basis = tuple(sorted(set(chart.system.basis).union(tags),
                         key=lambda s: s.sort_key))
    return Chart(WeightSystem(basis, frozenset(elements)), tuple(coords),
                 chart.truncation, lifts)


def multiplicity_free_restriction(chart: Chart) -> Chart:
    """Keep only coordinates of multiplicity-free weight.

    Requires a chart already free of negative weights.  Because factor
    weights of a non-negative monomial are bounded by its total weight,
    the multiplicity-free components of the quotient algebra live entirely
    inside this restricted chart.
    """
    if any(not c.weight.is_nonnegative for c in chart.coordinates):
        raise AlgebraError("restrict after the negative-weight quotient")
    coords = tuple(c for c in chart.coordinates if c.weight.is_multiplicity_free)
    elements = frozenset(w for w in chart.system.elements
                         if w.is_nonnegative and w.is_multiplicity_free)
    system = WeightSystem(chart.system.basis, elements)
    return Chart(system, coords, chart.truncation, chart.applied_lifts)
