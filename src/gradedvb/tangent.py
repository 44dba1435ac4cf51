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
    by the graded Leibniz rule: moving an odd derivation past an odd
    factor costs a sign.  ``matrix_memo`` holds the component matrices
    already built for this derivation by the analysis layer.
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

    def apply(self, p: Polynomial) -> Polynomial:
        """The image of ``p``, by one Leibniz merge over its terms.

        For each term and each factor with a nonzero image, the cofactor
        (the term with one copy of that factor taken out) is merged with
        each term of the image, and the product is added with the sign of
        moving the derivation past the factors before it and the image
        past the factors after it.  Every product has the weight of the
        term plus ``weight_shift`` and its parity plus ``parity``, which
        ``__post_init__`` checked for every image, so each product
        monomial is built once, with no factor weights summed.  A product
        above the chart truncation is dropped and flags the result, as
        does a flagged ``p`` or a flagged image that is used.
        """
        if p.chart is not self.chart and p.chart != self.chart:
            p = p.in_chart(self.chart)
        cap = self.chart.truncation
        acc: dict[Monomial, Fraction] = {}
        truncated = p.truncated
        for m, coeff in p.terms.items():
            factors = m.factors
            weight = m.weight + self.weight_shift
            parity = (m.parity + self.parity) % 2
            odd = sum(c.parity * e for c, e in factors)
            before = 0
            for k, (c, e) in enumerate(factors):
                img = self.images.get(c)
                if img is not None and img.terms:
                    truncated = truncated or img.truncated
                    after = odd - before - c.parity
                    sign_exp = self.parity * before + (self.parity + c.parity) * after
                    scale = Fraction(e * (-1) ** (sign_exp % 2)) * coeff
                    rest = factors[:k] + (((c, e - 1),) if e > 1 else ()) \
                        + factors[k + 1:]
                    for t, tc in img.terms.items():
                        degree = m.degree - 1 + t.degree
                        if degree > cap:
                            truncated = True
                            continue
                        merged, sign = merge_factors(rest, t.factors)
                        if sign == 0:
                            continue
                        mono = Monomial._trusted(merged, weight, parity, degree)
                        v = acc.get(mono, 0) + sign * scale * tc
                        if v:
                            acc[mono] = v
                        else:
                            acc.pop(mono, None)
                before += c.parity * e
        return Polynomial(self.chart, acc, truncated)

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


def quotient_polynomial(target: Chart, p: Polynomial) -> Polynomial:
    """Substitute zero for negative-weight coordinates; an algebra map."""
    terms = {}
    for m, coeff in p.terms.items():
        if all(c.weight.is_nonnegative for c, _ in m.factors):
            terms[m] = coeff
    return Polynomial(target, terms, p.truncated)


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
