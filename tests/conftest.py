import itertools
import random
from fractions import Fraction

import pytest

from gradedvb import (
    Chart,
    Monomial,
    Polynomial,
    WeightSystem,
    ZERO,
    basic_symbol,
    lift_symbols,
    monomial_poly,
    multiply,
    system_from_rows,
    tangent_lift,
    weight,
)


def make_system(parities, rows):
    return system_from_rows(parities, rows)


def degree_system(n, parity=1):
    """Rank-1 system {0, a, 2a, .., na}."""
    return make_system([parity], [[k] for k in range(n + 1)])


def rank1_chart(n, dims, parity=1, trunc=3):
    ws = degree_system(n, parity)
    a = basic_symbol(1, parity)
    dmap = {ZERO: dims[0]}
    for k in range(1, n + 1):
        dmap[weight({a: k})] = dims[k]
    return Chart.from_dims(ws, dmap, trunc)


def full_lift(src):
    """The full iterated tangent lift of a source chart, negative-weight
    coordinates included; the reference for the step-wise quotient that
    ``linearize_chart`` builds."""
    lifted = src
    for tag in lift_symbols(src.system):
        lifted = tangent_lift(lifted, tag)
    return lifted


def leibniz_reference(d, p):
    """``d.apply(p)`` term by term, as ``Derivation.apply`` computed it
    before the Leibniz merge: for each factor with a nonzero image, the
    cofactor as a one-term polynomial times the image, summed, scaled by
    the term's coefficient and summed again.  The reference for the
    merge."""
    def apply_monomial(m):
        out = d.chart.zero()
        factors = m.factors
        parities = [c.parity * e for c, e in factors]
        prefix = 0
        for k, (c, e) in enumerate(factors):
            img = d.images.get(c)
            if img is not None and not img.is_zero:
                suffix = (e - 1) * c.parity + sum(parities[k + 1:])
                sign_exp = d.parity * prefix + (d.parity + c.parity) * suffix
                rest = list(factors)
                if e == 1:
                    rest.pop(k)
                else:
                    rest[k] = (c, e - 1)
                coeff = Fraction(e) * ((-1) ** (sign_exp % 2))
                out = out + multiply(
                    monomial_poly(d.chart, Monomial(tuple(rest)), coeff), img)
            prefix += parities[k]
        return out

    if p.chart != d.chart:
        p = p.in_chart(d.chart)
    out = d.chart.zero()
    for m, c in p.terms.items():
        out = out + apply_monomial(m).scale(c)
    if p.truncated:
        out = Polynomial(out.chart, out.terms, True)
    return out


def assert_canonical(monomials):
    """Each monomial equals the one the validating constructor builds from
    its factors, in weight, parity, degree, key and hash."""
    for m in monomials:
        ref = Monomial(m.factors)
        assert (m.weight, m.parity, m.degree, m.sort_key, hash(m)) == \
            (ref.weight, ref.parity, ref.degree, ref.sort_key, hash(ref))


def dense(rows, width):
    """Dense ``Fraction`` lists of sparse rows (``linalg``'s form) of the
    given width.  Every stored entry must be a nonzero ``Fraction`` at a
    column inside the width."""
    for row in rows:
        assert all(type(x) is Fraction and x != 0 and 0 <= k < width
                   for k, x in row.items())
    return [[row.get(k, Fraction(0)) for k in range(width)] for row in rows]


def sparse(rows):
    """The sparse form of dense rows: their nonzero entries by column."""
    return [{k: x for k, x in enumerate(row) if x} for row in rows]


def random_nonneg_system(rng: random.Random, max_rank=2, max_mult=3):
    """A random valid non-negative system with bounded multiplicities."""
    rank = rng.randint(1, max_rank)
    parities = [rng.randint(0, 1) for _ in range(rank)]
    caps = [rng.randint(1, max_mult) for _ in range(rank)]
    pool = [row for row in itertools.product(*(range(c + 1) for c in caps))]
    rows = {(0,) * rank}
    for i in range(rank):
        unit = [0] * rank
        unit[i] = 1
        rows.add(tuple(unit))
    extras = [row for row in pool if row not in rows]
    rng.shuffle(extras)
    for row in extras[: rng.randint(0, min(4, len(extras)))]:
        rows.add(row)
    # make sure the caps are attained so multiplicities match intent
    for i in range(rank):
        top = [0] * rank
        top[i] = caps[i]
        if rng.random() < 0.8:
            rows.add(tuple(top))
    return make_system(parities, sorted(rows))


def random_chart(rng: random.Random, system: WeightSystem, max_dim=2, trunc=3,
                 base_dim=None):
    dims = {}
    for w in system.sorted_elements():
        dims[w] = rng.randint(1, max_dim) if w.is_zero else rng.randint(0, max_dim)
    if base_dim is not None:
        dims[ZERO] = base_dim
    if all(dims[w] == 0 for w in dims if not w.is_zero):
        unit = system.unit(system.basic_symbols[0])
        dims[unit] = 1
    return Chart.from_dims(system, dims, trunc)


@pytest.fixture
def rng():
    return random.Random(20240811)
