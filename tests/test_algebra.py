import itertools

import pytest

from gradedvb import (
    AlgebraError,
    Chart,
    Monomial,
    ZERO,
    basic_symbol,
    component_basis,
    homogeneous_component,
    lift_symbols,
    linearize_chart,
    monomial_poly,
    multiply,
    normalize,
    weight,
)
from conftest import (assert_canonical, degree_system, full_lift,
                      random_chart, random_nonneg_system, rank1_chart)


def odd_pair_chart():
    ws = degree_system(1, parity=1)
    a = basic_symbol(1, 1)
    return Chart.from_dims(ws, {ZERO: 2, weight({a: 1}): 2}, 3)


def bubble_sort_sign(coords):
    """Independent oracle: bubble sort counting odd-odd swaps."""
    arr = list(coords)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k + 1].sort_key < arr[k].sort_key:
                if arr[k].parity and arr[k + 1].parity:
                    sign = -sign
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                changed = True
    for k in range(len(arr) - 1):
        if arr[k] == arr[k + 1] and arr[k].parity:
            return None, 0
    return arr, sign


class TestNormalize:
    def test_odd_transposition(self):
        chart = odd_pair_chart()
        xi1 = chart.coordinate("xi{a1}_1")
        xi2 = chart.coordinate("xi{a1}_2")
        mono, sign = normalize([xi2, xi1])
        assert sign == -1
        assert mono.factors == ((xi1, 1), (xi2, 1))

    def test_odd_square_vanishes(self):
        chart = odd_pair_chart()
        xi1 = chart.coordinate("xi{a1}_1")
        mono, sign = normalize([xi1, xi1])
        assert sign == 0 and mono is None

    def test_mixed_parities_against_bubble_oracle(self, rng):
        chart = rank1_chart(2, [2, 2, 2])
        coords = list(chart.coordinates)
        for _ in range(200):
            raw = [rng.choice(coords) for _ in range(rng.randint(1, 4))]
            mono, sign = normalize(raw)
            sorted_arr, oracle_sign = bubble_sort_sign(raw)
            if oracle_sign == 0:
                assert sign == 0
            else:
                assert sign == oracle_sign
                assert [c for c, e in mono.factors for _ in range(e)] == sorted_arr

    def test_idempotent_on_canonical(self, rng):
        chart = rank1_chart(2, [2, 2, 2])
        for m in component_basis(chart, weight({basic_symbol(1, 1): 2})):
            flat = [c for c, e in m.factors for _ in range(e)]
            mono, sign = normalize(flat)
            assert sign == 1 and mono == m


class TestMultiply:
    def test_one_is_identity(self, rng):
        chart = rank1_chart(2, [2, 1, 1])
        p = chart.gen(chart.coordinate("xi{a1}_1"), 3) + chart.gen(
            chart.coordinate("x1"), -2)
        assert multiply(chart.one(), p) == p

    def test_odd_anticommute(self):
        chart = odd_pair_chart()
        xi1 = chart.gen(chart.coordinate("xi{a1}_1"))
        xi2 = chart.gen(chart.coordinate("xi{a1}_2"))
        assert multiply(xi1, xi2) == -multiply(xi2, xi1)

    def test_square_of_sum_even_vs_odd(self):
        even = Chart.from_dims(degree_system(1, 0),
                               {ZERO: 1, weight({basic_symbol(1, 0): 1}): 2}, 3)
        e1, e2 = even.coordinate("xi{a1}_1"), even.coordinate("xi{a1}_2")
        s = even.gen(e1) + even.gen(e2)
        sq = multiply(s, s)
        brute = even.zero()
        for a in (e1, e2):
            for b in (e1, e2):
                mono, sign = normalize([a, b])
                if sign:
                    brute = brute + monomial_poly(even, mono, sign)
        assert sq == brute
        odd = odd_pair_chart()
        o1, o2 = odd.coordinate("xi{a1}_1"), odd.coordinate("xi{a1}_2")
        so = odd.gen(o1) + odd.gen(o2)
        assert multiply(so, so).is_zero

    def test_supercommutativity_randomized(self, rng):
        for _ in range(30):
            ws = random_nonneg_system(rng)
            chart = random_chart(rng, ws)
            coords = [c for c in chart.coordinates]
            c1, c2 = rng.choice(coords), rng.choice(coords)
            p, q = chart.gen(c1, rng.randint(1, 3)), chart.gen(c2, rng.randint(1, 3))
            sign = -1 if (c1.parity and c2.parity) else 1
            assert multiply(p, q) == multiply(q, p).scale(sign)

    def test_weight_additivity(self, rng):
        for _ in range(30):
            ws = random_nonneg_system(rng)
            chart = random_chart(rng, ws)
            coords = list(chart.coordinates)
            c1, c2 = rng.choice(coords), rng.choice(coords)
            prod = multiply(chart.gen(c1), chart.gen(c2))
            for m in prod.terms:
                assert m.weight == c1.weight + c2.weight

    def test_associativity_randomized(self, rng):
        chart = rank1_chart(2, [1, 2, 1])
        coords = list(chart.coordinates)
        for _ in range(50):
            a, b, c = (chart.gen(rng.choice(coords), rng.randint(-2, 2))
                       for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_truncation_flags_dropped_terms(self):
        chart = rank1_chart(1, [1, 1], trunc=2)
        x = chart.gen(chart.coordinate("x1"))
        xx = multiply(x, x)
        assert not xx.truncated
        xxx = multiply(xx, x)
        assert xxx.is_zero and xxx.truncated


class TestHomogeneousComponent:
    def test_homogeneous_is_fixed_point(self):
        chart = odd_pair_chart()
        p = chart.gen(chart.coordinate("xi{a1}_1"), 5)
        assert homogeneous_component(p, p.homogeneous_weight()) == p

    def test_absent_weight_is_zero(self):
        chart = odd_pair_chart()
        p = chart.gen(chart.coordinate("xi{a1}_1"))
        a = basic_symbol(1, 1)
        assert homogeneous_component(p, weight({a: 2})).is_zero

    def test_mixed_split_recomputed_termwise(self):
        chart = rank1_chart(2, [1, 2, 1])
        a = basic_symbol(1, 1)
        x = chart.gen(chart.coordinate("x1"))
        xi = chart.gen(chart.coordinate("xi{a1}_1"))
        xi2 = chart.gen(chart.coordinate("xi{a1}_2"))
        p = multiply(x, xi) + multiply(xi, xi2)
        c1 = homogeneous_component(p, weight({a: 1}))
        c2 = homogeneous_component(p, weight({a: 2}))
        assert c1 + c2 == p
        for m in c1.terms:
            assert sum((e * c.weight.coeff(a) for c, e in m.factors)) == 1
        for m in c2.terms:
            assert sum((e * c.weight.coeff(a) for c, e in m.factors)) == 2


def brute_force_basis(chart, w, cap):
    """Oracle: enumerate exponent vectors directly."""
    coords = list(chart.coordinates)
    out = set()
    ranges = [range(0, 2 if c.parity else cap + 1) for c in coords]
    for exps in itertools.product(*ranges):
        if sum(exps) > cap:
            continue
        total = ZERO
        for c, e in zip(coords, exps):
            for _ in range(e):
                total = total + c.weight
        if total == w:
            out.add(tuple((c, e) for c, e in zip(coords, exps) if e))
    return {Monomial(f) for f in out}


class TestComponentBasis:
    def test_weight_zero_degree_one(self):
        ws = degree_system(1)
        chart = Chart.from_dims(ws, {ZERO: 2, weight({basic_symbol(1, 1): 1}): 1}, 3)
        names = [m.text() for m in component_basis(chart, ZERO, 1)]
        assert names == ["1", "x1", "x2"]

    def test_degree_two_weight_two_alpha(self):
        chart = rank1_chart(2, [1, 1, 1], trunc=2)
        a = basic_symbol(1, 1)
        got = set(component_basis(chart, weight({a: 2}), 2))
        assert got == brute_force_basis(chart, weight({a: 2}), 2)
        texts = sorted(m.text() for m in got)
        assert texts == ["x1 * xi{2a1}_1", "xi{2a1}_1"]

    def test_odd_square_never_listed(self, rng):
        chart = rank1_chart(1, [1, 1])
        a = basic_symbol(1, 1)
        for m in component_basis(chart, weight({a: 2})):
            for c, e in m.factors:
                assert not (c.parity and e > 1)

    def test_matches_brute_force_randomized(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            chart = random_chart(rng, ws, max_dim=2, trunc=3)
            for w in chart.system.sorted_elements():
                assert set(component_basis(chart, w)) == \
                    brute_force_basis(chart, w, 3)


def coordinate_search(chart, w, cap):
    """Reference: the coordinate-by-coordinate recursion that
    ``component_basis`` ran before it grouped the coordinates by weight,
    with its output order."""
    coords = list(chart.coordinates)
    nonneg = all(c.weight.is_nonnegative for c in coords)
    out = []

    def gen(idx, target, budget, prefix):
        if idx == len(coords):
            if target.is_zero:
                out.append(Monomial(tuple(prefix)))
            return
        head = coords[idx]
        rem = target
        for e in range(0, min(1 if head.parity else budget, budget) + 1):
            if e > 0:
                rem = rem - head.weight
                if nonneg and not rem.is_nonnegative:
                    break
            gen(idx + 1, rem, budget - e, prefix + ([(head, e)] if e else []))

    gen(0, w, cap, [])
    out.sort(key=lambda m: m.sort_key)
    return out


class TestGroupedSearch:
    """``component_basis`` against :func:`coordinate_search`, list for list
    and in order, at every degree cap up to the truncation."""

    OFF_BASIS = weight({basic_symbol(9, 0): 1})

    def assert_matches(self, chart, weights):
        for w in weights:
            for cap in range(chart.truncation + 1):
                assert component_basis(chart, w, cap) == \
                    coordinate_search(chart, w, cap), (w.label, cap)

    def weights(self, rng, chart, pairs=6):
        elements = chart.system.sorted_elements()
        sums = [u + v for u, v in itertools.combinations_with_replacement(
            elements, 2)]
        a1 = chart.system.basis[0]
        return (elements + rng.sample(sums, min(pairs, len(sums)))
                + [self.OFF_BASIS, self.OFF_BASIS + weight({a1: 1})])

    def test_family_charts_and_their_linearizations(self, rng):
        for _ in range(8):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            chart = random_chart(rng, ws, max_dim=2, trunc=3)
            lc = linearize_chart(chart)
            for c in (chart, lc.quotient, lc.chart):
                self.assert_matches(c, self.weights(rng, c))

    def test_full_lifts_with_negative_weights(self, rng):
        sources = [rank1_chart(2, [1, 1, 1]), rank1_chart(3, [1, 1, 1, 1], 0)]
        while len(sources) < 5:
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            if lift_symbols(ws):
                sources.append(random_chart(rng, ws, max_dim=1))
        for src in sources:
            lifted = full_lift(src)
            assert not all(c.weight.is_nonnegative for c in lifted.coordinates)
            self.assert_matches(lifted, self.weights(rng, lifted, pairs=3))

    @pytest.mark.parametrize("n,dims", [(4, [2, 2, 2, 1, 1]), (5, [1] * 6)])
    def test_rank1_ladder(self, rng, n, dims):
        lc = linearize_chart(rank1_chart(n, dims))
        for c in (lc.source, lc.quotient, lc.chart):
            self.assert_matches(c, self.weights(rng, c))

    def test_no_coordinates(self):
        chart = Chart(degree_system(1), (), 3)
        assert component_basis(chart, ZERO) == [Monomial(())]
        assert component_basis(chart, weight({basic_symbol(1, 1): 1})) == []

    def test_negative_cap(self):
        chart = rank1_chart(2, [1, 1, 1])
        assert component_basis(chart, ZERO, -1) == []
        assert coordinate_search(chart, ZERO, -1) == []


class TestTrustedMonomials:
    """The monomials ``component_basis`` and ``multiply`` build with a
    known weight, parity and degree are the ones the validating
    constructor builds from their factors."""

    def charts(self, rng):
        for _ in range(5):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            lc = linearize_chart(random_chart(rng, ws, max_dim=2))
            yield from (lc.source, lc.quotient, lc.chart)
        yield full_lift(rank1_chart(2, [1, 1, 1]))

    def test_component_basis(self, rng):
        for chart in self.charts(rng):
            for w in chart.system.sorted_elements():
                for cap in range(chart.truncation + 1):
                    assert_canonical(component_basis(chart, w, cap))

    def test_multiply(self, rng):
        for chart in self.charts(rng):
            terms = [monomial_poly(chart, m, rng.randint(1, 3))
                     for w in chart.system.sorted_elements()
                     for m in component_basis(chart, w)]
            p = sum(rng.sample(terms, min(8, len(terms))), chart.zero())
            q = sum(rng.sample(terms, min(8, len(terms))), chart.zero())
            prod = multiply(p, q)
            assert prod.terms
            assert_canonical(prod.terms)


class TestChart:
    def test_dims_round_trip(self):
        chart = rank1_chart(2, [2, 1, 2])
        a = basic_symbol(1, 1)
        assert chart.dims == {ZERO: 2, weight({a: 1}): 1, weight({a: 2}): 2}
        assert chart.base_dim == 2

    def test_coordinate_by_name(self):
        chart = rank1_chart(2, [2, 1, 2])
        for c in chart.coordinates:
            assert chart.coordinate(c.name) is c
        with pytest.raises(AlgebraError, match="no coordinate named 'x9'"):
            chart.coordinate("x9")

    def test_dims_must_be_elements(self):
        ws = degree_system(1)
        a = basic_symbol(1, 1)
        with pytest.raises(AlgebraError):
            Chart.from_dims(ws, {weight({a: 2}): 1}, 3)

    def test_parity_tracks_weight(self):
        chart = rank1_chart(2, [1, 1, 1])
        for c in chart.coordinates:
            assert c.parity == c.weight.parity
