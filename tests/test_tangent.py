import itertools
from collections import Counter
from fractions import Fraction

import pytest

from gradedvb import (
    AlgebraError,
    Chart,
    ChartMorphism,
    Derivation,
    Polynomial,
    ZERO,
    additional_symbol,
    basic_symbol,
    component_basis,
    de_rham,
    lift_symbols,
    linearize_chart,
    monomial_poly,
    multiplicity_free_restriction,
    multiply,
    quotient_chart,
    tangent_lift,
    tangent_lift_unchecked,
    weight,
)
from gradedvb.tangent import lifted_quotient
from conftest import (assert_canonical, degree_system, full_lift,
                      headroom_operators, leibniz_reference,
                      quotient_polynomial, random_chart, random_derivation,
                      random_nonneg_system, rank1_chart)

A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)


def lifted_m3():
    chart = rank1_chart(3, [1, 1, 1, 1])
    return tangent_lift(tangent_lift(chart, B2), B3)


class TestTangentLift:
    def test_degree_three_double_lift_weights(self):
        lifted = lifted_m3()
        assert len(lifted.coordinates) == 16
        got = Counter(c.weight for c in lifted.coordinates)
        W = lambda **kw: weight({A: kw.get("a", 0), B2: kw.get("b2", 0),
                                 B3: kw.get("b3", 0)})
        expected = Counter([
            W(), W(a=1), W(a=2), W(a=3),
            W(a=-1, b2=1), W(b2=1), W(a=1, b2=1), W(a=2, b2=1),
            W(a=-1, b3=1), W(b3=1), W(a=1, b3=1), W(a=2, b3=1),
            W(a=-2, b2=1, b3=1), W(a=-1, b2=1, b3=1), W(b2=1, b3=1),
            W(a=1, b2=1, b3=1),
        ])
        assert got == expected

    def test_single_lift_system_is_union_with_shift(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng)
            chart = random_chart(rng, ws)
            tags = lift_symbols(ws)
            if not tags:
                continue
            tag = tags[0]
            lifted = tangent_lift(chart, tag)
            shift = weight({tag: 1}) - weight({basic_symbol(tag.i, (tag.parity + 1) % 2): 1})
            expected = set(ws.elements) | {w + shift for w in ws.elements}
            assert set(lifted.system.elements) == expected

    def test_zero_dimensional_fiber_doubles_to_zero(self):
        ws = degree_system(2)
        chart = Chart.from_dims(ws, {ZERO: 1, weight({A: 1}): 0,
                                     weight({A: 2}): 1}, 3)
        lifted = tangent_lift(chart, B2)
        assert sum(1 for c in lifted.coordinates
                   if c.weight == weight({B2: 1})) == 0

    def test_duplicate_lift_rejected(self):
        chart = rank1_chart(2, [1, 1, 1])
        lifted = tangent_lift(chart, B2)
        with pytest.raises(AlgebraError):
            tangent_lift(lifted, B2)

    def test_out_of_order_lift_rejected_publicly(self):
        chart = rank1_chart(3, [1, 1, 1, 1])
        lifted = tangent_lift(chart, B3)
        with pytest.raises(AlgebraError):
            tangent_lift(lifted, B2)
        tangent_lift_unchecked(lifted, B2)  # escape hatch for experiments


class TestLiftedQuotient:
    def test_preconditions(self):
        chart = rank1_chart(3, [1, 1, 1, 1])
        assert lifted_quotient(chart, ()) is chart
        with pytest.raises(AlgebraError):
            lifted_quotient(chart, (A,))
        with pytest.raises(AlgebraError):
            lifted_quotient(chart, (B3, B2))
        with pytest.raises(AlgebraError):
            lifted_quotient(lifted_quotient(chart, (B2,)), (B2,))
        with pytest.raises(AlgebraError):
            lifted_quotient(tangent_lift(chart, B2), (B3,))
        assert lifted_quotient(lifted_quotient(chart, (B2,)), (B3,)) == \
            lifted_quotient(chart, (B2, B3))


class TestDeRham:
    def test_differential_of_base_coordinate_has_shifted_weight(self):
        chart = rank1_chart(2, [1, 1, 1])
        lifted = tangent_lift(chart, B2)
        d = de_rham(lifted, B2)
        img = d.of(lifted.coordinate("x1"))
        assert img.homogeneous_weight() == weight({B2: 1, A: -1})

    def test_iterated_differentials_anticommute_on_generator(self):
        lifted = lifted_m3()
        d2, d3 = de_rham(lifted, B2), de_rham(lifted, B3)
        xi2 = lifted.coordinate("xi{2a1}_1")
        lhs = d2.apply(d3.apply(lifted.gen(xi2)))
        rhs = d3.apply(d2.apply(lifted.gen(xi2)))
        assert lhs == -rhs
        assert lhs.text() == "-1 * xi{2a1}_1[b2_1,b3_1]"

    def test_leibniz_randomized(self, rng):
        for _ in range(40):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            chart = random_chart(rng, ws, max_dim=2)
            tags = lift_symbols(ws)
            if not tags:
                continue
            lifted = chart
            for t in tags:
                lifted = tangent_lift(lifted, t)
            d = de_rham(lifted, rng.choice(tags))
            coords = list(lifted.coordinates)
            c1, c2 = rng.choice(coords), rng.choice(coords)
            p = lifted.gen(c1, rng.randint(1, 3))
            q = lifted.gen(c2, rng.randint(-3, -1))
            lhs = d.apply(multiply(p, q))
            sign = -1 if c1.parity else 1
            rhs = multiply(d.apply(p), q) + multiply(p, d.apply(q)).scale(sign)
            assert lhs == rhs

    def test_squares_and_brackets_vanish_on_generators(self, rng):
        for _ in range(15):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            chart = random_chart(rng, ws, max_dim=2)
            tags = lift_symbols(ws)
            lifted = chart
            for t in tags:
                lifted = tangent_lift(lifted, t)
            ds = {t: de_rham(lifted, t) for t in tags}
            for ta, tb in itertools.product(tags, repeat=2):
                for c in lifted.coordinates:
                    g = lifted.gen(c)
                    acom = ds[ta].apply(ds[tb].apply(g)) + \
                        ds[tb].apply(ds[ta].apply(g))
                    assert acom.is_zero


class TestQuotient:
    def test_differential_of_base_killed(self):
        chart = rank1_chart(2, [1, 1, 1])
        lifted = tangent_lift(chart, B2)
        q = quotient_chart(lifted)
        d = de_rham(lifted, B2)
        img = quotient_polynomial(q, d.of(lifted.coordinate("x1")))
        assert img.is_zero

    def test_nonnegative_polynomial_unchanged(self):
        lifted = lifted_m3()
        q = quotient_chart(lifted)
        p = multiply(lifted.gen(lifted.coordinate("xi{a1}_1")),
                     lifted.gen(lifted.coordinate("xi{2a1}_1[b2_1]")))
        assert quotient_polynomial(q, p).terms == p.terms

    def test_double_differential_of_base_killed_by_weight(self):
        lifted = lifted_m3()
        d2, d3 = de_rham(lifted, B2), de_rham(lifted, B3)
        ddx = d3.apply(d2.apply(lifted.gen(lifted.coordinate("x1"))))
        w = ddx.homogeneous_weight()
        assert w.coeff(A) == -2
        q = quotient_chart(lifted)
        assert quotient_polynomial(q, ddx).is_zero

    def test_quotient_is_algebra_map(self, rng):
        lifted = lifted_m3()
        q = quotient_chart(lifted)
        coords = list(lifted.coordinates)
        for _ in range(40):
            p1 = lifted.gen(rng.choice(coords), rng.randint(1, 2))
            p2 = lifted.gen(rng.choice(coords), rng.randint(1, 2))
            lhs = quotient_polynomial(q, multiply(p1, p2))
            rhs = multiply(quotient_polynomial(q, p1), quotient_polynomial(q, p2))
            assert lhs.terms == rhs.terms

    def test_lifted_system_matches_index_set_formula(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            chart = random_chart(rng, ws)
            tags = lift_symbols(ws)
            lifted = chart
            for t in tags:
                lifted = tangent_lift(lifted, t)
            by_dir = {}
            for t in tags:
                by_dir.setdefault(t.i, []).append(t)
            expected = set()
            for delta in ws.elements:
                pools = []
                for i, ts in by_dir.items():
                    a_i = basic_symbol(i, (ts[0].parity + 1) % 2)
                    opts = []
                    for r in range(len(ts) + 1):
                        for combo in itertools.combinations(ts, r):
                            shift = weight({a_i: -len(combo)})
                            for t in combo:
                                shift = shift + weight({t: 1})
                            opts.append(shift)
                    pools.append(opts)
                for choice in itertools.product(*pools) if pools else [()]:
                    w = delta
                    for s in choice:
                        w = w + s
                    expected.add(w)
            assert set(lifted.system.elements) == expected


class TestRestriction:
    def test_degree_three_generators(self):
        lifted = lifted_m3()
        d = multiplicity_free_restriction(quotient_chart(lifted))
        names = sorted(c.name for c in d.coordinates)
        assert names == sorted([
            "x1", "xi{a1}_1",
            "xi{a1}_1[b2_1]", "xi{2a1}_1[b2_1]",
            "xi{a1}_1[b3_1]", "xi{2a1}_1[b3_1]",
            "xi{2a1}_1[b2_1,b3_1]", "xi{3a1}_1[b2_1,b3_1]",
        ])

    def test_square_weight_dropped(self):
        lifted = lifted_m3()
        d = multiplicity_free_restriction(quotient_chart(lifted))
        assert all(c.cid.base_name != "xi{2a1}_1" or c.cid.tags
                   for c in d.coordinates)

    def test_identity_on_multiplicity_free_unlifted(self, rng):
        ws = random_nonneg_system(rng, max_rank=2, max_mult=1)
        chart = random_chart(rng, ws)
        assert multiplicity_free_restriction(chart).coordinates == chart.coordinates

    def test_requires_quotient_first(self):
        lifted = lifted_m3()
        with pytest.raises(AlgebraError):
            multiplicity_free_restriction(lifted)


class TestReorderIsomorphism:
    def test_two_lift_orders_intertwine_up_to_sign(self):
        chart = rank1_chart(2, [1, 1, 1])
        ca = tangent_lift(tangent_lift(chart, B2), B3)
        cb = tangent_lift_unchecked(tangent_lift_unchecked(chart, B3), B2)
        # same coordinates up to tag-set identification, with equal weights
        key = lambda c: (c.cid.base_name, frozenset(c.cid.tags))
        assert {key(c) for c in ca.coordinates} == {key(c) for c in cb.coordinates}
        assert {key(c): c.weight for c in ca.coordinates} == \
            {key(c): c.weight for c in cb.coordinates}
        pull = {}
        for c in cb.coordinates:
            tgt = next(a for a in ca.coordinates if key(a) == key(c))
            sign = -1 if len(c.cid.tags) == 2 else 1
            pull[c] = ca.gen(tgt, sign)
        iso = ChartMorphism(ca, cb, pull)
        for tag in (B2, B3):
            da = de_rham(ca, tag)
            db = de_rham(cb, tag)
            for c in cb.coordinates:
                assert iso.apply(db.of(c)) == da.apply(iso.pullback[c])


def inputs(rng, chart):
    """The polynomials a derivation is checked on: every basis monomial of
    every system weight as a one-term polynomial (a component matrix's
    columns), a random combination of them over all weights, and that
    combination flagged."""
    ps = [monomial_poly(chart, m, rng.choice([1, -2, 3]))
          for w in chart.system.sorted_elements()
          for m in component_basis(chart, w)]
    mix = sum(rng.sample(ps, min(12, len(ps))), chart.zero())
    return ps + [mix, Polynomial(chart, mix.terms, True)]


class TestLeibnizMerge:
    """``Derivation.apply`` against :func:`leibniz_reference`: equal terms
    and truncation flags, and every product monomial the one the
    validating constructor builds."""

    def assert_matches(self, d, ps):
        flags = set()
        for p in ps:
            got, want = d.apply(p), leibniz_reference(d, p)
            assert got.terms == want.terms
            assert got.truncated == want.truncated
            assert all(type(c) is Fraction for c in got.terms.values())
            assert_canonical(got.terms)
            flags.add(got.truncated)
        return flags

    def test_family_charts_and_mutations(self, rng):
        charts = 0
        while charts < 5:
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            if not lift_symbols(ws):
                continue
            charts += 1
            lc = linearize_chart(random_chart(rng, ws, max_dim=2))
            for ops, chart in ((lc.operators, lc.chart),
                               (lc.quotient_derivations, lc.quotient)):
                ps = inputs(rng, chart)
                for op in ops.values():
                    self.assert_matches(op, ps)
                    used = [c for c, img in op.images.items() if img.terms]
                    if used:
                        zeroed = op.with_zeroed(rng.choice(used))
                        self.assert_matches(zeroed, ps)

    def test_full_lifts_with_negative_weights(self, rng):
        sources = [rank1_chart(2, [1, 1, 1]), rank1_chart(3, [1, 1, 1, 1], 0)]
        for src in sources:
            lifted = full_lift(src)
            assert not all(c.weight.is_nonnegative for c in lifted.coordinates)
            ps = inputs(rng, lifted)
            for tag in lift_symbols(src.system):
                self.assert_matches(de_rham(lifted, tag), ps)

    def test_multi_term_images_truncate_like_the_reference(self, rng):
        for dims in ([1, 1, 1], [1, 2, 1]):
            lc = linearize_chart(rank1_chart(2, dims))
            ps = inputs(rng, lc.chart)
            # the odd lift shifts, and an even derivation of weight zero
            shifts = [(op.weight_shift, 1) for op in lc.operators.values()]
            for shift, parity in shifts + [(ZERO, 0)]:
                d = random_derivation(rng, lc.chart, shift, parity)
                assert self.assert_matches(d, ps) == {False, True}

    def test_generator_image_is_the_given_image(self, rng):
        """``of(c)`` equals ``apply(chart.gen(c))`` in terms and flag, on
        random derivations whose images carry the flag at random and some
        of which lost all their terms."""
        for dims in ([1, 1, 1], [1, 2, 1], [2, 1, 2]):
            chart = linearize_chart(rank1_chart(2, dims)).chart
            shift = weight({B2: 1, A: -1})
            d = random_derivation(rng, chart, shift, 1, flagged=0.5)
            lost = rng.sample(chart.coordinates, len(chart.coordinates) // 3)
            d = Derivation(chart, shift, 1, {**d.images, **{
                c: Polynomial(chart, {}, True) for c in lost}})
            for c in chart.coordinates:
                got, want = d.apply(chart.gen(c)), d.of(c)
                assert got.terms == want.terms
                assert got.truncated == want.truncated
            self.assert_matches(d, inputs(rng, chart))

    def test_headroom_operator_of_the_degree2_reconstruction(self, rng):
        # the operator reconstruct_degree2 builds on a chart with two
        # degrees of headroom, from multi-term images
        op, op_big = headroom_operators()
        self.assert_matches(op_big, inputs(rng, op_big.chart))
        assert self.assert_matches(op, inputs(rng, op.chart)) == {False, True}

    def test_image_on_another_chart_is_refused(self):
        chart = rank1_chart(2, [1, 1, 1])
        other = rank1_chart(2, [1, 1, 1], trunc=2)
        xi = chart.coordinate("xi{a1}_1")
        image = other.gen(other.coordinate("xi{a1}_1"))
        with pytest.raises(AlgebraError, match="lives on another chart"):
            Derivation(chart, ZERO, 0, {xi: image})

    def test_flagged_images(self, rng):
        lc = linearize_chart(rank1_chart(2, [1, 2, 1]))
        op = lc.operators[B2]
        chart = lc.chart
        ps = inputs(rng, chart)
        used = sorted((c for c, img in op.images.items() if img.terms),
                      key=lambda c: c.sort_key)
        flagged = dict(op.images)
        flagged[used[0]] = Polynomial(chart, op.images[used[0]].terms, True)
        # a zero image is never used, so its flag reaches no result
        flagged[used[1]] = Polynomial(chart, {}, True)
        d = Derivation(chart, op.weight_shift, op.parity, flagged)
        assert self.assert_matches(d, ps) == {False, True}


class TestChartDump:
    def test_dump_lists_tags_weights_parities(self):
        from gradedvb import chart_dump, linearize_chart
        lc = linearize_chart(rank1_chart(3, [1, 1, 1, 1]))
        rows = {r["name"]: r for r in chart_dump(lc.chart)}
        assert rows["xi{2a1}_1[b2_1,b3_1]"]["tags"] == ["b2_1", "b3_1"]
        assert rows["xi{2a1}_1[b2_1,b3_1]"]["weight"] == [0, 1, 1]
        assert rows["xi{2a1}_1[b2_1,b3_1]"]["parity"] == 0
        assert rows["xi{a1}_1"]["parity"] == 1
