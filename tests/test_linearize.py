import itertools
import os
from fractions import Fraction

import pytest

from gradedvb import (
    AlgebraError,
    Chart,
    ChartMorphism,
    additional_symbol,
    basic_symbol,
    component_basis,
    compose_DLambda,
    coordinate_table,
    de_rham,
    identity_morphism,
    lift_morphism,
    lift_symbols,
    linearize_chart,
    linearized_system,
    monomial_poly,
    multiply,
    weight,
)
from gradedvb.tangent import (multiplicity_free_restriction, quotient_chart,
                              tangent_lift)
from gradedvb.specfile import parse_spec
from conftest import full_lift, random_chart, random_nonneg_system, rank1_chart

A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)


def random_morphism(rng, src: Chart, tgt: Chart, linear_only=False) -> ChartMorphism:
    """Random weight-preserving pullback with constant coefficients."""
    pull = {}
    src_zero = [c for c in src.coordinates if c.weight.is_zero]
    tgt_zero = [c for c in tgt.coordinates if c.weight.is_zero]
    assert len(src_zero) == len(tgt_zero)
    for c, s in zip(tgt_zero, src_zero):
        pull[c] = src.gen(s)
    for c in tgt.coordinates:
        if c.weight.is_zero:
            continue
        img = src.zero()
        linear = [m for m in component_basis(src, c.weight, 1)]
        quadratic = [m for m in component_basis(src, c.weight, 2)
                     if m.degree == 2 and
                     all(not f.weight.is_zero for f, _ in m.factors)]
        for m in linear:
            img = img + monomial_poly(src, m, rng.randint(-2, 2))
        if not linear_only:
            for m in quadratic:
                if rng.random() < 0.5:
                    img = img + monomial_poly(src, m, rng.randint(-1, 1))
        pull[c] = img
    return ChartMorphism(src, tgt, pull)


def spec_source(name):
    """The chart of a ``tests/data`` spec; one coordinate per weight when
    the spec has no chart block."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), "r",
              encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    return spec.chart() if spec.has_chart else Chart.from_dims(
        spec.system, dict.fromkeys(spec.system.elements, 1))


def iterated_quotient(src):
    """One ``quotient_chart(tangent_lift(...))`` per lift symbol: the
    reference for the one-pass quotient of ``linearize_chart``."""
    quotient = src
    for tag in lift_symbols(src.system):
        quotient = quotient_chart(tangent_lift(quotient, tag))
    return quotient


class TestLinearizeChart:
    def test_system_matches_derived_system(self, rng):
        for _ in range(15):
            ws = random_nonneg_system(rng)
            lc = linearize_chart(random_chart(rng, ws))
            assert lc.chart.system.elements == linearized_system(ws).elements

    def test_degree_two_chart_dimensions(self):
        chart = rank1_chart(2, [3, 2, 4])
        lc = linearize_chart(chart)
        dims = {w.label: n for w, n in lc.chart.dims.items()}
        assert dims == {"0": 3, "a1": 2, "b2_1": 2, "a1+b2_1": 4}

    def test_degree_three_generator_names(self):
        lc = linearize_chart(rank1_chart(3, [1, 1, 1, 1]))
        assert sorted(c.name for c in lc.chart.coordinates) == sorted([
            "x1", "xi{a1}_1", "xi{a1}_1[b2_1]", "xi{2a1}_1[b2_1]",
            "xi{a1}_1[b3_1]", "xi{2a1}_1[b3_1]", "xi{2a1}_1[b2_1,b3_1]",
            "xi{3a1}_1[b2_1,b3_1]"])

    def test_multiplicity_free_source_is_fixed_point(self, rng):
        ws = random_nonneg_system(rng, max_rank=2, max_mult=1)
        chart = random_chart(rng, ws)
        lc = linearize_chart(chart)
        assert lc.chart.coordinates == chart.coordinates
        assert lc.operators == {}

    def test_stepwise_quotient_is_quotient_of_full_lift(self, rng):
        # a lift adds b - a<i>, which raises no basic coefficient, so the
        # negative-weight ideal is stable and may be divided out per step
        here = os.path.dirname(__file__)
        sources = []
        for stem in ("m2", "m3", "b2pos"):
            with open(os.path.join(here, "data", f"{stem}.spec"), "r",
                      encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
            # b2pos has no chart block: one coordinate per weight
            sources.append(spec.chart() if spec.has_chart else Chart.from_dims(
                spec.system, dict.fromkeys(spec.system.elements, 1)))
        sources += [rank1_chart(n, [1] * (n + 1)) for n in range(1, 7)]
        sources += [random_chart(rng, random_nonneg_system(rng, max_rank=3))
                    for _ in range(20)]
        dropped = 0
        for src in sources:
            lc = linearize_chart(src)
            lifted = full_lift(src)
            want = quotient_chart(lifted)
            assert lc.quotient.coordinates == want.coordinates
            assert lc.quotient.system.basis == want.system.basis
            assert lc.quotient.system.elements == want.system.elements
            assert lc.quotient.applied_lifts == want.applied_lifts
            assert lc.quotient == want
            dropped += len(lifted.coordinates) - len(want.coordinates)
        assert dropped > 0

    def test_one_pass_quotient_is_the_iterated_chain(self, rng):
        # the linearize-sweep shape: rank 1-3, multiplicity at most 3 (2 at
        # rank 3), truncation 3-4; and every spec of tests/data
        data = os.path.join(os.path.dirname(__file__), "data")
        sources = [spec_source(name) for name in sorted(os.listdir(data))
                   if name.endswith(".spec")]
        for _ in range(40):
            rank = rng.randint(1, 3)
            ws = random_nonneg_system(rng, max_rank=rank,
                                      max_mult=3 if rank < 3 else 2)
            sources.append(random_chart(rng, ws, trunc=rng.randint(3, 4)))
        lifted_ranks = set()
        for src in sources:
            lc = linearize_chart(src)
            want = iterated_quotient(src)
            got = lc.quotient
            assert got.coordinates == want.coordinates
            assert [c.cid for c in got.coordinates] == \
                [c.cid for c in want.coordinates]
            assert got.system.basis == want.system.basis
            assert got.system.elements == want.system.elements
            assert got.truncation == want.truncation
            assert got.applied_lifts == want.applied_lifts
            derived = linearized_system(src.system)
            restricted = multiplicity_free_restriction(want)
            assert restricted.system.elements == derived.elements
            rebased = Chart(derived, restricted.coordinates,
                            restricted.truncation, restricted.applied_lifts)
            assert lc.chart.system is derived
            assert lc.chart.coordinates == rebased.coordinates
            assert lc.chart.truncation == rebased.truncation
            assert lc.chart.applied_lifts == rebased.applied_lifts
            if lc.lift_sequence:
                lifted_ranks.add(src.system.rank)
        assert lifted_ranks == {1, 2, 3}

    def test_operators_kill_weight_zero_square_and_commute(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng)
            lc = linearize_chart(random_chart(rng, ws))
            ops = lc.operators
            for sym, op in ops.items():
                for c in lc.chart.coordinates:
                    if c.weight.is_zero:
                        assert op.of(c).is_zero
            for sa, sb in itertools.product(ops, repeat=2):
                for c in lc.chart.coordinates:
                    g = lc.chart.gen(c)
                    acom = ops[sa].apply(ops[sb].apply(g)) + \
                        ops[sb].apply(ops[sa].apply(g))
                    assert acom.is_zero


class TestCompositeOperator:
    def test_two_step_alternating_expansion(self):
        chart = rank1_chart(3, [1, 2, 1, 1])
        lc = linearize_chart(chart)
        xi1 = chart.coordinate("xi{a1}_1")
        xi2 = chart.coordinate("xi{a1}_2")
        p = multiply(chart.gen(xi1), chart.gen(xi2))
        out = compose_DLambda(lc, (B2, B3)).apply(p)
        d2 = lambda n: lc.quotient.coordinate(f"xi{{a1}}_{n}[b2_1]")
        d3 = lambda n: lc.quotient.coordinate(f"xi{{a1}}_{n}[b3_1]")
        expect = multiply(lc.quotient.gen(d3(1)), lc.quotient.gen(d2(2))) - \
            multiply(lc.quotient.gen(d2(1)), lc.quotient.gen(d3(2)))
        assert out == expect

    def test_empty_composition_is_quotient_projection(self):
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        comp = compose_DLambda(lc, ())
        p = chart.gen(chart.coordinate("xi{a1}_1"), 7)
        assert comp.apply(p).terms == p.terms

    def test_single_step_agrees_with_direct_lift(self):
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        comp = compose_DLambda(lc, (B2,))
        xi2a = chart.gen(chart.coordinate("xi{2a1}_1"))
        lifted = full_lift(chart)
        direct = de_rham(lifted, B2).apply(xi2a.in_chart(lifted))
        got = comp.apply(xi2a)
        assert got.terms == direct.terms
        assert got.text() == "1 * xi{2a1}_1[b2_1]"

    def test_duplicate_symbols_rejected(self):
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        with pytest.raises(AlgebraError):
            compose_DLambda(lc, (B2, B2))

    def test_permutation_changes_by_sign(self, rng):
        chart = rank1_chart(3, [1, 2, 2, 1])
        lc = linearize_chart(chart)
        a2 = weight({A: 2})
        for m in component_basis(chart, a2, 2):
            p = monomial_poly(chart, m)
            fwd = compose_DLambda(lc, (B2, B3)).apply(p)
            rev = compose_DLambda(lc, (B3, B2)).apply(p)
            assert fwd == -rev


class TestCoordinateTable:
    def test_degree_three_rows(self):
        lc = linearize_chart(rank1_chart(3, [1, 1, 1, 1]))
        table = {(e.delta.label, e.delta_prime.label):
                 (e.generator.name, [s.label for s in e.composition])
                 for e in coordinate_table(lc)}
        assert table[("2a1", "a1+b2_1")] == ("xi{2a1}_1[b2_1]", ["b2_1"])
        assert table[("3a1", "a1+b2_1+b3_1")] == \
            ("xi{3a1}_1[b2_1,b3_1]", ["b3_1", "b2_1"])
        assert table[("a1", "a1")] == ("xi{a1}_1", [])

    def test_identity_rows_reuse_source_names(self, rng):
        ws = random_nonneg_system(rng)
        chart = random_chart(rng, ws)
        lc = linearize_chart(chart)
        for e in coordinate_table(lc):
            if e.delta == e.delta_prime:
                assert e.composition == ()
                assert e.generator.cid.tags == ()

    def test_descending_composition_applies_generator_positively(self):
        lc = linearize_chart(rank1_chart(3, [1, 1, 1, 1]))
        for e in coordinate_table(lc):
            if not e.composition:
                continue
            src = lc.source.coordinate(e.generator.cid.base_name)
            p = lc.source.gen(src)
            comp = compose_DLambda(lc, e.composition)
            assert comp.apply(p).terms == \
                {next(iter(lc.chart.gen(e.generator).terms)): Fraction(1)}


class TestLiftMorphism:
    def test_identity_lifts_to_identity(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        lifted = lift_morphism(identity_morphism(chart), lc, lc)
        ident = identity_morphism(lc.chart)
        for c in lc.chart.coordinates:
            assert lifted.pullback[c] == ident.pullback[c]

    def test_linear_fiber_change_acts_by_same_matrix(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        xi1, xi2 = (chart.coordinate(f"xi{{a1}}_{k}") for k in (1, 2))
        pull = {c: chart.gen(c) for c in chart.coordinates}
        pull[xi1] = chart.gen(xi1, 2) + chart.gen(xi2, 3)
        pull[xi2] = chart.gen(xi1, -1) + chart.gen(xi2, 1)
        psi = ChartMorphism(chart, chart, pull)
        lifted = lift_morphism(psi, lc, lc)
        d1 = lc.chart.coordinate("xi{a1}_1[b2_1]")
        d2 = lc.chart.coordinate("xi{a1}_2[b2_1]")
        assert lifted.pullback[d1] == lc.chart.gen(d1, 2) + lc.chart.gen(d2, 3)
        assert lifted.pullback[d2] == lc.chart.gen(d1, -1) + lc.chart.gen(d2, 1)

    def test_composition_preserved(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            a = random_chart(rng, ws, max_dim=2, base_dim=1)
            b = random_chart(rng, ws, max_dim=2, base_dim=1)
            c = random_chart(rng, ws, max_dim=2, base_dim=1)
            phi = random_morphism(rng, a, b)
            psi = random_morphism(rng, b, c)
            la, lb, lcc = (linearize_chart(x) for x in (a, b, c))
            lhs = lift_morphism(phi.then(psi), la, lcc)
            rhs = lift_morphism(phi, la, lb).then(lift_morphism(psi, lb, lcc))
            for g in lcc.chart.coordinates:
                assert lhs.pullback[g] == rhs.pullback[g]

    def test_commutes_with_operator_families(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            src = random_chart(rng, ws, max_dim=2, base_dim=1)
            tgt = random_chart(rng, ws, max_dim=2, base_dim=1)
            psi = random_morphism(rng, src, tgt)
            ls, lt = linearize_chart(src), linearize_chart(tgt)
            lifted = lift_morphism(psi, ls, lt)
            for sym in ls.operators:
                ds, dt = ls.operators[sym], lt.operators[sym]
                for g in lt.chart.coordinates:
                    assert lifted.apply(dt.of(g)) == ds.apply(lifted.pullback[g])

    def test_non_weight_preserving_rejected(self):
        chart = rank1_chart(2, [1, 1, 1])
        pull = {c: chart.gen(c) for c in chart.coordinates}
        xi = chart.coordinate("xi{a1}_1")
        pull[xi] = chart.gen(chart.coordinate("xi{2a1}_1"))
        with pytest.raises(AlgebraError):
            ChartMorphism(chart, chart, pull)
