import importlib.util
import itertools
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from gradedvb import (
    AlgebraError,
    AnalysisError,
    Chart,
    Derivation,
    KernelHypothesisError,
    Monomial,
    Polynomial,
    TruncationOverflow,
    Weight,
    ZERO,
    additional_symbol,
    basic_symbol,
    check_all_properties,
    check_cocycle,
    check_decomposition,
    check_kernel_preservation,
    component_basis,
    component_map,
    compose_DLambda,
    counterexample_off_kernel,
    de_rham,
    is_nondegenerate,
    kernel_intersection,
    lift_symbols,
    linearize_chart,
    monomial_poly,
    multiply,
    reconstruct_degree2,
    solve_inverse,
    system_from_rows,
    weight,
)
from gradedvb.tangent import tangent_lift
from gradedvb import analysis, linalg
from gradedvb.analysis import _component_matrix, _inverse_matrix, _restricted
from gradedvb.weights import lift_shift
from gradedvb.specfile import parse_spec
from test_analysis_golden import MUTATED, OFF_KERNEL
from conftest import (certificate_reference, cocycle_reference,
                      decomposition_reference, dense, full_lift,
                      headroom_operators, kernel_preservation_reference,
                      leibniz_reference, matrix_reference,
                      nondegenerate_reference, quotient_polynomial,
                      random_chart, random_derivation, random_nonneg_system,
                      rank1_chart, reconstruct_reference, sparse)

A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)
B4 = additional_symbol(4, 1, 1)


def m3_linearized(dims=(1, 1, 1, 1)):
    return linearize_chart(rank1_chart(3, list(dims)))


def admissible_pairs(lc):
    """All (delta, symbols) with multiplicity-free non-negative image weight
    and a unit basic coefficient next to every named step."""
    syms = lc.lift_sequence
    source = lc.source
    caps = {s: max(w.coeff(s) for w in source.system.elements)
            for s in source.system.basic_symbols}
    out = []
    deltas = []
    for combo in itertools.product(*(range(c + 1) for c in caps.values())):
        deltas.append(weight(dict(zip(caps.keys(), combo))))
    for r in range(1, len(syms) + 1):
        for lam in itertools.combinations(syms, r):
            for delta in deltas:
                comp = compose_DLambda(lc, lam)
                img = comp.of_weight(delta)
                if not (img.is_nonnegative and img.is_multiplicity_free):
                    continue
                if any(img.coeff(basic_symbol(s.i, (s.parity + 1) % 2)) != 1
                       for s in lam):
                    continue
                if not component_basis(source, delta):
                    continue
                out.append((delta, lam))
    return out


def spec_linearized(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, "r", encoding="utf-8") as fh:
        return linearize_chart(parse_spec(fh.read()).chart())


class TestLiftOperator:
    @pytest.mark.parametrize("name", ["m2.spec", "m3.spec"])
    def test_de_rham_on_restricted_chart_is_the_induced_operator(self, name):
        lc = spec_linearized(name)
        lifted = full_lift(lc.source)
        for tag in lc.lift_sequence:
            d = de_rham(lc.chart, tag)
            op = lc.operators[tag]
            assert (d.weight_shift, d.parity) == (op.weight_shift, op.parity)
            assert list(d.images) == list(op.images)
            assert d.images == op.images
            # it is the lift's derivation taken modulo the negative ideal
            for c in lc.chart.coordinates:
                assert d.of(c) == quotient_polynomial(
                    lc.quotient, de_rham(lifted, tag).of(c))

    def test_missing_non_negative_partner_rejected(self):
        lc = spec_linearized("m2.spec")
        dropped = lc.chart.coordinate("xi{a1}_1[b2_1]")
        chart = Chart(lc.chart.system,
                      tuple(c for c in lc.chart.coordinates if c != dropped),
                      lc.chart.truncation, lc.chart.applied_lifts)
        with pytest.raises(AlgebraError, match="missing partner coordinate"):
            de_rham(chart, B2)


EXACT = "component matrix lost over-degree terms; raise the truncation degree"


class TestOverflowPolicy:
    """Each caller's answer to a matrix built from images that lost terms."""

    def degree_raising(self):
        # D(xi) = x1 * xi raises the degree, so D(x1 * xi) = x1^2 * xi
        # leaves a truncation-2 chart
        chart = rank1_chart(1, [1, 1], trunc=2)
        x1, xi = chart.coordinate("x1"), chart.coordinate("xi{a1}_1")
        op = Derivation(chart, ZERO, 0,
                        {xi: multiply(chart.gen(x1), chart.gen(xi))})
        return chart, op

    def test_component_map_carries_the_flag(self):
        _, op = self.degree_raising()
        assert component_map(op, weight({A: 1})).truncated
        assert not component_map(op, ZERO).truncated

    def test_kernel_intersection_raises(self):
        chart, op = self.degree_raising()
        with pytest.raises(TruncationOverflow) as err:
            kernel_intersection(chart, [op], weight({A: 1}))
        assert str(err.value) == EXACT

    def test_is_nondegenerate_raises(self):
        chart, op = self.degree_raising()
        with pytest.raises(TruncationOverflow) as err:
            is_nondegenerate(chart, {A: op}, A, weight({A: 1}))
        assert str(err.value) == EXACT

    def test_property_certificate_raises(self):
        # one m3 operator gains a degree-4 image term on a truncation-3
        # chart; the certificate refuses instead of reporting on it
        lc = spec_linearized("m3.spec")
        x1 = lc.chart.coordinate("x1")
        xi = lc.chart.coordinate("xi{a1}_1")
        dxi = lc.chart.coordinate("xi{a1}_1[b3_1]")
        ops = dict(lc.operators)
        images = dict(ops[B3].images)
        images[xi] = images[xi] + Polynomial(
            lc.chart, {Monomial(((x1, 3), (dxi, 1))): Fraction(1)})
        ops[B3] = Derivation(lc.chart, ops[B3].weight_shift, 1, images)
        with pytest.raises(TruncationOverflow) as err:
            check_all_properties(lc.chart, ops)
        assert str(err.value) == EXACT

    def test_capped_slice_flags_a_lower_cap(self):
        # D(xi) = x1 * xi has degree 2: it fits the full component but not
        # the degree-1 part, whose only column is flagged
        chart, op = self.degree_raising()
        full = component_map(op, weight({A: 1}))
        assert [m.text() for m in full.domain_basis] == ["x1 * xi{a1}_1",
                                                         "xi{a1}_1"]
        assert full.overflow == [True, False]
        capped = full.capped(1)
        assert [m.text() for m in capped.domain_basis] == ["xi{a1}_1"]
        assert capped.overflow == [True]
        assert_same_matrix(capped, direct_build(op, weight({A: 1}), 1))

    def test_is_nondegenerate_raises_on_a_lower_cap_only(self):
        # D(eta) = eta + xi^2 on a chart with no weight-0 coordinate: the
        # full 2a component map is exact and bijective, but the degree-1
        # part sees xi^2 outside its codomain
        a = basic_symbol(1, 0)
        chart = rank1_chart(2, [0, 1, 1], parity=0)
        xi, eta = chart.coordinates
        op = Derivation(chart, ZERO, 0, {
            xi: chart.gen(xi),
            eta: chart.gen(eta) + multiply(chart.gen(xi), chart.gen(xi))})
        full = component_map(op, weight({a: 2}))
        assert full.overflow == [False, False] and full.is_bijective()
        assert_same_matrix(full.capped(1), direct_build(op, weight({a: 2}), 1))
        with pytest.raises(TruncationOverflow) as err:
            is_nondegenerate(chart, {a: op}, a, weight({a: 2}))
        assert str(err.value) == EXACT

    @pytest.mark.parametrize("coordinate", ["x1", "xi{a1}_1"])
    def test_property_zero_only_by_dropped_terms_raises(self, coordinate,
                                                        monkeypatch):
        # D[b3] gains x1^3 * dxi, a term the truncation-3 chart drops: on
        # x1 the image (property 1), on xi the anticommutators (property 2)
        # are zero only because that term was dropped
        lc = spec_linearized("m3.spec")
        chart = lc.chart
        x1 = chart.coordinate("x1")
        dxi = chart.coordinate("xi{a1}_1[b3_1]")
        dropped = multiply(monomial_poly(chart, Monomial(((x1, 3),))),
                           chart.gen(dxi))
        assert dropped.is_zero and dropped.truncated
        ops = dict(lc.operators)
        c = chart.coordinate(coordinate)
        images = dict(ops[B3].images)
        images[c] = ops[B3].of(c) + dropped
        ops[B3] = Derivation(chart, ops[B3].weight_shift, 1, images)

        def not_reached(*args):
            raise AssertionError("properties 1 and 2 passed")

        monkeypatch.setattr(analysis, "is_nondegenerate", not_reached)
        with pytest.raises(TruncationOverflow) as err:
            check_all_properties(chart, ops)
        assert str(err.value) == EXACT

    def test_inverse_solve_right_hand_side_over_degree(self):
        # a degree-4 right-hand side on a truncation-3 chart: the kernel
        # test sees only dropped terms, the expansion then overflows
        lc = spec_linearized("m2.spec")
        x1 = lc.chart.coordinate("x1")
        eta = lc.chart.coordinate("xi{2a1}_1[b2_1]")
        f = Polynomial(lc.chart, {Monomial(((x1, 3), (eta, 1))): Fraction(1)})
        with pytest.raises(TruncationOverflow) as err:
            solve_inverse(lc, (B2,), f)
        assert str(err.value) == "inverse solve hit the truncation"

    def test_reconstruction_image_escapes_headroom(self):
        # D(xi) = dxi + x1^3 * dxi: the side map is bijective on fibers,
        # but D(x1 * xi * dxi) has degree 6, beyond the headroom of 5
        lc = spec_linearized("m2.spec")
        dvb = lc.chart
        x1 = dvb.coordinate("x1")
        xi = dvb.coordinate("xi{a1}_1")
        dxi = dvb.coordinate("xi{a1}_1[b2_1]")
        image = Polynomial(dvb, {Monomial(((dxi, 1),)): Fraction(1),
                                 Monomial(((x1, 3), (dxi, 1))): Fraction(1)})
        op = Derivation(dvb, weight({B2: 1, A: -1}), 1, {xi: image})
        with pytest.raises(TruncationOverflow) as err:
            reconstruct_degree2(dvb, op)
        assert str(err.value) == ("operator image escaped even the headroom "
                                  "truncation")


def reference_matrix(op, dom, cod, fiber_only=False):
    """The reference matrix of ``op``: :func:`matrix_reference` over
    :func:`leibniz_reference`, which shares no code with ``leibniz``."""
    return matrix_reference(lambda p: leibniz_reference(op, p), op.chart,
                            dom, cod, fiber_only)


def direct_build(op, w, d):
    """The component matrix of ``op`` built on the degree-``d`` bases."""
    return reference_matrix(op, component_basis(op.chart, w, d),
                            component_basis(op.chart, w + op.weight_shift, d))


def assert_same_matrix(got, want):
    assert got.domain_basis == want.domain_basis
    assert got.codomain_basis == want.codomain_basis
    assert got.entries == want.entries
    assert got.overflow == want.overflow


class TestCappedMatrix:
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 2, 1, 1)])
    def test_capped_equals_direct_build(self, dims):
        lc = m3_linearized(dims)
        pairs = [(op, lc.chart) for op in lc.operators.values()]
        lifted = full_lift(lc.source)
        pairs += [(de_rham(lifted, tag), lc.quotient)
                  for tag in lc.lift_sequence]
        sliced = 0
        for op, chart in pairs:
            for w in chart.system.sorted_elements():
                full = component_map(op, w)
                for d in range(1, chart.truncation + 1):
                    assert_same_matrix(full.capped(d), direct_build(op, w, d))
                    sliced += full.capped(d).dom_dim < full.dom_dim
        assert sliced > 0


class TestLeibnizColumns:
    """``_component_matrix`` over ``Derivation.leibniz`` against
    :func:`reference_matrix`: the same entries, row by row and in the same
    order, and the same overflow flags.  With ``fiber_only`` the columns
    are those of the derivation that ``op`` induces on its chart's fibers,
    and the reference's images are projected onto their fiber terms."""

    def assert_matches(self, op, dom, cod, fiber_only=False):
        made = _restricted(op, op.chart.fibers) if fiber_only else op
        got = _component_matrix(dom, cod, map(made.leibniz, dom))
        want = reference_matrix(op, dom, cod, fiber_only)
        assert [list(r.items()) for r in got.entries] == \
            [list(r.items()) for r in want.entries]
        assert got.overflow == want.overflow
        assert all(type(x) is Fraction for r in got.entries
                   for x in r.values())
        return set(got.overflow)

    def assert_components(self, op):
        """Every system weight of the operator's chart; the set of column
        flags seen."""
        flags = set()
        for w in op.chart.system.sorted_elements():
            flags |= self.assert_matches(
                op, component_basis(op.chart, w),
                component_basis(op.chart, w + op.weight_shift))
        return flags

    def test_family_charts_and_mutations(self, rng):
        charts = 0
        while charts < 5:
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            if not lift_symbols(ws):
                continue
            charts += 1
            lc = linearize_chart(random_chart(rng, ws, max_dim=2))
            for ops in (lc.operators, lc.quotient_derivations):
                for op in ops.values():
                    self.assert_components(op)
                    used = [c for c, img in op.images.items() if img.terms]
                    if used:
                        self.assert_components(
                            op.with_zeroed(rng.choice(used)))

    def test_full_lifts_with_negative_weights(self):
        for src in (rank1_chart(2, [1, 1, 1]), rank1_chart(3, [1, 1, 1, 1], 0)):
            lifted = full_lift(src)
            assert not all(c.weight.is_nonnegative for c in lifted.coordinates)
            for tag in lift_symbols(src.system):
                self.assert_components(de_rham(lifted, tag))

    def test_random_multi_term_and_flagged_images(self, rng):
        for dims in ([1, 1, 1], [1, 2, 1]):
            lc = linearize_chart(rank1_chart(2, dims))
            shifts = [(op.weight_shift, 1) for op in lc.operators.values()]
            for shift, parity in shifts + [(ZERO, 0)]:
                for flagged in (0.0, 0.3):
                    op = random_derivation(rng, lc.chart, shift, parity,
                                           flagged)
                    assert self.assert_components(op) == {False, True}

    @pytest.mark.parametrize("fiber_only", [True, False])
    def test_headroom_operator(self, fiber_only):
        # the side and top matrices of reconstruct_degree2, on the chart
        # with headroom and on the chart itself, and the top matrix into
        # the degree-1 part of its codomain, where fiber columns overflow;
        # with fiber_only, the top matrix on the fibers of each chart
        op, op_big = headroom_operators()
        wa, wc = weight({A: 1}), weight({A: 2, B2: 1})
        flags = set()
        for d in (op, op_big):
            chart = d.chart.fibers if fiber_only else d.chart
            flags |= self.assert_matches(
                d, component_basis(op.chart.fibers, wa),
                component_basis(op.chart.fibers, wa + d.weight_shift),
                fiber_only)
            for cap in (1, d.chart.truncation):
                flags |= self.assert_matches(
                    d, component_basis(chart, wc, op.chart.truncation),
                    component_basis(chart, wc + d.weight_shift, cap),
                    fiber_only)
        assert flags == {False, True}


class TestComponentMap:
    def test_zero_operator_zero_matrix(self):
        lc = m3_linearized()
        zero_op = Derivation(lc.chart, weight({B2: 1, A: -1}), 1, {})
        cm = component_map(zero_op, weight({A: 1}))
        assert cm.dom_dim and len(cm.entries) == cm.cod_dim
        assert all(v == 0 for row in dense(cm.entries, cm.dom_dim) for v in row)

    def test_degree_two_side_map_is_bijective(self):
        lc = linearize_chart(rank1_chart(2, [1, 2, 1]))
        cm = component_map(lc.operators[B2], weight({A: 1}))
        assert cm.is_bijective()

    def test_entries_match_per_monomial_expansion(self):
        chart = rank1_chart(2, [1, 2, 1])
        lifted = tangent_lift(chart, B2)
        d = de_rham(lifted, B2)
        w = weight({A: 1})
        cm = component_map(d, w)
        entries = dense(cm.entries, cm.dom_dim)
        cod_index = {m: k for k, m in enumerate(cm.codomain_basis)}
        for col, m in enumerate(cm.domain_basis):
            img = d.apply(monomial_poly(lifted, m))
            vec = [Fraction(0)] * len(cm.codomain_basis)
            for mm, c in img.terms.items():
                vec[cod_index[mm]] = c
            assert [entries[r][col] for r in range(len(vec))] == vec


class TestNondegeneracy:
    def test_degree_three_all_applicable_pairs(self):
        lc = m3_linearized((1, 2, 1, 1))
        for sym, op in lc.operators.items():
            for delta in lc.chart.system.sorted_elements():
                if delta + op.weight_shift in lc.chart.system.elements:
                    assert is_nondegenerate(lc.chart, lc.operators, sym, delta)

    def test_zero_dimensional_component_vacuous(self):
        lc = linearize_chart(rank1_chart(2, [1, 0, 1]))
        assert is_nondegenerate(lc.chart, lc.operators, B2, weight({A: 1}))

    def test_corrupted_operator_detected(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        broken = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{a1}_1"))
        assert not is_nondegenerate(lc.chart, {B2: broken}, B2,
                                    weight({A: 1}))

    def test_image_weight_outside_system_rejected(self):
        lc = m3_linearized()
        with pytest.raises(AnalysisError):
            is_nondegenerate(lc.chart, lc.operators, B2, weight({B3: 1}))


class TestDecomposition:
    def test_degree_three_mixed_component(self):
        lc = m3_linearized()
        dp = weight({A: 1, B3: 1})
        res = check_decomposition(lc.chart, lc.operators, dp)
        assert res.passes
        prod_names = {m.text() for m in res.product_basis}
        assert "xi{a1}_1 * xi{a1}_1[b3_1]" in prod_names
        kernel_texts = {p.text() for p in res.kernel_polys}
        assert any("xi{2a1}_1[b3_1]" in t for t in kernel_texts)
        d3 = lc.operators[B3]
        for p in res.kernel_polys:
            assert d3.apply(p).is_zero

    def test_unit_weight_is_all_kernel_part(self):
        lc = m3_linearized()
        res = check_decomposition(lc.chart, lc.operators, weight({A: 1}))
        assert res.passes
        assert res.product_dim == 0
        assert res.kernel_dim == res.component_dim

    def test_randomized_spanning(self, rng):
        for _ in range(8):
            ws = random_nonneg_system(rng)
            lc = linearize_chart(random_chart(rng, ws, max_dim=2))
            for dp in lc.chart.system.sorted_elements():
                if dp.is_zero:
                    continue
                assert check_decomposition(lc.chart, lc.operators, dp).passes


class TestSolveInverse:
    def test_generator_case(self):
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        f = lc.chart.gen(lc.chart.coordinate("xi{2a1}_1[b2_1]"))
        F = solve_inverse(lc, (B2,), f)
        assert F.text() == "1 * xi{2a1}_1"

    def test_alternating_two_step_case(self):
        chart = rank1_chart(3, [1, 2, 1, 1])
        lc = linearize_chart(chart)
        xi1, xi2 = (chart.coordinate(f"xi{{a1}}_{k}") for k in (1, 2))
        p = multiply(chart.gen(xi1), chart.gen(xi2))
        f = compose_DLambda(lc, (B2, B3)).apply(p)
        F = solve_inverse(lc, (B2, B3), f)
        assert F == p

    def test_round_trip_randomized(self, rng):
        for _ in range(6):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
            lc = linearize_chart(random_chart(rng, ws, max_dim=2))
            for delta, lam in admissible_pairs(lc):
                comp = compose_DLambda(lc, lam)
                basis = component_basis(lc.source, delta)
                p = lc.source.zero()
                for m in basis:
                    p = p + monomial_poly(lc.source, m, rng.randint(-2, 2))
                f = comp.apply(p)
                if f.is_zero:
                    assert p.is_zero  # injectivity
                    continue
                F = solve_inverse(lc, lam, f)
                assert F == p

    def test_off_kernel_rejected(self):
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        f = lc.chart.gen(lc.chart.coordinate("xi{a1}_1[b2_1]"))
        bad = multiply(f, lc.chart.gen(lc.chart.coordinate("xi{a1}_1")))
        # weight a1+b2_1 but not killed by the operator
        with pytest.raises(KernelHypothesisError):
            solve_inverse(lc, (B2,), bad)

    def test_image_gap_reported(self):
        chart = rank1_chart(3, [1, 2, 1, 1])
        lc = linearize_chart(chart)
        d2 = lc.chart.gen(lc.chart.coordinate("xi{a1}_1[b2_1]"))
        d3 = lc.chart.gen(lc.chart.coordinate("xi{a1}_2[b3_1]"))
        f = multiply(d2, d3)
        with pytest.raises(KernelHypothesisError):
            solve_inverse(lc, (B2, B3), f)


def random_polynomial(rng, chart, basis=None):
    """A seeded random polynomial: integer combinations of ``basis``, or
    else six random products of at most ``chart.truncation`` generators,
    negative-weight coordinates included."""
    p = chart.zero()
    if basis is not None:
        for m in basis:
            p = p + monomial_poly(chart, m, rng.randint(-2, 2))
        return p
    for _ in range(6):
        term = chart.gen(rng.choice(chart.coordinates), rng.choice([1, 2, -1, 3]))
        for _ in range(rng.randint(0, chart.truncation - 1)):
            term = multiply(term, chart.gen(rng.choice(chart.coordinates)))
        p = p + term
    return p


def lifted_composite(lc, lifted, symbols, p):
    """The composite computed on the full lift ``lifted`` of
    ``lc.source``: the lift derivations applied right to left, then the
    quotient."""
    q = p.in_chart(lifted)
    for s in reversed(symbols):
        q = de_rham(lifted, s).apply(q)
    return quotient_polynomial(lc.quotient, q)


def lifted_solve_inverse(lc, lifted, symbols, f):
    """The inverse solve computed on the full lift: every step applies a
    lift derivation to a representative in ``lifted`` and takes the
    quotient, and every block is built from those steps."""
    def step(sym, p):
        return lifted_composite(lc, lifted, (sym,), p)

    g = f.in_chart(lc.quotient)
    for s in symbols:
        if not step(s, g).is_zero:
            raise KernelHypothesisError(f"not killed by {s.label}")
    wk = f.homogeneous_weight()
    rest = list(symbols)
    while rest:
        s = rest.pop(0)
        wh = wk - lift_shift(s)
        dom = component_basis(lc.quotient, wh)
        stacked, rhs = [], []
        for sym, want in [(s, g)] + [(t, lc.quotient.zero()) for t in rest]:
            cod = component_basis(lc.quotient, wh + lift_shift(sym))
            block = matrix_reference(lambda p, sym=sym: step(sym, p),
                                     lc.quotient, dom, cod)
            assert not block.truncated
            assert set(want.terms) <= set(cod)
            stacked.extend(block.entries)
            rhs.extend(want.terms.get(m, Fraction(0)) for m in cod)
        sol = linalg.solve(stacked, sparse([rhs])[0], len(dom))
        if sol is None:
            raise KernelHypothesisError(f"no preimage at {wh.label}")
        g = Polynomial(lc.quotient, dict(zip(dom, dense([sol], len(dom))[0])))
        wk = wh
    return g.in_chart(lc.source)


def solve_outcome(solve, *args):
    try:
        return solve(*args)
    except KernelHypothesisError:
        return "rejected"


class TestQuotientDerivations:
    """The lift derivations preserve the negative-weight ideal, so applying
    them on the quotient chart gives what the lift gives after the
    quotient."""

    def charts(self, rng):
        return [spec_linearized("m2.spec"), spec_linearized("m3.spec"),
                m3_linearized((1, 2, 1, 1))] + [
            linearize_chart(random_chart(rng, random_nonneg_system(rng),
                                         max_dim=2)) for _ in range(6)]

    def test_quotient_commutes_with_every_lift_derivation(self, rng):
        negative = 0
        for lc in self.charts(rng):
            assert set(lc.quotient_derivations) == set(lc.lift_sequence)
            lifted = full_lift(lc.source)
            for tag in lc.lift_sequence:
                d_lift = de_rham(lifted, tag)
                d_quot = lc.quotient_derivations[tag]
                assert d_quot.chart is lc.quotient
                for _ in range(8):
                    p = random_polynomial(rng, lifted)
                    want = quotient_polynomial(lc.quotient, d_lift.apply(p))
                    got = d_quot.apply(quotient_polynomial(lc.quotient, p))
                    assert got == want
                    assert got.truncated == want.truncated
                    negative += any(not c.weight.is_nonnegative
                                    for m in p.terms for c, _ in m.factors)
        assert negative > 50

    def test_built_on_first_read_as_the_eager_build(self, rng):
        for lc in self.charts(rng):
            assert "quotient_derivations" not in vars(lc)
            ds = lc.quotient_derivations
            assert vars(lc)["quotient_derivations"] is ds
            assert lc.quotient_derivations is ds
            eager = {tag: de_rham(lc.quotient, tag)
                     for tag in lc.quotient.applied_lifts}
            assert list(ds) == list(eager)
            for tag, d in eager.items():
                got = ds[tag]
                assert got.chart is lc.quotient
                assert (got.weight_shift, got.parity) == \
                    (d.weight_shift, d.parity)
                assert list(got.images) == list(d.images)
                for c, img in d.images.items():
                    assert got.images[c] == img
                    assert got.images[c].truncated == img.truncated

    def test_operators_built_on_first_read_and_not_by_a_solve(self, rng):
        solved = 0
        for lc in self.charts(rng):
            for delta, lam in admissible_pairs(lc):
                p = random_polynomial(rng, lc.source,
                                      component_basis(lc.source, delta))
                f = compose_DLambda(lc, lam).apply(p)
                if not f.is_zero:
                    assert solve_inverse(lc, lam, f) == p
                    solved += 1
            assert "operators" not in vars(lc)
            ops = lc.operators
            assert vars(lc)["operators"] is ops
            assert lc.operators is ops
            assert list(ops) == list(lc.lift_sequence)
            for tag in lc.lift_sequence:
                d = de_rham(lc.chart, tag)
                got = ops[tag]
                assert got.chart is lc.chart
                assert (got.weight_shift, got.parity) == \
                    (d.weight_shift, d.parity)
                assert list(got.images) == list(d.images)
                for c, img in d.images.items():
                    assert got.images[c] == img
                    assert got.images[c].truncated == img.truncated
        assert solved > 10

    def test_composite_and_solve_match_the_lifted_path(self, rng):
        solved = rejected = 0
        for lc in self.charts(rng):
            lifted = full_lift(lc.source)
            for delta, lam in admissible_pairs(lc):
                comp = compose_DLambda(lc, lam)
                p = random_polynomial(rng, lc.source,
                                      component_basis(lc.source, delta))
                f = comp.apply(p)
                assert f == lifted_composite(lc, lifted, lam, p)
                if not f.is_zero:
                    assert solve_inverse(lc, lam, f) == p
                    assert lifted_solve_inverse(lc, lifted, lam, f) == p
                    solved += 1
                # joint kernel vectors, and random elements mostly off it
                w = comp.of_weight(delta)
                basis, kvecs = kernel_intersection(
                    lc.chart, [lc.operators[s] for s in lam], w)
                rhs = [Polynomial(lc.quotient,
                                  dict(zip(basis, dense([v], len(basis))[0])))
                       for v in kvecs[:2]]
                rhs.append(random_polynomial(
                    rng, lc.quotient, component_basis(lc.quotient, w)))
                for g in rhs:
                    if g.is_zero:
                        continue
                    got = solve_outcome(solve_inverse, lc, lam, g)
                    assert got == solve_outcome(lifted_solve_inverse, lc,
                                                lifted, lam, g)
                    if got == "rejected":
                        rejected += 1
                    else:
                        assert comp.apply(got) == g
                        solved += 1
        assert solved > 40 and rejected > 10


def m4_linearized(dims=(1, 2, 1, 1, 1)):
    return linearize_chart(rank1_chart(4, list(dims)))


class TestCocycle:
    def test_identity_on_kernel_all_triples(self):
        lc = m4_linearized()
        for (j, j1, j2) in itertools.permutations((2, 3, 4), 3):
            steps = tuple(additional_symbol(k, 1, 1) for k in (j, j1, j2))
            delta = weight({A: 1, steps[0]: 1})
            res = check_cocycle(lc.chart, lc.operators, steps, delta)
            assert res.passes

    def test_off_kernel_witness_sides_differ(self):
        lc = m4_linearized()
        wit = counterexample_off_kernel(lc.chart, lc.operators, (B2, B3, B4))
        assert wit.sides_differ
        assert not wit.lhs.is_zero and not wit.rhs_composite.is_zero

    def test_one_dimensional_fibers_forced_equal(self):
        lc = m4_linearized((1, 1, 1, 1, 1))
        # with a single side generator the witness cannot be formed
        with pytest.raises(AnalysisError):
            counterexample_off_kernel(lc.chart, lc.operators, (B2, B3, B4))
        for (j, j1, j2) in itertools.permutations((2, 3, 4), 3):
            steps = tuple(additional_symbol(k, 1, 1) for k in (j, j1, j2))
            res = check_cocycle(lc.chart, lc.operators, steps,
                                weight({A: 1, steps[0]: 1}))
            assert res.passes

    def test_weight_hypotheses_enforced(self):
        lc = m4_linearized()
        with pytest.raises(AnalysisError):
            check_cocycle(lc.chart, lc.operators, (B2, B3, B4), weight({A: 1}))
        with pytest.raises(AnalysisError):
            check_cocycle(lc.chart, lc.operators, (B2, B2, B4),
                          weight({A: 1, B2: 1}))


class TestKernelPreservation:
    def test_degree_three_swap(self):
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        res = check_kernel_preservation(lc.chart, lc.operators, (B2, B3),
                                        delta)
        assert res.passes
        assert res.delta_prime == weight({A: 1, B2: 1})

    def test_zero_kernel_vacuous(self):
        lc = linearize_chart(rank1_chart(3, [1, 1, 0, 1]))
        delta = weight({A: 1, B3: 1})
        res = check_kernel_preservation(lc.chart, lc.operators, (B2, B3),
                                        delta)
        assert res.passes

    def test_corrupted_family_detected(self):
        # corrupt the forward operator; the inverted one stays bijective so
        # the stated hypotheses still hold and the mismatch is observable
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        broken = dict(lc.operators)
        broken[B2] = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{2a1}_1[b3_1]"))
        res = check_kernel_preservation(lc.chart, broken, (B2, B3), delta)
        assert not res.passes
        assert res.witness is not None

    def test_inverse_computed_once(self, monkeypatch):
        lc = m3_linearized((1, 2, 1, 1))
        op, w = lc.operators[B3], weight({A: 1, B2: 1})
        calls = []
        real = linalg.inv

        def counting(a, n):
            calls.append(a)
            return real(a, n)

        monkeypatch.setattr(linalg, "inv", counting)
        first = _inverse_matrix(op, w)
        assert _inverse_matrix(op, w) is first
        assert len(calls) == 1
        n = component_map(op, w).dom_dim
        assert first == real(component_map(op, w).entries, n)
        assert component_map(op, w).inverse is first
        assert dense(linalg.matmul(first, component_map(op, w).entries), n) == \
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def test_inverse_errors_raise_on_every_call(self):
        lc = m3_linearized((1, 2, 1, 1))
        broken = lc.operators[B3].with_zeroed(
            lc.chart.coordinate("xi{2a1}_1[b2_1]"))
        _, flagged = TestOverflowPolicy().degree_raising()
        for _ in range(2):
            with pytest.raises(TruncationOverflow) as err:
                _inverse_matrix(flagged, weight({A: 1}))
            assert str(err.value) == EXACT
            with pytest.raises(AnalysisError, match=r"out of 0: component "
                               r"dimensions differ$"):
                _inverse_matrix(lc.operators[B2], ZERO)
            with pytest.raises(AnalysisError,
                               match=r"^operator not invertible out of "
                                     r"a1\+b2_1$"):
                _inverse_matrix(broken, weight({A: 1, B2: 1}))

    def test_inverted_operator_must_be_bijective(self):
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        broken = dict(lc.operators)
        broken[B3] = lc.operators[B3].with_zeroed(
            lc.chart.coordinate("xi{2a1}_1[b2_1]"))
        with pytest.raises(AnalysisError):
            check_kernel_preservation(lc.chart, broken, (B2, B3), delta)


class TestCallingForm:
    """Every check takes ``(chart, ops, ...)``; what it needs of ``ops`` and
    where it applies are decided once, for the check and the certificate
    alike."""

    # each check asks for b3_1, which the family below lacks
    CHECKS = {
        "is_nondegenerate": lambda c, ops: is_nondegenerate(
            c, ops, B3, weight({A: 1})),
        "check_decomposition": lambda c, ops: check_decomposition(
            c, ops, weight({A: 1, B3: 1})),
        "check_cocycle": lambda c, ops: check_cocycle(
            c, ops, (B2, B3, B4), weight({A: 1, B2: 1})),
        "counterexample_off_kernel": lambda c, ops: counterexample_off_kernel(
            c, ops, (B2, B3, B4)),
        "check_kernel_preservation": lambda c, ops: check_kernel_preservation(
            c, ops, (B2, B3), weight({A: 1, B3: 1})),
    }

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_missing_step_is_named(self, name):
        lc = m4_linearized()
        with pytest.raises(AnalysisError,
                           match=r"^operator family misses b3_1$"):
            self.CHECKS[name](lc.chart, {B2: lc.operators[B2]})

    @pytest.mark.parametrize("n,dims", [(3, [1, 2, 1, 1]),
                                        (4, [1, 2, 1, 1, 1])])
    def test_check_raises_exactly_where_the_certificate_skips(self, n, dims):
        lc = linearize_chart(rank1_chart(n, dims))
        chart, ops = lc.chart, lc.operators
        report = check_all_properties(chart, ops)
        steps = sorted(chart.system.additional_symbols,
                       key=lambda s: s.sort_key)
        elements = chart.system.sorted_elements()

        def runs(check, *args):
            try:
                check(chart, ops, *args)
            except AnalysisError:
                return False
            return True

        ran = {3: {}, 5: {}, 6: {}}  # label -> whether the check ran
        for delta in elements:
            for s in steps:
                ran[3][f"D[{s.label}] bijective out of ({delta.label})"] = \
                    runs(is_nondegenerate, s, delta)
            for b_j, b_j1, b_j2 in itertools.permutations(steps, 3):
                ran[5][f"cocycle (i=1, j={b_j.j}, j1={b_j1.j}, j2={b_j2.j}) "
                       f"at ({delta.label})"] = \
                    runs(check_cocycle, (b_j, b_j1, b_j2), delta)
            for b_j, b_j0 in itertools.permutations(steps, 2):
                dp = delta - weight({b_j0: 1}) + weight({b_j: 1})
                ran[6][f"kernels (i=1, j={b_j.j}, j0={b_j0.j}) "
                       f"({delta.label}) -> ({dp.label})"] = \
                    runs(check_kernel_preservation, (b_j, b_j0), delta)
        for k in (3, 5, 6):
            labels = [c.label for c in report.checks[k]]
            assert len(labels) == len(set(labels))
            assert set(labels) == {t for t, ok in ran[k].items() if ok}
            # m3 has no step triples; elsewhere the check both runs and skips
            assert set(ran[k].values()) == ({True, False} if ran[k] else set())
        assert_plan_lists(chart, ops, [(k, c.label) for k in sorted(
            report.checks) for c in report.checks[k]])


def assert_plan_lists(chart, ops, lines):
    """The plan lists the report's checks in its order, property by
    property: each report label ``lines[i] = (property, label)`` is the
    plan's label, followed by `` = 0`` in properties 1 and 2 and by the
    overlap dimension in property 4.  The decomposition runs at every
    nonzero element."""
    plan = analysis.certificate_plan(chart, ops)
    assert [k for k, *_ in plan] == sorted(k for k, *_ in plan)
    assert [k for k, *_ in plan] == [k for k, _ in lines]
    for (k, label, _, _), (_, line) in zip(plan, lines):
        if k == 4:
            assert line.startswith(f"{label} [overlap dim ")
        else:
            assert line == (f"{label} = 0" if k < 3 else label)
    assert [args for p, _, _, args in plan if p == 4] == \
        [(delta,) for delta in chart.system.sorted_elements()
         if not delta.is_zero]


def spec_chart(path):
    """The chart of a spec file's chart block, else one generator at every
    element of its system."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    if spec.has_chart:
        return spec.chart()
    return Chart.from_dims(spec.system, dict.fromkeys(spec.system.elements, 1),
                           3)


def certificate_lines(certify, chart, ops):
    """Every ``(property, label, passed, witness)`` of the report, in
    order, or the type and message of the error it raised."""
    try:
        report = certify(chart, ops)
    except (AlgebraError, AnalysisError) as exc:
        return type(exc), str(exc)
    return [(k, c.label, c.passed, c.witness)
            for k in sorted(report.checks) for c in report.checks[k]]


DATA = os.path.join(os.path.dirname(__file__), "data")
PLAN_CHARTS = {
    **{name: lambda name=name: spec_chart(os.path.join(DATA, name))
       for name in sorted(os.listdir(DATA)) if name.endswith(".spec")},
    **{f"rank1_chart({n}, {dims})": lambda n=n, dims=dims: rank1_chart(n, dims)
       for n, dims in MUTATED + [(4, dims) for dims in OFF_KERNEL]},
}


class TestCertificatePlan:
    """``check_all_properties`` runs all six properties from
    ``certificate_plan``; its reports equal those of the loops it
    replaced, kept in ``conftest.certificate_reference``."""

    @pytest.mark.parametrize("name", sorted(PLAN_CHARTS))
    def test_report_equals_the_reference(self, name):
        """The chart's family and each family with one generator image
        zeroed."""
        lc = linearize_chart(PLAN_CHARTS[name]())
        families = [lc.operators]
        for sym in sorted(lc.operators, key=lambda s: s.sort_key):
            for c in lc.operators[sym].images:
                families.append({**lc.operators,
                                 sym: lc.operators[sym].with_zeroed(c)})
        reports = 0
        for ops in families:
            lines = certificate_lines(check_all_properties, lc.chart, ops)
            assert lines == certificate_lines(certificate_reference,
                                              lc.chart, ops)
            if isinstance(lines, list):
                assert_plan_lists(lc.chart, ops, [x[:2] for x in lines])
                reports += 1
        assert reports

    @pytest.mark.parametrize("n,dims", MUTATED)
    def test_step_scaling_family_equals_the_reference(self, n, dims):
        """Each step's operator is the even weight-0 derivation fixing the
        generators whose weight holds the step.  It fails properties 2, 3
        and 4; no zeroed family fails property 4."""
        chart = linearize_chart(rank1_chart(n, dims)).chart
        ops = {s: Derivation(chart, ZERO, 0, {
            c: chart.gen(c) for c in chart.coordinates if c.weight.coeff(s)})
            for s in chart.system.additional_symbols}
        lines = certificate_lines(check_all_properties, chart, ops)
        assert {k for k, _, passed, _ in lines if not passed} >= {2, 3, 4}
        assert lines == certificate_lines(certificate_reference, chart, ops)

    def test_dead_operator_equals_the_reference(self):
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        dead = {B2: Derivation(lc.chart, weight({B2: 1, A: -1}), 1, {})}
        lines = certificate_lines(check_all_properties, lc.chart, dead)
        assert any(not passed for _, _, passed, _ in lines)
        assert lines == certificate_lines(certificate_reference, lc.chart,
                                          dead)


def load_frontier():
    """``scripts/frontier.py`` as a module, for its chart lists."""
    path = os.path.join(os.path.dirname(DATA), "..", "scripts", "frontier.py")
    spec = importlib.util.spec_from_file_location("frontier", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK_REFERENCES = {
    "is_nondegenerate": nondegenerate_reference,
    "check_decomposition": decomposition_reference,
    "check_cocycle": cocycle_reference,
    "check_kernel_preservation": kernel_preservation_reference,
}
RESULT_FIELDS = ("delta", "delta_prime", "passes", "component_dim",
                 "product_dim", "kernel_dim", "intersection_dim",
                 "source_dim", "target_dim")


def outcome(check, chart, ops, args):
    """What a check returns, or the error it raises."""
    try:
        return check(chart, ops, *args)
    except (AlgebraError, AnalysisError) as exc:
        return exc


def result_fields(res):
    """Every field of a check's result, the lists and the witness as
    text, or the type and message of its error."""
    if isinstance(res, Exception):
        return type(res), str(res)
    if isinstance(res, bool):
        return res
    out = {name: getattr(res, name) for name in RESULT_FIELDS
           if hasattr(res, name)}
    out["witness"] = res.witness.text() if res.witness else None
    if hasattr(res, "product_basis"):
        out["product_basis"] = [m.text() for m in res.product_basis]
        out["kernel_polys"] = [p.text() for p in res.kernel_polys]
    return out


def assert_blocks_match(chart, ops, fiberwise):
    """Every check of properties 3 to 6, called on its own, equals its
    whole-component reference in every field, and the certificate's
    report lines of those properties are the ones the references give;
    ``fiberwise`` says whether the family takes the fiber blocks.
    Returns how many checks passed and failed."""
    assert (analysis._Family(chart, ops).fibers is not None) == fiberwise
    want, seen = [], Counter()
    for k, label, check, args in analysis.certificate_plan(chart, ops):
        if k < 3:
            continue
        ref = outcome(CHECK_REFERENCES[check.__name__], chart, ops, args)
        got = result_fields(outcome(check, chart, ops, args))
        assert got == result_fields(ref), (k, args)
        seen[got is True or isinstance(got, dict) and got["passes"]] += 1
        if isinstance(ref, AnalysisError):
            want.append((k, label, False, str(ref)))
        elif isinstance(ref, Exception):
            want.append(result_fields(ref))
        else:
            line = analysis._verdict(k, label, args, ref)
            want.append((k, line.label, line.passed, line.witness))
    lines = certificate_lines(check_all_properties, chart, ops)
    if isinstance(lines, list):
        assert [line for line in lines if line[0] > 2] == want
    else:
        assert lines == certificate_lines(certificate_reference, chart, ops)
    return seen


def fiberwise_family(rng, lc):
    """The linearized family with each fiber image replaced by a multiple
    of it plus a random rational combination of the other coordinates of
    its weight: fiberwise linear, with multi-term images."""
    chart = lc.chart
    by_weight = {}
    for c in chart.coordinates:
        by_weight.setdefault(c.weight, []).append(c)
    ops = {}
    for s, op in lc.operators.items():
        images = {}
        for c in chart.coordinates:
            targets = by_weight.get(c.weight + op.weight_shift, [])
            if c.weight.is_zero or not targets:
                continue
            img = op.of(c).scale(Fraction(rng.choice([1, 1, -2, 3]),
                                          rng.choice([1, 2])))
            for t in targets:
                if rng.random() < 0.3:
                    img = img + chart.gen(t, Fraction(rng.randint(-3, 3),
                                                      rng.randint(1, 3)))
            images[c] = img
        ops[s] = Derivation(chart, op.weight_shift, op.parity, images)
    return ops


class TestFiberBlocks:
    """The checks of properties 3 to 6 run on the fiber chart, one copy of
    each block, when the family is fiberwise linear, and rerun on the
    whole component whenever a block does not pass cleanly.  Every result
    field, witness and report line equals that of the whole-component
    reference in ``conftest``."""

    @pytest.mark.parametrize("name", sorted(PLAN_CHARTS))
    def test_plan_charts_and_mutations(self, name):
        lc = linearize_chart(PLAN_CHARTS[name]())
        rng = random.Random(name)
        zeroed = [(s, c) for s in sorted(lc.operators, key=lambda t: t.sort_key)
                  for c in lc.operators[s].images]
        families = [lc.operators] + [
            {**lc.operators, s: lc.operators[s].with_zeroed(c)}
            for s, c in rng.sample(zeroed, min(1, len(zeroed)))]
        seen = Counter()
        for ops in families:
            seen += assert_blocks_match(lc.chart, ops, True)
        assert seen[True]

    def test_frontier_default_charts(self):
        """The default charts of ``scripts/frontier.py`` but degrees 6 and
        7, whose whole-component references take seconds; the frontier
        run compares their report digests across revisions instead."""
        for name, build in load_frontier().CHARTS:
            if name.startswith(("rank1 deg6", "rank1 deg7")):
                continue
            lc = linearize_chart(build())
            assert assert_blocks_match(lc.chart, lc.operators, True) \
                == Counter({True: sum(
                    1 for k, *_ in analysis.certificate_plan(
                        lc.chart, lc.operators) if k > 2)}), name

    def test_random_fiberwise_families(self):
        """1 to 3 base coordinates, truncations 3 and 4, both parities."""
        rng = random.Random(20261020)
        seen, multi = Counter(), 0
        for base, trunc in ((1, 4), (2, 3), (3, 4)):
            n = rng.randint(3, 4)
            dims = [base] + [rng.randint(1, 2) for _ in range(n)]
            lc = linearize_chart(rank1_chart(n, dims, rng.randint(0, 1),
                                             trunc))
            ops = fiberwise_family(rng, lc)
            multi += sum(len(img.terms) > 1 and any(
                x.denominator > 1 for x in img.terms.values())
                for op in ops.values() for img in op.images.values())
            seen += assert_blocks_match(lc.chart, ops, True)
        assert seen[True] and seen[False] and multi

    def test_failure_on_a_degree_two_block_only(self):
        """With ``D[b2]`` of ``xi{a1}_1`` zeroed, the ``a1+b3`` component
        keeps a bijective degree-1 block, so ``D[b2]`` fails out of it
        only on its degree-2 block, and the report names it."""
        lc = m3_linearized((1, 2, 1, 1))
        chart = lc.chart
        ops = {**lc.operators, B2: lc.operators[B2].with_zeroed(
            chart.coordinate("xi{a1}_1"))}
        delta = weight({A: 1, B3: 1})
        fibers = analysis._Family(chart, ops).fibers
        full = component_map(fibers.ops[B2], delta)
        assert full.capped(1).is_bijective() and not full.is_bijective()
        assert not is_nondegenerate(chart, ops, B2, delta)
        lines = certificate_lines(check_all_properties, chart, ops)
        assert (3, f"D[b2_1] bijective out of ({delta.label})", False,
                f"D[b2_1] not bijective on the ({delta.label}) component") \
            in lines
        assert_blocks_match(chart, ops, True)

    def test_operators_on_an_equal_chart(self):
        """A family whose operators sit on an equal but distinct chart
        takes the fiber blocks on the fibers of the chart it is checked
        on, and every check and report line equals those it gives on
        the operators' own chart, a failing family included."""
        chart = m3_linearized((1, 2, 1, 1)).chart
        lc = m3_linearized((1, 2, 1, 1))
        assert lc.chart is not chart and lc.chart == chart
        families = [lc.operators, {**lc.operators, B2: lc.operators[
            B2].with_zeroed(lc.chart.coordinate("xi{a1}_1"))}]
        for ops in families:
            fibers = analysis._Family(chart, ops).fibers
            assert fibers is not None and fibers.chart is chart.fibers
            checked = 0
            for k, _, check, args in analysis.certificate_plan(chart, ops):
                if k > 2:
                    checked += 1
                    assert result_fields(outcome(check, chart, ops, args)) \
                        == result_fields(outcome(check, lc.chart, ops,
                                                 args)), (k, args)
            assert checked
            assert certificate_lines(check_all_properties, chart, ops) == \
                certificate_lines(check_all_properties, lc.chart, ops)
        assert not check_all_properties(chart, families[1]).all_passed

    def test_fiber_operators_sit_on_the_checked_charts_fibers(self):
        """The restricted copies of a family on an equal but distinct
        chart are built on the fibers of the chart it is checked on."""
        chart = m3_linearized((1, 2, 1, 1)).chart
        lc = m3_linearized((1, 2, 1, 1))
        assert lc.chart is not chart and lc.chart == chart
        fibers = analysis._Family(chart, lc.operators).fibers
        assert fibers is not None and fibers.ops.keys() == lc.operators.keys()
        assert all(op.chart is chart.fibers for op in fibers.ops.values())

    def test_families_off_the_structure_take_the_whole_component(self):
        """A base factor in an image, a nonlinear image and a flagged
        image each keep the family off the fiber blocks."""
        lc = m3_linearized((1, 2, 1, 1))
        chart = lc.chart
        x1 = chart.gen(chart.coordinate("x1"))
        xi = chart.coordinate("xi{a1}_1")
        top = chart.coordinate("xi{2a1}_1[b3_1]")
        op = lc.operators[B2]
        images = {
            "base factor": {xi: op.of(xi) + multiply(x1, op.of(xi))},
            "nonlinear": {top: op.of(top) + multiply(
                chart.gen(chart.coordinate("xi{a1}_1[b2_1]")),
                chart.gen(chart.coordinate("xi{a1}_2[b3_1]")))},
            "flagged": {xi: Polynomial(chart, op.of(xi).terms, True)},
        }
        for name, change in images.items():
            ops = {**lc.operators, B2: Derivation(
                chart, op.weight_shift, 1, {**op.images, **change})}
            assert not analysis._fiberwise(ops[B2]), name
            assert_blocks_match(chart, ops, False)


def assert_memos_hold_weights(ops):
    for op in ops.values():
        assert all(isinstance(key, Weight) for key in op.matrix_memo), \
            [key for key in op.matrix_memo if not isinstance(key, Weight)]


class TestCertificateState:
    """A certificate keeps its state off the caller's operators: after
    it, and after each check of properties 3 to 6 called on its own,
    the only keys of an operator's ``matrix_memo`` are the weights of
    the component matrices built for it."""

    @pytest.mark.parametrize("name", sorted(PLAN_CHARTS))
    def test_operator_memos_hold_weights_only(self, name):
        lc = linearize_chart(PLAN_CHARTS[name]())
        zeroed = [(s, c) for s in sorted(lc.operators, key=lambda t: t.sort_key)
                  for c in lc.operators[s].images]
        for ops in [lc.operators] + [
                {**lc.operators, s: lc.operators[s].with_zeroed(c)}
                for s, c in zeroed[:1]]:
            checks = [(check, args) for k, _, check, args
                      in analysis.certificate_plan(lc.chart, ops) if k > 2]
            assert checks
            for check, args in checks:
                outcome(check, lc.chart, ops, args)
                assert_memos_hold_weights(ops)
            certificate_lines(check_all_properties, lc.chart, ops)
            assert_memos_hold_weights(ops)


class TestCheckAllProperties:
    def test_degree_three_all_pass(self):
        lc = m3_linearized((1, 2, 1, 1))
        rep = check_all_properties(lc.chart, lc.operators)
        assert rep.all_passed

    def test_zero_operator_on_nonzero_fiber_fails_nondegeneracy(self):
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        dead = Derivation(lc.chart, weight({B2: 1, A: -1}), 1, {})
        rep = check_all_properties(lc.chart, {B2: dead})
        assert not rep.property_passed(3)
        assert rep.first_failure() is not None

    def test_report_matches_independent_anticommutator_evaluation(self, rng):
        lc = m3_linearized((1, 2, 1, 1))
        rep = check_all_properties(lc.chart, lc.operators)
        coords = list(lc.chart.coordinates)
        for _ in range(20):
            p = lc.chart.gen(rng.choice(coords), rng.randint(1, 3))
            for sa, sb in itertools.product(lc.operators, repeat=2):
                da, db = lc.operators[sa], lc.operators[sb]
                acom = da.apply(db.apply(p)) + db.apply(da.apply(p))
                assert acom.is_zero == rep.property_passed(2)

    def test_witness_always_present_on_failure(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        broken = {B2: lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{a1}_2"))}
        rep = check_all_properties(lc.chart, broken)
        assert not rep.all_passed
        failing = [c for k in range(1, 7) for c in rep.checks[k] if not c.passed]
        assert failing and all(c.witness for c in failing)

    def test_flagged_image_with_no_terms_is_refused(self):
        """A generator image that lost all its terms to the truncation is
        no exact zero: its generator's image and its component matrix
        carry the flag, and the certificate refuses the family."""
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        xi = lc.chart.coordinate("xi{a1}_1")
        op = lc.operators[B2]
        assert op.of(xi).terms
        lost = Derivation(lc.chart, op.weight_shift, 1, {
            **op.images, xi: Polynomial(lc.chart, {}, True)})
        image = lost.apply(lc.chart.gen(xi))
        assert image.is_zero and image.truncated
        assert component_map(lost, xi.weight).truncated
        with pytest.raises(TruncationOverflow, match="lost over-degree"):
            check_all_properties(lc.chart, {B2: lost})


def hand_built_bundle(rng, alpha_first, parity):
    """A double bundle over the basic directions a1 and a2 and an odd
    operator of weight ``beta - alpha``, where ``alpha`` (of the given
    parity) is a1 when ``alpha_first`` and a2 otherwise.  The side images
    are multi-term, some with weight-0 coefficients; each top image is
    the operator applied to a random sum of side products, so it holds
    products and the kernel usually has constant generators."""
    pars = [parity, 1 - parity] if alpha_first else [1 - parity, parity]
    ws = system_from_rows(pars, [[0, 0], [1, 0], [0, 1], [1, 1]])
    s1, s2 = basic_symbol(1, pars[0]), basic_symbol(2, pars[1])
    alpha, beta = (s1, s2) if alpha_first else (s2, s1)
    ua, ub = weight({alpha: 1}), weight({beta: 1})
    n = rng.randint(1, 2)
    chart = Chart.from_dims(ws, {ZERO: rng.randint(1, 2), ua: n, ub: n,
                                 ua + ub: rng.randint(0, 2)},
                            rng.randint(2, 3))

    def coords(w):
        return [c for c in chart.coordinates if c.weight == w]

    xs = [chart.gen(c) for c in coords(ZERO)]
    ys_b = [chart.gen(c) for c in coords(ub)]
    shift = weight({beta: 1, alpha: -1})
    images = {}
    for i, ya in enumerate(coords(ua)):
        img = chart.zero()
        for j, yb in enumerate(ys_b):
            c = rng.choice([1, 2, -1, 3]) if i == j else rng.randint(-1, 1)
            img = img + yb.scale(Fraction(c))
            if rng.random() < 0.4:
                img = img + multiply(rng.choice(xs), yb).scale(
                    Fraction(rng.randint(-2, 2)))
        images[ya] = img
    side = Derivation(chart, shift, 1, images)
    for z in coords(ua + ub):
        p = chart.zero()
        for ya in coords(ua):
            for yb in ys_b:
                p = p + multiply(chart.gen(ya), yb).scale(
                    Fraction(rng.randint(-1, 1)))
        images[z] = side.apply(p)
    return chart, Derivation(chart, shift, 1, images)


def reconstruction_fields(res):
    return (res.m2.dims, res.kernel_dim, res.verified,
            [k.text() for k in res.new_generator_images],
            {c.name: p.text() for c, p in res.phi.pullback.items()})


class TestReconstruct:
    def test_round_trip_dims_and_isomorphism(self, rng):
        for dims in [(1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 3, 2)]:
            chart = rank1_chart(2, list(dims))
            lc = linearize_chart(chart)
            res = reconstruct_degree2(lc.chart, lc.operators[B2])
            assert res.m2.dims == chart.dims
            assert res.verified

    def test_even_side_parities(self):
        chart = rank1_chart(2, [1, 2, 2], parity=0)
        lc = linearize_chart(chart)
        b2 = additional_symbol(2, 1, 0)
        res = reconstruct_degree2(lc.chart, lc.operators[b2])
        assert res.m2.dims == chart.dims
        assert res.verified

    def test_trivial_core_dimension_count(self):
        # no top-weight generators: kernel is exactly the decomposable part
        chart = rank1_chart(2, [1, 2, 0])
        lc = linearize_chart(chart)
        res = reconstruct_degree2(lc.chart, lc.operators[B2])
        assert res.m2.dims.get(weight({A: 2}), 0) == 0
        assert res.verified

    def test_single_odd_side_coordinate(self):
        # xi^2 = 0 kills all products; the kernel is the lone top generator
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        res = reconstruct_degree2(lc.chart, lc.operators[B2])
        assert res.m2.dims == chart.dims
        assert res.verified

    def test_morphism_matrices_match_the_reference(self, rng):
        # the matrices the reconstruction check builds from the terms of
        # phi.apply, against the expansion of each image; the
        # degree-raising operator gives kernel generators with products
        dvb = linearize_chart(rank1_chart(2, [1, 1, 1])).chart
        xi = dvb.coordinate("xi{a1}_1")
        dxi = dvb.coordinate("xi{a1}_1[b2_1]")
        eta = dvb.coordinate("xi{2a1}_1[b2_1]")
        cases = [(dvb, Derivation(dvb, weight({B2: 1, A: -1}), 1, {
            xi: dvb.gen(dxi), eta: multiply(dvb.gen(dxi), dvb.gen(dxi))}))]
        for parity in (1, 1, 0, 0):
            chart = rank1_chart(2, [rng.randint(1, 2), rng.randint(1, 3),
                                    rng.randint(0, 2)], parity=parity)
            lc = linearize_chart(chart)
            cases.append((lc.chart, lc.operators[
                additional_symbol(2, 1, parity)]))
        multi = 0
        for source, op in cases:
            res = reconstruct_degree2(source, op)
            phi = res.phi
            for w in res.linearized.chart.system.sorted_elements():
                dom = component_basis(phi.target.fibers, w)
                cod = component_basis(phi.source.fibers, phi._map_weight(w))
                got = analysis._morphism_matrix(phi, w)
                want = matrix_reference(phi.apply, phi.target, dom, cod,
                                        fiber_only=True)
                assert_same_matrix(got, want)
                assert [list(r.items()) for r in got.entries] == \
                    [list(r.items()) for r in want.entries]
                multi += sum(n > 1 for n in Counter(
                    k for row in got.entries for k in row).values())
        assert multi > 0

    @pytest.mark.parametrize("parity", [1, 0])
    def test_empty_dimensions_match_the_reference(self, parity):
        # every dims in {0,1,2}^3 with a fiber coordinate: charts with no
        # base run, no side run or no top run, where leaving the weight-0
        # run out of the fiber listing could go wrong
        for dims in itertools.product(range(3), repeat=3):
            if not any(dims[1:]):
                continue
            chart = rank1_chart(2, list(dims), parity)
            lc = linearize_chart(chart)
            op = lc.operators[additional_symbol(2, 1, parity)]
            res = reconstruct_degree2(lc.chart, op)
            assert reconstruction_fields(res) == \
                reconstruction_fields(reconstruct_reference(lc.chart, op)), dims
            assert res.verified and res.m2.dims == chart.dims, dims

    def test_degenerate_operator_rejected(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        broken = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{a1}_1"))
        with pytest.raises(AnalysisError):
            reconstruct_degree2(lc.chart, broken)

    def test_operator_of_even_weight_is_degenerate(self):
        # with both directions odd the weight a2 - a1 is even, so an odd
        # operator of that weight has only zero images
        ws = system_from_rows([1, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        a, b = basic_symbol(1, 1), basic_symbol(2, 1)
        chart = Chart.from_dims(ws, {ZERO: 1, weight({a: 1}): 1,
                                     weight({b: 1}): 1,
                                     weight({a: 1, b: 1}): 1}, 3)
        op = Derivation(chart, weight({b: 1, a: -1}), 1, {})
        with pytest.raises(AnalysisError) as err:
            reconstruct_degree2(chart, op)
        assert str(err.value) == ("operator is degenerate between the side "
                                  "components")

    def test_hand_built_bundle_with_foreign_symbols(self):
        # a double bundle over two basic directions, not over (a1, b2_1)
        ws = system_from_rows([1, 0], [[0, 0], [1, 0], [0, 1], [1, 1]])
        a, b = basic_symbol(1, 1), basic_symbol(2, 0)
        chart = Chart.from_dims(ws, {ZERO: 1, weight({a: 1}): 1,
                                     weight({b: 1}): 1,
                                     weight({a: 1, b: 1}): 1}, 3)
        xi = chart.coordinate("xi{a1}_1")
        eta = chart.coordinate("xi{a2}_1")
        top = chart.coordinate("xi{a1+a2}_1")
        op = Derivation(chart, weight({b: 1, a: -1}), 1,
                        {xi: chart.gen(eta),
                         top: chart.zero()})
        res = reconstruct_degree2(chart, op)
        assert res.verified
        assert res.m2.dims == {ZERO: 1, weight({basic_symbol(1, 1): 1}): 1,
                               weight({basic_symbol(1, 1): 2}): 1}

    def test_hand_built_bundles_match_the_reference(self, rng):
        # in both symbol orders and both parities: where the reference
        # (the run on a copy over (a1, b2_1)) answers, the same answer;
        # where its copy back fails on a reordered product, a verified one;
        # where it refuses flagged images, the same refusal
        outcomes = Counter()
        for t in range(80):
            alpha_first, parity = t % 2 == 0, t // 2 % 2
            chart, op = hand_built_bundle(rng, alpha_first, parity)
            try:
                want = reconstruction_fields(reconstruct_reference(chart, op))
            except TruncationOverflow as exc:
                with pytest.raises(TruncationOverflow) as err:
                    reconstruct_degree2(chart, op)
                assert str(err.value) == str(exc)
                assert any(img.truncated for img in op.images.values())
                outcomes["flagged", chart.truncation] += 1
                continue
            except AnalysisError as exc:
                with pytest.raises(AnalysisError) as err:
                    reconstruct_degree2(chart, op)
                assert str(err.value) == str(exc)
                outcomes["refused"] += 1
                continue
            except AlgebraError as exc:
                assert not alpha_first
                assert str(exc) == "monomial factors must be sorted and unique"
                res = reconstruct_degree2(chart, op)
                assert res.verified
                assert all(op.apply(k).is_zero
                           for k in res.new_generator_images)
                outcomes["reordered", parity] += 1
                continue
            assert reconstruction_fields(reconstruct_degree2(chart, op)) == want
            outcomes["same", alpha_first, parity] += 1
        assert {("reordered", 0), ("reordered", 1)} <= set(outcomes)
        assert all(("same", f, p) in outcomes
                   for f in (True, False) for p in (0, 1))
        assert outcomes["refused"]
        assert set(k for k in outcomes if k[0] == "flagged") == {
            ("flagged", 2)}

    def test_flagged_images_are_refused_as_the_certificate_refuses(self):
        """An operator whose images lost terms to the truncation is refused
        by the reconstruction, as by the certificate, instead of being
        rebuilt on the headroom chart without its flags."""
        lc = linearize_chart(rank1_chart(2, [1, 1, 1]))
        op = lc.operators[B2]
        flagged = Derivation(lc.chart, op.weight_shift, 1, {
            c: Polynomial(lc.chart, img.terms, True)
            for c, img in op.images.items()})
        with pytest.raises(TruncationOverflow) as err:
            check_all_properties(lc.chart, {B2: flagged})
        assert str(err.value) == EXACT
        with pytest.raises(TruncationOverflow) as err:
            reconstruct_degree2(lc.chart, flagged)
        assert str(err.value) == ("operator images lost over-degree terms; "
                                  "raise the truncation degree")
        assert reconstruct_degree2(lc.chart, op).verified

    def test_fiber_direction_sorting_first(self):
        # base a2, fiber a1: the kernel generator holds the product
        # xi{a1}_1 * xi{a2}_1, whose fiber factor sorts first
        ws = system_from_rows([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        a, b = basic_symbol(2, 1), basic_symbol(1, 0)
        chart = Chart.from_dims(ws, {ZERO: 1, weight({a: 1}): 1,
                                     weight({b: 1}): 1,
                                     weight({a: 1, b: 1}): 1}, 3)
        x1, eta, top, xi = chart.coordinates
        x1, eta = chart.gen(x1), chart.gen(eta)
        op = Derivation(chart, weight({b: 1, a: -1}), 1, {
            xi: eta + multiply(x1, eta),
            top: multiply(eta, eta) + multiply(x1, multiply(eta, eta))})
        res = reconstruct_degree2(chart, op)
        assert res.verified
        assert res.m2.dims == {ZERO: 1, weight({basic_symbol(1, 1): 1}): 1,
                               weight({basic_symbol(1, 1): 2}): 1}
        (kappa,) = res.new_generator_images
        assert kappa.text() == "-1 * xi{a1}_1 * xi{a2}_1 + 1 * xi{a1+a2}_1"
        assert op.apply(kappa).is_zero
        assert res.phi.pullback[res.linearized.chart.coordinate(
            "xi{a1}_1[b2_1]")].text() == "1 * x1 * xi{a1}_1 + 1 * xi{a1}_1"

    def test_degree_raising_operator_with_constant_kernel(self):
        # operator sending the top generator into the decomposable part:
        # images raise polynomial degree, kernels still have constant
        # generators, so the reconstruction must succeed
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        dvb = lc.chart
        xi = dvb.coordinate("xi{a1}_1")
        dxi = dvb.coordinate("xi{a1}_1[b2_1]")
        eta = dvb.coordinate("xi{2a1}_1[b2_1]")
        op = Derivation(dvb, weight({B2: 1, A: -1}), 1, {
            xi: dvb.gen(dxi),
            eta: multiply(dvb.gen(dxi), dvb.gen(dxi)),
        })
        res = reconstruct_degree2(dvb, op)
        assert res.verified
        assert res.m2.dims == chart.dims
        (kappa,) = res.new_generator_images
        assert op.apply(kappa).is_zero
        texts = kappa.text()
        assert "xi{2a1}_1[b2_1]" in texts and "xi{a1}_1" in texts

    def test_nonconstant_kernel_refused(self):
        # with D(xi) = (1+x) dxi the kernel generator needs a polynomial
        # coefficient; chart-level reconstruction refuses rather than guess
        chart = rank1_chart(2, [1, 1, 1])
        lc = linearize_chart(chart)
        dvb = lc.chart
        xi = dvb.coordinate("xi{a1}_1")
        dxi = dvb.coordinate("xi{a1}_1[b2_1]")
        eta = dvb.coordinate("xi{2a1}_1[b2_1]")
        x1 = dvb.coordinate("x1")
        op = Derivation(dvb, weight({B2: 1, A: -1}), 1, {
            xi: dvb.gen(dxi) + multiply(dvb.gen(x1), dvb.gen(dxi)),
            eta: multiply(dvb.gen(dxi), dvb.gen(dxi)),
        })
        with pytest.raises(AnalysisError):
            reconstruct_degree2(dvb, op)
