import itertools
import os
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
    linearize_chart,
    monomial_poly,
    multiply,
    quotient_polynomial,
    reconstruct_degree2,
    solve_inverse,
    tangent_lift,
    weight,
)
from gradedvb.specfile import parse_spec
from conftest import random_chart, random_nonneg_system, rank1_chart

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
        for tag in lc.lift_sequence:
            d = de_rham(lc.chart, tag)
            op = lc.operators[tag]
            assert (d.weight_shift, d.parity) == (op.weight_shift, op.parity)
            assert list(d.images) == list(op.images)
            assert d.images == op.images
            # it is the lift's derivation taken modulo the negative ideal
            for c in lc.chart.coordinates:
                assert d.of(c) == quotient_polynomial(
                    lc.quotient, lc.lifted_derivations[tag].of(c))

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
            is_nondegenerate(chart, A, weight({A: 1}), {A: op})
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


class TestComponentMap:
    def test_zero_operator_zero_matrix(self):
        lc = m3_linearized()
        zero_op = Derivation(lc.chart, weight({B2: 1, A: -1}), 1, {})
        cm = component_map(zero_op, weight({A: 1}))
        assert all(v == 0 for row in cm.entries for v in row)

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
        cod_index = {m: k for k, m in enumerate(cm.codomain_basis)}
        for col, m in enumerate(cm.domain_basis):
            img = d.apply(monomial_poly(lifted, m))
            vec = [Fraction(0)] * len(cm.codomain_basis)
            for mm, c in img.terms.items():
                vec[cod_index[mm]] = c
            assert [cm.entries[r][col] for r in range(len(vec))] == vec


class TestNondegeneracy:
    def test_degree_three_all_applicable_pairs(self):
        lc = m3_linearized((1, 2, 1, 1))
        for sym, op in lc.operators.items():
            for delta in lc.chart.system.sorted_elements():
                if delta + op.weight_shift in lc.chart.system.elements:
                    assert is_nondegenerate(lc, sym, delta)

    def test_zero_dimensional_component_vacuous(self):
        lc = linearize_chart(rank1_chart(2, [1, 0, 1]))
        assert is_nondegenerate(lc, B2, weight({A: 1}))

    def test_corrupted_operator_detected(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        broken = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{a1}_1"))
        assert not is_nondegenerate(lc.chart, B2, weight({A: 1}),
                                    {B2: broken})

    def test_image_weight_outside_system_rejected(self):
        lc = m3_linearized()
        with pytest.raises(AnalysisError):
            is_nondegenerate(lc, B2, weight({B3: 1}))


class TestDecomposition:
    def test_degree_three_mixed_component(self):
        lc = m3_linearized()
        dp = weight({A: 1, B3: 1})
        res = check_decomposition(lc, dp)
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
        res = check_decomposition(lc, weight({A: 1}))
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
                assert check_decomposition(lc, dp).passes


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


def m4_linearized(dims=(1, 2, 1, 1, 1)):
    return linearize_chart(rank1_chart(4, list(dims)))


class TestCocycle:
    def test_identity_on_kernel_all_triples(self):
        lc = m4_linearized()
        for (j, j1, j2) in itertools.permutations((2, 3, 4), 3):
            b_j = additional_symbol(j, 1, 1)
            delta = weight({A: 1, b_j: 1})
            res = check_cocycle(lc, 1, j, j1, j2, delta)
            assert res.passes

    def test_off_kernel_witness_sides_differ(self):
        lc = m4_linearized()
        wit = counterexample_off_kernel(lc, 1, 2, 3, 4)
        assert wit.sides_differ
        assert not wit.lhs.is_zero and not wit.rhs_composite.is_zero

    def test_one_dimensional_fibers_forced_equal(self):
        lc = m4_linearized((1, 1, 1, 1, 1))
        # with a single side generator the witness cannot be formed
        with pytest.raises(AnalysisError):
            counterexample_off_kernel(lc, 1, 2, 3, 4)
        for (j, j1, j2) in itertools.permutations((2, 3, 4), 3):
            b_j = additional_symbol(j, 1, 1)
            res = check_cocycle(lc, 1, j, j1, j2, weight({A: 1, b_j: 1}))
            assert res.passes

    def test_weight_hypotheses_enforced(self):
        lc = m4_linearized()
        with pytest.raises(AnalysisError):
            check_cocycle(lc, 1, 2, 3, 4, weight({A: 1}))
        with pytest.raises(AnalysisError):
            check_cocycle(lc, 1, 2, 2, 4, weight({A: 1, B2: 1}))


class TestKernelPreservation:
    def test_degree_three_swap(self):
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        dp = weight({A: 1, B2: 1})
        res = check_kernel_preservation(lc, 1, 2, 3, delta, dp)
        assert res.passes

    def test_zero_kernel_vacuous(self):
        lc = linearize_chart(rank1_chart(3, [1, 1, 0, 1]))
        delta = weight({A: 1, B3: 1})
        dp = weight({A: 1, B2: 1})
        res = check_kernel_preservation(lc, 1, 2, 3, delta, dp)
        assert res.passes

    def test_corrupted_family_detected(self):
        # corrupt the forward operator; the inverted one stays bijective so
        # the stated hypotheses still hold and the mismatch is observable
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        dp = weight({A: 1, B2: 1})
        broken = dict(lc.operators)
        broken[B2] = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{2a1}_1[b3_1]"))
        res = check_kernel_preservation(lc.chart, 1, 2, 3, delta, dp, broken)
        assert not res.passes
        assert res.witness is not None

    def test_inverted_operator_must_be_bijective(self):
        lc = m3_linearized((1, 2, 1, 1))
        delta = weight({A: 1, B3: 1})
        dp = weight({A: 1, B2: 1})
        broken = dict(lc.operators)
        broken[B3] = lc.operators[B3].with_zeroed(
            lc.chart.coordinate("xi{2a1}_1[b2_1]"))
        with pytest.raises(AnalysisError):
            check_kernel_preservation(lc.chart, 1, 2, 3, delta, dp, broken)


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

    def test_degenerate_operator_rejected(self):
        chart = rank1_chart(2, [1, 2, 1])
        lc = linearize_chart(chart)
        broken = lc.operators[B2].with_zeroed(
            lc.chart.coordinate("xi{a1}_1"))
        with pytest.raises(AnalysisError):
            reconstruct_degree2(lc.chart, broken)

    def test_hand_built_bundle_with_foreign_symbols(self):
        # a double bundle over two basic directions; the fiber symbol is
        # relabeled internally
        from gradedvb import system_from_rows
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
