"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every criterion prints a single PASS line on success (run with ``-s`` to
see them); any failure is a plain assertion failure.  The randomized
family for criteria 3-5 is: rank <= 2, per-direction multiplicity <= 3,
dims <= 2, truncation 3, 200 seeded cases.
"""

import itertools
import os
import random
from collections import Counter

from gradedvb import (
    ZERO,
    additional_symbol,
    basic_symbol,
    check_all_properties,
    check_cocycle,
    component_basis,
    compose_DLambda,
    counterexample_off_kernel,
    de_rham,
    dualize,
    identity_morphism,
    kernel_intersection,
    lift_morphism,
    lift_symbols,
    linearize_chart,
    linearized_system,
    monomial_poly,
    multiplicity_free_restriction,
    multiply,
    quotient_chart,
    reconstruct_degree2,
    solve_inverse,
    system_from_rows,
    tangent_lift,
    weight,
)
from gradedvb.cli import main as cli_main

from conftest import (dense, degree_system, random_chart, random_nonneg_system,
                      rank1_chart)
from test_linearize import random_morphism

HERE = os.path.dirname(__file__)
A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)
B4 = additional_symbol(4, 1, 1)

FAMILY_SEED = 987654321
FAMILY_SIZE = 200


def family_cases():
    rng = random.Random(FAMILY_SEED)
    for _ in range(FAMILY_SIZE):
        ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
        yield rng, random_chart(rng, ws, max_dim=2, trunc=3)


def _run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def _golden(name):
    with open(os.path.join(HERE, "golden", name), encoding="utf-8") as fh:
        return fh.read()


def test_criterion_1_derived_system_golden_tables():
    lin = linearized_system(degree_system(2))
    assert [w.label for w in lin.sorted_elements()] == \
        ["0", "a1", "a1+b2_1", "b2_1"]

    code, out = _run_cli("linearize", os.path.join(HERE, "data", "m2.spec"),
                         "--fibers")
    assert code == 0 and out == _golden("m2_linearize.txt")
    code, out = _run_cli("linearize", os.path.join(HERE, "data", "b2pos.spec"),
                         "--fibers")
    assert code == 0 and out == _golden("b2pos_linearize.txt")
    print("ACCEPTANCE 1 (derived-system golden tables): PASS")


def test_criterion_2_degree_three_pipeline():
    chart = rank1_chart(3, [1, 1, 1, 1])
    lifted = tangent_lift(tangent_lift(chart, B2), B3)
    assert len(lifted.coordinates) == 16
    W = lambda a=0, b2=0, b3=0: weight({A: a, B2: b2, B3: b3})
    expected_weights = Counter([
        W(), W(a=1), W(a=2), W(a=3),
        W(a=-1, b2=1), W(b2=1), W(a=1, b2=1), W(a=2, b2=1),
        W(a=-1, b3=1), W(b3=1), W(a=1, b3=1), W(a=2, b3=1),
        W(a=-2, b2=1, b3=1), W(a=-1, b2=1, b3=1), W(b2=1, b3=1),
        W(a=1, b2=1, b3=1)])
    assert Counter(c.weight for c in lifted.coordinates) == expected_weights

    dchart = multiplicity_free_restriction(quotient_chart(lifted))
    assert sorted(c.name for c in dchart.coordinates) == sorted([
        "x1", "xi{a1}_1", "xi{a1}_1[b2_1]", "xi{2a1}_1[b2_1]",
        "xi{a1}_1[b3_1]", "xi{2a1}_1[b3_1]", "xi{2a1}_1[b2_1,b3_1]",
        "xi{3a1}_1[b2_1,b3_1]"])
    assert {w.label for w in dchart.system.elements} == {
        "0", "a1", "b2_1", "a1+b2_1", "b3_1", "a1+b3_1", "b2_1+b3_1",
        "a1+b2_1+b3_1"}
    code, out = _run_cli("linearize", os.path.join(HERE, "data", "m3.spec"),
                         "--fibers")
    assert code == 0 and out == _golden("m3_linearize.txt")
    print("ACCEPTANCE 2 (degree-3 pipeline): PASS")


def test_criterion_3_differential_calculus_invariants():
    checked = 0
    for rng, chart in family_cases():
        lifted = chart
        for tag in lift_symbols(chart.system):
            lifted = tangent_lift(lifted, tag)
        tags = lifted.applied_lifts
        ds = {t: de_rham(lifted, t) for t in tags}
        for ta, tb in itertools.combinations_with_replacement(tags, 2):
            for c in lifted.coordinates:
                g = lifted.gen(c)
                acom = ds[ta].apply(ds[tb].apply(g)) + \
                    ds[tb].apply(ds[ta].apply(g))
                assert acom.is_zero
        coords = list(lifted.coordinates)
        for _ in range(3):
            if not tags:
                break
            d = ds[rng.choice(tags)]
            c1, c2 = rng.choice(coords), rng.choice(coords)
            p = lifted.gen(c1, rng.randint(1, 3))
            q = multiply(lifted.gen(c2), lifted.gen(rng.choice(coords)))
            lhs = d.apply(multiply(p, q))
            sign = -1 if c1.parity else 1
            rhs = multiply(d.apply(p), q) + multiply(p, d.apply(q)).scale(sign)
            assert lhs == rhs
        checked += 1
    assert checked == FAMILY_SIZE
    print(f"ACCEPTANCE 3 (differential-calculus invariants, {checked} cases): PASS")


def test_criterion_4_property_certification_and_mutation():
    checked = mutated = 0
    for k, (rng, chart) in enumerate(family_cases()):
        lc = linearize_chart(chart)
        rep = check_all_properties(lc.chart, lc.operators)
        assert rep.all_passed, rep.first_failure().label
        checked += 1
        if k % 20 == 0 and lc.operators:
            sym = sorted(lc.operators, key=lambda s: s.sort_key)[0]
            op = lc.operators[sym]
            victims = [c for c, img in op.images.items() if not img.is_zero]
            if victims:
                broken = dict(lc.operators)
                broken[sym] = op.with_zeroed(victims[0])
                bad = check_all_properties(lc.chart, broken)
                assert not bad.all_passed
                assert bad.first_failure() is not None
                assert bad.first_failure().witness or \
                    bad.first_failure().label
                mutated += 1
    assert checked == FAMILY_SIZE and mutated >= 5
    print(f"ACCEPTANCE 4 (six properties, {checked} cases, "
          f"{mutated} mutations): PASS")


def _admissible_pairs(lc):
    syms = lc.lift_sequence
    source = lc.source
    caps = {s: max(w.coeff(s) for w in source.system.elements)
            for s in source.system.basic_symbols}
    deltas = [weight(dict(zip(caps.keys(), combo)))
              for combo in itertools.product(*(range(c + 1)
                                               for c in caps.values()))]
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
                if component_basis(source, delta):
                    yield delta, lam


def test_criterion_5_composite_round_trips():
    solved = 0
    for case_idx, (rng, chart) in enumerate(family_cases()):
        lc = linearize_chart(chart)
        for delta, lam in _admissible_pairs(lc):
            comp = compose_DLambda(lc, lam)
            # injectivity: solve after forward is the identity
            p = lc.source.zero()
            for m in component_basis(lc.source, delta):
                p = p + monomial_poly(lc.source, m, rng.randint(-2, 2))
            f = comp.apply(p)
            if f.is_zero:
                assert p.is_zero
            else:
                assert solve_inverse(lc, lam, f) == p
                solved += 1
            # surjectivity: forward after solve is the identity on the
            # joint kernel of the named operators
            ops = [lc.operators[s] for s in lam]
            basis, kvecs = kernel_intersection(lc.chart, ops,
                                               comp.of_weight(delta))
            for v in kvecs[:3]:
                fker = lc.chart.zero()
                for m, c in zip(basis, dense([v], len(basis))[0]):
                    if c:
                        fker = fker + monomial_poly(lc.chart, m, c)
                F = solve_inverse(lc, lam, fker)
                assert comp.apply(F) == fker.in_chart(lc.quotient)
                solved += 1
    assert solved > 200
    print(f"ACCEPTANCE 5 (composite round trips, {solved} solves): PASS")


def test_criterion_6_cocycle_identity_and_counterexample():
    rng = random.Random(FAMILY_SEED + 6)
    cases = 0
    for _ in range(12):
        dims = [rng.randint(1, 2), rng.randint(2, 2), rng.randint(1, 2),
                rng.randint(1, 2), rng.randint(1, 2)]
        chart = rank1_chart(4, dims)
        lc = linearize_chart(chart)
        for (j, j1, j2) in itertools.permutations((2, 3, 4), 3):
            steps = tuple(additional_symbol(k, 1, 1) for k in (j, j1, j2))
            delta = weight({A: 1, steps[0]: 1})
            res = check_cocycle(lc.chart, lc.operators, steps, delta)
            assert res.passes
            cases += 1
        wit = counterexample_off_kernel(lc.chart, lc.operators, (B2, B3, B4))
        assert wit.sides_differ
    assert cases == 72
    print(f"ACCEPTANCE 6 (cocycle identity, {cases} kernel checks, "
          "12 counterexamples): PASS")


def test_criterion_7_degree_two_round_trip():
    rng = random.Random(FAMILY_SEED + 7)
    b2 = additional_symbol(2, 1, 1)
    b2e = additional_symbol(2, 1, 0)
    trips = 0
    for _ in range(25):
        parity = rng.randint(0, 1)
        dims = [rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)]
        chart = rank1_chart(2, dims, parity=parity)
        lc = linearize_chart(chart)
        op = lc.operators[b2 if parity else b2e]
        res = reconstruct_degree2(lc.chart, op)
        assert res.m2.dims == chart.dims
        assert res.verified
        trips += 1
    assert trips == 25
    print(f"ACCEPTANCE 7 (degree-2 round trips, {trips} cases): PASS")


def test_criterion_8_dualization():
    a1, a2 = basic_symbol(1, 0), basic_symbol(2, 1)
    short = system_from_rows([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
    res = dualize(short, [ZERO, weight({a1: 1})])
    assert {w.label for w in res.system.elements} == {"0", "a1", "-a2", "-a1-a2"}
    long = system_from_rows([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
    res = dualize(long, [ZERO, weight({a1: 1})])
    assert {w.label for w in res.system.elements} == \
        {"0", "a1", "-a2", "-a1-a2", "-2a1-a2"}

    from gradedvb import WeightSystem
    rng = random.Random(FAMILY_SEED + 8)
    count = 0
    while count < 100:
        base_ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
        fdir = basic_symbol(base_ws.rank + 1, rng.randint(0, 1))
        basis = tuple(sorted(base_ws.basis + (fdir,), key=lambda s: s.sort_key))
        fiber = {weight({fdir: 1})}
        for w in base_ws.sorted_elements():
            if rng.random() < 0.5:
                fiber.add(w + weight({fdir: 1}))
        ws = WeightSystem(basis, frozenset(set(base_ws.elements) | fiber))
        base = sorted(base_ws.elements, key=lambda w: w.sort_key)
        once = dualize(ws, base)
        twice = dualize(once.system, base)
        assert twice.system.elements == ws.elements
        count += 1
    print(f"ACCEPTANCE 8 (dualization, 2 worked examples + {count} "
          "involutions): PASS")


def test_criterion_9_functoriality():
    rng = random.Random(FAMILY_SEED + 9)
    composed = commuted = 0
    for _ in range(40):
        ws = random_nonneg_system(rng, max_rank=2, max_mult=3)
        a = random_chart(rng, ws, max_dim=2, base_dim=1)
        b = random_chart(rng, ws, max_dim=2, base_dim=1)
        c = random_chart(rng, ws, max_dim=2, base_dim=1)
        la, lb, lc_ = (linearize_chart(x) for x in (a, b, c))

        lifted_id = lift_morphism(identity_morphism(a), la, la)
        for g in la.chart.coordinates:
            assert lifted_id.pullback[g] == la.chart.gen(g)

        phi = random_morphism(rng, a, b, linear_only=True)
        psi = random_morphism(rng, b, c, linear_only=True)
        lhs = lift_morphism(phi.then(psi), la, lc_)
        rhs = lift_morphism(phi, la, lb).then(lift_morphism(psi, lb, lc_))
        for g in lc_.chart.coordinates:
            assert lhs.pullback[g] == rhs.pullback[g]
        composed += 1

        lifted = lift_morphism(phi, la, lb)
        for sym in la.operators:
            ds, dt = la.operators[sym], lb.operators[sym]
            for g in lb.chart.coordinates:
                assert lifted.apply(dt.of(g)) == ds.apply(lifted.pullback[g])
        commuted += 1
    assert composed == commuted == 40
    print(f"ACCEPTANCE 9 (functoriality, {composed} compositions): PASS")
