import itertools
import random

import pytest

from gradedvb import (
    ZERO,
    BasisSymbol,
    Weight,
    WeightError,
    additional_symbol,
    basic_symbol,
    delta_prime_fiber,
    dualize,
    is_closed_subsystem,
    is_multiplicity_free,
    linearized_system,
    max_multiplicities,
    projection_G,
    validate,
    weight,
)
from gradedvb.weights import _expressible
from conftest import degree_system, make_system, random_nonneg_system

A1 = basic_symbol(1, 0)
A2 = basic_symbol(2, 1)


def labels(ws):
    return [w.label for w in ws.sorted_elements()]


class TestValidate:
    def test_double_bundle_system_valid(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        rep = validate(ws)
        assert rep.is_valid
        assert ws.rank == 2

    def test_missing_zero_fails_condition_two(self):
        ws = make_system([0], [[1]])
        rep = validate(ws)
        assert not rep.has_zero
        assert rep.has_units
        assert not rep.is_valid

    def test_negative_coefficient_fails_condition_three(self):
        ws = make_system([0, 0], [[0, 0], [1, 0], [0, 1], [1, -1]])
        rep = validate(ws)
        assert not rep.is_nonnegative
        assert [w.label for w in rep.negative_elements] == ["a1-a2"]

    def test_missing_unit_reported(self):
        ws = make_system([0, 0], [[0, 0], [1, 0]])
        rep = validate(ws)
        assert [s.label for s in rep.missing_units] == ["a2"]


class TestMultiplicityFree:
    def test_double_bundle_yes(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert is_multiplicity_free(ws)

    def test_degree_three_no(self):
        assert not is_multiplicity_free(degree_system(3))

    def test_zero_only(self):
        ws = make_system([0], [[0], [1]])
        assert is_multiplicity_free(ws)


class TestMaxMultiplicities:
    def test_degree_three(self):
        m = max_multiplicities(degree_system(3))
        assert [(s.label, n) for s, n in m.by_symbol] == [("a1", 3)]
        assert m.extra == 2

    def test_rank_two_mixed(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
        m = max_multiplicities(ws)
        assert [n for _, n in m.by_symbol] == [2, 1]
        assert m.extra == 1

    def test_multiplicity_free_extra_zero(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert max_multiplicities(ws).extra == 0


def triple_bundle():
    rows = [list(r) for r in itertools.product([0, 1], repeat=3)]
    return make_system([0, 0, 0], rows)


class TestClosedSubsystems:
    def test_trivial_ultracore_restriction_is_closed(self):
        ws = triple_bundle()
        sub = [w for w in ws.elements if sum(c for _, c in w.items) < 3]
        assert is_closed_subsystem(ws, sub)

    def test_missing_summand_not_closed(self):
        ws = degree_system(2)
        a = basic_symbol(1, 1)
        assert not is_closed_subsystem(ws, [ZERO, weight({a: 2})])

    def test_nonzero_subset_without_zero_not_closed(self):
        ws = degree_system(2)
        a = basic_symbol(1, 1)
        assert not is_closed_subsystem(ws, [weight({a: 1})])

    def test_union_and_intersection_of_closed_are_closed(self):
        ws = triple_bundle()
        els = sorted(ws.elements, key=lambda w: w.sort_key)
        closed = []
        for bits in itertools.product([0, 1], repeat=len(els)):
            sub = [w for w, b in zip(els, bits) if b]
            if sub and is_closed_subsystem(ws, sub):
                closed.append(set(sub))
        assert len(closed) > 2
        rng = random.Random(7)
        for _ in range(40):
            x, y = rng.choice(closed), rng.choice(closed)
            assert is_closed_subsystem(ws, x | y)
            assert is_closed_subsystem(ws, x & y)


class TestLinearizedSystem:
    def test_degree_two(self):
        lin = linearized_system(degree_system(2))
        assert labels(lin) == ["0", "a1", "a1+b2_1", "b2_1"]

    def test_rank_two_fibers(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
        b2 = additional_symbol(2, 1, 0)
        fib = delta_prime_fiber(ws, weight({A1: 1, A2: 1}))
        assert [w.label for w in fib] == ["a1+a2", "a2+b2_1"]
        fib2 = delta_prime_fiber(ws, weight({A1: 2, A2: 1}))
        assert [w.label for w in fib2] == ["a1+a2+b2_1"]
        assert weight({b2: 1}).parity == 1

    def test_multiplicity_free_is_identity(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert linearized_system(ws).elements == ws.elements

    def test_output_is_valid_and_multiplicity_free(self, rng):
        for _ in range(25):
            ws = random_nonneg_system(rng)
            lin = linearized_system(ws)
            assert validate(lin).is_valid
            assert is_multiplicity_free(lin)

    def test_fibers_partition_by_projection(self, rng):
        for _ in range(25):
            ws = random_nonneg_system(rng)
            lin = linearized_system(ws)
            for delta in ws.sorted_elements():
                fiber = set(delta_prime_fiber(ws, delta))
                preimage = {w for w in lin.elements if projection_G(w) == delta}
                assert fiber == preimage


class TestProjection:
    def test_fold_one_step(self):
        a = basic_symbol(1, 1)
        b = additional_symbol(2, 1, 1)
        assert projection_G(weight({a: 1, b: 1})) == weight({a: 2})

    def test_zero(self):
        assert projection_G(ZERO) == ZERO

    def test_fold_two_steps(self):
        a = basic_symbol(1, 1)
        b2 = additional_symbol(2, 1, 1)
        b3 = additional_symbol(3, 1, 1)
        assert projection_G(weight({b2: 1, b3: 1})) == weight({a: 2})

    def test_constant_on_fibers_small_systems(self, rng):
        for _ in range(10):
            ws = random_nonneg_system(rng)
            if len(ws.elements) > 12:
                continue
            for delta in ws.sorted_elements():
                for w in delta_prime_fiber(ws, delta):
                    assert projection_G(w) == delta


class TestDualize:
    def test_rank_two_short_fiber(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1]])
        res = dualize(ws, [ZERO, weight({A1: 1})])
        assert labels(res.system) == ["0", "-a1-a2", "a1", "-a2"]
        assert [w.label for w in res.suggested_basis] == ["a1", "-a1-a2"]
        assert res.suggestion_valid

    def test_rank_two_long_fiber(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
        res = dualize(ws, [ZERO, weight({A1: 1})])
        assert labels(res.system) == ["0", "-2a1-a2", "-a1-a2", "a1", "-a2"]
        assert [w.label for w in res.suggested_basis] == ["a1", "-2a1-a2"]
        assert res.suggestion_valid

    def test_two_line_system_involution(self):
        ws = make_system([0, 1], [[0, 0], [1, 0], [0, 1]])
        base = [ZERO, weight({A1: 1})]
        once = dualize(ws, base)
        twice = dualize(once.system, base)
        assert twice.system.elements == ws.elements

    def test_no_bundle_direction_rejected(self):
        ws = degree_system(2)
        a = basic_symbol(1, 1)
        with pytest.raises(WeightError):
            dualize(ws, [ZERO, weight({a: 1})])

    def test_involution_randomized(self, rng):
        for _ in range(40):
            base_ws = random_nonneg_system(rng, max_rank=1, max_mult=2)
            a_f = basic_symbol(base_ws.rank + 1, rng.randint(0, 1))
            basis = tuple(sorted(base_ws.basis + (a_f,), key=lambda s: s.sort_key))
            fiber = {weight({a_f: 1})}
            for w in base_ws.sorted_elements():
                if rng.random() < 0.5:
                    fiber.add(w + weight({a_f: 1}))
            from gradedvb import WeightSystem
            ws = WeightSystem(basis, frozenset(set(base_ws.elements) | fiber))
            base = sorted(base_ws.elements, key=lambda w: w.sort_key)
            once = dualize(ws, base)
            twice = dualize(once.system, base)
            assert twice.system.elements == ws.elements


def _expressible_by_product(target, gens):
    """Reference: try every coefficient tuple up to the same bound."""
    if target.is_zero:
        return True
    bound = max((abs(c) for _, c in target.items), default=0) + 1
    for combo in itertools.product(range(bound + 1), repeat=len(gens)):
        acc = ZERO
        for k, g in zip(combo, gens):
            for _ in range(k):
                acc = acc + g
        if acc == target:
            return True
    return False


class TestExpressible:
    def test_matches_product_enumeration_randomized(self):
        rng = random.Random(20261018)
        hits = 0
        for _ in range(60):
            syms = [basic_symbol(i, rng.randint(0, 1))
                    for i in range(1, rng.randint(1, 3) + 1)]

            def rand_weight(lo, hi):
                return weight({s: rng.randint(lo, hi) for s in syms})

            gens = [rand_weight(-1, 2) for _ in range(rng.randint(1, 4))]
            targets = [rand_weight(-2, 2)]
            combo = ZERO
            for g in gens:
                combo = combo + g * rng.randint(0, 3)
            targets.append(combo)
            for t in targets:
                got = _expressible(t, gens)
                assert got == _expressible_by_product(t, gens)
                hits += got
        assert 0 < hits < 120  # both answers occur

    def test_coefficient_bound_is_inclusive(self):
        # -a1+a2 = (a1+a2) + 2 * (-a1) needs a coefficient of 2, one more
        # than the largest absolute entry of the target
        a1, a2 = basic_symbol(1, 0), basic_symbol(2, 0)
        gens = [weight({a1: 1, a2: 1}), weight({a1: -1})]
        target = weight({a1: -1, a2: 1})
        assert _expressible(target, gens)
        assert _expressible_by_product(target, gens)
        assert not _expressible(weight({a1: 1, a2: -1}), gens)


# ---------------------------------------------------------------------------
# the weight kernel against a plain dict-and-sort reference
# ---------------------------------------------------------------------------

def _ref_key(sym):
    # basics first by direction, then additionals by (direction, step)
    return (0, sym.i, 0) if sym.kind == "basic" else (1, sym.i, sym.j)


def _ref_ident(sym):
    return (sym.kind, sym.i, sym.j, sym.parity)


def _ref(w):
    """A weight as a dict from symbol identity to nonzero coefficient."""
    return {_ref_ident(s): c for s, c in w.items}


def _ref_combine(x, y, sign):
    acc = dict(x)
    for k, c in y.items():
        acc[k] = acc.get(k, 0) + sign * c
    return {k: c for k, c in acc.items() if c}


def _ref_sorted(d):
    return sorted(d.items(), key=lambda kc: (0 if kc[0][0] == "basic" else 1,
                                             kc[0][1], kc[0][2]))


def _ref_label(d):
    out = ""
    for (kind, i, j, _), c in _ref_sorted(d):
        name = f"a{i}" if kind == "basic" else f"b{j}_{i}"
        term = name if c == 1 else "-" + name if c == -1 else f"{c}{name}"
        out += term if not out or term.startswith("-") else "+" + term
    return out or "0"


def _symbol_pool():
    pool = []
    for i, p in ((1, 0), (2, 1), (3, 1)):
        pool.append(basic_symbol(i, p))
        pool.extend(additional_symbol(j, i, p) for j in (2, 3, 4))
    return pool


def _random_weight(rng, pool):
    pairs = [(rng.choice(pool), rng.randint(-3, 3))
             for _ in range(rng.randint(0, 5))]
    return weight(pairs), pairs


class TestWeightKernel:
    def test_matches_reference_randomized(self):
        rng = random.Random(7)
        pool = _symbol_pool()
        for _ in range(600):
            x, x_pairs = _random_weight(rng, pool)
            y, _ = _random_weight(rng, pool)
            rx, ry = _ref(x), _ref(y)
            # construction sums repeated symbols and drops zeros
            built = {}
            for s, c in x_pairs:
                built[_ref_ident(s)] = built.get(_ref_ident(s), 0) + c
            assert rx == {k: c for k, c in built.items() if c}
            assert [(_ref_ident(s), c) for s, c in x.items] == _ref_sorted(rx)
            assert x.sort_key == tuple((_ref_key(s), c) for s, c in x.items)
            for got, want in ((x + y, _ref_combine(rx, ry, 1)),
                              (x - y, _ref_combine(rx, ry, -1)),
                              (-x, _ref_combine({}, rx, -1))):
                assert [(_ref_ident(s), c) for s, c in got.items] == \
                    _ref_sorted(want)
                assert got == weight(got.items)
            k = rng.randint(-2, 3)
            assert _ref(x * k) == {kk: k * c for kk, c in rx.items() if k}
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)
            assert x == Weight(x.items) and hash(x) == hash(Weight(x.items))
            assert x.label == _ref_label(rx)
            assert x.is_zero == (not rx)
            assert x.is_nonnegative == all(c >= 0 for c in rx.values())
            assert x.is_multiplicity_free == all(c == 1 for c in rx.values())
            for s in pool:
                assert x.coeff(s) == rx.get(_ref_ident(s), 0)

    def test_symbol_equality_and_hash(self):
        rng = random.Random(11)
        pool = _symbol_pool()
        for _ in range(200):
            s, t = rng.choice(pool), rng.choice(pool)
            twin = BasisSymbol(s.kind, s.i, s.j, s.parity)
            assert twin == s and hash(twin) == hash(s)
            assert twin.sort_key == _ref_key(s)
            assert (s == t) == (_ref_ident(s) == _ref_ident(t))

    def test_parity_distinguishes_symbols(self):
        even, odd = basic_symbol(1, 0), basic_symbol(1, 1)
        assert even != odd
        assert weight({even: 1}) != weight({odd: 1})
        with pytest.raises(WeightError):
            weight({even: 1}) + weight({odd: 1})
        with pytest.raises(WeightError):
            weight({even: 1, odd: 1})

    @pytest.mark.parametrize("items", [
        ((basic_symbol(2, 0), 1), (basic_symbol(1, 0), 1)),
        ((additional_symbol(2, 1, 0), 1), (basic_symbol(1, 0), -1)),
        ((basic_symbol(1, 0), 1), (basic_symbol(1, 0), 2)),
        ((basic_symbol(1, 0), 0),),
        ((basic_symbol(1, 0), 1), (additional_symbol(3, 1, 0), 0)),
    ], ids=["unsorted", "additional-first", "duplicate", "zero", "zero-tail"])
    def test_non_canonical_weight_rejected(self, items):
        with pytest.raises(WeightError):
            Weight(items)

    @pytest.mark.parametrize("args", [
        ("other", 1, 0, 0),
        ("basic", 0, 0, 0),
        ("basic", 1, 2, 0),
        ("additional", 1, 1, 0),
        ("basic", 1, 0, 2),
    ], ids=["kind", "direction", "basic-step", "additional-step", "parity"])
    def test_invalid_symbol_rejected(self, args):
        with pytest.raises(WeightError):
            BasisSymbol(*args)
