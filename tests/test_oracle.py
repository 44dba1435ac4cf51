"""Exact linear algebra cross-checked against sympy as an independent oracle.

The matrices are the ones the analysis layer builds: every component
matrix of the m3 operator families (the induced operators on the
restricted chart and the lift derivations on the quotient's weights) and
the stacked systems an inverse solve hands to ``linalg.solve``.  sympy is
used by this test only; the package itself stays standard-library.
"""

import os
import random
from fractions import Fraction

import pytest

from gradedvb import (
    additional_symbol,
    basic_symbol,
    component_basis,
    component_map,
    compose_DLambda,
    linalg,
    linearize_chart,
    monomial_poly,
    solve_inverse,
    weight,
)
from gradedvb.specfile import parse_spec

sympy = pytest.importorskip("sympy")

HERE = os.path.dirname(__file__)
A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)


def m3_linearized():
    with open(os.path.join(HERE, "data", "m3.spec"), "r", encoding="utf-8") as fh:
        return linearize_chart(parse_spec(fh.read()).chart())


def to_sympy(entries, cols):
    return sympy.Matrix(len(entries), cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in entries for x in row])


def operator_matrices():
    lc = m3_linearized()
    out = [component_map(op, w) for op in lc.operators.values()
           for w in lc.chart.system.sorted_elements()]
    out += [component_map(op, w) for op in lc.lifted_derivations.values()
            for w in lc.quotient.system.sorted_elements()]
    return [cm for cm in out if cm.dom_dim and cm.cod_dim]


def check_against_oracle(entries, cols, rng):
    ours = to_sympy(entries, cols)
    rank = ours.rank()
    assert linalg.rank(entries) == rank
    # nullspace: the same dimension, inside the kernel, and the same span
    kernel = linalg.nullspace(entries)
    assert len(kernel) == cols - rank == len(ours.nullspace())
    if kernel:
        kmat = to_sympy([list(r) for r in zip(*kernel)], len(kernel))
        assert (ours * kmat).is_zero_matrix
        assert kmat.rank() == len(kernel)
        theirs = sympy.Matrix.hstack(*ours.nullspace())
        assert sympy.Matrix.hstack(kmat, theirs).rank() == len(kernel)
    # solve: a consistent right-hand side is solved exactly, and a random
    # one is rejected exactly when the oracle finds it inconsistent
    x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
    b = linalg.matvec(entries, x)
    sol = linalg.solve(entries, b)
    assert sol is not None
    assert ours * to_sympy([[v] for v in sol], 1) == to_sympy([[v] for v in b], 1)
    b = [Fraction(rng.randint(-3, 3)) for _ in range(len(entries))]
    consistent = sympy.Matrix.hstack(ours, to_sympy([[v] for v in b], 1)).rank() == rank
    assert (linalg.solve(entries, b) is not None) == consistent


def test_m3_component_matrices_match_oracle():
    rng = random.Random(7)
    mats = operator_matrices()
    assert max(cm.dom_dim for cm in mats) >= 10  # not only trivial blocks
    for cm in mats:
        assert not cm.truncated
        check_against_oracle(cm.entries, cm.dom_dim, rng)


def test_inverse_solve_systems_match_oracle(monkeypatch):
    lc = m3_linearized()
    seen = []
    solve = linalg.solve

    def recording_solve(a, b):
        seen.append(([row[:] for row in a], list(b)))
        return solve(a, b)

    monkeypatch.setattr(linalg, "solve", recording_solve)
    # two steps on the m3 invert golden, and one step on a dense preimage
    solve_inverse(lc, (B3, B2),
                  lc.chart.gen(lc.chart.coordinate("xi{2a1}_1[b2_1,b3_1]")))
    delta = weight({A: 2})
    p = lc.source.zero()
    for k, m in enumerate(component_basis(lc.source, delta)):
        p = p + monomial_poly(lc.source, m, k + 1)
    assert solve_inverse(lc, (B2,), compose_DLambda(lc, (B2,)).apply(p)) == p
    monkeypatch.undo()

    assert len(seen) == 3
    rng = random.Random(11)
    for a, b in seen:
        cols = len(a[0])
        sol = solve(a, b)
        assert sol is not None
        assert to_sympy(a, cols) * to_sympy([[v] for v in sol], 1) == \
            to_sympy([[v] for v in b], 1)
        # the oracle's own solution solves the same system
        _, params = to_sympy(a, cols).gauss_jordan_solve(to_sympy([[v] for v in b], 1))
        assert params.shape[0] == cols - linalg.rank(a)
        check_against_oracle(a, cols, rng)
