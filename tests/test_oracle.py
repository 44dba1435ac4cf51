"""Exact linear algebra cross-checked against sympy as an independent oracle.

The matrices are the ones the analysis layer builds: every component
matrix of the m3 operator families (the induced operators on the
restricted chart and the lift derivations on the quotient's weights),
the stacked systems an inverse solve hands to ``linalg.solve``, and the
inverses and products behind the step-change transfers of the property
checks.  sympy is
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
    de_rham,
    linalg,
    linearize_chart,
    monomial_poly,
    solve_inverse,
    weight,
)
from gradedvb.specfile import parse_spec
from conftest import dense, full_lift, sparse

sympy = pytest.importorskip("sympy")

HERE = os.path.dirname(__file__)
A = basic_symbol(1, 1)
B2 = additional_symbol(2, 1, 1)
B3 = additional_symbol(3, 1, 1)


def m3_linearized():
    with open(os.path.join(HERE, "data", "m3.spec"), "r", encoding="utf-8") as fh:
        return linearize_chart(parse_spec(fh.read()).chart())


def to_sympy(rows, cols):
    """The sympy matrix of sparse rows of width ``cols``."""
    return sympy.Matrix(len(rows), cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in dense(rows, cols) for x in row])


def column(v, dim):
    """A sparse vector as a sympy column of height ``dim``."""
    return to_sympy([v], dim).T


def operator_matrices():
    lc = m3_linearized()
    out = [component_map(op, w) for op in lc.operators.values()
           for w in lc.chart.system.sorted_elements()]
    lifted = full_lift(lc.source)
    out += [component_map(de_rham(lifted, tag), w) for tag in lc.lift_sequence
            for w in lc.quotient.system.sorted_elements()]
    return [cm for cm in out if cm.dom_dim and cm.cod_dim]


def check_against_oracle(entries, cols, rng):
    ours = to_sympy(entries, cols)
    rank = ours.rank()
    assert linalg.rank(entries) == rank
    # nullspace: the same dimension, inside the kernel, and the same span
    kernel = linalg.nullspace(entries, cols)
    assert len(kernel) == cols - rank == len(ours.nullspace())
    if kernel:
        kmat = to_sympy(kernel, cols).T
        assert (ours * kmat).is_zero_matrix
        assert kmat.rank() == len(kernel)
        theirs = sympy.Matrix.hstack(*ours.nullspace())
        assert sympy.Matrix.hstack(kmat, theirs).rank() == len(kernel)
    # solve: a consistent right-hand side is solved exactly, and a random
    # one is rejected exactly when the oracle finds it inconsistent
    x = sparse([[Fraction(rng.randint(-3, 3)) for _ in range(cols)]])[0]
    b = linalg.matvec(entries, x)
    sol = linalg.solve(entries, b, cols)
    assert sol is not None
    assert ours * column(sol, cols) == column(b, len(entries))
    b = sparse([[Fraction(rng.randint(-3, 3)) for _ in range(len(entries))]])[0]
    consistent = sympy.Matrix.hstack(ours, column(b, len(entries))).rank() == rank
    assert (linalg.solve(entries, b, cols) is not None) == consistent


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

    def recording_solve(a, b, cols):
        seen.append(([dict(row) for row in a], dict(b), cols))
        return solve(a, b, cols)

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
    for a, b, cols in seen:
        sol = solve(a, b, cols)
        assert sol is not None
        assert to_sympy(a, cols) * column(sol, cols) == column(b, len(a))
        # the oracle's own solution solves the same system
        _, params = to_sympy(a, cols).gauss_jordan_solve(column(b, len(a)))
        assert params.shape[0] == cols - linalg.rank(a)
        check_against_oracle(a, cols, rng)


def test_m3_transfer_matrices_match_oracle():
    # a transfer inv(back) * fwd maps the src component through fwd and
    # back along the operator ``back`` out of dst; the kernel-preservation
    # check builds one for each ordered pair of distinct m3 operators
    lc = m3_linearized()
    ops = list(lc.operators.values())
    elements = lc.chart.system.sorted_elements()
    transfers = 0
    for back in ops:
        for dst in elements:
            bm = component_map(back, dst)
            if not bm.dom_dim or bm.dom_dim != bm.cod_dim:
                continue
            assert not bm.truncated
            theirs = to_sympy(bm.entries, bm.dom_dim)
            inverse = linalg.inv(bm.entries, bm.dom_dim)
            if theirs.det() == 0:
                assert inverse is None
                continue
            assert to_sympy(inverse, bm.dom_dim) == theirs.inv()
            for fwd in ops:
                if fwd is back:
                    continue
                src = dst + back.weight_shift - fwd.weight_shift
                if src not in lc.chart.system.elements:
                    continue
                fm = component_map(fwd, src)
                if not fm.dom_dim:
                    continue
                product = linalg.matmul(inverse, fm.entries)
                # dense() checks every entry is a nonzero Fraction
                assert to_sympy(product, fm.dom_dim) == \
                    theirs.inv() * to_sympy(fm.entries, fm.dom_dim)
                transfers += 1
    assert transfers == 2
