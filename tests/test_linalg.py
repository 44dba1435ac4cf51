"""The sparse fraction-free elimination against dense Gauss–Jordan.

The reference below is plain Gauss–Jordan on ``Fraction`` lists, one dense
row operation at a time.  The reduced row echelon form is unique, so every
public function of ``linalg`` must agree with it exactly, entry by entry,
once its sparse rows are made dense: ``rref`` with the nonzero rows of the
reference, whose remaining rows are zero, and the others with the
reference's whole answer.  Every stored entry must be a nonzero
``Fraction`` (checked by ``dense``).
"""

import random
from fractions import Fraction

import pytest

from gradedvb import linalg
from conftest import dense, sparse


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------

def ref_rref(a):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_rank(a):
    if not a or not a[0]:
        return 0
    return len(ref_rref(a)[1])


def ref_nullspace(a, cols):
    if cols == 0:
        return []
    if not a:
        return [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    red, pivots = ref_rref(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def ref_solve(a, b):
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    red, pivots = ref_rref([row[:] + [b[i]] for i, row in enumerate(a)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def ref_inv(a):
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = ref_rref([a[i][:] + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def ref_matvec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def ref_matmul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------

def rand_entry(rng):
    roll = rng.random()
    if roll < 0.55:
        return Fraction(0)
    if roll < 0.85:
        return Fraction(rng.choice((-1, 1)))
    if roll < 0.95:
        return Fraction(rng.randint(-4, 4))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def rand_matrix(rng, rows, cols):
    a = [[rand_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        # rank deficiency: one row a combination of two others
        i, j, k = (rng.randrange(rows) for _ in range(3))
        f, g = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-3, 3), 2)
        a[i] = [f * x + g * y for x, y in zip(a[j], a[k])]
    if rows and rng.random() < 0.2:
        a[rng.randrange(rows)] = [Fraction(0)] * cols
    if cols and rng.random() < 0.2:
        c = rng.randrange(cols)
        for row in a:
            row[c] = Fraction(0)
    return a


def check_all(a, cols, rng):
    """Compare every function on the dense matrix ``a``, whose kernel is
    taken on a ``cols``-dimensional domain."""
    width = len(a[0]) if a else 0
    sa = sparse(a)
    red, pivots = linalg.rref(sa)
    ref_red, ref_pivots = ref_rref(a)
    assert pivots == ref_pivots
    assert dense(red, width) == ref_red[:len(pivots)]
    assert all(x == 0 for row in ref_red[len(pivots):] for x in row)
    assert linalg.rank(sa) == ref_rank(a)
    kernel = linalg.nullspace(sa, cols)
    assert dense(kernel, cols) == ref_nullspace(a, cols)
    x = [rand_entry(rng) for _ in range(cols)]
    b = linalg.matvec(sa, sparse([x])[0])
    assert dense([b], len(a)) == [ref_matvec(a, x)]
    for rhs in (dense([b], len(a))[0], [rand_entry(rng) for _ in range(len(a))]):
        sol = linalg.solve(sa, sparse([rhs])[0], width)
        want = ref_solve(a, rhs)
        assert (sol is None) == (want is None)
        if sol is not None:
            assert dense([sol], width) == [want]
    other = rand_matrix(rng, cols, rng.randint(0, 4))
    product = linalg.matmul(sa, sparse(other))
    assert dense(product, len(other[0]) if other else 0) == ref_matmul(a, other)
    inverse = linalg.inv(sa, width)
    want = ref_inv(a)
    assert (inverse is None) == (want is None)
    if inverse is not None:
        assert dense(inverse, width) == want


def test_randomized_against_dense_reference():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(1500):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        if rng.random() < 0.3:
            cols = rows
        a = rand_matrix(rng, rows, cols)
        check_all(a, cols if rows else rng.randint(0, 3), rng)
        outcomes.add((ref_rank(a) < min(rows, cols), ref_inv(a) is not None))
    # rank-deficient and full-rank matrices, invertible and singular ones
    assert outcomes == {(False, False), (False, True), (True, False)}


def test_rank_is_the_pivot_count_of_rref():
    # rank eliminates without the final division by the pivots
    rng = random.Random(20261019)
    deficient = set()
    for _ in range(600):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        a = rand_matrix(rng, rows, cols)
        r = linalg.rank(sparse(a))
        assert r == len(linalg.rref(sparse(a))[1]) == ref_rank(a)
        deficient.add(r < min(rows, cols))
    assert deficient == {False, True}


def test_inconsistent_systems_and_singular_matrices():
    one, two = Fraction(1), Fraction(2)
    a = sparse([[one, two], [two, 4 * one]])
    assert linalg.solve(a, {0: one, 1: one}, 2) is None
    assert dense([linalg.solve(a, {0: one, 1: two}, 2)], 2) == [[one, Fraction(0)]]
    assert linalg.inv(a, 2) is None
    assert linalg.rank(a) == 1
    assert dense(linalg.nullspace(a, 2), 2) == [[-two, one]]


def test_non_integer_entries():
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 5), Fraction(7, 4)]]
    inverse = linalg.inv(sparse(a), 2)
    assert dense(inverse, 2) == ref_inv(a)
    assert dense(linalg.matmul(sparse(a), inverse), 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("a, cols", [([], 0), ([], 3), ([[], []], 0),
                                     ([[Fraction(0)] * 3], 3)])
def test_empty_and_zero_matrices(a, cols):
    check_all(a, cols, random.Random(1))


def test_empty_matrix_kernel_is_whole_domain():
    assert dense(linalg.nullspace([], 2), 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace([{}, {}], 0) == []
    assert linalg.rref([]) == ([], [])
    # zero rows have no pivot, so the form has no row at all
    assert linalg.rref([{}, {}]) == ([], [])
    assert linalg.inv([], 0) == []
