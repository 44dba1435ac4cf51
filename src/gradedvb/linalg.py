"""Small exact linear algebra over the rationals.

Matrices are lists of row lists of ``Fraction``.  Everything is Gaussian
elimination with exact pivots; sizes here are tiny (component matrices of
truncated chart algebras), so clarity wins over cleverness.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for k in range(n):
        out[k][k] = Fraction(1)
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    n, k = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = zeros(n, cols)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(cols):
                    oi[j] += c * bt[j]
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
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


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """A particular solution of ``a x = b``, or None if inconsistent."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inv(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def is_bijective(a: Matrix, dom_dim: int, cod_dim: int) -> bool:
    if dom_dim != cod_dim:
        return False
    if dom_dim == 0:
        return True
    return rank(a) == dom_dim


def column_space_contains(a: Matrix, v: Vector) -> bool:
    return solve(a, v) is not None


def same_column_space(a: Matrix, b: Matrix) -> bool:
    """Whether two column families span the same subspace."""
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    joined = [a[i] + b[i] for i in range(len(a))] if a else b
    return rank(joined) == ra
