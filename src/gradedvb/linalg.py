"""Exact linear algebra over the rationals by sparse fraction-free elimination.

Matrices are lists of row lists of ``Fraction``, and every result comes back
in that form.  The operator matrices of the analysis layer are small, sparse
and mostly ±1, so :func:`rref` scales each row to integers, keeps it as a
dict of its nonzero entries, eliminates with integer row operations (each
result divided by the gcd of its entries, so the integers stay small) and
divides by the pivots once, at the end.  :func:`matvec` and :func:`matmul`
skip zero entries.

The reduced row echelon form of a matrix is unique: neither the choice of
pivot rows nor the scaling of rows on the way changes it.  So :func:`rref`
returns exactly what dense Gauss–Jordan over ``Fraction`` returns, and so do
:func:`nullspace`, :func:`solve` and :func:`inv`, which read their answers
off it.  Every elimination goes through :func:`rref`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO, _ONE = Fraction(0), Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def matvec(a: Matrix, v: Vector) -> Vector:
    support = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in a:
        acc = _ZERO
        for j, x in support:
            if row[j]:
                acc += row[j] * x
        out.append(acc)
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0]) if b else 0
    sparse_b = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for ai in a:
        oi = [_ZERO] * cols
        for t, c in enumerate(ai):
            if c:
                for j, x in sparse_b[t]:
                    oi[j] += c * x
        out.append(oi)
    return out


def _integer_row(row: Vector) -> dict[int, int]:
    """The nonzero entries of a row times the lcm of their denominators."""
    den = 1
    for x in row:
        if x:
            den = lcm(den, x.denominator)
    return {j: x.numerator * (den // x.denominator)
            for j, x in enumerate(row) if x}


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> None:
    """Clear column ``c`` of ``row`` with an integer combination of ``row``
    and ``pivot``, then divide ``row`` by the gcd of its entries."""
    g = gcd(pivot[c], row[c])
    p, a = pivot[c] // g, row[c] // g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in pivot.items():
        x = row.get(k, 0) - a * v
        if x:
            row[k] = x
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns.  The rows of the form
    are the pivot rows in pivot order, then zero rows, as many as ``a``
    has rows."""
    cols = len(a[0]) if a else 0
    pending = [r for r in map(_integer_row, a) if r]
    done: list[tuple[int, dict[int, int]]] = []
    for c in range(cols):
        hits = [r for r in pending if c in r]
        if not hits:
            continue
        # a unit pivot on a short row keeps the integers and the fill small
        pivot = min(hits, key=lambda r: (abs(r[c]) != 1, len(r)))
        for r in hits + [r for _, r in done if c in r]:
            if r is not pivot:
                _eliminate(r, pivot, c)
        pending = [r for r in pending if r and r is not pivot]
        done.append((c, pivot))
    out = [[_ZERO] * cols for _ in a]
    for row, (c, r) in zip(out, done):
        for k, v in r.items():
            row[k] = Fraction(v, r[c])
    return out, [c for c, _ in done]


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix, cols: int) -> list[Vector]:
    """Basis of the right kernel of ``a`` on a ``cols``-dimensional domain,
    one vector per free column; a matrix with no rows kills the whole
    domain."""
    if not a or not cols:
        return identity(cols)
    red, pivots = rref(a)
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [_ZERO] * cols
        v[fc] = _ONE
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """A particular solution of ``a x = b``, or None if inconsistent."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    red, pivots = rref([row + [b[i]] for i, row in enumerate(a)])
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for row, pc in zip(red, pivots):
        x[pc] = row[cols]
    return x


def inv(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        return None
    eye = identity(n)
    red, pivots = rref([a[i] + eye[i] for i in range(n)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def is_bijective(a: Matrix, dom_dim: int, cod_dim: int) -> bool:
    return dom_dim == cod_dim and (dom_dim == 0 or rank(a) == dom_dim)


def column_space_contains(a: Matrix, v: Vector) -> bool:
    return solve(a, v) is not None


def same_column_space(a: Matrix, b: Matrix) -> bool:
    """Whether two column families span the same subspace."""
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    joined = [a[i] + b[i] for i in range(len(a))] if a else b
    return rank(joined) == ra
