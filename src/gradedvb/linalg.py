"""Exact linear algebra over the rationals by sparse fraction-free elimination.

A vector is a dict from index to ``Fraction`` holding its nonzero entries
only, and a matrix is a list of such sparse rows; every result comes back
in that form.  A sparse row does not record its width, so the functions
that need the number of columns (:func:`nullspace`, :func:`solve`,
:func:`inv`) take it as an argument.

The operator matrices of the analysis layer are small, sparse and mostly
±1, so :func:`rref` scales each row to integers, eliminates with integer
row operations (each result divided by the gcd of its entries, so the
integers stay small) and divides by the pivots once, at the end;
:func:`rank` counts the pivots of that elimination and divides by none.  The
reduced row echelon form of a matrix is unique: neither the choice of
pivot rows nor the scaling of rows on the way changes it.  So :func:`rref`
returns exactly the nonzero rows of what dense Gauss–Jordan over
``Fraction`` returns, and :func:`nullspace`, :func:`solve` and :func:`inv`,
which read their answers off it, agree with the dense versions too.

Row rank equals column rank, so a question about the span of a family of
column vectors is asked of the same vectors taken as rows: :func:`rank` of
the family is the dimension of its span, and a vector lies in the span
exactly when appending it leaves the rank unchanged.  No caller needs a
transpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = dict[int, Fraction]
Matrix = list[Vector]

_ONE = Fraction(1)


def matvec(a: Matrix, v: Vector) -> Vector:
    out = {}
    for i, row in enumerate(a):
        acc = 0
        for j, x in row.items():
            y = v.get(j)
            if y is not None:
                acc += x * y
        if acc:
            out[i] = acc
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ai in a:
        oi: Vector = {}
        for t, c in ai.items():
            for j, x in b[t].items():
                oi[j] = oi.get(j, 0) + c * x
        out.append({j: x for j, x in oi.items() if x})
    return out


def matadd(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ai, bi in zip(a, b, strict=True):
        oi = dict(ai)
        for j, x in bi.items():
            oi[j] = oi.get(j, 0) + x
        out.append({j: x for j, x in oi.items() if x})
    return out


def _integer_row(row: Vector) -> dict[int, int]:
    """The entries of a row times the lcm of their denominators."""
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


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


def _echelon(a: Matrix) -> list[tuple[int, dict[int, int]]]:
    """The integer elimination of :func:`rref`: each pivot column, in
    increasing order, with its pivot row, cleared in every other pivot
    column but not yet divided by its pivot."""
    pending = [_integer_row(r) for r in a if r]
    done: list[tuple[int, dict[int, int]]] = []
    for c in sorted(set().union(*pending)):
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
    return done


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """The nonzero rows of the reduced row echelon form, in pivot order,
    and their pivot columns."""
    done = _echelon(a)
    return ([{k: Fraction(v, r[c]) for k, v in r.items()} for c, r in done],
            [c for c, _ in done])


def rank(a: Matrix) -> int:
    """The number of pivots of the elimination, which divides by none."""
    return len(_echelon(a))


def nullspace(a: Matrix, cols: int) -> list[Vector]:
    """Basis of the right kernel of ``a`` on a ``cols``-dimensional domain,
    one vector per free column in increasing order; a matrix with no rows
    kills the whole domain."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis = {fc: {fc: _ONE} for fc in range(cols) if fc not in pivot_set}
    # every other entry of a reduced pivot row sits in a free column
    for row, pc in zip(red, pivots):
        for k, x in row.items():
            if k != pc:
                basis[k][pc] = -x
    return list(basis.values())


def solve(a: Matrix, b: Vector, cols: int) -> Vector | None:
    """A particular solution of ``a x = b`` with ``cols`` unknowns, zero in
    every free column, or None if the system is inconsistent."""
    red, pivots = rref([{**row, cols: b[i]} if i in b else row
                        for i, row in enumerate(a)])
    if cols in pivots:
        return None
    return {pc: row[cols] for row, pc in zip(red, pivots) if cols in row}


def inv(a: Matrix, n: int) -> Matrix | None:
    """The inverse of the ``n`` by ``n`` matrix ``a``, or None if ``a`` is
    singular or does not have ``n`` rows."""
    if len(a) != n:
        return None
    red, pivots = rref([{**row, n + i: _ONE} for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [{k - n: x for k, x in row.items() if k >= n} for row in red]
