"""Test oracle: dense Fraction matrices by the textbook routes.

A matrix is a list of rows of Fractions.  ``dense`` reads an
``OperatorMatrix`` by its documented format alone (int columns over one
positive denominator) and calls none of its methods; every other function
works on the lists, so the oracle shares no arithmetic with the engine.
"""

from __future__ import annotations

from fractions import Fraction

Dense = list[list[Fraction]]


def dense(m) -> Dense:
    """The rational entries of M/den, read off ``cols`` and ``den``."""
    assert type(m.den) is int and m.den > 0
    return [[Fraction(m.cols[j].get(i, 0), m.den) for j in range(m.ncols)]
            for i in range(m.nrows)]


def matmul(a: Dense, b: Dense, inner: int, ncols: int) -> Dense:
    """a b, with ``inner`` columns in a and ``ncols`` in b."""
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
             for j in range(ncols)] for i in range(len(a))]


def add(a: Dense, b: Dense, s=1) -> Dense:
    """a + s b."""
    return [[x + s * y for x, y in zip(r, q)] for r, q in zip(a, b)]


def scale(a: Dense, s) -> Dense:
    return [[s * x for x in r] for r in a]


def transpose(a: Dense, ncols: int) -> Dense:
    return [[a[i][j] for i in range(len(a))] for j in range(ncols)]


def apply(a: Dense, v: dict, ncols: int) -> list[Fraction]:
    return [sum((r[j] * v.get(j, 0) for j in range(ncols)), Fraction(0)) for r in a]


def rref(a: Dense, ncols: int) -> tuple[list[int], Dense]:
    """Gauss-Jordan elimination with the first non-zero entry as pivot."""
    m = [list(r) for r in a]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
    return pivots, m[:len(pivots)]


def kernel_basis(a: Dense, ncols: int) -> list[dict]:
    """One vector per free column of the reduced echelon form."""
    pivots, rows = rref(a, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = {f: Fraction(1)}
        for p, r in zip(pivots, rows):
            if r[f]:
                v[p] = -r[f]
        out.append(v)
    return out


def inverse(a: Dense) -> Dense | None:
    """The inverse of a square matrix, or None if it is singular."""
    n = len(a)
    pivots, rows = rref([r + [Fraction(int(i == j)) for j in range(n)]
                         for i, r in enumerate(a)], n)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in rows]


def det(rows, n: int) -> Fraction:
    """Determinant of a dense n x n matrix via fraction-free elimination
    with row swaps."""
    m = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)
