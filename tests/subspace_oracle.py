"""Test oracle: the Subspace routes symcoh used before they went O(nnz).

The engine's ``Subspace.reduce`` now walks only the vector's own entries at
pivot columns, ``Subspace.coordinates`` reads them sparsely, and ``kernel``
scatters each reduced row into the free columns' basis vectors once.  This
module keeps the earlier bodies unchanged:

* ``reduce`` loops over every pivot in order and reads the running
  residual there;
* ``coordinates`` runs a full ``reduce`` and returns a dense list with one
  entry per pivot;
* ``kernel`` builds each free column's basis vector by scanning every pivot
  row;
* ``rref`` back-substitutes on the int echelon rows and then normalizes
  each row to Fractions with pivot entry 1; the engine's ``rref`` keeps the
  rows in ints and derives that Fraction form only on read.

They take the subspace (or operator) as their first argument.

The engine meets subspaces only as kernels (``linalg.meet``, and
``OperatorMatrix.stack`` for two kernels) and sums them as one ``Subspace``
of both bases.  ``subspace_intersect`` (Zassenhaus) and ``subspace_sum``,
which it used before, are kept here.  The Zassenhaus elimination names the
engine's int ``rref`` (``linalg.rref``), as it did in the engine, so it
does not run on this module's Fraction ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from symcoh import linalg
from symcoh.linalg import OperatorMatrix, Subspace, Vec, _eliminate, echelon


def rref(rows: Iterable[Vec], ncols: int) -> tuple[list[int], list[Vec]]:
    """Canonical reduced row echelon form: (pivot columns, normalized rows)."""
    pivoted = echelon(rows, ncols)
    # clear each pivot column from the rows above it, bottom row first: a
    # row below is already 0 in every other pivot column, so no elimination
    # refills a pivot column
    reduced: dict[int, Vec] = {}
    for col, row in reversed(pivoted):
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[col] = row
    pivots = [col for col, _ in pivoted]
    out = []
    for col in pivots:
        row = reduced[col]
        pv = row[col]
        out.append({j: Fraction(v, pv) for j, v in row.items()})
    return pivots, out


def reduce(sub: Subspace, vec: Vec) -> Vec:
    """Residual of ``vec`` after eliminating this subspace's pivots, with
    no 0 entry."""
    out = {j: v for j, v in vec.items() if v}
    for p, row in zip(sub.pivots, sub.rows):
        c = out.get(p)
        if c:
            for j, v in row.items():
                w = out.get(j, 0) - c * v
                if w:
                    out[j] = w
                else:
                    out.pop(j, None)
    return out


def contains(sub: Subspace, vec: Vec) -> bool:
    return not reduce(sub, vec)


def coordinates(sub: Subspace, vec: Vec) -> list | None:
    """Coefficients of ``vec`` over the canonical basis, or None."""
    if not contains(sub, vec):
        return None
    return [vec.get(p, Fraction(0)) for p in sub.pivots]


def kernel(m: OperatorMatrix) -> Subspace:
    """Exact null space of the operator."""
    pivots, rows = rref(m.rows(), m.ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v: Vec = {f: Fraction(1)}
        for p, row in zip(pivots, rows):
            c = row.get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return Subspace(m.ncols, basis)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    return Subspace(a.ambient, a.ints + b.ints)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half span A^B."""
    a._check(b)
    n = a.ambient
    stacked = []
    for r in a.ints:
        row = dict(r)
        row.update({j + n: v for j, v in r.items()})
        stacked.append(row)
    stacked.extend(b.ints)
    _, rows = linalg.rref(stacked, 2 * n)
    inter = []
    for r in rows:
        if all(j >= n for j in r):
            inter.append({j - n: v for j, v in r.items()})
    return Subspace(n, inter)


def same(a: Subspace, b: Subspace) -> bool:
    """Equal subspaces with equal pivots: equal canonical int rows."""
    return a == b and a.pivots == b.pivots
