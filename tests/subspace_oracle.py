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
  row.

They take the subspace (or operator) as their first argument.
"""

from __future__ import annotations

from fractions import Fraction

from symcoh.linalg import OperatorMatrix, Subspace, Vec, rref


def reduce(sub: Subspace, vec: Vec) -> Vec:
    """Residual of ``vec`` after eliminating this subspace's pivots."""
    out = dict(vec)
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
