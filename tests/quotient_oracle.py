"""Test oracle: the output path symcoh used before group representatives
stayed int rows.

The engine's ``quotient`` returns the numerator's kept (pivot, int row)
pairs, a ``CohomologyGroup`` stores them, ``compute`` prints each row
through ``exterior.row_to_str`` and ``class_coordinates`` reads a class's
coordinates off its residual modulo the denominator.  This module keeps the
earlier bodies:

* ``quotient`` turns each kept row into Fractions with pivot entry 1;
* ``representatives`` wraps those Fraction rows in Forms;
* ``form_to_str`` walks a Form's terms in canonical blade order and prints
  each coefficient with ``str`` of its Fraction;
* ``class_coordinates`` solves for a class over the representatives and
  the denominator's rows with ``solve``, a particular solution by ``rref``.
"""

from __future__ import annotations

from fractions import Fraction

from symcoh.exterior import Form, blade_index, blade_str, form_from_coords, form_to_coords
from symcoh.linalg import OperatorMatrix, Subspace, Vec, rref


def quotient(numerator: Subspace, denominator: Subspace) -> tuple[int, list[Vec]]:
    """Dimension and normalized Fraction representatives of
    numerator/denominator, with no inclusion check."""
    dpiv = set(denominator.pivots)
    reps = [{j: Fraction(v, row[p]) for j, v in row.items()}
            for p, row in zip(numerator.pivots, numerator.ints) if p not in dpiv]
    return len(reps), reps


def representatives(calc, name: str, k: int) -> list[Form]:
    """The group's representatives by the Fraction route: the oracle
    ``quotient`` of the group's own numerator and denominator."""
    g = calc.group(name, k)
    order = blade_index(calc.dim, k)[0]
    return [form_from_coords(r, order, calc.dim)
            for r in quotient(g.numerator, g.denominator)[1]]


def form_to_str(a: Form) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for mask, c in a.items():
        neg = c < 0
        mag = -c if neg else c
        if mask == 0:
            body = str(mag)
        elif mag == 1:
            body = blade_str(mask)
        else:
            body = f"{mag}*{blade_str(mask)}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def solve(m: OperatorMatrix, target: Vec) -> Vec | None:
    """A particular solution of (M/den) x = target, that is M x = den·target
    (free variables 0), or None."""
    aug = []
    for i, r in enumerate(m.rows()):
        if target.get(i):
            r[m.ncols] = target[i] * m.den
        if r:
            aug.append(r)
    pivots, rows = rref(aug, m.ncols + 1)
    sol: Vec = {}
    for p, row in zip(pivots, rows):
        if p == m.ncols:
            return None
        v = row.get(m.ncols)
        if v:
            sol[p] = Fraction(v, row[p])
    return sol


def class_coordinates(calc, g, f: Form) -> list | None:
    """Coordinates of [f] over the group's representatives by solving over
    them and the denominator's rows, or None if f is not in the numerator."""
    idx = blade_index(calc.dim, g.degree)[1]
    v = form_to_coords(f, idx)
    if not g.numerator.contains(v):
        return None
    reps = g.representatives
    cols = [form_to_coords(r, idx) for r in reps] + g.denominator.ints
    sol = solve(OperatorMatrix.from_columns(cols, len(idx)), v)
    if sol is None:
        raise AssertionError("class decomposition failed")
    return [sol.get(i, Fraction(0)) for i in range(len(reps))]
