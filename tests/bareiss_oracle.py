"""Test oracle: the fraction-free (Bareiss) row reduction symcoh used to run.

The engine now eliminates on gcd-reduced integer rows bucketed by leading
column.  This module keeps the earlier kernel unchanged as an independent
route: every remaining row is updated at every pivot with the Bareiss step,
the first row with a non-zero in the leftmost open column is the pivot, and
back-substitution runs on the echelon rows in place.  The reduced row
echelon form of a row space is unique, so both routes must return the same
pivots and the same ``Fraction`` rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

Vec = dict


def _exact_div(a, b):
    return Fraction(a) / b


def _denominator_lcm(row: Vec) -> int:
    d = 1
    for v in row.values():
        d = lcm(d, v.denominator)
    return d


def _clear_denominators(row: Vec) -> Vec:
    d = _denominator_lcm(row)
    if d == 1:
        return dict(row)
    return {j: v * d for j, v in row.items()}


def echelon(rows: Iterable[Vec], ncols: int) -> list[tuple[int, Vec]]:
    """Fraction-free forward elimination; returns (pivot column, row) pairs.

    Rows are combined via the Bareiss update, so entries stay integral once
    denominators are cleared.  Pivots come out in ascending column order.
    """
    work = []
    for r in rows:
        r = {j: v for j, v in r.items() if v}
        if r:
            work.append(_clear_denominators(r))
    pivots: list[tuple[int, Vec]] = []
    prev = 1
    col = 0
    while work and col < ncols:
        pr = None
        rest = []
        for r in work:
            if pr is None and r.get(col):
                pr = r
            else:
                rest.append(r)
        if pr is None:
            col += 1
            continue
        piv = pr[col]
        nxt = []
        for r in rest:
            rc = r.get(col, 0)
            nr = {}
            for j in r.keys() | pr.keys():
                v = piv * r.get(j, 0) - rc * pr.get(j, 0)
                if v:
                    nr[j] = _exact_div(v, prev)
            if nr:
                nxt.append(nr)
        pivots.append((col, pr))
        work = nxt
        prev = piv
        col += 1
    return pivots


def rref(rows: Iterable[Vec], ncols: int) -> tuple[list[int], list[Vec]]:
    """Canonical reduced row echelon form: (pivot columns, normalized rows)."""
    pivoted = echelon(rows, ncols)
    # eliminate above each pivot, then normalize leading entries to 1
    for t in range(len(pivoted) - 1, -1, -1):
        col_t, row_t = pivoted[t]
        pv = row_t[col_t]
        for s in range(t):
            col_s, row_s = pivoted[s]
            f = row_s.get(col_t)
            if f:
                factor = _exact_div(f, pv)
                for j, v in row_t.items():
                    w = row_s.get(j, 0) - factor * v
                    if w:
                        row_s[j] = w
                    else:
                        row_s.pop(j, None)
    pivots = []
    out = []
    for col, row in pivoted:
        pv = row[col]
        out.append({j: _exact_div(v, pv) for j, v in row.items()})
        pivots.append(col)
    return pivots, out
