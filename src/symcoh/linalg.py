"""Exact sparse linear algebra over Q.

Vectors are sparse ``{index: scalar}`` dicts; scalars are ints or Fractions
(never floats).  Row reduction clears denominators and then runs
fraction-free (Bareiss) elimination so intermediate entries stay integral;
reduced echelon normalization happens once at the end.

Pivot choice is frozen: leftmost column first, then first row.  A Subspace is
stored as its reduced-row-echelon basis, which is a canonical representation:
two subspaces are equal iff their stored bases are identical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vec = dict


class AmbientMismatchError(ValueError):
    """Subspace operands live in different ambient spaces."""


class InclusionError(ValueError):
    """Quotient denominator is not contained in the numerator."""


# ---------------------------------------------------------------------------
# scalar/vector helpers
# ---------------------------------------------------------------------------

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


def vec_add(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for j, v in b.items():
        w = out.get(j, 0) + v
        if w:
            out[j] = w
        else:
            out.pop(j, None)
    return out


def vec_scale(a: Vec, s) -> Vec:
    if not s:
        return {}
    return {j: v * s for j, v in a.items()}


def vec_dot(a: Vec, b: Vec):
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    out = 0
    for j, v in small.items():
        w = big.get(j)
        if w:
            out = out + v * w
    return out


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

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


def det(rows: Sequence[Sequence], n: int):
    """Determinant of a dense n x n matrix via fraction-free elimination."""
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
                m[i][j] = _exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class OperatorMatrix:
    """A linear operator materialized column-by-column over chosen bases.

    ``cols[j]`` is the sparse coordinate vector of the image of the j-th
    domain basis element.  ``domain``/``codomain`` are optional basis labels
    carried along for reporting.
    """

    __slots__ = ("nrows", "ncols", "cols", "domain", "codomain")

    def __init__(self, nrows: int, ncols: int, cols: list[Vec],
                 domain=None, codomain=None):
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [{i: v for i, v in c.items() if v} for c in cols]
        self.domain = domain
        self.codomain = codomain

    @classmethod
    def from_columns(cls, cols: list[Vec], nrows: int, **kw) -> "OperatorMatrix":
        return cls(nrows, len(cols), cols, **kw)

    @classmethod
    def from_rows(cls, rows: list[Vec], ncols: int, **kw) -> "OperatorMatrix":
        cols: list[Vec] = [{} for _ in range(ncols)]
        for i, r in enumerate(rows):
            for j, v in r.items():
                if v:
                    cols[j][i] = v
        return cls(len(rows), ncols, cols, **kw)

    @classmethod
    def identity(cls, n: int) -> "OperatorMatrix":
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "OperatorMatrix":
        n = len(values)
        return cls(n, n, [{i: values[i]} if values[i] else {} for i in range(n)])

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, Fraction(0))

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.nrows)]
        for j, c in enumerate(self.cols):
            for i, v in c.items():
                out[i][j] = v
        return out

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix.from_columns(self.rows(), self.ncols)

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for j, s in vec.items():
            if s:
                for i, v in self.cols[j].items():
                    w = out.get(i, 0) + v * s
                    if w:
                        out[i] = w
                    else:
                        out.pop(i, None)
        return out

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self o other (apply ``other`` first)."""
        if self.ncols != other.nrows:
            raise ValueError("operator shapes do not compose")
        return OperatorMatrix(self.nrows, other.ncols,
                              [self.apply(c) for c in other.cols])

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self.compose(other)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("operator shapes differ")
        return OperatorMatrix(self.nrows, self.ncols,
                              [vec_add(a, b) for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(-1)

    def scale(self, s) -> "OperatorMatrix":
        return OperatorMatrix(self.nrows, self.ncols,
                              [vec_scale(c, s) for c in self.cols])

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.cols == other.cols)

    def rank(self) -> int:
        return len(echelon(self.rows(), self.ncols))

    def invert(self) -> "OperatorMatrix":
        if self.nrows != self.ncols:
            raise ValueError("only square operators can be inverted")
        n = self.nrows
        aug = []
        for i, r in enumerate(self.rows()):
            r = dict(r)
            r[n + i] = Fraction(1)
            aug.append(r)
        pivots, rows = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("operator is singular")
        inv_rows = [{j - n: v for j, v in rows[i].items() if j >= n} for i in range(n)]
        return OperatorMatrix.from_rows(inv_rows, n)

    def __repr__(self):
        return f"OperatorMatrix({self.nrows}x{self.ncols})"


def solve(m: OperatorMatrix, target: Vec) -> Vec | None:
    """A particular solution of M x = target (free variables 0), or None."""
    aug = []
    t = dict(target)
    for i, r in enumerate(m.rows()):
        r = dict(r)
        if t.get(i):
            r[m.ncols] = t[i]
        if r:
            aug.append(r)
    pivots, rows = rref(aug, m.ncols + 1)
    sol: Vec = {}
    for p, row in zip(pivots, rows):
        if p == m.ncols:
            return None
        v = row.get(m.ncols)
        if v:
            sol[p] = v
    return sol


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace in canonical reduced-row-echelon basis form."""

    __slots__ = ("ambient", "pivots", "rows")

    def __init__(self, ambient: int, vectors: Iterable[Vec] = ()):
        self.ambient = ambient
        self.pivots, self.rows = rref(vectors, ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [{i: 1} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Vec]:
        return [dict(r) for r in self.rows]

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}")

    def reduce(self, vec: Vec) -> Vec:
        """Residual of ``vec`` after eliminating this subspace's pivots."""
        out = dict(vec)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                for j, v in row.items():
                    w = out.get(j, 0) - c * v
                    if w:
                        out[j] = w
                    else:
                        out.pop(j, None)
        return out

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(r) for r in other.rows)

    def coordinates(self, vec: Vec) -> list | None:
        """Coefficients of ``vec`` over the canonical basis, or None."""
        if not self.contains(vec):
            return None
        return [vec.get(p, Fraction(0)) for p in self.pivots]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    return Subspace(a.ambient, a.rows + b.rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: echelonize [A|A; B|0]; rows with zero left half span A^B."""
    a._check(b)
    n = a.ambient
    stacked = []
    for r in a.rows:
        row = dict(r)
        row.update({j + n: v for j, v in r.items()})
        stacked.append(row)
    stacked.extend(dict(r) for r in b.rows)
    _, rows = rref(stacked, 2 * n)
    inter = []
    for r in rows:
        if all(j >= n for j in r):
            inter.append({j - n: v for j, v in r.items()})
    return Subspace(n, inter)


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


def image(m: OperatorMatrix) -> Subspace:
    """Exact column space of the operator."""
    return Subspace(m.nrows, m.cols)


def quotient(numerator: Subspace, denominator: Subspace) -> tuple[int, list[Vec]]:
    """Dimension and canonical representatives of numerator/denominator.

    Representatives are the echelon basis rows of the numerator whose pivots
    are not pivots of the denominator; together with the denominator they
    span the numerator, and they are independent modulo it.
    """
    numerator._check(denominator)
    if not numerator.contains_subspace(denominator):
        raise InclusionError("denominator is not contained in numerator")
    dpiv = set(denominator.pivots)
    reps = [dict(row) for p, row in zip(numerator.pivots, numerator.rows)
            if p not in dpiv]
    return len(reps), reps
