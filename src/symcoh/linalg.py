"""Exact sparse linear algebra over Q.

Vectors are sparse ``{index: scalar}`` dicts; scalars are ints or Fractions
(never floats).  Row reduction clears a row's denominators once, if it has
any, and then works on Python ints: rows are kept primitive (divided by the
gcd of their entries) and filed by leading column, and a pivot touches only
the rows that share its column.  The results stay in ints.

An OperatorMatrix is the one rational matrix type: sparse int columns over
one positive int denominator, with every method acting on the rational map.
Products multiply ints and denominators, so a chain of products runs on
Python ints and forms no Fraction.

A Subspace is stored as its reduced-row-echelon basis in primitive int rows,
positive at their pivots.  That form of a row space is unique, so two
subspaces are equal iff their stored rows are identical, whichever rows
elimination pivoted on.  A basis row is 0 at the other pivots, so ``reduce``
visits a vector's own pivot entries.  Fraction rows are formed on read.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = dict


class AmbientMismatchError(ValueError):
    """Subspace operands live in different ambient spaces."""


class InclusionError(ValueError):
    """Quotient denominator is not contained in the numerator."""


# ---------------------------------------------------------------------------
# scalar/vector helpers
# ---------------------------------------------------------------------------

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

def _primitive(row: Vec) -> Vec:
    """An int row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


def _int_row(row: Vec) -> Vec:
    """The non-zero entries scaled to coprime ints, spanning the same line.
    ``gcd`` refuses a Fraction; then the denominators are cleared first."""
    try:
        g = gcd(*row.values())
    except TypeError:
        d = lcm(*(v.denominator for v in row.values()))
        return _int_row({j: v.numerator * (d // v.denominator) for j, v in row.items()})
    if g == 1 and 0 not in row.values():
        return dict(row)
    return {j: v // g for j, v in row.items() if v} if g else {}


def _eliminate(r: Vec, p: Vec, col: int) -> Vec:
    """The primitive row (a/g)·r − (b/g)·p with a = p[col], b = r[col] and
    g = gcd(a, b); it is 0 in ``col``."""
    a, b = p[col], r[col]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {j: a * v for j, v in r.items()}
    for j, v in p.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def echelon(rows: Iterable[Vec], ncols: int) -> list[tuple[int, Vec]]:
    """Forward elimination on primitive int rows; returns (pivot column,
    row) pairs with pivots in ascending column order.

    Rows wait in buckets keyed by their leading column.  At each pivot
    column the sparsest row of that bucket is the pivot; only the other rows
    of the bucket are combined with it, and each result is re-filed by its
    new leading column.  Rows that are 0 in the pivot column are untouched.
    """
    buckets: dict[int, list[Vec]] = {}
    heap: list[int] = []

    def file(r: Vec):
        lead = min(r)
        bucket = buckets.get(lead)
        if bucket is None:
            buckets[lead] = [r]
            heappush(heap, lead)
        else:
            bucket.append(r)

    for r in rows:
        r = _int_row(r)
        if r:
            file(r)
    pivots: list[tuple[int, Vec]] = []
    while heap and heap[0] < ncols:
        col = heappop(heap)
        bucket = buckets.pop(col)
        piv = min(bucket, key=len)
        for r in bucket:
            if r is not piv:
                r = _eliminate(r, piv, col)
                if r:
                    file(r)
        pivots.append((col, piv))
    return pivots


def rref(rows: Iterable[Vec], ncols: int) -> tuple[list[int], list[Vec]]:
    """Canonical reduced row echelon form in ints: (pivot columns, rows),
    each row primitive, positive at its pivot and 0 at the other pivots."""
    pivoted = echelon(rows, ncols)
    # clear each pivot column from the rows above it, bottom row first: a
    # row below is already 0 in every other pivot column and positive at its
    # own, so no elimination refills a pivot column or flips a sign
    reduced: dict[int, Vec] = {}
    for col, row in reversed(pivoted):
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[col] = row if row[col] > 0 else {j: -v for j, v in row.items()}
    pivots = [col for col, _ in pivoted]
    return pivots, [reduced[col] for col in pivots]


def _normalized(pivot: int, row: Vec) -> Vec:
    return {j: Fraction(v, row[pivot]) for j, v in row.items()}


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
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class OperatorMatrix:
    """The rational matrix M/den of a linear operator over chosen bases.

    ``cols[j]`` is the sparse int column j of M, the image of the j-th
    domain basis element times ``den``, a positive int.  No stored entry
    is 0: the constructor keeps the columns as given, so a caller whose
    columns may hold zeros or fractions builds through ``from_columns``.
    Every method acts on the rational map: products multiply the ints and
    the denominators, sums work over the lcm of the denominators, and ``==``
    compares A/a and B/b as A·b = B·a.  M/den has the rank, kernel and image
    of M.  The denominator is not reduced, so two equal maps may hold
    different ints.
    """

    __slots__ = ("nrows", "ncols", "cols", "den")

    def __init__(self, nrows: int, ncols: int, cols: list[Vec], den: int = 1):
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols
        self.den = den

    @classmethod
    def from_columns(cls, cols: list[Vec], nrows: int) -> "OperatorMatrix":
        """The matrix of rational columns that may hold zero entries, over
        the least den that clears them."""
        den = lcm(*(v.denominator for c in cols for v in c.values()))
        return cls(nrows, len(cols), [{i: v.numerator * (den // v.denominator)
                                       for i, v in c.items() if v} for c in cols], den)

    @classmethod
    def from_rows(cls, rows: list[Vec], ncols: int) -> "OperatorMatrix":
        cols: list[Vec] = [{} for _ in range(ncols)]
        for i, r in enumerate(rows):
            for j, v in r.items():
                cols[j][i] = v
        return cls.from_columns(cols, len(rows))

    @classmethod
    def identity(cls, n: int) -> "OperatorMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def combination(cls, terms: list[tuple], nrows: int, ncols: int) -> "OperatorMatrix":
        """The sum of c·A over the (c, A) in ``terms``, c rational and every A
        an nrows x ncols matrix."""
        terms = [(Fraction(c), m) for c, m in terms]
        if any((m.nrows, m.ncols) != (nrows, ncols) for _, m in terms):
            raise ValueError("operator shapes differ")
        den = lcm(*(c.denominator * m.den for c, m in terms))
        cols: list[Vec] = [{} for _ in range(ncols)]
        for c, m in terms:
            f = c.numerator * (den // (c.denominator * m.den))
            for col, add in zip(cols, m.cols):
                for i, v in add.items():
                    col[i] = col.get(i, 0) + f * v
        return cls(nrows, ncols, [{i: v for i, v in c.items() if v} for c in cols], den)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.cols[j].get(i, 0), self.den)

    def column(self, j: int) -> Vec:
        """Column j of M/den, exact."""
        return {i: Fraction(v, self.den) for i, v in self.cols[j].items()}

    def rows(self) -> list[Vec]:
        """The int rows of M."""
        out: list[Vec] = [{} for _ in range(self.nrows)]
        for j, c in enumerate(self.cols):
            for i, v in c.items():
                out[i][j] = v
        return out

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(self.ncols, self.nrows, self.rows(), self.den)

    def _times(self, vec: Vec) -> Vec:
        """M·vec, without the den."""
        out: Vec = {}
        for j, s in vec.items():
            if s:
                for i, v in self.cols[j].items():
                    out[i] = out.get(i, 0) + v * s
        # a fresh dict of the non-zero sums: one that shed cancelled entries
        # would keep its larger table in every stored product
        return {i: w for i, w in out.items() if w}

    def apply(self, vec: Vec) -> Vec:
        """(M/den)·vec, exact."""
        out = self._times(vec)
        return out if self.den == 1 else {i: Fraction(w, self.den) for i, w in out.items()}

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self o other (apply ``other`` first)."""
        if self.ncols != other.nrows:
            raise ValueError("operator shapes do not compose")
        return OperatorMatrix(self.nrows, other.ncols,
                              [self._times(c) for c in other.cols], self.den * other.den)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self.compose(other)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix.combination([(1, self), (1, other)], self.nrows, self.ncols)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix.combination([(1, self), (-1, other)], self.nrows, self.ncols)

    def scale(self, s) -> "OperatorMatrix":
        """s·M/den, s rational."""
        return OperatorMatrix.combination([(s, self)], self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        a, b = self.den, other.den
        if a == b:
            return self.cols == other.cols
        return all({i: x * b for i, x in u.items()} == {i: y * a for i, y in v.items()}
                   for u, v in zip(self.cols, other.cols))

    def rank(self) -> int:
        """By elimination on the columns, with the sparsest rows as the first
        pivot candidates, which keeps the fill-in down."""
        count = Counter(i for c in self.cols for i in c)
        order = {i: r for r, i in enumerate(sorted(count, key=count.__getitem__))}
        return len(echelon([{order[i]: v for i, v in c.items()} for c in self.cols], self.nrows))

    def invert(self) -> "OperatorMatrix":
        """(M/den)^-1 = den·M^-1."""
        if self.nrows != self.ncols:
            raise ValueError("only square operators can be inverted")
        n = self.nrows
        aug = []
        for i, r in enumerate(self.rows()):
            r[n + i] = 1
            aug.append(r)
        pivots, rows = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("operator is singular")
        # row i of M^-1: the right half of reduced row i over its pivot entry
        den = lcm(*(rows[i][i] for i in range(n)))
        inv = [{j - n: self.den * (den // r[i]) * v for j, v in r.items() if j >= n}
               for i, r in enumerate(rows)]
        g = gcd(den, *(v for r in inv for v in r.values()))
        return OperatorMatrix(n, n, [{j: v // g for j, v in r.items()} for r in inv],
                              den // g).transpose()

    def __repr__(self):
        return f"OperatorMatrix({self.nrows}x{self.ncols}, den={self.den})"


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


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace as its canonical reduced echelon basis: ``rref``'s int rows."""

    __slots__ = ("ambient", "pivots", "ints", "_index")

    def __init__(self, ambient: int, vectors: Iterable[Vec] = ()):
        self.ambient = ambient
        self.pivots, self.ints = rref(vectors, ambient)
        self._index = None

    @classmethod
    def _canonical(cls, ambient: int, pivots: list[int], ints: list[Vec]) -> "Subspace":
        """The subspace whose ``rref`` these pivots and rows already are."""
        sub = cls.__new__(cls)
        sub.ambient, sub.pivots, sub.ints, sub._index = ambient, pivots, ints, None
        return sub

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [{i: 1} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[Vec]:
        """The normalized basis rows (pivot entry 1) as Fractions, derived
        on each read: a stored copy would hold every basis twice."""
        return [_normalized(p, r) for p, r in zip(self.pivots, self.ints)]

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}")

    @property
    def index(self) -> dict[int, int]:
        """Each pivot column's position in the basis; built on first use."""
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.pivots)}
        return self._index

    def reduce(self, vec: Vec) -> Vec:
        """Residual of ``vec`` modulo the subspace: row p's multiple is vec[p].
        In ints: vec = V/e and the residual is (d·V − Σ V[p]·(d/q_p)·row p)/(d·e),
        q_p row p's pivot entry, d their lcm.  An entry that no row used
        touches stays as given, even a 0."""
        index, ints = self.index, self.ints
        used = [p for p, c in vec.items() if c and p in index]
        e = lcm(*(v.denominator for v in vec.values()))
        big = vec if e == 1 else {j: v.numerator * (e // v.denominator) for j, v in vec.items()}
        d = lcm(*(ints[index[p]][p] for p in used))
        total: Vec = {}
        for p in used:
            r = ints[index[p]]
            f = big[p] * (d // r[p])
            for j, v in r.items():
                total[j] = total.get(j, 0) + f * v
        out = dict(vec)
        for j, t in total.items():
            w = d * big.get(j, 0) - t
            if w:
                out[j] = Fraction(w, d * e)
            else:
                out.pop(j, None)
        return out

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(r) for r in other.ints)

    def at_pivots(self, vec: Vec) -> Vec:
        """Non-zero pivot entries by pivot position: coordinates if vec is in."""
        index = self.index
        return {index[p]: c for p, c in vec.items() if c and p in index}

    def coordinates(self, vec: Vec) -> Vec | None:
        """Sparse coefficients of ``vec`` over the normalized basis, or None."""
        return None if self.reduce(vec) else self.at_pivots(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.ints == other.ints

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


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
    _, rows = rref(stacked, 2 * n)
    inter = []
    for r in rows:
        if all(j >= n for j in r):
            inter.append({j - n: v for j, v in r.items()})
    return Subspace(n, inter)


def kernel(m: OperatorMatrix) -> Subspace:
    """Exact null space, eliminating with the columns reversed: each reduced
    row's pivot p is then its last column, so free column f's vector (f minus
    row p's entry at f over its pivot entry q_p, at each p) starts at f and is
    0 at the other free columns.  Over the lcm of its q_p it is a canonical row."""
    last = m.ncols - 1
    pivots, rows = rref([{last - j: v for j, v in r.items()} for r in m.rows()], m.ncols)
    touches: list[list] = [[] for _ in range(m.ncols)]
    for p, row in zip(pivots, rows):
        for f, c in row.items():
            touches[last - f].append((last - p, c, row[p]))
    free = sorted(set(range(m.ncols)).difference(last - p for p in pivots))
    basis = []
    for f in free:
        d = lcm(*(q for _, _, q in touches[f]))
        basis.append(_primitive({f: d, **{p: -c * (d // q) for p, c, q in touches[f]}}))
    return Subspace._canonical(m.ncols, free, basis)


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
    reps = [_normalized(p, row) for p, row in zip(numerator.pivots, numerator.ints)
            if p not in dpiv]
    return len(reps), reps
