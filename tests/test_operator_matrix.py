"""``OperatorMatrix``, the one rational matrix type, against the dense
Fraction oracle of ``dense_oracle``.

Every method acts on the rational map M/den, whatever the denominator the
matrix happens to hold, so each property is checked on random rational
matrices and again on a copy that holds the same map over a larger
denominator.
"""

from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from quotient_oracle import solve
from subspace_oracle import subspace_intersect
from symcoh.linalg import OperatorMatrix, Subspace, image, kernel, leading_minors

ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def from_dense(rows, ncols: int) -> OperatorMatrix:
    return OperatorMatrix.from_rows([dict(enumerate(r)) for r in rows], ncols)


def over(m: OperatorMatrix, f: int) -> OperatorMatrix:
    """The same map as m, held as f M over f den."""
    return OperatorMatrix(m.nrows, m.ncols, [{i: f * v for i, v in c.items()} for c in m.cols],
                          f * m.den)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """(m, its dense oracle): a random rational matrix, held over its least
    denominator or over a multiple of it."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    rows = [[Fraction(draw(ENTRIES)) for _ in range(ncols)] for _ in range(nrows)]
    m = from_dense(rows, ncols)
    assert (m.nrows, m.ncols) == (nrows, ncols) and oracle.dense(m) == rows
    return over(m, draw(st.sampled_from([1, 1, 2, 6]))), rows


@st.composite
def pairs(draw, same_shape: bool):
    """Two matrices that are a sum (same shape) or a product (inner sizes match)."""
    a = draw(matrices())
    a_rows, a_cols = a[0].nrows, a[0].ncols
    b = draw(matrices(a_rows, a_cols) if same_shape else matrices(a_cols, None))
    return a, b


@settings(max_examples=80, deadline=None)
@given(pairs(same_shape=False))
def test_compose_is_the_dense_product(case):
    (a, da), (b, db) = case
    c = a @ b
    assert c.den == a.den * b.den
    assert oracle.dense(c) == oracle.matmul(da, db, a.ncols, b.ncols)


@settings(max_examples=80, deadline=None)
@given(pairs(same_shape=True), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
def test_sums_and_rational_scaling(case, s):
    (a, da), (b, db) = case
    assert oracle.dense(a + b) == oracle.add(da, db)
    assert oracle.dense(a - b) == oracle.add(da, db, -1)
    assert oracle.dense(a.scale(s)) == oracle.scale(da, s)
    c = OperatorMatrix.combination([(s, a), (Fraction(1, 3), b), (-1, a)], a.nrows, a.ncols)
    assert oracle.dense(c) == oracle.add(oracle.add(oracle.scale(da, s), db, Fraction(1, 3)),
                                         da, -1)
    assert (a - a).is_zero() and (a + a.scale(-1)) == OperatorMatrix(a.nrows, a.ncols,
                                                                     [{}] * a.ncols)
    assert ((a == b) == (da == db)) and ((a != b) == (da != db))


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_readers_and_equality(case, data):
    m, dm = case
    assert [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)] == dm
    assert all(m.column(j) == {i: r[j] for i, r in enumerate(dm) if r[j]}
               for j in range(m.ncols))
    assert oracle.dense(m.transpose()) == oracle.transpose(dm, m.ncols)
    assert m.transpose().transpose() == m
    v = data.draw(st.dictionaries(st.integers(0, max(m.ncols - 1, 0)), ENTRIES)
                  if m.ncols else st.just({}))
    assert m.apply(v) == {i: x for i, x in enumerate(oracle.apply(dm, v, m.ncols)) if x}
    # the same map over another denominator is equal, and nothing else is
    assert m == over(m, 5) and over(m, 5) == m
    assert m.is_zero() == (not any(x for r in dm for x in r))
    if not m.is_zero():
        assert m != m.scale(2) and m != m.scale(-1)


def column_sum(m: OperatorMatrix, vec: dict) -> dict:
    """sum_j vec[j]·(column j of M/den), entry by entry in Fractions."""
    out: dict = {}
    for j, s in vec.items():
        for i, x in m.column(j).items():
            out[i] = out.get(i, 0) + s * x
    return {i: x for i, x in out.items() if x}


FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: matrices(None, c)), st.sampled_from([2, 3, 6]),
       st.data())
def test_apply_on_a_fraction_vector_is_the_column_sum(case, f, data):
    """Against a matrix held over den > 1, a vector with Fraction entries is
    multiplied in ints and divided once; the result is the exact column sum."""
    m = over(case[0], f)
    assert m.den > 1
    vec = data.draw(st.dictionaries(st.integers(0, m.ncols - 1), FRACTIONS, min_size=1))
    out = m.apply(vec)
    assert out == column_sum(m, vec)
    assert all(type(x) is Fraction and x for x in out.values())


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_kernel_image(case):
    m, dm = case
    pivots, _ = oracle.rref(dm, m.ncols)
    assert m.rank() == len(pivots)
    ker = kernel(m)
    assert ker == Subspace(m.ncols, oracle.kernel_basis(dm, m.ncols))
    assert all(not any(oracle.apply(dm, v, m.ncols)) for v in ker.rows)
    assert image(m) == Subspace(m.nrows, [{i: r[j] for i, r in enumerate(dm)}
                                          for j in range(m.ncols)])
    assert image(m).dim == len(pivots)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)))
def test_invert(case):
    m, dm = case
    inv = oracle.inverse(dm)
    if inv is None:
        assert m.rank() < m.nrows
        return
    mi = m.invert()
    assert oracle.dense(mi) == inv
    assert mi @ m == OperatorMatrix.identity(m.nrows) == m @ mi


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve(case, data):
    """(M/den) x = target for a target in the image, and None for each unit
    vector off it."""
    m, dm = case
    x = data.draw(st.dictionaries(st.integers(0, m.ncols - 1), ENTRIES) if m.ncols
                  else st.just({}))
    target = {i: v for i, v in enumerate(oracle.apply(dm, x, m.ncols)) if v}
    sol = solve(m, target)
    assert sol is not None
    assert {i: v for i, v in enumerate(oracle.apply(dm, sol, m.ncols)) if v} == target
    for i in range(m.nrows):
        aug = [r + [Fraction(int(i == t))] for t, r in enumerate(dm)]
        in_image = len(oracle.rref(aug, m.ncols + 1)[0]) == m.rank()
        assert (solve(m, {i: 1}) is not None) == in_image


def test_half_identity():
    """I/2 is one map: I/2 + I/2 = I and (I/2)^T = I/2."""
    half = OperatorMatrix(2, 2, [{0: 1}, {1: 1}], 2)
    assert half + half == OperatorMatrix.identity(2)
    assert half.transpose() == half
    assert half.scale(2) == OperatorMatrix.identity(2)
    assert half @ half == OperatorMatrix.identity(2).scale(Fraction(1, 4))
    assert half.entry(1, 1) == Fraction(1, 2) and half.apply({0: 3}) == {0: Fraction(3, 2)}


def test_equality_is_rational():
    """The cases the symbol maps relied on: an int matrix over a den equals
    the same map over another den and the Fraction-built matrix, and a
    product multiplies the dens."""
    plain = OperatorMatrix.from_columns([{0: Fraction(1, 2)}, {1: Fraction(-3, 4)}], 2)
    assert plain.den == 4 and plain.cols == [{0: 2}, {1: -3}]
    a = over(plain, 1)
    b = over(plain, 3)
    assert a == b and a == plain and plain == a
    assert a != OperatorMatrix(2, 2, plain.cols, 8)
    assert a != OperatorMatrix(2, 2, plain.cols)
    assert (a @ b).den == a.den * b.den and (a @ b) == plain @ plain
    assert OperatorMatrix.from_columns([a.column(j) for j in range(2)], 2) == plain


def test_equality_over_unequal_denominators():
    """u/a == v/b column by column: supports of different sizes, the same
    support with one entry off, and an entry outside the other support."""
    m = OperatorMatrix(3, 2, [{0: 1, 2: -3}, {}], 2)
    assert m == OperatorMatrix(3, 2, [{0: 3, 2: -9}, {}], 6)
    assert m != OperatorMatrix(3, 2, [{0: 3}, {}], 6)
    assert m != OperatorMatrix(3, 2, [{0: 3, 1: 1, 2: -9}, {}], 6)
    assert m != OperatorMatrix(3, 2, [{0: 3, 2: 9}, {}], 6)
    assert m != OperatorMatrix(3, 2, [{0: 3, 1: -9}, {}], 6)
    assert m != OperatorMatrix(3, 2, [{0: 3, 2: -9}, {1: 1}], 6)
    assert OperatorMatrix(3, 2, [{}, {1: 2}], 3) != m


@st.composite
def symmetric(draw):
    """(m, its dense oracle): a symmetric int matrix over a denominator, the
    int matrix one of a random one (mostly indefinite, sometimes singular), A^T A
    (semi-definite, singular when A has fewer rows) or A^T A + 1
    (definite)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["any", "gram", "definite"]))
    if kind == "any":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    else:
        a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
        rows = [[sum(r[i] * r[j] for r in a) + (kind == "definite" and i == j)
                 for j in range(n)] for i in range(n)]
    f = draw(st.sampled_from([1, 2, 6]))
    return (OperatorMatrix(n, n, from_dense(rows, n).cols, f),
            [[Fraction(v, f) for v in r] for r in rows])


@seed(21)
@settings(max_examples=150, deadline=None)
@given(symmetric())
def test_leading_minors_are_the_dense_determinants(case):
    """One pass gives every leading minor of M, which is den^k times the
    k-th minor of M/den, up to the first zero one; and it rejects a metric
    exactly where the minors one at a time do."""
    m, rows = case
    minors = [oracle.det([r[:k] for r in rows[:k]], k) for k in range(1, m.nrows + 1)]
    upto = minors[:minors.index(0) + 1] if 0 in minors else minors
    assert list(leading_minors(m)) == [v * m.den ** k for k, v in enumerate(upto, 1)]
    assert any(p <= 0 for p in leading_minors(m)) == any(v <= 0 for v in minors)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_of_a_stack_is_the_intersection_of_kernels(data):
    a, da = data.draw(matrices())
    b, db = data.draw(matrices(None, a.ncols))
    s = a.stack(b)
    assert oracle.dense(s) == da + db
    assert kernel(s) == subspace_intersect(kernel(a), kernel(b))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_over_pivots_divides_each_row_by_its_pivot_entry(case):
    m, _ = case
    sub = image(m)
    pairs = list(zip(sub.pivots, sub.ints))
    got = oracle.dense(OperatorMatrix.over_pivots(pairs, m.nrows))
    assert [[r[i] for r in got] for i in range(len(pairs))] == \
        [[Fraction(r.get(j, 0), r[p]) for j in range(m.nrows)] for p, r in pairs]


# A (3x4 over 2), whose column 3 is -2 times column 0, and B (4x4 over 3),
# one column per case of the column product: empty, one entry (negative),
# two entries that cancel to {} and two that cancel only in part
A = OperatorMatrix(3, 4, [{0: 1, 1: 2}, {0: 1, 1: 2, 2: -1}, {0: -1, 2: 4}, {0: -2, 1: -4}], 2)
B = OperatorMatrix(4, 4, [{}, {1: -3}, {0: 2, 3: 1}, {0: 1, 1: -1}], 3)


def snapshot(*ms: OperatorMatrix) -> list:
    return [(m.den, [dict(c) for c in m.cols]) for m in ms]


def assert_fresh(out: OperatorMatrix, *operands: OperatorMatrix):
    """No stored 0, and every column a dict of its own: writing into each
    leaves the operands as they were."""
    assert all(v for c in out.cols for v in c.values())
    before = snapshot(*operands)
    assert len({id(c) for c in out.cols}) == out.ncols
    for c in out.cols:
        c[99] = 7
    assert snapshot(*operands) == before


def test_each_column_case_of_the_product():
    c = A @ B
    assert c.den == 6
    assert c.cols == [{}, {0: -3, 1: -6, 2: 3}, {}, {2: 1}]
    assert oracle.dense(c) == oracle.matmul(oracle.dense(A), oracle.dense(B), 4, 4)
    assert_fresh(c, A, B)
    # one stored column of A taken whole is still a fresh dict
    one = A @ OperatorMatrix.identity(4)
    assert one == A and one.cols == A.cols
    assert_fresh(one, A)


def test_each_column_case_of_apply():
    """``apply`` runs the same kernel on one vector; an explicit 0 entry,
    alone or beside others, contributes nothing."""
    assert A.apply({}) == {} and A.apply({1: 0}) == {}
    assert A.apply({1: -3}) == {0: Fraction(-3, 2), 1: -3, 2: Fraction(3, 2)}
    assert A.apply({0: 2, 3: 1}) == {} and A.apply({0: 2, 2: 0, 3: 1}) == {}
    assert A.apply({0: 1, 1: -1}) == {2: Fraction(1, 2)}
    for j in range(4):
        assert A.apply({j: 1}) == A.column(j)


def test_scale_by_zero_and_by_a_fraction():
    zero = A.scale(0)
    assert zero.is_zero() and zero.den == A.den
    assert oracle.dense(zero) == oracle.scale(oracle.dense(A), 0)
    assert_fresh(zero, A)
    s = Fraction(-3, 2)
    half = A.scale(s)
    assert half.den == 4 and half.cols == [{i: -3 * v for i, v in c.items()} for c in A.cols]
    assert oracle.dense(half) == oracle.scale(oracle.dense(A), s)
    assert_fresh(half, A)
    # a sum is still summed and filtered: A + A.scale(-1) stores nothing
    assert (A + A.scale(-1)).cols == [{}] * 4
