"""The O(nnz) Subspace routes against the earlier bodies in ``subspace_oracle``.

Random subspaces in reduced row echelon form, including the zero, the full
and 1-dimensional ones, with int and Fraction entries; each is probed with
vectors built inside it and with arbitrary vectors, which mostly lie
outside.  ``reduce``, ``contains``, the sparse ``coordinates`` and
``kernel`` must equal the oracle and leave their inputs as they were.

The stored form itself is checked against ``dense_oracle``'s textbook
Gauss-Jordan elimination, on generator sets with zero rows, duplicates and
rows scaled by negative and rational factors: primitive int rows, positive
at their pivots, whose normalized rows are the oracle's, the same ints for
any generator set of one span, and kernels that span the oracle's null
space.

``image(m, free)`` eliminates only the columns outside the kernel's free
set; it must give the full column space, on random matrices and on the d
and dL operators of N10, T8 and a scrambled N8 in every degree, and refuse
a free set that leaves dependent columns.
"""

import copy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dense_oracle
import subspace_oracle as oracle
from fixtures import build, select
from subspace_oracle import same
from symcoh import CohomologyCalculator
from symcoh.linalg import OperatorMatrix, Subspace, image, kernel

SCALAR = hst.one_of(
    hst.integers(-4, 4),
    hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 4)))


def vectors(n):
    return hst.dictionaries(hst.integers(0, n - 1), SCALAR, max_size=n) if n else hst.just({})


@hst.composite
def subspaces(draw):
    n = draw(hst.integers(0, 7))
    kind = draw(hst.sampled_from(["zero", "full", "one", "any"]))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    if kind == "one" and n:
        v = draw(vectors(n).filter(lambda v: any(v.values())))
        return Subspace(n, [v])
    return Subspace(n, draw(hst.lists(vectors(n), max_size=5)))


@hst.composite
def probes(draw):
    """A subspace and a vector: a combination of its basis rows, an
    arbitrary vector, or the sum of the two."""
    sub = draw(subspaces())
    inside = {}
    for row in sub.rows:
        c = draw(SCALAR)
        for j, v in row.items():
            inside[j] = inside.get(j, 0) + c * v
    inside = {j: v for j, v in inside.items() if v}
    other = draw(vectors(sub.ambient))
    kind = draw(hst.sampled_from(["inside", "other", "sum"]))
    if kind == "inside":
        return sub, inside
    if kind == "other":
        return sub, other
    total = dict(inside)
    for j, v in other.items():
        total[j] = total.get(j, 0) + v
    return sub, total


@settings(max_examples=100, deadline=None)
@given(probes())
def test_reduce_contains_and_coordinates_match_oracle(probe):
    sub, vec = probe
    before_vec, before_rows = copy.deepcopy(vec), copy.deepcopy(sub.rows)
    assert sub.reduce(vec) == oracle.reduce(sub, vec)
    assert sub.contains(vec) == oracle.contains(sub, vec)
    dense = oracle.coordinates(sub, vec)
    sparse = sub.coordinates(vec)
    if dense is None:
        assert sparse is None
    else:
        assert sparse == {i: c for i, c in enumerate(dense) if c}
        rebuilt = {}
        for i, c in sparse.items():
            for j, v in sub.rows[i].items():
                rebuilt[j] = rebuilt.get(j, 0) + c * v
        assert {j: v for j, v in rebuilt.items() if v} == {j: v for j, v in vec.items() if v}
    assert vec == before_vec and sub.rows == before_rows


@settings(max_examples=50, deadline=None)
@given(hst.integers(0, 5), hst.integers(0, 6), hst.data())
def test_kernel_matches_oracle(nrows, ncols, data):
    cols = [data.draw(vectors(nrows)) for _ in range(ncols)]
    m = OperatorMatrix.from_columns(cols, nrows)
    before = copy.deepcopy(m.cols)
    k = kernel(m)
    assert k == oracle.kernel(m)
    assert k.dim + Subspace(nrows, m.cols).dim == ncols
    assert m.cols == before


FACTORS = [-1, 2, -3, Fraction(2, 3), Fraction(-5, 2)]


@hst.composite
def generator_sets(draw):
    """(n, rows): arbitrary rows with zero rows ({} and explicit zeros),
    duplicates and rows scaled by negative and rational factors mixed in."""
    n = draw(hst.integers(1, 7))
    rows = draw(hst.lists(vectors(n), max_size=6))
    rows += [{}, {draw(hst.integers(0, n - 1)): 0}][:draw(hst.integers(0, 2))]
    if rows:
        for r in draw(hst.lists(hst.sampled_from(rows), max_size=3)):
            s = draw(hst.sampled_from([1] + FACTORS))
            rows.insert(draw(hst.integers(0, len(rows))), {j: s * v for j, v in r.items()})
    return n, rows


def _dense(rows, n):
    return [[Fraction(r.get(j, 0)) for j in range(n)] for r in rows]


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_int_rows_are_primitive_and_normalize_to_the_dense_rref(case):
    n, rows = case
    sub = Subspace(n, rows)
    assert sub.pivots == sorted(sub.pivots)
    for p, r in zip(sub.pivots, sub.ints):
        assert all(type(v) is int and v for v in r.values())
        assert min(r) == p and r[p] > 0 and gcd(*r.values()) == 1
        assert all(q not in r for q in sub.pivots if q != p)
    pivots, dense_rows = dense_oracle.rref(_dense(rows, n), n)
    assert sub.pivots == pivots
    assert sub.rows == [{j: v for j, v in enumerate(r) if v} for r in dense_rows]
    assert all(type(v) is Fraction for r in sub.rows for v in r.values())


@settings(max_examples=80, deadline=None)
@given(generator_sets(), hst.data())
def test_generator_sets_of_one_span_give_identical_ints(case, data):
    """The second set scales, shuffles and shears the first and adds zero
    rows and duplicates; its span is the same."""
    n, rows = case
    other = [{j: s * v for j, v in r.items()}
             for r, s in zip(rows, data.draw(hst.lists(hst.sampled_from(FACTORS),
                                                        min_size=len(rows), max_size=len(rows))))]
    if len(other) > 1:
        i, k = data.draw(hst.permutations(range(len(other))))[:2]
        c = data.draw(hst.sampled_from(FACTORS))
        other[i] = {j: other[i].get(j, 0) + c * other[k].get(j, 0)
                    for j in other[i].keys() | other[k].keys()}
    other = data.draw(hst.permutations(other + other[:1] + [{}]))
    a, b = Subspace(n, rows), Subspace(n, other)
    assert a == b
    assert a.pivots == b.pivots and a.ints == b.ints


@settings(max_examples=60, deadline=None)
@given(hst.integers(0, 5), hst.integers(0, 7), hst.data())
def test_kernel_spans_the_dense_null_space(nrows, ncols, data):
    cols = [data.draw(vectors(nrows)) for _ in range(ncols)]
    m = OperatorMatrix.from_columns(cols, nrows)
    k = kernel(m)
    null = dense_oracle.kernel_basis(dense_oracle.dense(m), ncols)
    assert k.dim == len(null)
    assert all(k.contains(v) for v in null)
    dense = dense_oracle.dense(m)
    assert all(not any(dense_oracle.apply(dense, r, ncols)) for r in k.ints)
    for p, r in zip(k.pivots, k.ints):
        assert min(r) == p and r[p] > 0 and gcd(*r.values()) == 1
        assert all(q not in r for q in k.pivots if q != p)


@hst.composite
def matrices(draw):
    """A rational matrix built by ``from_columns`` (den > 1 when an entry is
    a Fraction), with zero columns inserted and its rows spread over a
    taller range, so that some rows are zero; 0 x n and n x 0 included."""
    nrows = draw(hst.integers(0, 5))
    cols = draw(hst.lists(vectors(nrows), max_size=6))
    for _ in range(draw(hst.integers(0, 2))):
        cols.insert(draw(hst.integers(0, len(cols))), {})
    tall = nrows + draw(hst.integers(0, 2))
    place = draw(hst.permutations(range(tall)))
    return OperatorMatrix.from_columns([{place[i]: v for i, v in c.items()} for c in cols], tall)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_image_from_the_kernel_free_set_is_the_column_space(m):
    before = copy.deepcopy(m.cols)
    full = Subspace(m.nrows, m.cols)
    assert same(image(m, kernel(m).pivots), full)
    assert same(image(m), full)
    assert m.cols == before


def test_image_from_the_free_set_on_a_rational_matrix():
    m = OperatorMatrix.from_columns(
        [{0: Fraction(1, 2)}, {}, {0: 1}, {2: Fraction(-2, 3)}, {0: 3, 2: Fraction(5, 4)}], 4)
    assert m.den == 12
    free = kernel(m).pivots
    assert free == [0, 1, 2]
    assert same(image(m, free), Subspace(4, [{0: 1}, {2: 1}]))


def test_image_refuses_a_free_set_that_is_not_the_kernels():
    # rank 2: column 1 is twice column 0, and columns 2 and 3 are independent
    m = OperatorMatrix.from_columns([{0: 1}, {0: 2}, {1: Fraction(1, 2)}, {0: 1, 1: 1}], 2)
    free = kernel(m).pivots
    assert free == [0, 1]
    assert same(image(m, free), Subspace(2, m.cols))
    # the kernel of [e1 e2 0 0] is free at 2 and 3; m's columns 0 and 1 are dependent
    other = OperatorMatrix(2, 4, [{0: 1}, {1: 1}, {}, {}])
    for wrong in (free[1:], free[:1], kernel(other).pivots, []):
        with pytest.raises(AssertionError, match="rank and nullity do not add up"):
            image(m, wrong)


# T8 has d = 0: every free column of every kernel is untouched by the
# reduced rows
@pytest.mark.parametrize("name", select("N10", "T8", "scrambled-N8"))
def test_d_and_dlambda_kernels_and_images_match_the_oracle(name):
    c = CohomologyCalculator(build(name))
    for k in range(c.dim + 1):
        assert same(c.ker("d", k), oracle.kernel(c.cx.op("d", k))), ("ker", "d", k)
        assert same(c.ker("dL", k), oracle.kernel(c.cx.op("dLambda", k))), ("ker", "dL", k)
        d = c.cx.op("d", k - 1)
        assert same(c.im("d", k - 1), Subspace(d.nrows, d.cols)), ("im", "d", k - 1)
        dl = c.cx.op("dLambda", k + 1)
        assert same(c.im("dL", k + 1), Subspace(dl.nrows, dl.cols)), ("im", "dL", k + 1)
