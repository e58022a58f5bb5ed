"""The O(nnz) Subspace routes against the earlier bodies in ``subspace_oracle``.

Random subspaces in reduced row echelon form, including the zero, the full
and 1-dimensional ones, with int and Fraction entries; each is probed with
vectors built inside it and with arbitrary vectors, which mostly lie
outside.  ``reduce``, ``contains``, the sparse ``coordinates`` and
``kernel`` must equal the oracle and leave their inputs as they were.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as hst

import subspace_oracle as oracle
from symcoh.linalg import OperatorMatrix, Subspace, kernel

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
