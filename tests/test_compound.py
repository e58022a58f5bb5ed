"""``exterior.compound``, which wedges each column of the degree-k compound
directly, against the per-generator wedge-matrix route it replaced
(``form_oracle.wedge_matrix_compound``) and against Cauchy-Binet,
C_k(A) C_k(B) = C_k(AB).

The inputs are square matrices of dim 1-8 whose entries are ints, negative
ones and zero columns included, or Fractions over a denominator above 1.
The two routes must agree on the shape, every int column and the den, not
only on the rational map, since the engine's printed output reads them.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from form_oracle import wedge_matrix_compound
from symcoh.exterior import compound
from symcoh.linalg import OperatorMatrix

ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))


@st.composite
def squares(draw, dim=None):
    """A dim x dim matrix over the least den: each column is 0 or has int
    entries over a common den drawn from 1, 2, 3 and 6."""
    dim = draw(st.integers(1, 8)) if dim is None else dim
    den = draw(st.sampled_from([1, 1, 2, 3, 6]))
    cols = [{} if draw(st.integers(0, 5)) == 0
            else {i: Fraction(draw(ENTRIES), den) for i in range(dim)} for _ in range(dim)]
    return OperatorMatrix.from_columns(cols, dim)


def compounds(a: OperatorMatrix) -> list[OperatorMatrix]:
    """C_0(a), ..., C_dim(a), each built on the one below."""
    out = [compound(a, 0, None)]
    for k in range(1, a.nrows + 1):
        out.append(compound(a, k, out[-1]))
    return out


@settings(max_examples=60, deadline=None)
@given(squares())
def test_compound_is_the_wedge_matrix_route_exactly(a):
    chain = compounds(a)
    for k in range(-1, a.nrows + 2):
        lower = chain[k - 1] if 0 < k <= a.nrows else None
        got, want = compound(a, k, lower), wedge_matrix_compound(a, k, lower)
        assert (got.nrows, got.ncols, got.den) == (want.nrows, want.ncols, want.den), k
        assert got.cols == want.cols, k


def test_compound_outside_the_degrees_is_empty_and_degree_zero_is_one():
    a = OperatorMatrix.from_columns([{0: Fraction(1, 2), 1: -3}, {}], 2)
    for k in (-1, 3):
        m = compound(a, k, None)
        assert (m.nrows, m.ncols, m.cols, m.den) == (0, 0, [], 1)
    assert compound(a, 0, None) == OperatorMatrix.identity(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(squares(dim), squares(dim))))
def test_compounds_multiply_by_cauchy_binet(pair):
    a, b = pair
    for ca, cb, cab in zip(compounds(a), compounds(b), compounds(a @ b)):
        assert ca @ cb == cab
