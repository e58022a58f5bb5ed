"""Every intersection in ``src/`` is a kernel: ``linalg.meet`` against the
Zassenhaus intersection kept in ``subspace_oracle``.

``meet(V, m)`` is V ^ ker m: V's basis matrix b times ker(m·b), lifted
canonically with no second elimination.  It is checked on random small int
subspaces and matrices, the zero subspace, a matrix with no rows and the
zero matrix among them, and then in every degree of the table's
``primitive`` fixtures on the exactness lemma's three conditions and on the
numerators and denominators of the primitive parts of the d- and
dL-cohomologies.  Equality
is of canonical int rows and pivots, so the witnesses the checks print are
the same by either route."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from fixtures import build, select
from paper_checks import de_rham_primitive_part, dlambda_primitive_part
from subspace_oracle import same, subspace_intersect
from symcoh import CohomologyCalculator
from symcoh.linalg import AmbientMismatchError, OperatorMatrix, Subspace, kernel, meet, quotient


@lru_cache(maxsize=None)
def calc(name: str) -> CohomologyCalculator:
    return CohomologyCalculator(build(name))


ENTRIES = hst.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])


def vectors(n: int):
    return hst.lists(ENTRIES, min_size=n, max_size=n).map(
        lambda xs: {i: v for i, v in enumerate(xs) if v})


@hst.composite
def subspaces_and_matrices(draw):
    n = draw(hst.integers(0, 6))
    sub = Subspace(n, draw(hst.lists(vectors(n), max_size=n + 1)))
    nrows = draw(hst.integers(0, 5))
    m = OperatorMatrix(nrows, n, [draw(vectors(nrows)) for _ in range(n)],
                       draw(hst.integers(1, 4)))
    return sub, m


@settings(max_examples=150, deadline=None)
@given(subspaces_and_matrices())
def test_meet_is_the_zassenhaus_intersection_with_the_kernel(case):
    sub, m = case
    got = meet(sub, m)
    assert same(got, subspace_intersect(sub, kernel(m)))
    assert sub.contains_subspace(got) and kernel(m).contains_subspace(got)


def test_meet_edge_cases():
    v = Subspace(3, [{0: 1, 1: 2}, {2: 3}])
    no_rows = OperatorMatrix(0, 3, [{}, {}, {}])
    zero = OperatorMatrix(2, 3, [{}, {}, {}])
    assert same(meet(v, no_rows), v)
    assert same(meet(v, zero), v)
    assert same(meet(Subspace.zero(3), OperatorMatrix.identity(3)), Subspace.zero(3))
    assert same(meet(Subspace.zero(3), zero), Subspace.zero(3))
    assert same(meet(Subspace.full(3), OperatorMatrix.identity(3)), Subspace.zero(3))
    # ker [1 -2 0] is spanned by (2, 1, 0) and e3; V meets it in e3 only
    assert same(meet(v, OperatorMatrix(1, 3, [{0: 1}, {0: -2}, {}])), Subspace(3, [{2: 1}]))
    with pytest.raises(ValueError):
        meet(v, OperatorMatrix.identity(2))
    with pytest.raises(AmbientMismatchError):
        subspace_intersect(v, Subspace.zero(2))


@pytest.mark.parametrize("name", select("primitive"))
def test_exactness_conditions_equal_the_zassenhaus_route(name):
    c = calc(name)
    for k in range(c.n + 1):
        closed = subspace_intersect(c.ker("d", k), c.st.primitive_subspace(k))
        spans = [("plus-exact", c.im("dp", k - 1))]
        if k < c.n:
            spans.append(("minus-exact", c.im("dm", k + 1)))
        if k > 0:
            spans.append(("composite-exact", c.im("dpdm", k)))
        got = c.exactness_conditions(k)
        assert [label for label, _ in got] == [label for label, _ in spans]
        for (label, sub), (_, span) in zip(got, spans):
            assert same(sub, subspace_intersect(span, closed)), (label, k)


@pytest.mark.parametrize("name", select("primitive"))
def test_primitive_parts_equal_the_zassenhaus_route(name):
    c = calc(name)
    for k in range(2 * c.n + 1):
        prim = c.st.primitive_subspace(k)
        for g, ker, im in ((de_rham_primitive_part(c, k), c.ker("d", k), c.im("d", k - 1)),
                           (dlambda_primitive_part(c, k), c.ker("dL", k), c.im("dL", k + 1))):
            num, den = subspace_intersect(ker, prim), subspace_intersect(im, prim)
            assert same(g.numerator, num), (g.name, k)
            assert same(g.denominator, den), (g.name, k)
            assert g.rows == quotient(num, den), (g.name, k)
