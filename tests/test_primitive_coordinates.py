"""The primitive subspaces of ``CohomologyCalculator``, eliminated in the
primitive coordinates of P^k and lifted canonically, against the blade
routes of ``primitive_oracle``: lift-then-``rref`` kernels, blade images, the
Zassenhaus intersection for the d+dL numerator and the chained sum for the
ddL denominator.  Equality is of canonical int rows and pivots, so it is
equality of subspaces and of every group's representatives."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import primitive_oracle as oracle
from basis_change import scramble
from symcoh import CohomologyCalculator, SymplecticComplex, parse_salamon
from symcoh.cohomology import GROUP_NAMES
from symcoh.linalg import Subspace, quotient
from symcoh.symplectic import parse_omega

N6 = "(0,0,0,12,14,15+23+24)"
N8 = "(0,0,0,12,14,15+23+24,0,0)"
FIXTURES = {
    "N6": (N6, "16+25-34", None),
    "N6-second-omega": (N6, "13+26-45", None),
    "KTxT2": ("(0,0,0,12,0,0)", "13+24+56", None),
    # omega off Darboux form: B_2 and B_3 have pivot entries 1 and 2, so a
    # lifted row can have content 2
    "KTxT2-half": ("(0,0,0,12,0,0)", "2*13+24+56", None),
    "T6": ("(0,0,0,0,0,0)", "12+34+56", None),
    "N8": (N8, "16+25-34+78", None),
    # every generator moved by a seeded unit upper-triangular change of basis
    "scrambled-N6": (N6, "16+25-34", 3),
    "scrambled-N8": (N8, "16+25-34+78", 11),
}


@lru_cache(maxsize=None)
def calc(name: str) -> CohomologyCalculator:
    algebra, omega, seed = FIXTURES[name]
    alg = parse_salamon(algebra)
    w = parse_omega(omega, alg.dim)
    if seed is not None:
        alg, w = scramble(alg, w, alg.dim, seed)
    return CohomologyCalculator(SymplecticComplex(alg, w))


def same(a: Subspace, b: Subspace) -> bool:
    return a == b and a.pivots == b.pivots


@pytest.mark.parametrize("name", list(FIXTURES))
def test_subspaces_equal_the_blade_routes(name):
    c = calc(name)
    for k in range(c.n + 1):
        for op in ("dp", "dm", "dpdm"):
            assert same(c.ker(op, k), getattr(oracle, f"ker_{op}")(c, k)), ("ker", op, k)
        assert same(c.im("dpdm", k), oracle.dpdm_span(c, k)), ("im", "dpdm", k)
        if k < c.n:
            assert same(c.im("dp", k), oracle.dp_span(c, k)), ("im", "dp", k)
        if k >= 1:
            assert same(c.im("dm", k), oracle.dm_span(c, k)), ("im", "dm", k)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_groups_equal_the_blade_routes(name):
    c = calc(name)
    for group in oracle.PRIMITIVE_GROUPS:
        for k in c.legal_degrees(group):
            num, den = oracle.groups(c, group, k)
            g = c.group(group, k)
            assert same(g.numerator, num), (group, k)
            assert same(g.denominator, den), (group, k)
            assert g.rows == quotient(num, den), (group, k)


@pytest.mark.parametrize("name, original", [("scrambled-N6", "N6"), ("scrambled-N8", "N8")])
def test_scrambles_keep_every_dimension(name, original):
    a, b = calc(name), calc(original)
    assert a.cx.algebra.differentials != b.cx.algebra.differentials
    for group in GROUP_NAMES:
        for k in a.legal_degrees(group):
            assert a.group(group, k).dimension == b.group(group, k).dimension, (group, k)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(["N6", "KTxT2-half", "scrambled-N6"]), hst.integers(0, 3), hst.data())
def test_canonical_lift_equals_elimination_of_lifted_rows(name, k, data):
    """For int combinations of B_k's columns, ``_lift`` of their span in
    primitive coordinates is the ``rref`` of the lifted rows."""
    c = calc(name)
    prim, b = c.st.primitive_subspace(k), c.st.lift(k, 0)
    entry = hst.integers(-3, 3)
    rows = data.draw(hst.lists(hst.dictionaries(hst.integers(0, prim.dim - 1), entry,
                                                max_size=4), max_size=prim.dim + 1))
    lifted = c._lift(Subspace(prim.dim, rows), k)
    assert same(lifted, Subspace(b.nrows, [b.apply(r) for r in rows]))
    assert all(prim.contains(r) for r in lifted.ints)
