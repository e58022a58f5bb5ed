"""Cross-dimension hardening: fixtures away from the main six-dimensional ones.

Betti numbers 1, 3, 4, 3, 1 are classical for this quotient; everything else
is frozen engine output plus the invariant checks, exercising every layer at
a half-dimension different from the main fixtures.
"""

import pytest

from symcoh import CohomologyCalculator, SymplecticComplex, parse_form, parse_salamon
from symcoh.hodge import run_hodge_suite
from symcoh.identities import run_identity_suite

from paper_checks import check_intersection_bounds, check_low_degree_equivalence


@pytest.fixture(scope="module")
def kt_cx():
    return SymplecticComplex(parse_salamon("(0,0,0,12)"), parse_form("e13 + e24", 4))


@pytest.fixture(scope="module")
def kt_calc(kt_cx):
    return CohomologyCalculator(kt_cx)


def test_betti_numbers(kt_calc):
    assert [kt_calc.group("dR", k).dimension for k in range(5)] == [1, 3, 4, 3, 1]
    assert [kt_calc.group("dL", k).dimension for k in range(5)] == [1, 3, 4, 3, 1]


def test_primitive_dimensions(kt_calc):
    assert [kt_calc.group("p+", k).dimension for k in range(2)] == [1, 3]
    assert [kt_calc.group("p-", k).dimension for k in range(2)] == [1, 3]
    assert [kt_calc.group("d+dL", k).dimension for k in range(3)] == [1, 3, 4]
    assert [kt_calc.group("ddL", k).dimension for k in range(3)] == [1, 3, 4]


def test_structure_checks(kt_calc):
    assert kt_calc.elliptic_index() == 0
    assert check_low_degree_equivalence(kt_calc).passed
    assert check_intersection_bounds(kt_calc).passed
    # odd first Betti number: the strong Lefschetz property must fail, and
    # the exactness lemma must fail with it
    assert not kt_calc.check_strong_lefschetz().passed
    assert not kt_calc.check_ddlambda_lemma().passed


def test_identity_battery(kt_cx):
    result = run_identity_suite(kt_cx)
    assert result.passed, result.details


def test_hodge_suite(kt_cx):
    result = run_hodge_suite(kt_cx)
    assert result.passed, result.details


def test_second_form_same_dimensions(kt_calc):
    cx2 = SymplecticComplex(parse_salamon("(0,0,0,12)"), parse_form("e14 + e23", 4))
    calc2 = CohomologyCalculator(cx2)
    assert [calc2.group("p+", k).dimension for k in range(2)] == \
        [kt_calc.group("p+", k).dimension for k in range(2)]
    assert not calc2.check_ddlambda_lemma().passed


def test_smallest_torus():
    from symcoh import standard_omega

    calc = CohomologyCalculator(
        SymplecticComplex(parse_salamon("(0,0)"), standard_omega(1)))
    assert [calc.group("dR", k).dimension for k in range(3)] == [1, 2, 1]
    assert list(calc.legal_degrees("p+")) == [0]
    assert calc.group("p+", 0).dimension == 1
    assert [calc.group("d+dL", k).dimension for k in range(2)] == [1, 2]
    assert calc.elliptic_index() == 0
    assert calc.check_strong_lefschetz().passed


def test_eight_dimensional_torus_smoke():
    from math import comb

    from symcoh import standard_omega

    calc = CohomologyCalculator(
        SymplecticComplex(parse_salamon("(0,0,0,0,0,0,0,0)"), standard_omega(4)))
    assert [calc.group("p+", k).dimension for k in range(4)] == \
        [comb(8, k) - (comb(8, k - 2) if k >= 2 else 0) for k in range(4)]
    assert calc.group("ddL", 4).dimension == 42
    assert calc.elliptic_index() == 0
