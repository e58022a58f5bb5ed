from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from symcoh import CohomologyCalculator, Form, SymplecticComplex, parse_form, parse_salamon
from symcoh.cohomology import GROUP_NAMES, DegreeRangeError
from symcoh.linalg import Subspace

from conftest import wedge_chain
from paper_checks import (
    check_intersection_bounds, check_low_degree_equivalence, classes_span_equal,
    de_rham_primitive_part, dlambda_primitive_part, omega_dependence)


def binom(n, k):
    return comb(n, k) if k >= 0 else 0


def reference_bases(omega):
    """Published representative bases for the nilmanifold fixture, keyed by
    (group, degree); three-form entries are built index-by-index so the
    wedge fixes the signs."""
    w = lambda s: wedge_chain(6, s)
    e = lambda *ix: Form.e(6, *ix)
    long_rep = w("516") + w("534") - 2 * w("263") + w("624")
    return {
        ("dR", 0): [Form.scalar(6, 1)],
        ("dR", 1): [e(1), e(2), e(3)],
        ("dR", 2): [omega, e(1, 3), e(2, 3) - e(2, 4), e(1, 5) - e(2, 3),
                    e(2, 6) - e(4, 5)],
        ("dR", 3): [omega.wedge(e(2)), omega.wedge(e(3)), w("315") + w("415"),
                    w("425"), w("534") + w("623"), long_rep],
        ("dL", 0): [Form.scalar(6, 1)],
        ("dL", 1): [e(4), e(5), e(6)],
        ("dL", 2): [omega, e(4, 6), e(1, 5) - e(2, 3), e(2, 6) - e(4, 5),
                    e(3, 5) + e(4, 5)],
        ("dL", 3): [omega.wedge(e(2)), omega.wedge(e(3)), w("315") + w("415"),
                    w("416"), w("516") + w("623"), long_rep],
        ("p+", 0): [Form.scalar(6, 1)],
        ("p+", 1): [e(1), e(2), e(3)],
        ("p+", 2): [e(1, 3), e(2, 3) - e(2, 4), e(1, 5) - e(2, 3),
                    e(2, 6) - e(4, 5), e(3, 5) - e(4, 5)],
        ("p-", 0): [Form.scalar(6, 1)],
        ("p-", 1): [e(4), e(5), e(6)],
        ("p-", 2): [e(2, 4), e(4, 6), e(1, 5) - e(2, 3), e(2, 6) - e(4, 5),
                    e(3, 5) + e(4, 5)],
        ("d+dL", 0): [Form.scalar(6, 1)],
        ("d+dL", 1): [e(1), e(2), e(3)],
        ("d+dL", 2): [e(1, 2), e(1, 3), e(1, 4), e(2, 4), e(1, 5) - e(2, 3),
                      e(2, 6) - e(4, 5), e(1, 5) + e(2, 3) + e(2, 4)],
        ("d+dL", 3): [w("315"), w("415"), w("125") + w("134"),
                      w("126") - w("234"),
                      w("316") - w("325") + 2 * w("416") - 2 * w("425"),
                      long_rep],
    }


EXPECTED_DIMS = {
    "dR": [1, 3, 5, 6],
    "dL": [1, 3, 5, 6],
    "p+": [1, 3, 5],
    "p-": [1, 3, 5],
    "d+dL": [1, 3, 7, 6],
}


# -- dimensions ------------------------------------------------------------------

@pytest.mark.parametrize("name,dims", sorted(EXPECTED_DIMS.items()))
def test_nilmanifold_dimensions(nil_calc, name, dims):
    for k, expected in enumerate(dims):
        assert nil_calc.group(name, k).dimension == expected


def test_nilmanifold_upper_de_rham(nil_calc):
    # the full betti sequence is symmetric (unimodular invariant duality)
    assert [nil_calc.group("dR", k).dimension for k in range(7)] == \
        [1, 3, 5, 6, 5, 3, 1]


def test_middle_degree_two_sided_groups_match(nil_calc, torus_calc):
    for calc in (nil_calc, torus_calc):
        n = calc.n
        assert calc.group("ddL", n).dimension == calc.group("d+dL", n).dimension


def test_nilmanifold_ddl_middle_regression(nil_calc):
    # no published value; frozen from the engine, consistent with index zero
    assert nil_calc.group("ddL", 3).dimension == 6


def test_nilmanifold_ddl_low_degrees_regression(nil_calc):
    # frozen from the engine; happens to match the two-sided partner family
    assert nil_calc.group("ddL", 0).dimension == 1
    assert nil_calc.group("ddL", 1).dimension >= 1
    assert [nil_calc.group("ddL", k).dimension for k in range(4)] == [1, 3, 7, 6]


def test_torus_all_groups_are_full_primitive_spaces(torus_calc):
    for k in range(3):
        expected = binom(6, k) - binom(6, k - 2)
        assert torus_calc.group("p+", k).dimension == expected
        assert torus_calc.group("p-", k).dimension == expected
    for k in range(4):
        expected = binom(6, k) - binom(6, k - 2)
        assert torus_calc.group("ddL", k).dimension == expected
        assert torus_calc.group("d+dL", k).dimension == expected
    for k in range(7):
        assert torus_calc.group("dR", k).dimension == binom(6, k)


# -- representatives --------------------------------------------------------------

def test_reference_spans(nil_calc, omega):
    refs = reference_bases(omega)
    for (name, k), forms in sorted(refs.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        group = nil_calc.group(name, k)
        assert classes_span_equal(nil_calc, group, forms), (name, k)


def test_dlambda_degree_one_span(nil_calc):
    group = nil_calc.group("dL", 1)
    span = {str(f) for f in group.representatives}
    assert span == {"e4", "e5", "e6"}


def test_representatives_live_in_numerator(nil_calc):
    for name in ("dR", "dL", "p+", "p-", "d+dL", "ddL"):
        for k in nil_calc.legal_degrees(name):
            g = nil_calc.group(name, k)
            assert len(g.representatives) == g.dimension
            for f in g.representatives:
                vec = nil_calc.to_vec(f, k)
                assert g.numerator.contains(vec)
                assert not g.denominator.contains(vec)


def test_class_coordinates(nil_calc):
    g = nil_calc.group("dR", 2)
    rep = g.representatives[1]
    coords = nil_calc.class_coordinates(g, rep)
    assert coords == {1: Fraction(1)}
    assert nil_calc.class_coordinates(g, Form.e(6, 1, 2) * 0 + rep) is not None
    # a non-closed form is not in the numerator
    assert nil_calc.class_coordinates(g, Form.e(6, 3, 5)) is None


# -- invariants ---------------------------------------------------------------------

def test_complex_property_denominator_in_numerator(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        for name in ("dR", "dL", "p+", "p-", "d+dL", "ddL"):
            for k in calc.legal_degrees(name):
                g = calc.group(name, k)
                assert g.numerator.contains_subspace(g.denominator)
                assert g.dimension == g.numerator.dim - g.denominator.dim


def test_one_sided_dimensions_agree(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        for k in range(calc.n):
            assert calc.group("p+", k).dimension == calc.group("p-", k).dimension


def test_elliptic_index_zero(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        assert calc.elliptic_index() == 0
        assert calc.check_index().passed


def test_degree_range_errors(nil_calc):
    """On N6 (n = 3), each group refuses the degree below its range and the
    one above it, naming the range; an unknown name is a plain ValueError."""
    tops = {"dR": 6, "dL": 6, "p+": 2, "p-": 2, "d+dL": 3, "ddL": 3}
    assert tuple(tops) == GROUP_NAMES
    for name, top in tops.items():
        assert nil_calc.legal_degrees(name) == range(0, top + 1)
        for k in (-1, top + 1):
            with pytest.raises(DegreeRangeError) as info:
                nil_calc.group(name, k)
            assert str(info.value) == f"{name} degree must be in 0..{top}, got {k}"
    unknown = ("unknown group '??'; expected one of "
               "('dR', 'dL', 'p+', 'p-', 'd+dL', 'ddL')")
    for call in (nil_calc.group, lambda name, _: nil_calc.legal_degrees(name)):
        with pytest.raises(ValueError) as info:
            call("??", 0)
        assert type(info.value) is ValueError and str(info.value) == unknown


def test_images_from_the_edge_degrees_are_zero(nil_calc, torus_calc):
    """On N6 and T6, the image of d from degree -1, of dL from degree 2n+1
    and of dp from degree -1 is read off an empty matrix: the zero subspace
    of the one-blade degree 0 or 2n forms, and the denominator of its group
    there.  The stacked pieces, whose images lie in two degrees, have none."""
    for calc in (nil_calc, torus_calc):
        top = 2 * calc.n
        for op, k, name, degree in (("d", -1, "dR", 0), ("dL", top + 1, "dL", top),
                                    ("dp", -1, "p+", 0)):
            sub = calc.im(op, k)
            assert sub == Subspace.zero(1), (op, k)
            assert calc.group(name, degree).denominator is sub, (op, k)
        with pytest.raises(ValueError, match="dp;dm has no image in one degree"):
            calc.im("dp;dm", 1)


# -- low degree equivalences ----------------------------------------------------------

def test_low_degree_equivalence(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        result = check_low_degree_equivalence(calc)
        assert result.passed, result.details


@pytest.mark.parametrize("numerator, detail", [
    # wider than ker d = span(e1, e2, e3): e4 is the first row ker d lacks
    ([{i: 1} for i in range(6)], "(6 vs 3); witness e4"),
    # narrower: every row of span(e1) lies in ker d, whose row e2 it lacks
    ([{0: 1}], "(1 vs 3); witness e2"),
])
def test_low_degree_equivalence_names_a_witness(nil_cx, numerator, detail):
    """The p+ numerator in degree 1, replaced by hand in the calculator's
    cache, differs from ker d; the detail names a basis row of one space
    that the other does not contain."""
    calc = CohomologyCalculator(nil_cx)
    calc._ops[("ker", "dp", 1)] = Subspace(6, numerator)
    result = check_low_degree_equivalence(calc)
    assert not result.passed
    assert result.details == [f"p+/dR numerator k=1: subspaces differ {detail}"]


# -- strong Lefschetz -------------------------------------------------------------------

def test_strong_lefschetz_fails_on_nilmanifold(nil_calc):
    result = nil_calc.check_strong_lefschetz()
    assert not result.passed
    assert any("not injective" in d for d in result.details)


def test_one_step_kernel_contains_first_generator(nil_calc):
    # the class of e1 dies under wedging with omega
    g1 = nil_calc.group("dR", 1)
    e1 = Form.e(6, 1)
    coords = nil_calc.class_coordinates(g1, e1)
    assert coords
    image = nil_calc.cx.omega.wedge(e1)
    assert nil_calc.im("d", 2).contains(nil_calc.to_vec(image, 3))
    ker = nil_calc.diagnostic_one_step_kernel()
    assert ker.dim == 1
    # kernel vector is the e1 class direction
    assert ker.contains(coords)


def test_one_step_map_injective_for_second_form(nil_calc_prime):
    assert nil_calc_prime.diagnostic_one_step_kernel().dim == 0


def test_strong_lefschetz_holds_on_torus(torus_calc):
    result = torus_calc.check_strong_lefschetz()
    assert result.passed, result.details


# -- exactness lemma -----------------------------------------------------------------------

def test_lemma_fails_on_nilmanifold_with_witness(nil_calc, nil_cx):
    result = nil_calc.check_ddlambda_lemma()
    assert not result.passed
    e12 = Form.e(6, 1, 2)
    vec = nil_calc.to_vec(e12, 2)
    # d-closed and primitive
    assert nil_cx.algebra.d(e12).is_zero()
    assert nil_cx.structure.is_primitive(e12)
    # exact for both first-order pieces
    assert nil_cx.del_plus(Form.e(6, 4)) == e12
    assert nil_cx.del_minus(wedge_chain(6, "416") - wedge_chain(6, "425")) == e12
    assert nil_calc.im("dp", 1).contains(vec)
    assert nil_calc.im("dm", 3).contains(vec)
    # but not exact for the second-order composition
    assert not nil_calc.im("dpdm", 2).contains(vec)


def test_lemma_holds_on_torus(torus_calc):
    result = torus_calc.check_ddlambda_lemma()
    assert result.passed, result.details


def test_lemma_and_strong_lefschetz_co_occur(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        lemma = calc.check_ddlambda_lemma().passed
        lefschetz = calc.check_strong_lefschetz().passed
        assert lemma == lefschetz


def test_lefschetz_power_maps_are_built_once_across_suites():
    """The lefschetz and ddlambda suites on N8 build each omega-power map
    on classes once: omega^(4-k) from H^k for k = 0..4 and omega on H^1."""
    cx = SymplecticComplex(parse_salamon("(0,0,0,12,14,15+23+24,0,0)"),
                           parse_form("e16 + e25 - e34 + e78", 8))
    calc = CohomologyCalculator(cx)
    built = Counter()
    power_map = calc._power_map

    def counting(k, power):
        built[k, power] += 1
        return power_map(k, power)

    calc._power_map = counting
    first = calc.check_strong_lefschetz()
    lemma = calc.check_ddlambda_lemma()
    assert built == Counter([(k, 4 - k) for k in range(5)] + [(1, 1)])
    assert first == calc.check_strong_lefschetz()
    assert lemma == CohomologyCalculator(cx).check_ddlambda_lemma()


# -- intersection groups and bounds ------------------------------------------------------

def test_intersection_dimensions_nilmanifold(nil_calc):
    assert de_rham_primitive_part(nil_calc, 2).dimension == 4
    assert dlambda_primitive_part(nil_calc, 2).dimension == 4
    assert nil_calc.group("p+", 2).dimension == 4 + 1
    assert nil_calc.group("p-", 2).dimension == 4 + 1


def test_intersection_witnesses(nil_calc, nil_cx):
    # the extra class on the + side is a form that is not closed
    extra = parse_form("e35 - e45", 6)
    assert not nil_cx.algebra.d(extra).is_zero()
    assert nil_calc.ker("dp", 2).contains(nil_calc.to_vec(extra, 2))
    g = nil_calc.group("p+", 2)
    coords = nil_calc.class_coordinates(g, extra)
    assert coords
    # the extra class on the - side is the image observed only at full-space level
    e24 = Form.e(6, 2, 4)
    assert nil_calc.im("dL", 3).contains(nil_calc.to_vec(e24, 2))
    assert not nil_calc.im("dm", 3).contains(nil_calc.to_vec(e24, 2))
    gm = nil_calc.group("p-", 2)
    coords = nil_calc.class_coordinates(gm, e24)
    assert coords


def test_torus_equalities_k2(torus_calc):
    assert torus_calc.group("p+", 2).dimension == 14
    assert de_rham_primitive_part(torus_calc, 2).dimension == 14
    assert torus_calc.group("p-", 2).dimension == 14
    assert dlambda_primitive_part(torus_calc, 2).dimension == 14


def test_intersection_bounds_check(nil_calc, nil_calc_prime, torus_calc):
    for calc in (nil_calc, nil_calc_prime, torus_calc):
        result = check_intersection_bounds(calc)
        assert result.passed, result.details


@pytest.mark.parametrize("numerator, failures", [
    # wider than ker del_plus on P^1: all of degree 1, so p+(1) has dim 6
    ([{i: 1} for i in range(6)], ["k=1: p+=6 p-=3 dR^P=3 dL^P=3",
                                  "k=1: one-sided dimensions differ"]),
    # narrower: span(e1) also falls below dim(dL-cohomology ^ P^1) = 3
    ([{0: 1}], ["k=1: p+=1 p-=3 dR^P=3 dL^P=3", "k=1: one-sided dimensions differ",
                "k=1: lower bound violated (1 < 3)"]),
])
def test_intersection_bounds_names_the_failing_degree(nil_cx, numerator, failures):
    """The p+ numerator in degree 1, replaced by hand in the calculator's
    cache, makes dim p+(1) differ from dim p-(1); the other degrees keep
    their one summary line each."""
    calc = CohomologyCalculator(nil_cx)
    calc._ops[("ker", "dp", 1)] = Subspace(6, numerator)
    result = check_intersection_bounds(calc)
    assert not result.passed
    assert result.details == ["k=0: p+=1 p-=1 dR^P=1 dL^P=1", *failures,
                              "k=2: p+=5 p-=5 dR^P=4 dL^P=4"]


# -- dependence on the symplectic class ---------------------------------------------------

def test_omega_dependence_offset(nil_algebra, omega, omega_prime):
    dims = omega_dependence(nil_algebra, [omega, omega_prime])
    assert dims[0]["p+"] == dims[1]["p+"] + 1
    assert dims[0]["p-"] == dims[1]["p-"] + 1


def test_omega_scaling_invariance(nil_algebra, omega):
    dims = omega_dependence(nil_algebra, [omega, omega * 2])
    assert dims[0] == dims[1]


def test_third_symplectic_form_regression(nil_algebra, omega):
    # omega + e13 is closed and non-degenerate; dims frozen from the engine
    omega2 = omega + Form.e(6, 1, 3)
    cx = SymplecticComplex(nil_algebra, omega2)
    calc = CohomologyCalculator(cx)
    dims = {"p+": calc.group("p+", 2).dimension,
            "p-": calc.group("p-", 2).dimension}
    assert dims["p+"] == dims["p-"]
    assert dims == THIRD_FORM_DIMS


THIRD_FORM_DIMS = {"p+": 5, "p-": 5}
