"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Each test prints a single pass line on success; run ``pytest -s
tests/test_acceptance.py`` to see them all.
"""

import json
from math import comb

import pytest

from symcoh import (
    CohomologyCalculator,
    Form,
    HodgeTheory,
    parse_form,
    recursive_primitive_basis,
    standard_omega,
)
from symcoh.cli import cmd_compute, parse_args, render
from symcoh.exterior import blades, form_to_coords
from symcoh.hodge import CompatibleTriple
from symcoh.identities import run_identity_suite
from symcoh.linalg import Subspace
from symcoh.symbolcheck import DEFAULT_SEED, build_symbols, check_exactness, random_covectors

from conftest import wedge_chain
from paper_checks import classes_span_equal, de_rham_primitive_part, dlambda_primitive_part
from test_cohomology import EXPECTED_DIMS, reference_bases


def binom(n, k):
    return comb(n, k) if k >= 0 else 0


def test_criterion_01_table_reproduction(nil_calc, omega):
    for name, dims in EXPECTED_DIMS.items():
        got = [nil_calc.group(name, k).dimension for k in range(len(dims))]
        assert got == dims, (name, got, dims)
    for (name, k), forms in reference_bases(omega).items():
        group = nil_calc.group(name, k)
        assert classes_span_equal(nil_calc, group, forms), (name, k)
    print("ACCEPTANCE 1 PASS: published table reproduced exactly "
          "(dimensions and representative spans)")


def test_criterion_02_omega_dependence(nil_calc, nil_calc_prime):
    for name in ("p+", "p-"):
        assert nil_calc.group(name, 2).dimension == \
            nil_calc_prime.group(name, 2).dimension + 1
    print("ACCEPTANCE 2 PASS: degree-2 one-sided dimensions drop by one "
          "for the second symplectic form")


def test_criterion_03_strict_inequality_witnesses(nil_calc):
    assert nil_calc.group("p+", 2).dimension == \
        de_rham_primitive_part(nil_calc, 2).dimension + 1
    assert nil_calc.group("p-", 2).dimension == \
        dlambda_primitive_part(nil_calc, 2).dimension + 1
    # witness classes: e35 - e45 spans the extra + class ...
    extra_plus = parse_form("e35 - e45", 6)
    gp = nil_calc.group("p+", 2)
    dr_cap = de_rham_primitive_part(nil_calc, 2)
    coords = nil_calc.class_coordinates(gp, extra_plus)
    assert coords
    lifted = Subspace(comb(6, 2),
                      dr_cap.numerator.rows + [nil_calc.to_vec(extra_plus, 2)])
    assert lifted == gp.numerator  # ker restricted = closed-primitive + witness
    # ... and e24 spans the extra - class
    e24 = Form.e(6, 2, 4)
    gm = nil_calc.group("p-", 2)
    coords = nil_calc.class_coordinates(gm, e24)
    assert coords
    assert nil_calc.im("dL", 3).contains(nil_calc.to_vec(e24, 2))
    assert not nil_calc.im("dm", 3).contains(nil_calc.to_vec(e24, 2))
    print("ACCEPTANCE 3 PASS: both strict-inequality witnesses pin the "
          "extra classes (e35 - e45 and e24)")


def test_criterion_04_exactness_lemma_witness(nil_calc, nil_cx, torus_calc):
    e12 = Form.e(6, 1, 2)
    assert nil_cx.apply("d", e12).is_zero()
    assert nil_cx.structure.apply("Lambda", e12).is_zero()
    assert nil_cx.apply("del_plus", Form.e(6, 4)) == e12
    assert nil_cx.apply("del_minus", wedge_chain(6, "416") - wedge_chain(6, "425")) == e12
    assert not nil_calc.im("dpdm", 2).contains(nil_calc.to_vec(e12, 2))
    assert not nil_calc.check_ddlambda_lemma().passed
    assert torus_calc.check_ddlambda_lemma().passed
    print("ACCEPTANCE 4 PASS: e12 witnesses the lemma failure; the torus "
          "satisfies the lemma")


def test_criterion_05_strong_lefschetz(nil_calc, nil_calc_prime, torus_calc, nil_cx):
    ker = nil_calc.diagnostic_one_step_kernel()
    assert ker.dim >= 1
    g1 = nil_calc.group("dR", 1)
    coords = nil_calc.class_coordinates(g1, Form.e(6, 1))
    assert ker.contains(coords)
    assert nil_calc_prime.diagnostic_one_step_kernel().dim == 0
    assert torus_calc.check_strong_lefschetz().passed
    print("ACCEPTANCE 5 PASS: one-step map kernel contains the first "
          "generator class; injective for the second form; torus passes")


def test_criterion_06_operator_identities(nil_cx, nil_cx_prime, torus_cx):
    for cx in (nil_cx, nil_cx_prime, torus_cx):
        result = run_identity_suite(cx)
        assert result.passed, result.details
    print("ACCEPTANCE 6 PASS: full operator-identity battery exact on both "
          "nilmanifold forms and the torus")


def test_criterion_07_symbol_exactness():
    for n in (1, 2, 3):
        result = check_exactness(build_symbols(n, Form.e(2 * n, 1)))
        assert result.passed, result.details
        for xi in random_covectors(n, 20, DEFAULT_SEED):
            result = check_exactness(build_symbols(n, xi))
            assert result.passed, (n, str(xi), result.details)
    print("ACCEPTANCE 7 PASS: symbol sequence exact at every position for "
          "n = 1, 2, 3 (coordinate and 20 seeded covectors each)")


def test_criterion_08_hodge_suite(nil_cx, nil_cx_prime, torus_cx):
    for cx in (nil_cx, nil_cx_prime, torus_cx):
        calc = CohomologyCalculator(cx)
        ht = HodgeTheory(cx)
        for k in range(cx.n):
            for which, gname in (("plus", "p+"), ("minus", "p-")):
                assert ht.harmonic_dimension(k, which) == \
                    calc.group(gname, k).dimension
                res = ht.check_hodge_decomposition(k, which)
                assert res.passed, res.details
            res = ht.check_jay_conjugation(k)
            assert res.passed, res.details
            pm = ht.pairing_matrix(k, calc.group("p+", k).rows, calc.group("p-", k).rows)
            assert pm.nrows == pm.ncols == pm.rank()
        assert calc.elliptic_index() == 0
        alt = HodgeTheory(cx, CompatibleTriple(cx.structure,
                                               order=list(range(cx.dim))[::-1]))
        for k in range(cx.n):
            for which in ("plus", "minus"):
                assert alt.harmonic_dimension(k, which) == \
                    ht.harmonic_dimension(k, which)
    print("ACCEPTANCE 8 PASS: harmonic = quotient dimensions, orthogonal "
          "decompositions, conjugation identities, pairings, index zero, "
          "metric independence on all fixtures")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_09_dimension_formulas(n):
    from symcoh import SymplecticStructure
    st = SymplecticStructure(standard_omega(n))
    for k in range(n + 1):
        rec = recursive_primitive_basis(k, n)
        assert len(rec) == binom(2 * n, k) - binom(2 * n, k - 2)
        assert len(st.primitive_basis(k)) == len(rec)
        idx = {m: i for i, m in enumerate(blades(2 * n, k))}
        span = Subspace(len(idx), [form_to_coords(b, idx) for b in rec])
        assert span == st.primitive_subspace(k)
    if n == 4:
        print("ACCEPTANCE 9 PASS: primitive bases agree as subspaces with "
              "the recursion and match the binomial count for n <= 4")


def test_criterion_10_determinism():
    args = parse_args(["compute"])
    (code1, report1), (code2, report2) = cmd_compute(args), cmd_compute(args)
    assert code1 == code2 == 0
    text1, text2 = render(report1, args.format), render(report2, args.format)
    assert text1 == text2
    json.loads(text1)
    print("ACCEPTANCE 10 PASS: repeated computation is byte-identical")
