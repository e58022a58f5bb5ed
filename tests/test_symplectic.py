import random
from fractions import Fraction
from functools import partial
from math import comb, factorial


def binom(n, k):
    return comb(n, k) if k >= 0 else 0

import pytest

from symcoh import (
    Form,
    NotSymplecticError,
    SymplecticComplex,
    SymplecticStructure,
    parse_form,
    parse_salamon,
    recursive_primitive_basis,
    standard_omega,
)
from symcoh.exterior import blade_indices, blades, form_to_coords
from symcoh.identities import run_identity_suite
from symcoh.linalg import OperatorMatrix, Subspace
from symcoh.symplectic import parse_omega

import form_oracle
from dense_oracle import det
from quotient_oracle import solve
from conftest import wedge_chain
from form_oracle import (
    d_lambda, d_lambda_via_star, del_minus_formula, del_plus_formula, matrix_on_blades)


def random_homogeneous(rng, dim, k, max_terms=4):
    pool = blades(dim, k)
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.choice(pool)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Form(dim, coeffs)


# -- sl(2) action -------------------------------------------------------------

def test_lambda_of_omega_is_n(nil_cx):
    st = nil_cx.structure
    assert st.apply("Lambda", st.omega) == Form.scalar(6, 3)


def test_h_eigenvalue_on_one_form(nil_cx):
    st = nil_cx.structure
    # H = [Lambda, L] multiplies a k-form by n - k = 3 - 1
    e1 = Form.e(6, 1)
    assert st.apply("Lambda", st.apply("L", e1)) - st.apply("L", st.apply("Lambda", e1)) == e1 * 2


def test_lambda_kills_one_forms(nil_cx):
    st = nil_cx.structure
    for i in range(1, 7):
        assert st.apply("Lambda", Form.e(6, i)).is_zero()


def test_sl2_matrix_identities_per_degree(nil_cx):
    st = nil_cx.structure
    for k in range(7):
        L, Lam = partial(st.apply, "L"), partial(st.apply, "Lambda")
        m_l = matrix_on_blades(L, 6, k, k + 2) if k + 2 <= 6 else None
        m_lam_up = matrix_on_blades(Lam, 6, k + 2, k) if k + 2 <= 6 else None
        m_lam = matrix_on_blades(Lam, 6, k, k - 2) if k >= 2 else None
        m_l_dn = matrix_on_blades(L, 6, k - 2, k) if k >= 2 else None
        commutator = OperatorMatrix(len(blades(6, k)), len(blades(6, k)),
                                    [{} for _ in blades(6, k)])
        if m_l is not None:
            commutator = commutator + (m_lam_up @ m_l)
        if m_lam is not None:
            commutator = commutator - (m_l_dn @ m_lam)
        h = OperatorMatrix.identity(len(blades(6, k))).scale(3 - k)
        assert commutator == h


# -- Lefschetz decomposition ------------------------------------------------------

def lefschetz_oracle(st, a, k):
    """Independent route: exact linear solve of the component system."""
    cols, meta = [], []
    for r in range(max(k - st.n, 0), k // 2 + 1):
        s = k - 2 * r
        for p in st.primitive_basis(s):
            cols.append(form_oracle.L_power(st, p, r) / factorial(r))
            meta.append((r, p))
    idx = {m: i for i, m in enumerate(blades(st.dim, k))}
    m = OperatorMatrix.from_columns([form_to_coords(c, idx) for c in cols],
                                    len(blades(st.dim, k)))
    sol = solve(m, form_to_coords(a, idx))
    assert sol is not None, "decomposition system is inconsistent"
    comps = {}
    for j, c in sol.items():
        r, p = meta[j]
        comps[r] = comps.get(r, Form.zero(st.dim)) + p * c
    return {r: f for r, f in comps.items() if f}


def test_decompose_primitive_is_single_component(nil_cx):
    st = nil_cx.structure
    b = parse_form("e15 - e23", 6)
    dec = form_oracle.lefschetz_decompose(st, b, 2)
    assert set(dec.components) == {0} and dec.components[0] == b


def test_decompose_omega(nil_cx):
    st = nil_cx.structure
    dec = form_oracle.lefschetz_decompose(st, st.omega, 2)
    assert set(dec.components) == {1}
    assert dec.components[1] == Form.scalar(6, 1)


def test_decompose_matches_linear_solve_oracle(nil_cx):
    st = nil_cx.structure
    rng = random.Random(41)
    for k in range(7):
        for _ in range(6):
            a = random_homogeneous(rng, 6, k)
            closed = form_oracle.decompose_degree(st, a, k)
            assert closed == lefschetz_oracle(st, a, k)


def test_decompose_rejects_inhomogeneous(nil_cx):
    with pytest.raises(ValueError):
        form_oracle.lefschetz_decompose(nil_cx.structure, Form.e(6, 1) + Form.e(6, 1, 2))


def test_decompose_reconstructs(nil_cx):
    st = nil_cx.structure
    rng = random.Random(42)
    for k in range(7):
        a = random_homogeneous(rng, 6, k)
        assert form_oracle.lefschetz_decompose(st, a, k).reconstruct() == a


# -- primitivity --------------------------------------------------------------------

def test_is_primitive_examples(nil_cx):
    st = nil_cx.structure
    assert st.apply("Lambda", Form.e(6, 1)).is_zero()
    assert st.apply("Lambda", st.omega)
    assert st.apply("Lambda", parse_form("e15 - e23", 6)).is_zero()


def test_primitive_characterizations_agree(nil_cx):
    st = nil_cx.structure
    rng = random.Random(43)
    for k in range(4):
        for _ in range(8):
            a = random_homogeneous(rng, 6, k)
            lam_route = st.apply("Lambda", a).is_zero()
            l_route = form_oracle.L_power(st, a, st.n - k + 1).is_zero()
            assert lam_route == l_route


def test_primitive_basis_counts(nil_cx):
    st = nil_cx.structure
    assert len(st.primitive_basis(1)) == 6
    assert len(st.primitive_basis(2)) == 14
    assert len(st.primitive_basis(3)) == 14
    for k in range(4):
        assert len(st.primitive_basis(k)) == binom(6, k) - binom(6, k - 2)
        for b in st.primitive_basis(k):
            assert st.apply("Lambda", b).is_zero()


def test_primitive_basis_degree_range(nil_cx):
    with pytest.raises(ValueError):
        nil_cx.structure.primitive_basis(4)


def test_recursive_primitive_basis_base_case():
    assert recursive_primitive_basis(1, 1) == [Form.e(2, 1), Form.e(2, 2)]
    assert recursive_primitive_basis(0, 1) == [Form.scalar(2, 1)]


def test_recursive_primitive_basis_n2_k2():
    basis = recursive_primitive_basis(2, 2)
    assert len(basis) == binom(4, 2) - binom(4, 0)
    corrected = Form.e(4, 1, 2) - Form.e(4, 3, 4)
    assert corrected in basis
    st = SymplecticStructure(standard_omega(2))
    for b in basis:
        assert st.apply("Lambda", b).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursive_basis_spans_kernel_basis(n):
    st = SymplecticStructure(standard_omega(n))
    for k in range(n + 1):
        rec = recursive_primitive_basis(k, n)
        assert len(rec) == binom(2 * n, k) - binom(2 * n, k - 2)
        idx = {m: i for i, m in enumerate(blades(2 * n, k))}
        span = Subspace(len(idx), [form_to_coords(b, idx) for b in rec])
        assert span == st.primitive_subspace(k)


# -- symplectic star ------------------------------------------------------------------

def test_star_of_one_is_volume(nil_cx):
    st = nil_cx.structure
    assert st.apply("star", Form.scalar(6, 1)) == form_oracle.volume(st)
    assert st.apply("star", form_oracle.volume(st)) == Form.scalar(6, 1)


def test_star_involution_all_blades(nil_cx):
    st = nil_cx.structure
    for k in range(7):
        for m in blades(6, k):
            f = Form(6, {m: 1})
            assert st.apply("star", st.apply("star", f)) == f


def test_star_middle_degree_primitive_sign():
    # n = 3: (-1)^{3*4/2} = +1; n = 2: (-1)^{2*3/2} = -1
    st3 = SymplecticStructure(standard_omega(3))
    for b in st3.primitive_basis(3):
        assert st3.apply("star", b) == b
    st2 = SymplecticStructure(standard_omega(2))
    for b in st2.primitive_basis(2):
        assert st2.apply("star", b) == -b


def symp_inner_oracle(st, a, b, k):
    """Minor-determinant expansion of the bivector pairing on k-forms."""
    total = Fraction(0)
    for s_mask, ca in a.items():
        si = blade_indices(s_mask)
        for t_mask, cb in b.items():
            ti = blade_indices(t_mask)
            sub = [[st.inverse.entry(i - 1, j - 1) for j in ti] for i in si]
            total += ca * cb * det(sub, k)
    return total


@pytest.mark.parametrize("fixture", ["nil_cx", "torus_cx"])
def test_star_matches_pairing_definition(fixture, request):
    st = request.getfixturevalue(fixture).structure
    rng = random.Random(44)
    for k in range(7):
        for _ in range(5):
            a = random_homogeneous(rng, 6, k)
            b = random_homogeneous(rng, 6, k)
            assert a.wedge(st.apply("star", b)) \
                == form_oracle.volume(st) * symp_inner_oracle(st, a, b, k)


# -- the adjoint differential ----------------------------------------------------------

def test_d_lambda_of_constant(nil_cx):
    assert d_lambda(nil_cx, Form.scalar(6, 2)).is_zero()


def test_d_lambda_routes_agree_on_all_blades(nil_cx, nil_cx_prime, torus_cx):
    for cx in (nil_cx, nil_cx_prime, torus_cx):
        for k in range(7):
            for m in blades(6, k):
                f = Form(6, {m: 1})
                assert d_lambda(cx, f) == d_lambda_via_star(cx, f)


def test_d_lambda_published_identities(nil_cx):
    omega = nil_cx.omega
    e6 = Form.e(6, 6)
    assert d_lambda(nil_cx, omega.wedge(e6)) == parse_form("e15 + e23 + e24", 6)
    assert nil_cx.apply("del_plus", e6) == parse_form("e15 + e23 + e24", 6)
    # the printed source combination carries a sign slip on the two 3-form
    # terms; the identity holds with them negated (see the e346 reduction)
    combo = omega.wedge(e6) - wedge_chain(6, "625") - wedge_chain(6, "634")
    assert d_lambda(nil_cx, combo) == Form.e(6, 2, 4) * 2
    assert combo == wedge_chain(6, "346") * (-2)
    assert d_lambda(nil_cx, wedge_chain(6, "625") + wedge_chain(6, "634") + omega.wedge(e6)) \
        == (Form.e(6, 1, 5) + Form.e(6, 2, 3)) * 2


def test_d_lambda_componentwise_shift(nil_cx):
    # on one omega-wedge of a primitive form, the adjoint differential drops
    # the wedge on the raised part and scales the lowered part by -(H+R)
    st = nil_cx.structure
    rng = random.Random(45)
    n = 3
    for s in range(4):
        for _ in range(4):
            coeffs = {}
            for p in st.primitive_basis(s)[: rng.randint(1, 4)]:
                coeffs[p] = Fraction(rng.randint(-2, 2))
            b = Form.zero(6)
            for p, c in coeffs.items():
                b = b + p * c
            if b.is_zero() or s + 1 > n:
                continue
            r = 1
            lr = form_oracle.L_power(st, b, r) / factorial(r)
            db = nil_cx.apply("d", b)
            comps = form_oracle.decompose_degree(st, db, s + 1)
            b0 = comps.get(0, Form.zero(6))
            b1 = comps.get(1, Form.zero(6))
            expected = form_oracle.L_power(st, b0, r - 1) / factorial(r - 1) \
                - form_oracle.L_power(st, b1, r) * Fraction(n - r - (s - 1), factorial(r))
            assert d_lambda(nil_cx, lr) == expected


# -- the two pieces of d -----------------------------------------------------------------

def test_del_plus_examples(nil_cx):
    assert nil_cx.apply("del_plus", Form.e(6, 4)) == Form.e(6, 1, 2)
    assert nil_cx.apply("del_plus", Form.e(6, 6)) == parse_form("e15 + e23 + e24", 6)


def test_del_minus_example(nil_cx):
    b = wedge_chain(6, "416") - wedge_chain(6, "425")
    assert nil_cx.structure.apply("Lambda", b).is_zero()
    assert nil_cx.apply("del_minus", b) == Form.e(6, 1, 2)


def test_two_routes_agree_on_full_bases(nil_cx, nil_cx_prime, torus_cx):
    for cx in (nil_cx, nil_cx_prime, torus_cx):
        for k in range(7):
            for m in blades(6, k):
                f = Form(6, {m: 1})
                assert cx.apply("del_plus", f) == del_plus_formula(cx, f)
                assert cx.apply("del_minus", f) == del_minus_formula(cx, f)


def test_del_plus_kills_top_primitives(nil_cx):
    for b in nil_cx.structure.primitive_basis(3):
        assert nil_cx.apply("del_plus", b).is_zero()


def test_del_plus_del_minus_on_closed_forms(nil_cx):
    # d- and dL-closed: constants and the closed generators
    for f in (Form.scalar(6, 1), Form.e(6, 1), Form.e(6, 2), Form.e(6, 3)):
        assert nil_cx.apply("del_plus", nil_cx.apply("del_minus", f)).is_zero()


def test_del_plus_del_minus_cross_check_on_generator(nil_cx):
    # second-order composition vs the scaled d d_lambda on a primitive 1-form
    e6 = Form.e(6, 6)
    ddl = nil_cx.apply("d", d_lambda(nil_cx, e6))
    s = 1
    assert nil_cx.apply("del_plus", nil_cx.apply("del_minus", e6)) \
        == ddl / Fraction(-(nil_cx.n - s + 1))


def test_del_ops_preserve_primitivity(nil_cx):
    st = nil_cx.structure
    for k in range(4):
        for b in st.primitive_basis(k):
            assert st.apply("Lambda", nil_cx.apply("del_plus", b)).is_zero()
            assert st.apply("Lambda", nil_cx.apply("del_minus", b)).is_zero()


# -- validation ------------------------------------------------------------------------

def test_not_symplectic_degenerate():
    torus = parse_salamon("(0,0,0,0,0,0)")
    with pytest.raises(NotSymplecticError) as err:
        SymplecticComplex(torus, parse_form("e12", 6))
    assert err.value.reason == "degenerate"


def test_not_symplectic_degenerate_without_a_zero_row():
    """12+13+14 on R^4: every row of its matrix is non-zero, and its
    Pfaffian is 0, so inverting the matrix fails."""
    omega = parse_omega("12+13+14", 4)
    with pytest.raises(NotSymplecticError) as err:
        SymplecticComplex(parse_salamon("(0,0,0,0)"), omega)
    assert err.value.reason == "degenerate"
    assert str(err.value) == f"omega is degenerate (det of its coefficient matrix is 0): {omega}"


def test_not_symplectic_not_closed(nil_algebra):
    with pytest.raises(NotSymplecticError) as err:
        SymplecticComplex(nil_algebra, parse_form("e16 + e25 - e34 + e46", 6))
    assert err.value.reason == "not_closed"


def test_not_symplectic_wrong_degree(nil_algebra):
    with pytest.raises(NotSymplecticError) as err:
        SymplecticComplex(nil_algebra, Form.e(6, 1))
    assert err.value.reason == "not_2form"


# -- the full identity battery ------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["nil_cx", "nil_cx_prime", "torus_cx"])
def test_identity_suite(fixture, request):
    cx = request.getfixturevalue(fixture)
    result = run_identity_suite(cx)
    assert result.passed, result.details


def test_parse_omega_shorthand_with_index_e():
    # in the shorthand 'e' is index 14, always the second index of a pair
    assert parse_omega("12+34+56+78+9a+bc+de", 14) == standard_omega(7)
    assert parse_omega("1e-2d", 14) == \
        Form.e(14, 1, 14) - Form.e(14, 2, 13)
    # in the full grammar 'e' starts a blade
    assert parse_omega("e12+e34", 4) == standard_omega(2)
    assert parse_omega("2*e12 - e34", 4) == Form.e(4, 1, 2) * 2 - Form.e(4, 3, 4)
