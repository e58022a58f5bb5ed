"""The per-degree primitive operator layer against its form-level oracles.

``SymplecticComplex.del_matrices`` splits each primitive basis form once by
the closed primitive formulas; the projection routes ``del_plus`` and
``del_minus`` decompose every form into Lefschetz components instead.  The
two must give the same matrix in every degree.
"""

import pytest

from symcoh import Form, SymplecticComplex, parse_form, parse_salamon, standard_omega
from symcoh.exterior import blade_index, form_to_coords
from symcoh.hodge import HodgeTheory
from symcoh.linalg import OperatorMatrix
from symcoh.symbolcheck import build_symbols

import form_oracle
from conftest import NIL_ALGEBRA, OMEGA, OMEGA_PRIME, TORUS_ALGEBRA

FIXTURES = {
    "N6": (NIL_ALGEBRA, OMEGA),
    "N6-prime": (NIL_ALGEBRA, OMEGA_PRIME),
    "T6": (TORUS_ALGEBRA, None),
    "KT4": ("(0,0,0,12)", "e13 + e24"),
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def cx(request):
    algebra, omega = FIXTURES[request.param]
    alg = parse_salamon(algebra)
    w = standard_omega(alg.dim // 2) if omega is None else parse_form(omega, alg.dim)
    return SymplecticComplex(alg, w)


def test_del_matrices_match_projection_routes(cx):
    st = cx.structure
    for k in range(cx.n + 1):
        dp, dm = cx.del_matrices(k)
        basis = st.primitive_basis(k)
        assert dp.ncols == dm.ncols == len(basis)
        assert dp.nrows == (len(st.primitive_basis(k + 1)) if k < cx.n else 0)
        assert dm.nrows == (len(st.primitive_basis(k - 1)) if k > 0 else 0)
        for j, b in enumerate(basis):
            assert dp.column(j) == form_oracle.prim_coords(st, cx.del_plus(b), k + 1)
            assert dm.column(j) == form_oracle.prim_coords(st, cx.del_minus(b), k - 1)


def test_del_matrices_built_once_per_degree(cx):
    assert cx.del_matrices(1) is cx.del_matrices(1)


def test_lift_inverts_prim_coords(cx):
    st = cx.structure
    for k in range(cx.n + 1):
        index = blade_index(cx.dim, k)[1]
        for j, b in enumerate(st.primitive_basis(k)):
            coords = form_oracle.prim_coords(st, b, k)
            assert coords == {j: 1}
            assert st.lift(k, 0).apply(coords) == form_to_coords(b, index)


def test_prim_coords_rejects_non_primitive(cx):
    st = cx.structure
    with pytest.raises(AssertionError):
        form_oracle.prim_coords(st, cx.omega, 2)
    with pytest.raises(AssertionError):
        form_oracle.prim_coords(st, Form.scalar(cx.dim, 1), -1)
    assert form_oracle.prim_coords(st, Form.zero(cx.dim), cx.n + 1) == {}


def test_harmonic_space_computed_once(nil_cx):
    ht = HodgeTheory(nil_cx)
    assert ht.harmonic_space(1, "plus") is ht.harmonic_space(1, "plus")


def test_gram_inverses_computed_once_per_degree(nil_cx, monkeypatch):
    """The Hodge checks invert each primitive Gram matrix (degrees -1..n)
    once, however many adjoints they form, and no blade Gram matrix: the
    splitting-conjugation check compares its identities multiplied through
    by the blade Gram matrices."""
    ht = HodgeTheory(nil_cx)
    inverted = []
    invert = OperatorMatrix.invert

    def counting_invert(m):
        inverted.append(m.nrows)
        return invert(m)

    monkeypatch.setattr(OperatorMatrix, "invert", counting_invert)
    for k in range(ht.n):
        for which in ("plus", "minus"):
            ht.laplacian(k, which)
            ht.harmonic_space(k, which)
            assert ht.check_hodge_decomposition(k, which).passed
        assert ht.check_jay_conjugation(k).passed
    assert len(inverted) == ht.n + 2
    assert ht.prim_gram_inverse(1) is ht.prim_gram_inverse(1)


def test_symbol_structure_shared_across_covectors():
    a = build_symbols(2, Form.e(4, 1))
    b = build_symbols(2, Form.e(4, 3))
    assert a.structure is b.structure
