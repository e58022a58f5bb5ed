import random
from fractions import Fraction
from functools import partial

import pytest

from symcoh import (
    CohomologyCalculator,
    CompatibleTriple,
    Form,
    HodgeTheory,
    SymplecticComplex,
    SymplecticStructure,
    build_triple,
    parse_form,
    standard_omega,
)
from symcoh.exterior import blade_indices, blades, form_to_coords
from symcoh.hodge import adjoint_in_bases, run_hodge_suite
from symcoh.linalg import OperatorMatrix, image, vec_dot

import form_oracle
from dense_oracle import det
from form_oracle import matrix_on_blades
from qi_oracle import ComplexSplitting, imag_part, real_part


def adjoint(ht, op, dom_degree, cod_degree):
    """Adjoint over blade bases: <Op a, b> = <a, adjoint(Op) b>."""
    return adjoint_in_bases(op, ht.triple.op("gram", dom_degree).invert(),
                            ht.triple.op("gram", cod_degree))


@pytest.fixture(scope="module")
def nil_hodge(nil_cx):
    return HodgeTheory(nil_cx)


@pytest.fixture(scope="module")
def torus_hodge(torus_cx):
    return HodgeTheory(torus_cx)


# -- compatible triple ------------------------------------------------------------

def test_standard_triple_is_standard():
    tr = build_triple(standard_omega(3))
    assert tr.metric == OperatorMatrix.identity(6)
    # J sends each odd basis vector to the next one
    assert tr.J.cols[0] == {1: Fraction(1)}
    assert tr.J.cols[1] == {0: Fraction(-1)}


@pytest.mark.parametrize("omega_text", ["e16 + e25 - e34", "e13 + e26 - e45"])
def test_triples_for_nilmanifold_forms(omega_text):
    # construction re-validates J^2 = -1, positive definiteness, invariance
    st = SymplecticStructure(parse_form(omega_text, 6))
    tr = build_triple(st)
    dim = 6
    assert (tr.J @ tr.J) == OperatorMatrix.identity(dim).scale(-1)
    for k in range(1, dim + 1):
        assert det([[tr.metric.entry(i, j) for j in range(k)] for i in range(k)], k) > 0


def test_triple_with_permuted_pivots(nil_cx):
    tr = CompatibleTriple(nil_cx.structure, order=list(range(6))[::-1])
    assert (tr.J @ tr.J) == OperatorMatrix.identity(6).scale(-1)


# -- star and splitting operator -----------------------------------------------------

def test_hodge_star_of_one_is_volume(nil_cx, nil_hodge):
    assert form_oracle.hodge_star(nil_hodge.triple, Form.scalar(6, 1)) == \
        form_oracle.volume(nil_cx.structure)


def test_hodge_star_double_sign(nil_hodge):
    tr = nil_hodge.triple
    for k in range(7):
        sign = (-1) ** (k * (6 - k))
        for m in blades(6, k):
            f = Form(6, {m: 1})
            assert form_oracle.hodge_star(tr, form_oracle.hodge_star(tr, f)) == f * sign


def test_hodge_star_against_metric_minors(nil_hodge):
    """<e_S, e_T> computed through the star must equal the metric minors."""
    tr = nil_hodge.triple
    ginv_m = nil_hodge.triple.metric.invert()
    ginv = [[ginv_m.entry(i, j) for j in range(6)] for i in range(6)]
    rng = random.Random(51)
    for k in range(7):
        pool = blades(6, k)
        for _ in range(6):
            s_mask, t_mask = rng.choice(pool), rng.choice(pool)
            si, ti = blade_indices(s_mask), blade_indices(t_mask)
            minors = det([[ginv[i - 1][j - 1] for j in ti] for i in si], k)
            assert form_oracle.pair(tr, Form(6, {s_mask: 1}), Form(6, {t_mask: 1})) == minors


def test_star_two_route_on_omega_power(nil_cx, nil_hodge):
    st = nil_cx.structure
    tr = nil_hodge.triple
    a = st.omega.power(2) / 2  # omega^2/2!
    assert form_oracle.hodge_star(tr, a) == form_oracle.jay(tr, form_oracle.star(st, a))


def test_jay_examples(nil_cx, nil_hodge):
    tr = nil_hodge.triple
    assert tr.apply("jay", Form.scalar(6, 1)) == Form.scalar(6, 1)
    assert tr.apply("jay", nil_cx.omega) == nil_cx.omega


def test_jay_squared_is_degree_parity(nil_hodge):
    tr = nil_hodge.triple
    for k in range(7):
        for m in blades(6, k):
            f = Form(6, {m: 1})
            assert tr.apply("jay", tr.apply("jay", f)) == f * ((-1) ** k)


@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
@pytest.mark.parametrize("omega_text", ["e16 + e25 - e34", "e13 + e26 - e45"])
def test_jay_matches_complex_cobasis_oracle(nil_algebra, omega_text, reverse):
    """The real splitting operator equals i^(p-q) computed over Q(i)."""
    cx = SymplecticComplex(nil_algebra, parse_form(omega_text, 6))
    order = list(range(6))[::-1] if reverse else None
    tr = CompatibleTriple(cx.structure, order=order)
    oracle = ComplexSplitting(tr)
    for mask in range(1 << 6):
        z = oracle({mask: 1})
        assert not any(imag_part(c) for c in z.values()), z
        assert tr.apply("jay", Form(6, {mask: 1})) == \
            Form(6, {m: real_part(c) for m, c in z.items()})


def test_jay_preserves_primitivity(nil_cx, nil_hodge):
    st = nil_cx.structure
    tr = nil_hodge.triple
    for k in range(4):
        for b in st.primitive_basis(k):
            jb = tr.apply("jay", b)
            assert st.apply("Lambda", jb).is_zero()
            assert tr.apply("jay", st.apply("Lambda", b)).is_zero()


# -- inner product and adjoints ----------------------------------------------------------

def test_gram_positive_definite(nil_hodge):
    for k in range(7):
        g = nil_hodge.triple.op("gram", k)
        nk = g.nrows
        rows = [[g.entry(i, j) for j in range(nk)] for i in range(nk)]
        for t in range(1, nk + 1):
            assert det([r[:t] for r in rows[:t]], t) > 0


def test_adjoint_of_identity_and_involution(nil_hodge):
    ident = OperatorMatrix.identity(len(blades(6, 2)))
    assert adjoint(nil_hodge, ident, 2, 2) == ident
    m = nil_hodge.cx.op("d", 2)
    assert adjoint(nil_hodge, adjoint(nil_hodge, m, 2, 3), 3, 2) == m


def test_adjoint_defining_property(nil_hodge):
    cx, tr = nil_hodge.cx, nil_hodge.triple
    m = cx.op("d", 1)
    adj = adjoint(nil_hodge, m, 1, 2)
    rng = random.Random(53)
    for _ in range(10):
        a = Form(6, {rng.choice(blades(6, 1)): Fraction(rng.randint(-3, 3))})
        b = Form(6, {rng.choice(blades(6, 2)): Fraction(rng.randint(-3, 3))})
        idx1 = {mm: i for i, mm in enumerate(blades(6, 1))}
        idx2 = {mm: i for i, mm in enumerate(blades(6, 2))}
        da = Form(6, {blades(6, 2)[i]: c
                      for i, c in m.apply(form_to_coords(a, idx1)).items()})
        adj_b = Form(6, {blades(6, 1)[i]: c
                         for i, c in adj.apply(form_to_coords(b, idx2)).items()})
        assert form_oracle.pair(tr, da, b) == form_oracle.pair(tr, a, adj_b)


def _scalar_matrix(st, fn, dim, k):
    return matrix_on_blades(lambda a: form_oracle.memo_apply_rs(st, a, fn), dim, k, k)


def test_del_plus_adjoint_formula(nil_cx, nil_hodge):
    """adjoint(del_plus) = [d*(H+R+1) + d_lambda* Lambda] (H+2R+1)^{-1}."""
    st = nil_cx.structure
    d_lambda = partial(form_oracle.d_lambda, nil_cx)
    n = 3
    for k in range(6):
        m_dp = nil_cx.op("del_plus", k)
        lhs = adjoint(nil_hodge, m_dp, k, k + 1)          # degree k+1 -> k
        m_dstar = adjoint(nil_hodge, nil_cx.op("d", k),
                          k, k + 1)
        s1 = _scalar_matrix(st, lambda r, s: Fraction(n - r - s + 1), 6, k + 1)
        if k >= 1:
            m_dlstar = adjoint(
                nil_hodge, matrix_on_blades(d_lambda, 6, k, k - 1), k, k - 1)
            m_lam = st.op("Lambda", k + 1)
            second = m_dlstar @ m_lam
        else:
            second = OperatorMatrix(len(blades(6, 0)), len(blades(6, 1)),
                                    [{} for _ in blades(6, 1)])
        s2 = _scalar_matrix(st, lambda r, s: Fraction(1, n - s + 1), 6, k + 1)
        rhs = (m_dstar @ s1 + second) @ s2
        assert lhs == rhs


def test_del_minus_adjoint_formula(nil_cx, nil_hodge):
    """adjoint(del_minus) = -[d_lambda* - d* (H+R+1)^{-1} L] (H+2R+1)^{-1},
    valid on components with r+s < n; the true adjoint vanishes on the
    boundary components (no primitive target above them)."""
    st = nil_cx.structure
    d_lambda = partial(form_oracle.d_lambda, nil_cx)
    n = 3
    for k in range(1, 7):
        m_dm = nil_cx.op("del_minus", k)
        lhs = adjoint(nil_hodge, m_dm, k, k - 1)          # degree k-1 -> k
        boundary = _scalar_matrix(
            st, lambda r, s: Fraction(1 if r + s == n else 0), 6, k - 1)
        assert (lhs @ boundary).is_zero()
        m_dlstar = adjoint(
            nil_hodge, matrix_on_blades(d_lambda, 6, k, k - 1), k, k - 1)
        if k + 1 <= 6:
            m_dstar = adjoint(nil_hodge, nil_cx.op("d", k),
                              k, k + 1)
            s_mid = _scalar_matrix(st, lambda r, s: Fraction(1, n - r - s + 1), 6, k + 1)
            m_l = st.op("L", k - 1)
            second = m_dstar @ s_mid @ m_l
        else:
            second = OperatorMatrix(len(blades(6, k)), len(blades(6, k - 1)),
                                    [{} for _ in blades(6, k - 1)])
        s2 = _scalar_matrix(st, lambda r, s: Fraction(1, n - s + 1), 6, k - 1)
        rhs = ((m_dlstar - second) @ s2).scale(-1)
        interior = _scalar_matrix(
            st, lambda r, s: Fraction(1 if r + s < n else 0), 6, k - 1)
        assert (rhs @ interior) == lhs


def test_full_space_adjoint_restricts_to_primitive(nil_cx, nil_hodge):
    """The blade-space adjoint of del_plus maps primitives to primitives and
    agrees there with the adjoint computed in the primitive bases."""
    st = nil_cx.structure
    for k in range(3):
        m_dp = nil_cx.op("del_plus", k)
        full_adj = adjoint(nil_hodge, m_dp, k, k + 1)
        prim_adj = adjoint_in_bases(nil_cx.del_matrices(k)[0],
                                    nil_hodge.prim_gram(k).invert(),
                                    nil_hodge.prim_gram(k + 1))
        idxk1 = {m: i for i, m in enumerate(blades(6, k + 1))}
        basis_k1 = st.primitive_basis(k + 1)
        for j, b in enumerate(basis_k1):
            img = full_adj.apply(form_to_coords(b, idxk1))
            f = Form(6, {blades(6, k)[i]: c for i, c in img.items()})
            assert st.apply("Lambda", f).is_zero()
            coords = prim_adj.column(j)
            g = Form.zero(6)
            for i, c in coords.items():
                g = g + st.primitive_basis(k)[i] * c
            assert f == g


# -- harmonic spaces ----------------------------------------------------------------------

def test_harmonic_dimensions_torus(torus_hodge):
    assert torus_hodge.harmonic_dimension(1, "plus") == 6
    assert torus_hodge.harmonic_dimension(1, "minus") == 6


def test_harmonic_dimensions_nilmanifold(nil_hodge):
    assert nil_hodge.harmonic_dimension(0, "plus") == 1
    assert nil_hodge.harmonic_dimension(2, "plus") == 5
    assert nil_hodge.harmonic_dimension(2, "minus") == 5


def test_harmonic_equals_quotient(nil_hodge, nil_calc):
    for k in range(3):
        assert nil_hodge.harmonic_dimension(k, "plus") == \
            nil_calc.group("p+", k).dimension
        assert nil_hodge.harmonic_dimension(k, "minus") == \
            nil_calc.group("p-", k).dimension


def test_harmonic_degree_range(nil_hodge):
    with pytest.raises(ValueError):
        nil_hodge.harmonic_space(3, "plus")


def test_hodge_decomposition(nil_hodge, torus_hodge):
    for ht in (nil_hodge, torus_hodge):
        for k in range(3):
            for which in ("plus", "minus"):
                res = ht.check_hodge_decomposition(k, which)
                assert res.passed, res.details


def test_jay_conjugation(nil_hodge, torus_hodge):
    for ht, ks in ((nil_hodge, (0, 1, 2)), (torus_hodge, (0, 1))):
        for k in ks:
            res = ht.check_jay_conjugation(k)
            assert res.passed, res.details


def test_pairing_matrices(nil_hodge, nil_calc, torus_hodge, torus_calc):
    pm = nil_hodge.pairing_matrix(2, nil_calc.group("p+", 2).rows, nil_calc.group("p-", 2).rows)
    assert pm.nrows == pm.ncols == 5 and pm.rank() == 5
    pm0 = nil_hodge.pairing_matrix(0, nil_calc.group("p+", 0).rows, nil_calc.group("p-", 0).rows)
    assert pm0.nrows == pm0.ncols == 1 and pm0.entry(0, 0) != 0
    pmt = torus_hodge.pairing_matrix(1, torus_calc.group("p+", 1).rows,
                                     torus_calc.group("p-", 1).rows)
    assert pmt.nrows == pmt.ncols == 6 and pmt.rank() == 6


def test_metric_independence(nil_cx, nil_hodge):
    alt = HodgeTheory(nil_cx, CompatibleTriple(nil_cx.structure,
                                               order=list(range(6))[::-1]))
    for k in range(3):
        for which in ("plus", "minus"):
            assert alt.harmonic_dimension(k, which) == \
                nil_hodge.harmonic_dimension(k, which)


def test_full_hodge_suite(nil_cx):
    result = run_hodge_suite(nil_cx)
    assert result.passed, result.details


# -- each structure check fails on a broken input ------------------------------------

def test_hodge_decomposition_fails_on_a_non_orthogonal_gram(nil_cx):
    """The primitive Gram swapped, after the harmonic spaces are built, for
    G + u u^T with u = a + b, a harmonic and b a coimage vector: still
    positive definite, but <a, b> becomes (a.u)(u.b), which is not 0.  The
    failure names a and b, lifted to blades: the first basis vector of each
    piece here, since only a and b are not orthogonal."""
    ht = HodgeTheory(nil_cx)
    k, which = 1, "plus"
    assert ht.check_hodge_decomposition(k, which).passed
    a = ht.harmonic_space(k, which).ints[0]
    b = image(ht._updown(which, k)[2]).ints[0]
    g = ht.prim_gram(k)
    u = {j: a.get(j, 0) + b.get(j, 0) for j in a.keys() | b.keys()}
    bumped = g + OperatorMatrix(g.nrows, g.ncols, [{i: u_i * u.get(j, 0) for i, u_i in u.items()
                                                    if u.get(j, 0)} for j in range(g.ncols)])
    assert vec_dot(a, u) * vec_dot(u, b) != 0
    rows = [[bumped.entry(i, j) for j in range(g.ncols)] for i in range(g.nrows)]
    assert all(det([r[:m] for r in rows[:m]], m) > 0 for m in range(1, g.nrows + 1))
    ht._ops["prim_gram", k] = bumped
    result = ht.check_hodge_decomposition(k, which)
    assert not result.passed
    assert (a, b) == ({0: 1}, {3: 1})
    basis = nil_cx.structure.primitive_basis(k)
    assert (str(basis[0]), str(basis[3])) == ("e1", "e4")
    assert result.details == ["harmonic not orthogonal to coimage: <e1, e4> != 0"]


def test_harmonic_cross_check_fails_on_a_lost_adjoint(nil_cx):
    """With the adjoint of the outgoing piece replaced by 0, the Laplacian
    on P^1 is 0, and its kernel, all of P^1, is not ker(d) ^ ker(d*)."""
    ht = HodgeTheory(nil_cx)
    d_out, d_in, d_out_star, d_in_star = ht._updown("plus", 1)
    assert not d_out_star.is_zero()
    zero = OperatorMatrix(d_out_star.nrows, d_out_star.ncols, [{} for _ in d_out_star.cols])
    ht._ops["updown", "plus", 1] = (d_out, d_in, zero, d_in_star)
    with pytest.raises(AssertionError, match="harmonic space differs"):
        ht.harmonic_space(1, "plus")


def test_hodge_suite_fails_on_a_singular_pairing(nil_cx, monkeypatch):
    """A pairing matrix in degree 1 whose second column repeats its first:
    the difference of the first two p- representatives pairs to 0 with
    every p+ class, and the failure prints it."""
    pairing = HodgeTheory.pairing_matrix

    def singular(self, k, plus, minus):
        pm = pairing(self, k, plus, minus)
        if k == 1:
            pm = OperatorMatrix(pm.nrows, pm.ncols, [pm.cols[0], pm.cols[0], *pm.cols[2:]],
                                pm.den)
            assert pm.rank() == pm.ncols - 1
        return pm

    monkeypatch.setattr(HodgeTheory, "pairing_matrix", singular)
    result = run_hodge_suite(nil_cx)
    assert not result.passed
    reps = CohomologyCalculator(nil_cx).group("p-", 1).representatives
    assert str(reps[0] - reps[1]) == "e4 - e5"
    assert result.details == ["k=1: pairing matrix rank-deficient; "
                              "the p- class of e4 - e5 pairs to 0 with every p+ class"]


def test_validate_rejects_an_indefinite_metric(nil_cx):
    """The metric of a built triple is the identity in its Darboux basis, so
    it is always positive definite; this one is set by hand.  It is symmetric
    with first leading minor 1 and second -3, and J is left as built, so the
    checks before the minors pass."""
    tr = CompatibleTriple(nil_cx.structure)
    metric = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    metric[0][1] = metric[1][0] = Fraction(2)
    tr.metric = OperatorMatrix.from_rows([dict(enumerate(r)) for r in metric], 6)
    with pytest.raises(AssertionError, match="^metric is not positive definite$"):
        tr._validate(nil_cx.structure.omega_matrix)
