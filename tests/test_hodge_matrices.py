"""The Hodge suite's matrix-level routes against the wedge routes.

``HodgeTheory.gram`` reads each blade Gram matrix as the compound of the
inverse metric, ``HodgeTheory.prim_gram`` is B^T G_k B over the primitive
basis, and ``HodgeTheory.pairing_matrix`` lifts the int rows of the p+
classes by the L matrices and reads each top coefficient against the p-
rows; ``form_oracle.gram`` reads a blade Gram column off a
starred blade, and ``form_oracle.wedge_gram`` and
``form_oracle.pairing_matrix`` wedge every pair.  ``check_jay_conjugation``
reads del_plus and del_minus on the blades (``del_blades``) and compares
its identities multiplied through by blade Gram matrices, so one perturbed
blade column of either, or a perturbed Gram matrix, must still fail both
comparisons.  When J does not map harmonic(+) onto harmonic(-), the check
names a basis form of one space that the other lacks.  Each adjoint is
formed once per degree and direction in a Hodge suite run.
"""

import pytest

import form_oracle
from fixtures import build, select
from symcoh import CohomologyCalculator
from symcoh.exterior import Form, blade_index, form_to_coords
from symcoh import hodge as hodge_module
from symcoh.hodge import CompatibleTriple, HodgeTheory, run_hodge_suite
from symcoh.linalg import OperatorMatrix, Subspace


def hodge(name, reverse):
    cx = build(name)
    order = list(range(cx.dim))[::-1] if reverse else None
    return HodgeTheory(cx, CompatibleTriple(cx.structure, order=order))


def test_half_fixture_has_a_volume_norm_other_than_one():
    # omega^2/2 = 2 e13 ^ e24 = -2 e1234
    assert form_oracle.volume_norm(hodge("KT4-half", False).st) == -2
    assert form_oracle.volume_norm(hodge("scrambled-N6", False).st) == -8


@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
# the Gram test also runs on a fixture whose inverse metric is dense
@pytest.mark.parametrize("name", select("core", "KT4-half", "scrambled-N6"))
def test_gram_matrices_match_wedge_route(name, reverse):
    ht = hodge(name, reverse)
    dim = ht.dim
    for k in range(dim + 1):
        blades = [Form(dim, {m: 1}) for m in blade_index(dim, k)[0]]
        assert ht.triple.op("gram", k) == form_oracle.gram(ht.triple, k) == \
            form_oracle.wedge_gram(ht.triple, blades)
    for k in range(-1, ht.n + 2):
        assert ht.prim_gram(k) == form_oracle.wedge_gram(ht.triple,
                                                         form_oracle.prim_forms(ht.st, k))


@pytest.mark.parametrize("name", select("core", "KT4-half"))
def test_pairing_matrices_match_wedge_route(name):
    """At every k, on the two groups' rows and on the primitive basis with
    itself, against the wedge route on the same classes as Forms."""
    ht = hodge(name, False)
    calc = CohomologyCalculator(ht.cx)
    for k in range(ht.n):
        plus, minus = calc.group("p+", k), calc.group("p-", k)
        assert ht.pairing_matrix(k, plus.rows, minus.rows) == form_oracle.pairing_matrix(
            ht.cx, k, plus.representatives, minus.representatives)
        sub = ht.st.primitive_subspace(k)
        pairs = list(zip(sub.pivots, sub.ints))
        pm = ht.pairing_matrix(k, pairs, pairs)
        assert not pm.is_zero()
        basis = ht.st.primitive_basis(k)
        assert pm == form_oracle.pairing_matrix(ht.cx, k, basis, basis)


CONJUGATE_PLUS = "conjugate of del_plus != adjoint(del_minus) (H+R): first counterexample"
CONJUGATE_ADJOINT = "conjugate of adjoint(del_plus) != (H+R) del_minus: first counterexample"
# the first differing blade column of each identity, with both sides' columns
WITNESSES = {"del_plus": ["e6: e56 != 0", "e12: e1 + e4 != e4"],
             "del_minus": ["e1: e26 - e35 + e45 != 2*e12 + e26 - e35 + e45", "e56: 0 != -2*e6"]}


@pytest.mark.parametrize("which,blade,extra", [
    ("del_plus", 0b1, Form.e(6, 1, 2)),
    ("del_minus", 0b11, Form.e(6, 1)),
])
def test_conjugation_check_fails_on_one_perturbed_column(which, blade, extra):
    """Each failing identity names the first blade column where its two
    sides differ: J mixes the columns, so it need not be the perturbed one."""
    ht = hodge("N6", False)
    assert ht.check_jay_conjugation(1).passed
    # del_plus from degree 1 and del_minus from degree 2 enter the check at k = 1
    k = blade.bit_count()
    m = ht.cx.op(which, k)
    j = blade_index(6, k)[1][blade]
    col = dict(m.cols[j])
    for i, v in form_to_coords(extra, blade_index(6, extra.degree())[1]).items():
        col[i] = col.get(i, 0) + int(v * m.den)
    m.cols[j] = {i: v for i, v in col.items() if v}
    result = ht.check_jay_conjugation(1)
    assert not result.passed
    assert result.details == [f"{CONJUGATE_PLUS} {WITNESSES[which][0]}",
                              f"{CONJUGATE_ADJOINT} {WITNESSES[which][1]}"]


def test_conjugation_check_fails_on_a_perturbed_gram():
    ht = hodge("N6", False)
    assert ht.check_jay_conjugation(1).passed
    g = ht.triple.op("gram", 2)
    ht.triple._ops["gram", 2] = g + OperatorMatrix.identity(g.nrows)
    result = ht.check_jay_conjugation(1)
    assert result.details == [
        f"{CONJUGATE_PLUS} e1: 2*e26 - 2*e35 + 2*e45 != e26 - e35 + e45",
        f"{CONJUGATE_ADJOINT} e12: 2*e4 != e4"]


@pytest.mark.parametrize("narrow,witness", [(True, "e6"), (False, "e1")],
                         ids=["narrowed", "widened"])
def test_harmonic_mismatch_names_a_witness(narrow, witness):
    """On N6, J maps harmonic(+) onto harmonic(-) = span(e4, e5, e6) in
    degree 1.  With harmonic(-) narrowed to span(e4, e5), e6 is in J's image
    and not in it; with harmonic(-) widened to all of P^1, e1 is in it and
    not in J's image."""
    ht = hodge("N6", False)
    minus = ht.harmonic_space(1, "minus")
    assert minus.ints == [{3: 1}, {4: 1}, {5: 1}]
    assert ht.check_jay_conjugation(1).passed
    ht._ops["harmonic", 1, "minus"] = (Subspace(minus.ambient, minus.ints[:-1]) if narrow
                                       else Subspace.full(minus.ambient))
    result = ht.check_jay_conjugation(1)
    assert result.details == ["splitting operator does not map harmonic(+) onto harmonic(-); "
                              f"witness {witness}"]


def test_hodge_suite_forms_each_adjoint_once(monkeypatch):
    # N6 has n = 3: one (d_out*, d_in*) pair per (k, which) for k in 0..2,
    # for the suite's triple and for the reversed-pivot one
    calls = []
    original = hodge_module.adjoint_in_bases

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hodge_module, "adjoint_in_bases", counted)
    assert run_hodge_suite(build("N6")).passed
    assert len(calls) == 2 * 3 * 2 * 2
