"""The identity battery as per-degree matrix equations against the
form-by-form battery of ``form_oracle``.

``run_identity_suite`` checks each identity once per degree as an equation
between two int matrices over their own denominators; the oracle applies
each side to every blade.  Both read the engine's operators: the per-degree
matrices of L, Lambda and d, of the star, del_plus and del_minus and of the
Lefschetz components C_r.  So on every fixture, and after one perturbed
column of any of them, the two must return the same result, detail for
detail.  ``scale_rs`` is the
eigenvalue-operator route of the battery and of the Hodge suite's H+R: it
must equal the oracle's ``apply_rs`` on every degree, for one operand or
a sum of (fn, operand) pairs, and, like it, raise rather than scale a
surviving component by an undefined eigenvalue.
"""

import gc
import weakref
from fractions import Fraction

import pytest

import form_oracle
from fixtures import build, select
from symcoh.exterior import blade_index
from symcoh.identities import run_identity_suite

NAMES = select("core", "scrambled-N6")


@pytest.mark.parametrize("name", NAMES)
def test_matrix_battery_equals_form_battery(name):
    result = run_identity_suite(build(name))
    assert result.passed, result.details
    assert result == form_oracle.identity_battery(build(name))


# one blade column per family, doubled; each fails a different set of
# identities.  d has three: e6 alone fails four of the seven identities that
# doubling d(e6) in the Leibniz rule reaches, e26 and e136 the other three.
PERTURBED = [("L", 0b1101), ("Lambda", 0b101110), ("d", 0b100000), ("d", 0b100010),
             ("d", 0b100101), ("star", 0b1), ("del_plus", 0b1000), ("del_minus", 0b10100)]


def perturbed(family, mask):
    cx = build("N6")
    k = mask.bit_count()
    # "pieces" is the C_r of the highest r; every other family is an operator of cx.op
    m = ((c := cx.structure.lefschetz_components(k))[max(c)] if family == "pieces"
         else cx.op(family, k))
    j = blade_index(cx.dim, k)[1][mask]
    m.cols[j] = {i: 2 * v for i, v in m.cols[j].items()}
    return cx


# the last three double a column of an N6 component in degrees 2, 3 and 4,
# after which the components no longer invert the lifts: the battery must
# then run every eigenvalue identity on the blades
@pytest.mark.parametrize("family, mask", [
    *PERTURBED, ("pieces", 0b1), ("pieces", 0b100001), ("pieces", 0b10011),
    ("pieces", 0b110011)])
def test_perturbation_gives_the_form_batterys_details(family, mask):
    result = run_identity_suite(perturbed(family, mask))
    assert not result.passed
    assert result == form_oracle.identity_battery(perturbed(family, mask))


def test_perturbations_reach_every_kind_of_detail():
    """Together the perturbations fail the blade identities, the star
    reflection and the primitive simplifications."""
    details = [d for family, mask in [*PERTURBED, ("pieces", 0b1)]
               for d in run_identity_suite(perturbed(family, mask)).details]
    assert any("first counterexample" in d for d in details)
    assert any(d.startswith("star reflection fails") for d in details)
    assert any(d.startswith("del_minus != (1/H) Lambda d on") for d in details)


def test_d_perturbations_fail_the_identities_of_a_doubled_generator():
    """Together the three d columns fail the seven identities that doubling
    the blade image d(e6), read by the Leibniz rule for the images built
    after it, failed."""
    failed = {d.split(":")[0] for family, mask in PERTURBED if family == "d"
              for d in run_identity_suite(perturbed(family, mask)).details}
    assert failed == {
        "d = del_plus + L del_minus", "L del_plus del_minus = -L del_minus del_plus",
        "d_lambda = (H+R+1)^{-1} del_plus Lambda - (H+R) del_minus",
        "d d_lambda = -(H+2R+1) del_plus del_minus", "d_lambda two routes",
        "del_plus two routes", "del_minus two routes"}


@pytest.mark.parametrize("name", NAMES)
def test_scale_rs_matches_form_oracle(name):
    cx = build(name)
    st, n = cx.structure, cx.n
    fns = [lambda r, s: n - r - s, lambda r, s: r * (n - r - s + 1),
           lambda r, s: Fraction(1, n - s + 1), lambda r, s: Fraction((r + 1) * (2 * s - 3), 7)]
    for k in range(cx.dim + 1):
        d = cx.op("d", k - 1)
        for fn in fns:
            assert st.scale_rs(fn, k) == form_oracle.matrix_on_blades(
                lambda a: form_oracle.apply_rs(st, a, fn), cx.dim, k, k)
            assert st.scale_rs(fn, k, d) == form_oracle.matrix_on_blades(
                lambda a: form_oracle.apply_rs(st, cx.apply("d", a), fn), cx.dim, k - 1, k)
        # a sum of two (fn, operand) pairs from degree k + 1, the operands of
        # the del_minus formula; the first fused factor is 0 where n-r-s is
        x, y = cx.op("dLambda", k + 1), cx.op("Lambda", k + 2) @ cx.op("d", k + 1)
        for f, g in [(fns[0], fns[2]), (lambda r, s: Fraction(-1, n - s + 1) if n - r - s else 0,
                                        fns[3])]:
            assert st.scale_rs([(f, x), (g, y)], k) == form_oracle.matrix_on_blades(
                lambda a: form_oracle.apply_rs(st, form_oracle.d_lambda(cx, a), f)
                + form_oracle.apply_rs(st, st.apply("Lambda", cx.apply("d", a)), g),
                cx.dim, k + 1, k)


def test_undefined_eigenvalue_on_a_surviving_component_raises():
    """On N6 the del_minus formula's operand from the 4-blades,
    (H+R) dLambda - Lambda d, has no (0, 3) block, where 1/(n-r-s) is
    undefined, so it is scaled; one more primitive 3-form in a column
    survives there and raises."""
    cx = build("N6")
    st, n = cx.structure, cx.n
    m = (st.scale_rs(lambda r, s: n - r - s, 3, cx.op("dLambda", 4))
         - cx.op("Lambda", 5) @ cx.op("d", 4))
    assert (st.lift(3, 0) @ st.lefschetz_components(3)[0] @ m).is_zero() and not m.is_zero()

    def inverse(r, s):
        return Fraction(-1, (n - s + 1) * (n - r - s))

    st.scale_rs(inverse, 3, m)
    e123 = blade_index(6, 3)[1][0b111]
    m.cols[0] = {**m.cols[0], e123: m.cols[0].get(e123, 0) + m.den}
    with pytest.raises(ZeroDivisionError):
        st.scale_rs(inverse, 3, m)


def test_both_batteries_raise_on_a_surviving_boundary_component():
    """A primitive 3-form added to Lambda of one 5-blade, after every
    degree's Lefschetz components are built, makes the del_minus formula's
    operand keep a (0, 3) component: neither battery scales it by 0.  The
    column is added to the cached Lambda_5, which both batteries read."""
    j, e135 = blade_index(6, 5)[1][0b11111], blade_index(6, 3)[1][0b10101]
    for battery in (run_identity_suite, form_oracle.identity_battery):
        cx = build("N6")
        st = cx.structure
        for k in range(cx.dim + 1):
            st.lefschetz_components(k)
        m = st.op("Lambda", 5)
        m.cols[j] = {**m.cols[j], e135: m.cols[j].get(e135, 0) + m.den}
        with pytest.raises(ZeroDivisionError):
            battery(cx)


def test_battery_caches_are_freed_with_their_owners():
    """The Lefschetz components and their lifts, the star, del_plus and
    del_minus matrices and the operator matrices hold neither the complex
    nor the structure."""
    gc.disable()
    try:
        cx = build("N6")
        assert run_identity_suite(cx).passed
        assert {("C", 2), ("lift", 0, 1), ("star", 2)} <= cx.structure._ops.keys()
        assert {("del_plus", 2), ("del_minus", 2)} <= cx._ops.keys()
        refs = [weakref.ref(cx), weakref.ref(cx.structure)]
        del cx
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
