"""The identity battery as per-degree matrix equations against the
form-by-form battery of ``form_oracle``.

``run_identity_suite`` checks each identity once per degree as an equation
between two int matrices over their own denominators; the oracle applies
each side to every blade.  Both read the engine's operators: the blade maps
of L, Lambda and d, and the per-degree matrices of the star, del_plus,
del_minus and the Lefschetz components C_r.  So on every fixture, and after
one perturbed blade image of L, Lambda or d or one perturbed column of the
star, del_plus, del_minus or a C_r, the two must return the same result,
detail for detail.  ``scale_rs`` is the
eigenvalue-operator route of the battery and of the Hodge suite's H+R: it
must equal the oracle's ``apply_rs`` on every degree, and, like it, raise
rather than scale a surviving component by an undefined eigenvalue.
"""

import gc
import weakref
from fractions import Fraction

import pytest

import form_oracle
from symcoh import SymplecticComplex, parse_algebra
from symcoh.exterior import Form, blade_index
from symcoh.identities import run_identity_suite
from symcoh.symplectic import parse_omega

from conftest import NIL_ALGEBRA, TORUS_ALGEBRA
from test_blade_map import SCRAMBLED_N6

FIXTURES = {
    "N6": (NIL_ALGEBRA, "16+25-34"),
    "N6-prime": (NIL_ALGEBRA, "13+26-45"),
    "KT4": ("(0,0,0,12)", "13+24"),
    "T6": (TORUS_ALGEBRA, "12+34+56"),
    "scrambled-N6": SCRAMBLED_N6,
}


def build(name):
    algebra, omega = FIXTURES[name]
    alg = parse_algebra(algebra)
    return SymplecticComplex(alg, parse_omega(omega, alg.dim))


@pytest.mark.parametrize("name", list(FIXTURES))
def test_matrix_battery_equals_form_battery(name):
    result = run_identity_suite(build(name))
    assert result.passed, result.details
    assert result == form_oracle.identity_battery(build(name))


def blade_maps(cx):
    st = cx.structure
    return {"L": st._L_blade, "Lambda": st._Lambda_blade, "d": cx.algebra._d_blade}


def degree_matrices(cx):
    """Each family's matrix from the degree-k blades, by k; "pieces" is
    the C_r of the highest r."""
    st = cx.structure
    return {"star": st.star_matrix, "del_plus": lambda k: cx.del_blades(k)[0],
            "del_minus": lambda k: cx.del_blades(k)[1],
            "pieces": lambda k: (c := st.lefschetz_components(k))[max(c)]}


# one blade image or blade column per family, doubled; each fails a
# different set of identities
PERTURBED = {"L": 0b1101, "Lambda": 0b101110, "d": 0b100000, "star": 0b1,
             "del_plus": 0b1000, "del_minus": 0b10100}


def perturbed(family, mask):
    cx = build("N6")
    if family in blade_maps(cx):
        images = blade_maps(cx)[family]
        images[mask] = images[mask] * 2
    else:
        k = mask.bit_count()
        m = degree_matrices(cx)[family](k)
        j = blade_index(cx.dim, k)[1][mask]
        m.cols[j] = {i: 2 * v for i, v in m.cols[j].items()}
    return cx


@pytest.mark.parametrize("family, mask", [*PERTURBED.items(), ("pieces", 0b1)])
def test_perturbation_gives_the_form_batterys_details(family, mask):
    result = run_identity_suite(perturbed(family, mask))
    assert not result.passed
    assert result == form_oracle.identity_battery(perturbed(family, mask))


def test_perturbations_reach_every_kind_of_detail():
    """Together the perturbations fail the blade identities, the star
    reflection and the primitive simplifications."""
    details = [d for family, mask in [*PERTURBED.items(), ("pieces", 0b1)]
               for d in run_identity_suite(perturbed(family, mask)).details]
    assert any("first counterexample" in d for d in details)
    assert any(d.startswith("star reflection fails") for d in details)
    assert any(d.startswith("del_minus != (1/H) Lambda d on") for d in details)


@pytest.mark.parametrize("name", list(FIXTURES))
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
                lambda a: form_oracle.apply_rs(st, cx.d(a), fn), cx.dim, k - 1, k)


def test_undefined_eigenvalue_on_a_surviving_component_raises():
    """On N6 the del_minus formula's operand from the 4-blades,
    (H+R) dLambda - Lambda d, has no (0, 3) block, where 1/(n-r-s) is
    undefined, so it is scaled; one more primitive 3-form in a column
    survives there and raises."""
    cx = build("N6")
    st, n = cx.structure, cx.n
    m = (st.scale_rs(lambda r, s: n - r - s, 3, cx.op("dLambda", 4))
         - cx.op("Lambda", 5) @ cx.op("d", 4))
    assert (st.projections(3)[0, 3] @ m).is_zero() and not m.is_zero()

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
    cached Lambda_5, built with the components, is dropped, so that both
    batteries read the perturbed image."""
    for battery in (run_identity_suite, form_oracle.identity_battery):
        cx = build("N6")
        st = cx.structure
        for k in range(cx.dim + 1):
            st.lefschetz_components(k)
        st._Lambda_blade[0b11111] = st._Lambda_blade[0b11111] + Form.e(6, 1, 3, 5)
        del st._ops["Lambda", 5]
        with pytest.raises(ZeroDivisionError):
            battery(cx)


def test_battery_caches_are_freed_with_their_owners():
    """The Lefschetz components and projections, the star, del_plus and
    del_minus matrices and the operator matrices hold neither the complex
    nor the structure."""
    gc.disable()
    try:
        cx = build("N6")
        assert run_identity_suite(cx).passed
        assert {("C", 2), ("Pi", 2), ("star", 2)} <= cx.structure._ops.keys()
        assert ("del_blades", 2) in cx._ops
        refs = [weakref.ref(cx), weakref.ref(cx.structure)]
        del cx
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
