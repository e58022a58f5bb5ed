"""The memoised Lefschetz pieces against the form-level routes.

``SymplecticStructure`` keeps each blade's primitive components, keyed by
(r, s), and its symplectic star; ``SymplecticComplex`` keeps each blade's
del_plus and del_minus.  The sums and scalings of the kept components
(``form_oracle.memo_components`` and ``memo_apply_rs``), ``star``,
``del_plus`` and ``del_minus`` must equal the routes of ``form_oracle``,
which decompose the whole form on every call, on random inhomogeneous forms.
``memo_apply_rs`` sums the components of all blades before it applies fn, so
the closed formula for del_minus, whose fn divides by n-r-s, is defined on an
operand whose blades have components with n-r-s = 0 that cancel in the sum.
"""

import gc
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

import form_oracle
from symcoh import SymplecticComplex, parse_algebra
from symcoh.exterior import DimensionMismatchError, Form
from symcoh.identities import run_identity_suite
from symcoh.symplectic import SymplecticStructure, parse_omega

from conftest import NIL_ALGEBRA, TORUS_ALGEBRA

FIXTURES = {
    "N6": (NIL_ALGEBRA, "16+25-34"),
    "N6-prime": (NIL_ALGEBRA, "13+26-45"),
    "N6-half": (NIL_ALGEBRA, "2*16+2*25-2*34"),
    "KT4": ("(0,0,0,12)", "13+24"),
    "T6": (TORUS_ALGEBRA, "12+34+56"),
}
N8 = ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78")


def build(algebra, omega):
    alg = parse_algebra(algebra)
    return SymplecticComplex(alg, parse_omega(omega, alg.dim))


def random_forms(dim, seed, count=12):
    """Sums of up to six blades of mixed degrees with Fraction coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        yield Form(dim, {rng.randrange(1 << dim): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 6))})


def oracle_formulas(cx, a):
    """``del_plus_formula`` and ``del_minus_formula`` with the oracle's
    ``apply_rs``."""
    st, n = cx.structure, cx.n
    plus = form_oracle.apply_rs(
        st, form_oracle.apply_rs(st, cx.d(a), lambda r, s: Fraction(n - r - s + 1))
        + st.L(form_oracle.d_lambda(cx, a)), lambda r, s: Fraction(1, n - s + 1))
    operand = form_oracle.apply_rs(
        st, form_oracle.d_lambda(cx, a), lambda r, s: Fraction(n - r - s)) \
        - cx.Lambda(cx.d(a))
    minus = form_oracle.apply_rs(
        st, operand, lambda r, s: Fraction(-1, (n - s + 1) * (n - r - s)))
    return plus, minus


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_memoised_routes_match_form_oracle(name):
    cx = build(*FIXTURES[name])
    st, n = cx.structure, cx.n
    fns = [lambda r, s: Fraction(r),
           lambda r, s: Fraction(n - r - s + 1),
           lambda r, s: Fraction(n - r - s),
           lambda r, s: Fraction(1, n - s + 1),
           lambda r, s: Fraction(1, n - r - s + 1),
           lambda r, s: Fraction((r + 1) * (2 * s - 3), 7)]
    for a in random_forms(cx.dim, seed=f"pieces:{name}"):
        assert form_oracle.memo_components(st, a) == form_oracle.components(st, a), a
        for fn in fns:
            assert form_oracle.memo_apply_rs(st, a, fn) == form_oracle.apply_rs(st, a, fn), a
        assert st.star(a) == form_oracle.star(st, a), a
        assert cx.del_plus(a) == form_oracle.del_plus(cx, a), a
        assert cx.del_minus(a) == form_oracle.del_minus(cx, a), a
        assert (form_oracle.del_plus_formula(cx, a),
                form_oracle.del_minus_formula(cx, a)) == oracle_formulas(cx, a)


@pytest.mark.parametrize("dim", [4, 8])
def test_pieces_reject_another_dimension(dim):
    cx = build(*FIXTURES["N6"])
    f = Form.e(dim, 1, 2)
    st = cx.structure
    for op in (partial(form_oracle.memo_components, st),
               lambda a: form_oracle.memo_apply_rs(st, a, lambda r, s: 1),
               cx.star, cx.del_plus, cx.del_minus):
        with pytest.raises(DimensionMismatchError):
            op(f)


def test_boundary_components_cancel_before_scaling():
    """d_lambda of e1356 on N6 makes an operand 3/2 (e125 - e134) for the
    del_minus formula: e125 and e134 each have a primitive (0, 3)
    component, where 1/(n-r-s) is undefined, and the two cancel in the sum."""
    cx = build(*FIXTURES["N6"])
    st, n = cx.structure, cx.n
    a = Form.e(6, 1, 3, 5, 6)
    operand = form_oracle.memo_apply_rs(st, form_oracle.d_lambda(cx, a),
                                        lambda r, s: Fraction(n - r - s)) - cx.Lambda(cx.d(a))
    assert operand == Form(6, {0b10011: Fraction(3, 2), 0b01101: Fraction(-3, 2)})
    for mask in operand.support():
        assert (0, 3) in form_oracle.memo_components(st, Form(6, {mask: 1}))
    assert (0, 3) not in form_oracle.memo_components(st, operand)
    for f in (a, a + Form.e(6, 2, 3, 4, 6) - Form.e(6, 1, 4, 5, 6) * 3):
        assert form_oracle.del_minus_formula(cx, f) == form_oracle.del_minus(cx, f) \
            == oracle_formulas(cx, f)[1]


def count_splits_and_decompositions(monkeypatch):
    """Record the degree of every ``SymplecticStructure.split`` call and
    every ``_decompose`` call (the closed Lefschetz decomposition)."""
    calls = {"split": [], "_decompose": 0}
    split, decompose = SymplecticStructure.split, SymplecticStructure._decompose

    def counting_split(self, d, k):
        calls["split"].append(k)
        return split(self, d, k)

    def counting_decompose(*args):
        calls["_decompose"] += 1
        return decompose(*args)

    monkeypatch.setattr(SymplecticStructure, "split", counting_split)
    monkeypatch.setattr(SymplecticStructure, "_decompose", staticmethod(counting_decompose))
    return calls


def test_second_identity_run_decomposes_nothing(monkeypatch):
    """The first run splits d once in each degree 0..n and decomposes each
    blade once; the second splits and decomposes nothing and adds no entry
    to the operator caches."""
    cx = build(*N8)
    calls = count_splits_and_decompositions(monkeypatch)
    assert run_identity_suite(cx).passed
    assert sorted(calls["split"]) == list(range(cx.n + 1))
    assert calls["_decompose"] == 1 << cx.dim
    calls["split"].clear()
    calls["_decompose"] = 0
    caches = (len(cx._ops), len(cx.structure._ops))
    assert run_identity_suite(cx).passed
    assert calls == {"split": [], "_decompose": 0}
    assert (len(cx._ops), len(cx.structure._ops)) == caches


def test_corrupted_star_image_is_named():
    cx = build(*FIXTURES["N6"])
    st = cx.structure
    e1 = Form.e(6, 1)
    st.star(e1)
    st._star_blade[0b1] = -st._star_blade[0b1]
    result = run_identity_suite(cx)
    assert not result.passed
    assert any(d.startswith("star star = 1: first counterexample e1:") for d in result.details), \
        result.details


def test_each_lefschetz_component_is_split_once(monkeypatch):
    """del_plus and del_minus of every blade read each component's pieces
    off the one split of its degree: d is split once per degree, and only
    the blades themselves are decomposed, never d of a component."""
    cx = build(*FIXTURES["N6"])
    calls = count_splits_and_decompositions(monkeypatch)
    for mask in range(1 << cx.dim):
        cx.del_plus(Form(cx.dim, {mask: 1}))
        cx.del_minus(Form(cx.dim, {mask: 1}))
    assert sorted(calls["split"]) == list(range(cx.n + 1))
    assert calls["_decompose"] == 1 << cx.dim


def test_identity_battery_reads_the_split_of_d():
    """The battery's del_plus is the engine's: doubling one non-zero column
    of the degree-1 split of d fails the splitting identity at that blade."""
    cx = build(*FIXTURES["N6"])
    plus = cx.del_images(1)[0]
    j = next(j for j, col in enumerate(plus.cols) if col)
    plus.cols[j] = {i: 2 * v for i, v in plus.cols[j].items()}
    result = run_identity_suite(cx)
    assert not result.passed
    assert any(d.startswith("d = del_plus + L del_minus: first counterexample e4:")
               for d in result.details), result.details


def test_piece_maps_are_freed_with_their_owners():
    gc.disable()
    try:
        cx = build(*FIXTURES["N6"])
        f = Form.e(6, 1, 2, 4) + Form.e(6, 3, 6)
        cx.star(f), cx.del_plus(f), cx.del_minus(f)
        maps = (cx.structure._pieces, cx.structure._star_blade, cx._del_pieces, *cx._del_blade)
        assert all(0b1011 in m for m in maps)
        refs = [weakref.ref(m) for m in maps]
        del cx, maps
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
