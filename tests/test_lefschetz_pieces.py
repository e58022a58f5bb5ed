"""The per-degree Lefschetz matrices against the form-level routes.

``SymplecticStructure`` keeps, per degree, the Lefschetz components C_r in
primitive coordinates, the inverse of the lifts ``lift(s, r)`` = L^r/r! on
P^s side by side, and from them the projections Pi_{r,s} = lift(s, r) C_r
and the symplectic star; ``SymplecticComplex`` keeps del_plus and del_minus
on the blades (``del_blades``).  ``lift`` must equal L^r/r! of each
primitive basis form and be injective up to r = n-s, and the lifts and the
components must invert each other.  Each matrix must equal the per-blade
routes of ``form_oracle``, which decompose one blade at a time by the
closed formula on Forms, in every degree.  The sums and scalings of the C_r columns
(``form_oracle.memo_components`` and ``memo_apply_rs``), ``star``,
``del_plus`` and ``del_minus`` must equal the routes of ``form_oracle``
that decompose the whole form on every call, on random inhomogeneous forms.
``memo_apply_rs`` sums the components of all blades before it applies fn,
so the closed formula for del_minus, whose fn divides by n-r-s, is defined
on an operand whose blades have components with n-r-s = 0 that cancel in
the sum.
"""

import gc
import random
import weakref
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

import form_oracle
from symcoh import SymplecticComplex, parse_algebra
from symcoh.exterior import DimensionMismatchError, Form, blade_index, form_to_coords
from symcoh.linalg import OperatorMatrix
from symcoh.identities import run_identity_suite
from symcoh.symplectic import SymplecticStructure, parse_omega

from conftest import NIL_ALGEBRA, TORUS_ALGEBRA
from test_blade_map import SCRAMBLED_N6

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
        st, form_oracle.apply_rs(st, cx.algebra.d(a), lambda r, s: Fraction(n - r - s + 1))
        + st.L(form_oracle.d_lambda(cx, a)), lambda r, s: Fraction(1, n - s + 1))
    operand = form_oracle.apply_rs(
        st, form_oracle.d_lambda(cx, a), lambda r, s: Fraction(n - r - s)) \
        - st.Lambda(cx.algebra.d(a))
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
               cx.structure.star, cx.del_plus, cx.del_minus):
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
                                        lambda r, s: Fraction(n - r - s)) \
        - st.Lambda(cx.algebra.d(a))
    assert operand == Form(6, {0b10011: Fraction(3, 2), 0b01101: Fraction(-3, 2)})
    for mask in operand.support():
        assert (0, 3) in form_oracle.memo_components(st, Form(6, {mask: 1}))
    assert (0, 3) not in form_oracle.memo_components(st, operand)
    for f in (a, a + Form.e(6, 2, 3, 4, 6) - Form.e(6, 1, 4, 5, 6) * 3):
        assert form_oracle.del_minus_formula(cx, f) == form_oracle.del_minus(cx, f) \
            == oracle_formulas(cx, f)[1]


def count_splits_and_components(monkeypatch):
    """Record the degree of every ``SymplecticStructure.split`` call and
    the degree k of every build of the Lefschetz components C_r."""
    calls = {"split": [], "components": []}
    split, components = SymplecticStructure.split, SymplecticStructure._components

    def counting_split(self, d, k):
        calls["split"].append(k)
        return split(self, d, k)

    def counting_components(self, k):
        calls["components"].append(k)
        return components(self, k)

    monkeypatch.setattr(SymplecticStructure, "split", counting_split)
    monkeypatch.setattr(SymplecticStructure, "_components", counting_components)
    return calls


def test_second_identity_run_decomposes_nothing(monkeypatch):
    """The first run splits d once in each degree 0..n and builds the C_r
    of each degree at most once, every degree 0..2n among them; the second
    splits and builds nothing and adds no entry to the operator caches."""
    cx = build(*N8)
    calls = count_splits_and_components(monkeypatch)
    assert run_identity_suite(cx).passed
    assert sorted(calls["split"]) == list(range(cx.n + 1))
    assert len(set(calls["components"])) == len(calls["components"]), calls["components"]
    assert set(range(cx.dim + 1)) <= set(calls["components"]), calls["components"]
    calls["split"].clear()
    calls["components"].clear()
    caches = (len(cx._ops), len(cx.structure._ops))
    assert run_identity_suite(cx).passed
    assert calls == {"split": [], "components": []}
    assert (len(cx._ops), len(cx.structure._ops)) == caches


def test_corrupted_star_image_is_named():
    cx = build(*FIXTURES["N6"])
    star = cx.structure.star_matrix(1)
    # e1 is the first 1-blade
    star.cols[0] = {i: -v for i, v in star.cols[0].items()}
    result = run_identity_suite(cx)
    assert not result.passed
    assert any(d.startswith("star star = 1: first counterexample e1:") for d in result.details), \
        result.details


def test_each_lefschetz_component_is_split_once(monkeypatch):
    """del_plus and del_minus of every blade read each component's pieces
    off the one split of its degree: d is split once per degree, and the
    C_r of each degree are built once; d of a component is never
    decomposed."""
    cx = build(*FIXTURES["N6"])
    calls = count_splits_and_components(monkeypatch)
    for mask in range(1 << cx.dim):
        cx.del_plus(Form(cx.dim, {mask: 1}))
        cx.del_minus(Form(cx.dim, {mask: 1}))
    assert sorted(calls["split"]) == list(range(cx.n + 1))
    assert sorted(calls["components"]) == list(range(cx.dim + 1))


def test_identity_battery_reads_the_split_of_d():
    """The battery's del_plus is the engine's: doubling one non-zero column
    of the degree-1 split of d fails the splitting identity at that blade."""
    cx = build(*FIXTURES["N6"])
    plus = cx.del_matrices(1)[0]
    j = next(j for j, col in enumerate(plus.cols) if col)
    plus.cols[j] = {i: 2 * v for i, v in plus.cols[j].items()}
    result = run_identity_suite(cx)
    assert not result.passed
    assert any(d.startswith("d = del_plus + L del_minus: first counterexample e4:")
               for d in result.details), result.details


def test_piece_maps_are_freed_with_their_owners():
    """The per-degree Lefschetz, star and del matrices that the form-level
    star, del_plus and del_minus build hold neither the complex nor the
    structure."""
    gc.disable()
    try:
        cx = build(*FIXTURES["N6"])
        f = Form.e(6, 1, 2, 4) + Form.e(6, 3, 6)
        cx.structure.star(f), cx.del_plus(f), cx.del_minus(f)
        assert {("C", 3), ("star", 3), ("C", 2), ("star", 2)} <= cx.structure._ops.keys()
        assert {("del_blades", 3), ("del_blades", 2)} <= cx._ops.keys()
        refs = [weakref.ref(cx), weakref.ref(cx.structure)]
        del cx
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


MATRIX_FIXTURES = {"N6": FIXTURES["N6"], "N6-prime": FIXTURES["N6-prime"], "N8": N8,
                   "T6": FIXTURES["T6"], "scrambled-N6": SCRAMBLED_N6}


@pytest.mark.parametrize("name", list(MATRIX_FIXTURES))
def test_lefschetz_matrices_match_form_oracle(name):
    """Every Pi_{r,s} = lift(s, r) C_r, del_plus, del_minus and star matrix
    equals the per-blade form route in every degree, keys included."""
    cx = build(*MATRIX_FIXTURES[name])
    st, dim = cx.structure, cx.dim
    for k in range(dim + 1):
        keys = {rs for m in blade_index(dim, k)[0] for rs in form_oracle.pieces_of_blade(st, m)}
        comps = st.lefschetz_components(k)
        assert [(r, k - 2 * r) for r in comps] == sorted(keys)
        for r, c in comps.items():
            rs = (r, k - 2 * r)
            assert st.lift(rs[1], r) @ c == form_oracle.on_blades(
                partial(form_oracle.lefschetz_piece, st, rs), dim, k, k), (k, rs)
        assert st.star_matrix(k) == form_oracle.on_blades(
            partial(form_oracle.star_of_blade, st), dim, k, dim - k), k
        for which, step in ((0, 1), (1, -1)):
            assert cx.del_blades(k)[which] == form_oracle.on_blades(
                partial(form_oracle.del_of_blade, cx, which), dim, k, k + step), (k, which)


LIFT_FIXTURES = {"N6": FIXTURES["N6"], "N8": N8, "T6": FIXTURES["T6"],
                 "scrambled-N6": SCRAMBLED_N6}


@pytest.mark.parametrize("name", list(LIFT_FIXTURES))
def test_lift_is_L_power_over_factorial_on_the_primitive_basis(name):
    """Column j of lift(s, r) is omega^r/r! wedged onto primitive basis form
    j, for r up to one past n-s, where it is 0; outside 0..n there are no
    columns.  Up to r = n-s it is injective."""
    st = build(*LIFT_FIXTURES[name]).structure
    dim, n = st.dim, st.n
    for s in range(-1, n + 2):
        basis = st.primitive_basis(s) if 0 <= s <= n else []
        for r in range(max(n - s + 2, 1)):
            m, index = st.lift(s, r), blade_index(dim, s + 2 * r)[1]
            assert (m.nrows, m.ncols) == (len(index), len(basis)), (s, r)
            assert [m.column(j) for j in range(m.ncols)] == [
                form_to_coords(form_oracle.L_power(st, b, r) / factorial(r), index)
                for b in basis], (s, r)
            if 0 <= s <= n:
                assert m.rank() == (len(basis) if r <= n - s else 0), (s, r)


@pytest.mark.parametrize("name", list(LIFT_FIXTURES))
def test_lifts_and_components_invert_each_other(name):
    """The sum over r of lift(s, r) C_r is the identity on each degree, and
    C_r' lift(s, r) is the identity for r' = r and 0 otherwise."""
    st = build(*LIFT_FIXTURES[name]).structure
    dim, n = st.dim, st.n
    for k in range(dim + 1):
        size, comps = len(blade_index(dim, k)[0]), st.lefschetz_components(k)
        assert OperatorMatrix.combination(
            [(1, st.lift(k - 2 * r, r) @ c) for r, c in comps.items()], size, size) \
            == OperatorMatrix.identity(size), k
        for r in comps:
            lift = st.lift(k - 2 * r, r)
            for r2, c in comps.items():
                expected = OperatorMatrix.identity(lift.ncols) if r2 == r \
                    else OperatorMatrix(c.nrows, lift.ncols, [{}] * lift.ncols)
                assert c @ lift == expected, (k, r, r2)
