"""The form-level operators (L, Lambda, d and the splitting operator, which
apply their per-degree matrices) against the form-level oracle routes of
``form_oracle``."""

import gc
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import form_oracle as oracle
from fixtures import build, select
from symcoh import CohomologyCalculator
from symcoh.exterior import DimensionMismatchError, Form
from symcoh.hodge import HodgeTheory, build_triple


@lru_cache(maxsize=None)
def _fixture(name):
    cx = build(name)
    return cx, build_triple(cx.structure)


def forms(dim):
    """Mixed-degree forms with a few Fraction coefficients, the empty blade
    included."""
    coeff = hst.builds(Fraction, hst.integers(-4, 4), hst.integers(1, 3))
    return hst.dictionaries(hst.integers(0, (1 << dim) - 1), coeff, max_size=6).map(
        lambda c: Form(dim, c))


def test_scrambled_fixture_has_a_non_integer_inverse():
    inverse = _fixture("scrambled-N6")[0].structure.inverse
    assert any(inverse.entry(i, j).denominator != 1
               for i in range(inverse.nrows) for j in range(inverse.ncols))


@pytest.mark.parametrize("name", select("N6", "N8", "scrambled-N6"))
@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_blade_maps_match_form_oracle(name, data):
    cx, triple = _fixture(name)
    st = cx.structure
    a = data.draw(forms(cx.dim))
    r = data.draw(hst.integers(0, cx.n))
    assert st.apply("Lambda", a) == oracle.Lambda(st, a)
    assert st.apply("L", a) == oracle.L(st, a)
    assert oracle.engine_L_power(st, a, r) == oracle.L_power(st, a, r)
    assert cx.apply("d", a) == oracle.d(cx.algebra, a)
    assert triple.apply("jay", a) == oracle.jay(triple, a)


def test_blade_images_are_kept_per_structure():
    """Two omegas on the same dimension: each structure keeps its own
    images, whichever is used first."""
    first, second = build("N6").structure, build("N6-prime").structure
    f = Form.e(6, 1, 3, 6) + Form.e(6, 2, 6)
    for st in (first, second, first):
        assert st.apply("Lambda", f) == oracle.Lambda(st, f)
        assert st.apply("L", f) == oracle.L(st, f)
    assert first.apply("Lambda", f) != second.apply("Lambda", f)
    assert first.apply("L", f) != second.apply("L", f)


@pytest.mark.parametrize("dim", [4, 8])
def test_blade_maps_reject_another_dimension(dim):
    cx, triple = _fixture("N6")
    f = Form.e(dim, 1, 2)
    for owner, name in ((cx.structure, "L"), (cx.structure, "Lambda"), (cx.algebra, "d"),
                        (triple, "jay")):
        with pytest.raises(DimensionMismatchError):
            owner.apply(name, f)


class Probe:
    """A weakly referenceable value to store in a cache."""


def test_blade_maps_are_freed_with_their_owners():
    """No reference cycle: each owner's one cache of per-degree builds,
    ``_ops``, goes when the last reference to its owner does, without
    waiting for the cycle collector.  The owners are the algebra (d), the
    structure (L, Lambda, the primitive bases and their lifts), the complex
    (dLambda and the pieces of d), the triple (the J and g^-1 compound matrices), the Hodge
    theory (Gram matrices, adjoints, harmonic spaces) and the calculator
    (subspaces and groups).  A probe stored in each cache goes with it."""
    gc.disable()
    try:
        cx = build("N6")
        alg = cx.algebra
        triple = build_triple(cx.structure)
        ht = HodgeTheory(cx, triple)
        calc = CohomologyCalculator(cx)
        f = Form.e(6, 1, 2, 4) + Form.e(6, 3, 6)
        for owner, name in ((cx.algebra, "d"), (cx.structure, "L"), (cx.structure, "Lambda"),
                            (triple, "jay")):
            owner.apply(name, f)
        triple.op("gram", 3)
        cx.op("dLambda", 3)
        ht.harmonic_space(1, "plus")
        calc.group("p+", 1)
        assert {("jay", 2), ("jay", 3), ("gram", 3)} <= triple._ops.keys()
        assert {("d", 2), ("d", 3)} <= alg._ops.keys()
        assert {("L", 2), ("L", 3), ("Lambda", 2), ("Lambda", 3),
                ("prim", 1), ("lift", 1, 0)} <= cx.structure._ops.keys()
        assert {("dLambda", 3), ("del_matrices", 1)} <= cx._ops.keys()
        assert {("prim_gram", 1), ("updown", "plus", 1), ("harmonic", 1, "plus")} \
            <= ht._ops.keys()
        assert ("group", "p+", 1) in calc._ops
        owners = (alg, cx.structure, cx, triple, ht, calc)
        probes = tuple(Probe() for _ in owners)
        for owner, probe in zip(owners, probes):
            owner._ops["probe"] = probe
        refs = [weakref.ref(p) for p in probes]
        del alg, cx, triple, ht, calc, owners, owner, probes, probe
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
