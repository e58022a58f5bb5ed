"""d, L, Lambda, J and g^-1 as int matrices against the Form-wedge blade maps.

The engine builds d from the structure constants by the Leibniz rule, L
from omega's coefficients and Lambda from the inverse of omega's matrix,
each as an int matrix per degree over the least denominator.
``form_oracle`` keeps the blade maps it read them off before: d of a blade
by the Leibniz rule on its lowest factor, omega wedged with a blade, and a
blade contracted with each pair of the bivector, all in Fractions.
``blade_matrix`` of each, which takes the least denominator of the Fraction
images, must give the same ints and the same denominator in every degree.

The compatible triple builds the splitting operator and the blade Gram
matrix as compounds of J^T and g^-1 (``CompatibleTriple.op``).  They must
equal, as rational maps, the blade maps that wedge the rows of J and of
g^-1 = T T^T, T the symplectic basis, in every degree.  The top
coefficient of the volume form omega^n/n! is the Pfaffian of omega, so its
square is the determinant of omega's matrix.

The inputs come from ``tests/fixtures.py``: the ``ladder`` (N6 to N14 and
T8), ``dim-2``, ``scrambled-N8-seed8`` (N8 under the seeded dense change of
basis f = P e, built by ``basis_change.matrix_moves``) and ``N6-p/q``, a
JSON algebra with p/q structure constants under an omega with Fraction
coefficients, where all three operators have denominators above 1.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import form_oracle as oracle
from fixtures import build, select
from symcoh.exterior import Form
from symcoh.hodge import build_triple

from dense_oracle import det

# each complex is only read here, so one is kept per fixture
built = lru_cache(maxsize=None)(build)
NAMES = select("dim-2", "ladder", "N6-p/q", "scrambled-N8-seed8")


def pairs(cx):
    """(engine matrix, oracle matrix) of d, L and Lambda on every degree."""
    st = cx.structure
    routes = {"d": (oracle.d_blade_map(cx.algebra), 1), "L": (oracle.L_blade_map(st), 2),
              "Lambda": (oracle.Lambda_blade_map(st), -2)}
    for name, (images, step) in routes.items():
        for k in range(-1, cx.dim + 2):
            yield name, k, cx.op(name, k), oracle.blade_matrix(images, k, k + step)


@pytest.mark.parametrize("name", NAMES)
def test_int_matrices_equal_the_form_wedge_route(name):
    for op, k, got, want in pairs(built(name)):
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (op, k)
        assert got.cols == want.cols, (op, k)
        assert got.den == want.den, (op, k)


def test_inputs_reach_denominators_and_dense_constants():
    """The p/q fixture has a denominator above 1 in each operator, and in
    the scrambled N8 d of each of the first six generators is non-zero,
    omega has more terms than N8's and some constant is not +-1."""
    dens = {}
    for op, _, got, _ in pairs(built("N6-p/q")):
        dens[op] = max(dens.get(op, 1), got.den)
    assert min(dens.values()) > 1, dens
    cx = built("scrambled-N8-seed8")
    assert all(cx.algebra.differentials[:6]) and len(cx.omega.items()) > 4
    assert any(c.denominator == 1 and abs(c) > 1
               for f in cx.algebra.differentials for _, c in f.items())


@pytest.mark.parametrize("name", select("N6-p/q", "scrambled-N8-seed8"))
def test_form_level_operators_apply_the_matrices(name):
    """d, L, L^r and Lambda of a mixed-degree form with Fraction
    coefficients equal the oracle blade maps applied to it."""
    cx = built(name)
    st, rng = cx.structure, random.Random(17)
    a = Form(cx.dim, {rng.randrange(1 << cx.dim): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(12)})
    assert cx.apply("d", a) == oracle.d_blade_map(cx.algebra)(a)
    assert st.apply("L", a) == oracle.L_blade_map(st)(a)
    assert st.apply("Lambda", a) == oracle.Lambda_blade_map(st)(a)
    for r in range(cx.n + 1):
        assert oracle.engine_L_power(st, a, r) == oracle.L_power(st, a, r)


@pytest.mark.parametrize("name", NAMES)
def test_volume_is_a_pfaffian(name):
    """(omega^n/n!)[top]^2 = det(omega's matrix), so omega^n vanishes only
    where the determinant check has already refused omega."""
    st = built(name).structure
    w = [[st.omega_matrix.entry(i, j) for j in range(st.dim)] for i in range(st.dim)]
    assert oracle.volume_norm(st) ** 2 == det(w, st.dim)


@pytest.mark.parametrize("name", select("dim-2", "N6", "N8", "N6-p/q", "scrambled-N8-seed8"))
def test_compound_matrices_equal_the_form_wedge_route(name):
    """``op("jay", k)`` and ``op("gram", k)`` against the blade maps of the
    rows of J and of T T^T, from degree -1 to dim + 1."""
    cx = built(name)
    triple, dim = build_triple(cx.structure), cx.dim
    j_rows = [[triple.J.entry(i, j) for j in range(dim)] for i in range(dim)]
    t_rows = [[triple.basis.entry(i, j) for j in range(dim)] for i in range(dim)]
    g_rows = [[sum(a * b for a, b in zip(r, s)) for s in t_rows] for r in t_rows]
    for op, rows in (("jay", j_rows), ("gram", g_rows)):
        images = oracle.algebra_map(rows)
        for k in range(-1, dim + 2):
            got, want = triple.op(op, k), oracle.blade_matrix(images, k, k)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (op, k)
            assert got == want, (op, k)


def test_compound_inputs_reach_denominators():
    """On the p/q fixture J and g^-1 both have denominators above 1."""
    triple = build_triple(built("N6-p/q").structure)
    assert triple.op("jay", 1).den > 1 and triple.op("gram", 1).den > 1
