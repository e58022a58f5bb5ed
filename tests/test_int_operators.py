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

The inputs are every ladder fixture, dimensions 2 and 14, a seeded dense
integer change of basis of N8, and a JSON algebra with p/q structure
constants under an omega with Fraction coefficients, where all three
operators have denominators above 1.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import form_oracle as oracle
from symcoh import SymplecticComplex, parse_algebra
from symcoh.cealgebra import LieAlgebraSpec
from symcoh.exterior import Form, blade_indices
from symcoh.hodge import build_triple
from symcoh.symplectic import parse_omega

from dense_oracle import det

FIXTURES = {
    "dim-2": ("(0,0)", "12"),
    "N6": ("(0,0,0,12,14,15+23+24)", "16+25-34"),
    "N8": ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78"),
    "T8": ("(0,0,0,0,0,0,0,0)", "12+34+56+78"),
    "N10": ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a"),
    "N12": ("(0,0,0,12,14,15+23+24,0,0,0,0,0,0)", "16+25-34+78+9a+bc"),
    "N14": ("(0,0,0,12,14,15+23+24,0,0,0,0,0,0,0,0)", "16+25-34+78+9a+bc+de"),
    # d e4 = 2/3 e12 and d e5 = 3/5 e14; omega is closed for these ratios
    "N6-p/q": ('{"dim": 6, "d": {"4": [[1, 2, "2/3"]], "5": [[1, 4, "3/5"]], '
               '"6": [[1, 5, 1], [2, 3, 1], [2, 4, 1]]}}', "1/2*e16 + 5/6*e25 - 3/4*e34"),
}


def substitute(a: Form, q: list[list[int]]) -> Form:
    """a with each e_i replaced by the 1-form with coefficients row i of q."""
    dim = a.dim
    out = Form.zero(dim)
    for mask, c in a.items():
        term = Form.scalar(dim, c)
        for i in blade_indices(mask):
            term = term.wedge(Form(dim, {1 << j: q[i - 1][j] for j in range(dim)}))
        out = out + term
    return out


def scrambled(algebra: str, omega: str, seed: int) -> SymplecticComplex:
    """The fixture in the basis f = P e, P a seeded unit upper-triangular
    int matrix with entries +-1 and +-2 above the diagonal: d f_i is the sum
    of P_ij d e_j, and every form is rewritten in the f by e = Q f, Q = P^-1,
    which is an int matrix too."""
    alg = parse_algebra(algebra)
    dim, rng = alg.dim, random.Random(seed)
    p = [[int(i == j) or (rng.choice((-2, -1, 1, 2)) if j > i else 0) for j in range(dim)]
         for i in range(dim)]
    q = [[0] * dim for _ in range(dim)]
    for i in reversed(range(dim)):
        q[i][i] = 1
        for j in range(i + 1, dim):
            q[i][j] = -sum(p[i][m] * q[m][j] for m in range(i + 1, j + 1))
    assert all(sum(p[i][m] * q[m][j] for m in range(dim)) == (i == j)
               for i in range(dim) for j in range(dim))
    diffs = [substitute(sum((alg.differentials[j] * p[i][j] for j in range(dim)),
                            Form.zero(dim)), q) for i in range(dim)]
    return SymplecticComplex(LieAlgebraSpec(diffs), substitute(parse_omega(omega, dim), q))


@lru_cache(maxsize=None)
def build(name: str) -> SymplecticComplex:
    if name == "scrambled-N8":
        return scrambled(*FIXTURES["N8"], seed=8)
    algebra, omega = FIXTURES[name]
    alg = parse_algebra(algebra)
    return SymplecticComplex(alg, parse_omega(omega, alg.dim))


NAMES = [*FIXTURES, "scrambled-N8"]


def pairs(cx):
    """(engine matrix, oracle matrix) of d, L and Lambda on every degree."""
    st = cx.structure
    routes = {"d": (cx.algebra.d_matrix, oracle.d_blade_map(cx.algebra), 1),
              "L": (lambda k: st.op("L", k), oracle.L_blade_map(st), 2),
              "Lambda": (lambda k: st.op("Lambda", k), oracle.Lambda_blade_map(st), -2)}
    for name, (engine, images, step) in routes.items():
        for k in range(-1, cx.dim + 2):
            yield name, k, engine(k), oracle.blade_matrix(images, k, k + step)


@pytest.mark.parametrize("name", NAMES)
def test_int_matrices_equal_the_form_wedge_route(name):
    for op, k, got, want in pairs(build(name)):
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (op, k)
        assert got.cols == want.cols, (op, k)
        assert got.den == want.den, (op, k)


def test_inputs_reach_denominators_and_dense_constants():
    """The p/q fixture has a denominator above 1 in each operator, and in
    the scrambled N8 d of each of the first six generators is non-zero,
    omega has more terms than N8's and some constant is not +-1."""
    dens = {}
    for op, _, got, _ in pairs(build("N6-p/q")):
        dens[op] = max(dens.get(op, 1), got.den)
    assert min(dens.values()) > 1, dens
    cx = build("scrambled-N8")
    assert all(cx.algebra.differentials[:6]) and len(cx.omega.items()) > 4
    assert any(c.denominator == 1 and abs(c) > 1
               for f in cx.algebra.differentials for _, c in f.items())


@pytest.mark.parametrize("name", ["N6-p/q", "scrambled-N8"])
def test_form_level_operators_apply_the_matrices(name):
    """d, L, L^r and Lambda of a mixed-degree form with Fraction
    coefficients equal the oracle blade maps applied to it."""
    cx = build(name)
    st, rng = cx.structure, random.Random(17)
    a = Form(cx.dim, {rng.randrange(1 << cx.dim): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(12)})
    assert cx.algebra.d(a) == oracle.d_blade_map(cx.algebra)(a)
    assert st.L(a) == oracle.L_blade_map(st)(a)
    assert st.Lambda(a) == oracle.Lambda_blade_map(st)(a)
    for r in range(cx.n + 1):
        assert st.L_power(a, r) == oracle.L_power(st, a, r)


@pytest.mark.parametrize("name", NAMES)
def test_volume_is_a_pfaffian(name):
    """(omega^n/n!)[top]^2 = det(omega's matrix), so omega^n vanishes only
    where the determinant check has already refused omega."""
    st = build(name).structure
    w = [[st.omega_matrix.entry(i, j) for j in range(st.dim)] for i in range(st.dim)]
    assert oracle.volume_norm(st) ** 2 == det(w, st.dim)


@pytest.mark.parametrize("name", ["dim-2", "N6", "N8", "N6-p/q", "scrambled-N8"])
def test_compound_matrices_equal_the_form_wedge_route(name):
    """``op("jay", k)`` and ``op("gram", k)`` against the blade maps of the
    rows of J and of T T^T, from degree -1 to dim + 1."""
    cx = build(name)
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
    triple = build_triple(build("N6-p/q").structure)
    assert triple.op("jay", 1).den > 1 and triple.op("gram", 1).den > 1
