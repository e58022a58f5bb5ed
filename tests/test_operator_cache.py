"""The per-complex operator cache against the form-level routes.

``SymplecticComplex.op`` keeps d, L, Lambda and dLambda on each degree as an
int matrix over one positive int denominator; divided by it, each must
equal ``matrix_on_blades`` of the form route, and the del images, the
pieces of d in primitive coordinates (``del_matrices``) lifted to blades by
B = ``lift(j, 0)``, must hold the blade coordinates of the projection
routes ``del_plus``/``del_minus`` on each primitive basis form.  The fixtures are
N6 under both omegas and the table's ``half`` entries, and exactly the
``half`` ones have a denominator: where omega is doubled, omega^-1 has
entries of 1/2; in N6 with d e4 = e12/2 (JSON notation) the structure
constants do too, so the two products in dLambda_k have different
denominators in degrees 1 and 2; N6 under omega/2 has L with denominator 2.
"""

from fractions import Fraction
from functools import partial

import pytest

from symcoh import CohomologyCalculator
from symcoh import cealgebra, exterior, symplectic
from symcoh.exterior import blade_index, form_to_coords

import form_oracle
from fixtures import TABLE, build, select
from form_oracle import d_lambda, del_minus, del_plus, matrix_on_blades, prim_forms
from primitive_oracle import del_images

NAMES = select("N6", "N6-prime", "half")

def divided(m):
    assert m.den > 0 and all(isinstance(v, int) for c in m.cols for v in c.values())
    return [{i: Fraction(v, m.den) for i, v in c.items()} for c in m.cols]


@pytest.mark.parametrize("name", NAMES)
def test_cached_matrices_match_form_routes(name):
    cx = build(name)
    st = cx.structure
    routes = {"d": (partial(form_oracle.d, cx.algebra), 1), "L": (partial(form_oracle.L, st), 2),
              "Lambda": (partial(form_oracle.Lambda, st), -2),
              "dLambda": (partial(d_lambda, cx), -1)}
    dens = set()
    for k in range(cx.dim + 1):
        for op, (route, step) in routes.items():
            cached = cx.op(op, k)
            oracle = matrix_on_blades(route, cx.dim, k, k + step)
            assert (cached.nrows, cached.ncols) == (oracle.nrows, oracle.ncols)
            assert divided(cached) == [oracle.column(j) for j in range(oracle.ncols)], (op, k)
            dens.add(cached.den)
    assert (dens != {1}) == ("half" in TABLE[name].tags)


@pytest.mark.parametrize("name", NAMES)
def test_del_images_match_projection_routes(name):
    cx = build(name)
    for k in range(-1, cx.n + 1):
        dp, dm = del_images(cx, k)
        basis = prim_forms(cx.structure, k)
        assert dp.ncols == dm.ncols == len(basis)
        for j, b in enumerate(basis):
            for m, route, deg in ((dp, del_plus, k + 1), (dm, del_minus, k - 1)):
                index = blade_index(cx.dim, deg)[1]
                assert divided(m)[j] == form_to_coords(route(cx, b), index)


@pytest.mark.parametrize("name", ["N6", "KT4-half"])
def test_each_matrix_built_once_per_complex(name, monkeypatch):
    """d, L and Lambda are each built once per degree, d at the algebra's
    validation included, and kept."""
    built = []
    blade_operator = exterior.blade_operator

    def counting(dim, k_from, k_to, terms):
        built.append((k_from, k_to - k_from))
        return blade_operator(dim, k_from, k_to, terms)

    for module in (cealgebra, symplectic):
        monkeypatch.setattr(module, "blade_operator", counting)
    cx = build(name)
    calc = CohomologyCalculator(cx)
    for group in ("dR", "dL", "p+", "p-", "d+dL", "ddL"):
        for k in calc.legal_degrees(group):
            calc.group(group, k)
    for k in range(-1, cx.n + 1):
        cx.del_matrices(k)
    assert {step for _, step in built} == {1, 2, -2}
    assert len(built) == len(set(built))
    for op in ("d", "L", "Lambda", "dLambda"):
        assert cx.op(op, 2) is cx.op(op, 2)
    assert cx.del_matrices(1) is cx.del_matrices(1)
