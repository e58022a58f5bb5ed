"""The symbol maps as the primitive split of xi ^, against the form oracle.

``build_symbols`` splits the wedge-by-xi matrix with
``SymplecticStructure.split``, the same closed formulas that give del_plus
and del_minus from d.  ``form_oracle`` applies the symbols to one primitive
basis form at a time and reads each image back with ``prim_coords``.  The
two must give the same exact matrices.
"""

import pytest

import form_oracle as oracle
from symcoh import Form, SymplecticStructure, standard_omega
from symcoh.exterior import blade_index
from symcoh.linalg import OperatorMatrix
from symcoh.symbolcheck import build_symbols, random_covectors
from symcoh.symplectic import parse_omega


def covectors(dim: int) -> list[Form]:
    return [Form.e(dim, 1)] + random_covectors(dim // 2, 5, seed=31)


def wedge_matrix(xi: Form, k: int) -> OperatorMatrix:
    return oracle.blade_matrix(
        oracle.BladeMap(xi.dim, lambda _, m: xi.wedge(Form(xi.dim, {m: 1}))), k, k + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_maps_match_form_oracle(n):
    for xi in covectors(2 * n):
        c = build_symbols(n, xi)
        assert c.maps == oracle.symbol_maps(c.structure, xi), xi


@pytest.mark.parametrize("omega, dim", [("16+25-34", 6), ("2*13+24", 4)])
def test_split_of_wedge_matches_form_oracle(omega, dim):
    """Off the standard structure too: under 2*13+24 the inverse bivector
    has entries 1/2."""
    st = SymplecticStructure(parse_omega(omega, dim))
    for xi in covectors(dim):
        for k in range(st.n + 1):
            dp, dm = st.split(wedge_matrix(xi, k), k)
            for m, k_to, symbol in ((dp, k + 1, oracle._symbol_plus),
                                    (dm, k - 1, oracle._symbol_minus)):
                assert st.prim_matrix(m, k_to) == oracle.prim_op_matrix(
                    st, lambda b: symbol(st, xi, b), k, k_to), (xi, k, k_to)


def test_split_rejects_an_operator_that_leaves_the_primitive_forms():
    """A degree +1 map with an omega^2 component in its image does not
    commute with L: its degree -1 piece is not primitive."""
    st = SymplecticStructure(standard_omega(3))
    idx = blade_index(6, 4)[1]
    omega2 = {idx[m]: c for m, c in st.L_power(Form.scalar(6, 1), 2).items()}
    cols = [{i: c * (j + 1) for i, c in omega2.items()} for j in range(len(blade_index(6, 3)[0]))]
    with pytest.raises(AssertionError, match="leaves the primitive forms"):
        st.split(OperatorMatrix.from_columns(cols, len(idx)), 3)
