"""The operator tables: every row of every owner keeps its contract.

Each owner of blade operators (the algebra, the structure, the complex and
the compatible triple) has one table of rows, name -> (the degree it sends
k to, its builder), read by one ``op(name, k)`` and one Form adapter,
``apply(name, form)``.  ``DEGREE`` below is this test's own record of where
each operator goes, so a row whose degree map is wrong fails here: for
every k in 0..2n, ``op(name, k)`` must have C(2n, to(k)) rows and C(2n, k)
columns, and ``apply(name, e_I)`` must be column I of ``op(name, |I|)``,
read over the degree-to(k) blades.  The complex reaches its parts' rows
without keeping their matrices, and no owner keeps another's.
"""

from fractions import Fraction
from math import comb

import pytest

from fixtures import build, select
from symcoh.exterior import Form, blade_index
from symcoh.hodge import CompatibleTriple

NAMES = select("N6", "scrambled-N6", "T6")

# the degree each operator sends degree k to, on 2n = dim
DEGREE = {"d": lambda dim, k: k + 1, "L": lambda dim, k: k + 2, "Lambda": lambda dim, k: k - 2,
          "star": lambda dim, k: dim - k, "dLambda": lambda dim, k: k - 1,
          "del_plus": lambda dim, k: k + 1, "del_minus": lambda dim, k: k - 1,
          "jay": lambda dim, k: k, "gram": lambda dim, k: k}

ROWS = {"algebra": {"d"}, "structure": {"L", "Lambda", "star"},
        "complex": {"dLambda", "del_plus", "del_minus"}, "triple": {"jay", "gram"}}


def owners(name):
    cx = build(name)
    return {"algebra": cx.algebra, "structure": cx.structure, "complex": cx,
            "triple": CompatibleTriple(cx.structure)}


def size(dim, k):
    return comb(dim, k) if 0 <= k <= dim else 0


@pytest.mark.parametrize("name", NAMES)
def test_every_row_keeps_its_degree_shape_and_form_adapter(name):
    by_owner = owners(name)
    for owner_name, rows in ROWS.items():
        owner = by_owner[owner_name]
        assert set(owner.OPS) == rows, owner_name
        dim = owner.dim
        for row in rows:
            for k in range(dim + 1):
                to = DEGREE[row](dim, k)
                m = owner.op(row, k)
                assert (m.nrows, m.ncols) == (size(dim, to), size(dim, k)), (row, k)
                order = blade_index(dim, to)[0]
                for j, mask in enumerate(blade_index(dim, k)[0]):
                    column = Form(dim, {order[i]: Fraction(v, m.den)
                                        for i, v in m.cols[j].items()})
                    assert owner.apply(row, Form(dim, {mask: 1})) == column, (row, mask)


@pytest.mark.parametrize("name", NAMES)
def test_the_complex_reaches_its_parts_rows_without_keeping_them(name):
    by_owner = owners(name)
    cx = by_owner["complex"]
    for part in ("algebra", "structure"):
        for row in ROWS[part]:
            assert cx.op(row, 2) is by_owner[part].op(row, 2), row
    for owner_name, owner in by_owner.items():
        for row in ROWS[owner_name]:
            owner.op(row, 2)
        assert {key[0] for key in owner._ops if key[0] in DEGREE} == ROWS[owner_name]


def test_an_unknown_row_is_refused():
    cx = owners("N6")["complex"]
    with pytest.raises(KeyError, match="unknown operator 'jay'"):
        cx.op("jay", 1)
