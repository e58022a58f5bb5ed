"""The integer symbol suite against the routes it replaced.

``build_symbols`` forms each covector's maps as linear combinations of the
basis covectors' split pieces, and ``check_exactness`` decides exactness by
ranks once every composition is zero.  ``symbol_oracle`` keeps the earlier
routes: the split of xi ^'s own wedge matrix, and the kernel-against-image
comparison as subspaces.  The two must agree on every
map and on every ``CheckResult``, failing ones included.
"""

from fractions import Fraction

import pytest

import symbol_oracle as oracle
from symcoh import Form
from symcoh import symbolcheck
from symcoh.linalg import OperatorMatrix
from symcoh.symbolcheck import DEFAULT_SEED, build_symbols, check_exactness, random_covectors

# demo 06's covector
DEMO_XI = Form.e(6, 1) + Form.e(6, 4) * 2 - Form.e(6, 5)


def rational_covector(n: int) -> Form:
    return Form.e(2 * n, 1) * Fraction(1, 2) - Form.e(2 * n, 2 * n) * Fraction(2, 3)


def covectors(n: int) -> list[Form]:
    out = [Form.e(2 * n, 1), rational_covector(n)] + random_covectors(n, 20, DEFAULT_SEED)
    return out + [DEMO_XI] if n == 3 else out


def oracle_complex(n: int, xi: Form):
    return build_symbols(n, xi)._replace(maps=oracle.split_symbol_maps(n, xi))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_maps_are_linear_in_xi(n):
    """Sum of xi_i times the basis covectors' maps = the split of xi ^."""
    for xi in [Form.e(2 * n, 1), rational_covector(n)] + random_covectors(n, 3, seed=5):
        c = build_symbols(n, xi)
        assert all(isinstance(m, OperatorMatrix) and m.den > 0 for m in c.maps)
        assert c.maps == oracle.split_symbol_maps(n, xi), xi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_route_matches_subspace_oracle(n):
    for xi in covectors(n):
        result = check_exactness(build_symbols(n, xi))
        assert result.passed, (xi, result.details)
        assert result == oracle.subspace_exactness(oracle_complex(n, xi))


@pytest.mark.parametrize("n, index", [(2, 0), (3, 1), (3, 3), (3, 5)])
def test_perturbed_map_fails_as_the_oracle_does(n, index):
    """One entry added to one map makes a composition non-zero; the check
    then falls back to the subspace comparison, with the oracle's details."""
    xi = random_covectors(n, 1, DEFAULT_SEED)[0]
    maps = oracle.split_symbol_maps(n, xi)
    m = maps[index]
    maps[index] = OperatorMatrix.from_columns(
        [{**m.column(0), 0: m.entry(0, 0) + 1}] + [m.column(j) for j in range(1, m.ncols)],
        m.nrows)
    c = build_symbols(n, xi)
    c.maps[index] = maps[index]
    result = check_exactness(c)
    expected = oracle.subspace_exactness(c._replace(maps=maps))
    assert not result.passed
    assert any(d.startswith("composition at step") for d in result.details)
    assert result == expected


def test_every_combined_map_is_checked_primitive(monkeypatch):
    """Each of the 2n + 1 maps of every covector passes check_primitive."""
    n = 3
    symbolcheck._basis_symbols(n)
    st = symbolcheck._standard_structure(n)
    seen = []
    check = st.check_primitive
    monkeypatch.setattr(st, "check_primitive",
                        lambda m, k, what: seen.append((k, what)) or check(m, k, what))
    build_symbols(n, DEMO_XI)
    assert sorted(seen) == sorted([(k + 1, "an ascending symbol") for k in range(n)]
                                  + [(n, "the middle symbol")]
                                  + [(k - 1, "a descending symbol") for k in range(1, n + 1)])

