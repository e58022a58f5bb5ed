import pytest

from symcoh import Form
from symcoh.linalg import OperatorMatrix
from symcoh.symbolcheck import (
    DEFAULT_SEED,
    build_symbols,
    check_exactness,
    random_covectors,
    run_symbol_suite,
)


def test_space_dimensions_n2():
    c = build_symbols(2, Form.e(4, 1))
    assert c.dims == [1, 4, 5, 5, 4, 1]
    # each dimension is the length of the primitive basis it stands for
    assert c.dims == [len(c.structure.primitive_basis(k)) for k in (0, 1, 2, 2, 1, 0)]


def test_tiny_complex_n1():
    c = build_symbols(1, Form.e(2, 1))
    assert c.dims == [1, 2, 2, 1]
    assert check_exactness(c).passed


def test_generic_covector_entries_are_exact():
    xi = Form.e(6, 1) + Form.e(6, 4) * 2
    c = build_symbols(3, xi)
    for m in c.maps:
        assert type(m.den) is int and m.den > 0
        for col in m.cols:
            for v in col.values():
                assert type(v) is int
    assert check_exactness(c).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exactness_for_coordinate_covector(n):
    result = check_exactness(build_symbols(n, Form.e(2 * n, 1)))
    assert result.passed, result.details


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exactness_for_seeded_random_covectors(n):
    for xi in random_covectors(n, 20, DEFAULT_SEED):
        result = check_exactness(build_symbols(n, xi))
        assert result.passed, (xi, result.details)


def test_zero_composition_explicitly():
    c = build_symbols(3, Form.e(6, 2) - Form.e(6, 5))
    for i in range(len(c.maps) - 1):
        assert c.maps[i + 1].compose(c.maps[i]).is_zero()


def test_euler_characteristic_zero():
    for n in (1, 2, 3):
        c = build_symbols(n, Form.e(2 * n, 1))
        assert sum((-1) ** p * dim for p, dim in enumerate(c.dims)) == 0


def test_zero_covector_rejected():
    with pytest.raises(ValueError):
        build_symbols(2, Form.zero(4))


def test_non_one_form_rejected():
    with pytest.raises(ValueError):
        build_symbols(2, Form.e(4, 1, 2))


def test_sampling_is_deterministic():
    a = random_covectors(3, 5, 123)
    b = random_covectors(3, 5, 123)
    assert a == b
    c = random_covectors(3, 5, 124)
    assert a != c


def test_suite_wrapper():
    result = run_symbol_suite(2, count=3)
    assert result.passed


@pytest.mark.parametrize("index, positions", [(0, [0, 1]), (3, [3, 4])])
def test_exactness_fails_when_a_map_is_zero(index, positions):
    """Zeroing the first or the middle map of the n = 3 sequence breaks
    exactness on both sides of it."""
    c = build_symbols(3, Form.e(6, 1))
    m = c.maps[index]
    c.maps[index] = OperatorMatrix(m.nrows, m.ncols, [{}] * m.ncols)
    result = check_exactness(c)
    assert not result.passed
    assert [d.split(":")[0] for d in result.details] == [f"position {p}" for p in positions]


def test_euler_sum_is_reported_when_a_basis_element_is_dropped():
    """build_symbols holds one dimension at positions p and 2n + 1 - p, so
    its alternating dimension sum is always 0; this sequence is built by
    hand, with the dimension at position 1 of the n = 3 sequence one short,
    as if a basis element were dropped."""
    c = build_symbols(3, Form.e(6, 1))
    assert c.dims == [1, 6, 14, 14, 14, 14, 6, 1]
    c.dims[1] -= 1
    result = check_exactness(c)
    assert not result.passed
    assert result.details == ["alternating dimension sum is 1, not 0",
                              "position 1: ker dim 0 != im dim 1"]


def test_non_zero_composition_names_a_primitive_basis_element():
    """With the middle map of the n = 2 sequence for e1 replaced by hand by
    the identity, the compositions into and out of it are the maps beside
    it, which are not zero.  Each detail names the first non-zero column as
    a primitive basis element: e1 ^ e1 = 0, so the first column of P^1
    that the ascending map moves is e2, and the first of P^2 that the
    descending map moves is its first basis element, e12 - e34."""
    c = build_symbols(2, Form.e(4, 1))
    assert c.dims == [1, 4, 5, 5, 4, 1]
    c.maps[2] = OperatorMatrix.identity(5)
    result = check_exactness(c)
    assert not result.passed
    assert result.details[:2] == ["composition at step 1 -> 2 is non-zero on e2",
                                  "composition at step 2 -> 3 is non-zero on e12 - e34"]
