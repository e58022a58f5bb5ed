import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcoh.exterior import (
    DimensionMismatchError,
    Form,
    FormParseError,
    blade_from_indices,
    blade_indices,
    blades,
    contract,
    form_to_str,
    grade_project,
    parse_form,
    wedge,
    wedge_sign,
)


def random_form(rng, dim, max_terms=5):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        mask = rng.randrange(1 << dim)
        coeffs[mask] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return Form(dim, coeffs)


# -- wedge -------------------------------------------------------------------

def test_wedge_adjacent_indices():
    assert Form.e(6, 1).wedge(Form.e(6, 2)) == Form.e(6, 1, 2)


def test_wedge_graded_commutativity_sign():
    assert Form.e(6, 2).wedge(Form.e(6, 1)) == -Form.e(6, 1, 2)


def test_omega_cubed_over_six():
    # frozen regression: the top power of the nilmanifold form
    omega = parse_form("e16 + e25 - e34", 6)
    assert omega.power(3) / 6 == -Form.e(6, 1, 2, 3, 4, 5, 6)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge(Form.e(4, 1), Form.e(6, 1))


def _sort_sign(seq):
    """Parity of the permutation sorting seq (bubble oracle)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@given(st.lists(st.integers(min_value=1, max_value=10), unique=True, max_size=8),
       st.lists(st.integers(min_value=1, max_value=10), unique=True, max_size=8))
def test_wedge_sign_matches_sorting_oracle(a_idx, b_idx):
    if set(a_idx) & set(b_idx):
        return
    a = blade_from_indices(sorted(a_idx))
    b = blade_from_indices(sorted(b_idx))
    assert wedge_sign(a, b) == _sort_sign(sorted(a_idx) + sorted(b_idx))


@given(st.integers(0, 2 ** 8 - 1), st.integers(0, 2 ** 8 - 1))
def test_wedge_blades_graded_commutativity(a, b):
    fa, fb = Form(8, {a: 1}), Form(8, {b: 1})
    ka, kb = bin(a).count("1"), bin(b).count("1")
    assert fa.wedge(fb) == fb.wedge(fa) * ((-1) ** (ka * kb))


def test_wedge_associativity_random():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (random_form(rng, 6, 3) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_bilinearity_random():
    rng = random.Random(8)
    for _ in range(30):
        a, b, c = (random_form(rng, 6, 3) for _ in range(3))
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert (a + b * s).wedge(c) == a.wedge(c) + b.wedge(c) * s


# -- contraction --------------------------------------------------------------

def test_contract_examples():
    e12 = Form.e(6, 1, 2)
    assert contract(1, e12) == Form.e(6, 2)
    assert contract(2, e12) == -Form.e(6, 1)
    assert contract(3, e12) == Form.zero(6)


def test_contract_kronecker():
    for i in range(1, 7):
        for j in range(1, 7):
            expect = Form.scalar(6, 1) if i == j else Form.zero(6)
            assert contract(i, Form.e(6, j)) == expect


def test_contract_out_of_range():
    with pytest.raises(ValueError):
        contract(7, Form.e(6, 1))
    with pytest.raises(ValueError):
        contract(0, Form.e(6, 1))


def test_contract_anticommutes():
    rng = random.Random(9)
    for _ in range(25):
        a = random_form(rng, 6)
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        assert contract(i, contract(j, a)) == -contract(j, contract(i, a))


@given(st.integers(1, 6), st.integers(0, 63), st.integers(0, 63))
def test_contract_antiderivation(i, ma, mb):
    a, b = Form(6, {ma: 1}), Form(6, {mb: 1})
    ka = bin(ma).count("1")
    lhs = contract(i, a.wedge(b))
    rhs = contract(i, a).wedge(b) + a.wedge(contract(i, b)) * ((-1) ** ka)
    assert lhs == rhs


# -- grading -------------------------------------------------------------------

def test_grade_project_examples():
    f = Form.scalar(6, 1) + Form.e(6, 1, 2)
    assert grade_project(f, 2) == Form.e(6, 1, 2)
    assert grade_project(Form.e(6, 1), 0) == Form.zero(6)
    omega = parse_form("e16 + e25 - e34", 6)
    assert grade_project(omega + Form.e(6, 1), 2) == omega


def test_grade_projections_sum_to_identity():
    rng = random.Random(10)
    for _ in range(20):
        a = random_form(rng, 6)
        total = Form.zero(6)
        for k in range(7):
            total = total + grade_project(a, k)
        assert total == a


def test_grade_project_range():
    with pytest.raises(ValueError):
        grade_project(Form.e(6, 1), 7)


# -- printing and parsing --------------------------------------------------------

def test_canonical_print_order():
    f = Form(6, {blade_from_indices((1, 5)): 1,
                 blade_from_indices((2, 3)): -1,
                 blade_from_indices((2, 4)): 2})
    assert form_to_str(f) == "e15 - e23 + 2*e24"


def test_print_degree_mixes_sorted_by_degree_then_lex():
    f = Form.scalar(6, 1) + Form.e(6, 1, 3, 5) - Form.e(6, 1, 6)
    assert form_to_str(f) == "1 - e16 + e135"


def test_print_fraction_and_unit_coefficients():
    f = Form(6, {blade_from_indices((1, 2)): Fraction(-3, 2), 0: Fraction(1, 3)})
    assert form_to_str(f) == "1/3 - 3/2*e12"


def test_zero_prints_as_zero():
    assert form_to_str(Form.zero(6)) == "0"
    assert parse_form("0", 6) == Form.zero(6)


def test_parse_examples():
    assert parse_form("e15 - e23 + 2*e24", 6) == (
        Form.e(6, 1, 5) - Form.e(6, 2, 3) + Form.e(6, 2, 4) * 2)
    assert parse_form("3/2", 6) == Form.scalar(6, Fraction(3, 2))
    assert parse_form("-e12", 6) == -Form.e(6, 1, 2)


def test_parse_print_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        a = random_form(rng, 6)
        assert parse_form(form_to_str(a), 6) == a


def test_parse_print_round_trip_hex_indices():
    a = Form.e(14, 1, 10, 14) * Fraction(5, 7)
    assert form_to_str(a) == "5/7*e1ae"
    assert parse_form(form_to_str(a), 14) == a


@pytest.mark.parametrize("bad", ["e", "e0", "+", "e12 e13", "1/*e12", "e21",
                                 "e17", "2**e12", ""])
def test_parse_errors_carry_position(bad):
    with pytest.raises(FormParseError) as err:
        parse_form(bad, 6)
    assert "position" in str(err.value)


# -- blade order ------------------------------------------------------------------

def test_blade_basis_order_is_degree_then_lex():
    order = blades(6, 2)
    as_tuples = [blade_indices(m) for m in order]
    assert as_tuples == sorted(as_tuples)
    assert as_tuples[0] == (1, 2) and as_tuples[-1] == (5, 6)


def test_form_items_sorted_like_basis():
    rng = random.Random(12)
    for _ in range(20):
        a = random_form(rng, 6)
        masks = [m for m, _ in a.items()]
        keyed = sorted(masks, key=lambda m: (bin(m).count("1"), blade_indices(m)))
        assert masks == keyed


def test_form_immutable_and_zero_free():
    a = Form(6, {3: Fraction(1), 5: Fraction(0)})
    assert a.items() == [(3, 1)]
    with pytest.raises(AttributeError):
        a.dim = 4


@settings(max_examples=50)
@given(st.integers(0, 63), st.integers(0, 63))
def test_form_equality_is_map_equality(ma, mb):
    a = Form(6, {ma: 1, mb: 2}) if ma != mb else Form(6, {ma: 3})
    b = Form(6, dict(a.items()))
    assert a == b and hash(a) == hash(b)
