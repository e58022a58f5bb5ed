import json
import random
from fractions import Fraction
from functools import partial

import pytest

from symcoh import Form, parse_form, parse_salamon
from symcoh.cealgebra import (
    AlgebraValidationError,
    parse_algebra,
    parse_algebra_json,
)
from symcoh.cli import main
from symcoh.exterior import FormParseError, blades

from paper_checks import integrate, is_abelian


def random_form(rng, dim, degree=None, max_terms=4):
    pool = blades(dim, degree) if degree is not None else list(range(1 << dim))
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.choice(pool)] = Fraction(rng.randint(-3, 3))
    return Form(dim, coeffs)


# -- parsing -----------------------------------------------------------------

def test_parse_nilmanifold(nil_algebra):
    assert nil_algebra.dim == 6
    assert nil_algebra.differentials[0] == Form.zero(6)
    assert nil_algebra.differentials[3] == Form.e(6, 1, 2)
    assert nil_algebra.differentials[4] == Form.e(6, 1, 4)
    assert nil_algebra.differentials[5] == (
        Form.e(6, 1, 5) + Form.e(6, 2, 3) + Form.e(6, 2, 4))


def test_parse_abelian(torus_algebra):
    assert is_abelian(torus_algebra)
    assert all(f.is_zero() for f in torus_algebra.differentials)


def test_parse_odd_dimension_rejected():
    with pytest.raises(AlgebraValidationError):
        parse_salamon("(0,0,12)")


@pytest.mark.parametrize("bad", ["(0,0,0,1z)", "(0,0,0,123)", "(0,0,0,21)",
                                 "(0,0,0,*12)", "(0,0,,0)"])
def test_parse_malformed_entries(bad):
    with pytest.raises((FormParseError, AlgebraValidationError)):
        parse_salamon(bad)


def test_parse_coefficients_and_signs():
    spec = parse_salamon("(0,0,0,0,0,2*12-34)")
    assert spec.differentials[5] == Form.e(6, 1, 2) * 2 - Form.e(6, 3, 4)


def test_parse_index_out_of_range():
    with pytest.raises(FormParseError):
        parse_salamon("(0,0,0,15)")


def test_json_format_matches_salamon(nil_algebra):
    text = json.dumps({"dim": 6, "d": {"4": [[1, 2, 1]], "5": [[1, 4, 1]],
                                       "6": [[1, 5, 1], [2, 3, 1], [2, 4, 1]]}})
    assert parse_algebra_json(text) == nil_algebra
    assert parse_algebra(text) == nil_algebra
    assert parse_algebra("(0,0,0,12,14,15+23+24)") == nil_algebra


def test_json_reversed_indices_negate():
    a = parse_algebra_json(json.dumps({"dim": 4, "d": {"3": [[2, 1, 1]]}}))
    b = parse_algebra_json(json.dumps({"dim": 4, "d": {"3": [[1, 2, -1]]}}))
    assert a == b


@pytest.mark.parametrize("bad", [
    '{"dim": 5, "d": {}}',
    '{"d": {}}',
    '{"dim": 6, "d": {"9": [[1, 2, 1]]}}',
    '{"dim": 6, "d": {"4": [[1, 1, 1]]}}',
    '{"dim": 6, "d": {"4": [[1, 2]]}}',
    'not json',
    # JSON booleans load as Python bools, which are ints
    '{"dim": 4, "d": {"3": [[true, 2, 1]]}}',
    '{"dim": 4, "d": {"3": [[1, 2, false]]}}',
    '{"dim": 4, "d": {"3": [[1, 2, true]]}}',
    '{"dim": 4, "d": {"3": [[1, 2, "x"]]}}',
    '{"dim": 4, "d": {"3": [[1, 2, "1/0"]]}}',
    '{"dim": 4, "d": {"3": 5}}',
    pytest.param('{"dim": 4, "d": ' + "[" * 100000, id="deeply-nested"),
])
def test_json_errors(bad):
    with pytest.raises(AlgebraValidationError):
        parse_algebra_json(bad)


# a key of "d" is ASCII digits and names its generator once, and no JSON key
# repeats: each refusal is one error line and exit 2, where the last entry won
KEY_REJECTIONS = [
    pytest.param('{"dim": 4, "d": {"4": [[1, 2, 1]], "04": []}}', "generator 4 named twice",
                 id="padded-twice"),
    pytest.param('{"dim": 4, "d": {"4": [[1, 2, 1]], "4": []}}', "JSON key '4' given twice",
                 id="key-twice"),
    pytest.param('{"dim": 4, "dim": 4, "d": {}}', "JSON key 'dim' given twice", id="dim-twice"),
    pytest.param('{"dim": 4, "d": {"+4": []}}', "bad generator index '+4'", id="sign"),
    pytest.param('{"dim": 4, "d": {" 4": []}}', "bad generator index ' 4'", id="blank"),
    pytest.param('{"dim": 4, "d": {"\\u0664": []}}', "bad generator index '\u0664'",
                 id="arabic-digit"),
    pytest.param('{"dim": 4, "d": {"4_0": []}}', "bad generator index '4_0'", id="underscore"),
]


@pytest.mark.parametrize("text, message", KEY_REJECTIONS)
def test_json_generator_keys_are_digits_named_once(text, message, capsys):
    assert main(["compute", "--algebra", text, "--omega", "13+24"]) == 2
    assert capsys.readouterr().err == f"error: bad algebra: {message}\n"


def test_json_generator_key_may_have_leading_zeros():
    assert parse_algebra_json('{"dim": 4, "d": {"04": [[1, 2, 1]]}}') == \
        parse_salamon("(0,0,0,12)")


def test_json_string_coefficients_still_parse():
    a = parse_algebra_json(json.dumps({"dim": 4, "d": {"3": [[1, 2, "-1/2"]]}}))
    b = parse_algebra_json(json.dumps({"dim": 4, "d": {"3": [[2, 1, "1/2"]]}}))
    assert a == b
    assert a.differentials[2] == Form(4, {0b11: Fraction(-1, 2)})


# -- validation ---------------------------------------------------------------

def test_jacobi_violation_rejected():
    # d(d e6) = d(e45) != 0 for this table
    with pytest.raises(AlgebraValidationError, match="Jacobi"):
        parse_salamon("(0,0,0,12,13,45)")


def test_non_unimodular_rejected():
    with pytest.raises(AlgebraValidationError, match="unimodular"):
        parse_salamon("(0,12)")


# the full rejection text: the first generator i, in order, with d(d(e_i))
# != 0 and that form; or the first codimension-one blade, in canonical order,
# whose d has a top-degree part
REJECTIONS = [
    ("(0,0,0,12,13,45)",
     "d(d(e_6)) = e125 - e134 != 0: structure constants violate the Jacobi identity"),
    ("(0,0,12,13,24,45)",
     "d(d(e_5)) = e123 != 0: structure constants violate the Jacobi identity"),
    ('{"dim": 6, "d": {"4": [[1, 2, "1/2"]], "5": [[1, 3, "2/3"]], "6": [[4, 5, "3/4"]]}}',
     "d(d(e_6)) = 3/8*e125 - 1/2*e134 != 0: structure constants violate the Jacobi identity"),
    ("(0,12)",
     "algebra is not unimodular: d of a codimension-one form has a top-degree part (e2)"),
    ("(0,12,0,0)",
     "algebra is not unimodular: d of a codimension-one form has a top-degree part (e234)"),
    ("(0,0,0,0,0,0,0,0,0,0,0,0,3*1d,2*3e)",
     "algebra is not unimodular: d of a codimension-one form has a top-degree part "
     "(e12456789abcde)"),
]


@pytest.mark.parametrize("text, message", REJECTIONS)
def test_rejection_text_is_pinned(text, message, capsys):
    with pytest.raises(AlgebraValidationError) as exc:
        parse_algebra(text)
    assert str(exc.value) == message
    assert main(["compute", "--algebra", text, "--omega", "12"]) == 2
    assert capsys.readouterr().err == f"error: bad algebra: {message}\n"


def test_non_nilpotent_unimodular_accepted():
    # nilpotency is deliberately not required: a compact-type algebra with a
    # flat direction passes both validations
    spec = parse_salamon("(23,-13,12,0)")
    assert spec.dim == 4
    assert spec.apply("d", Form.e(4, 2)) == -Form.e(4, 1, 3)


# -- the differential -----------------------------------------------------------

def test_d_on_generators(nil_algebra):
    assert nil_algebra.apply("d", Form.e(6, 4)) == Form.e(6, 1, 2)
    assert nil_algebra.apply("d", Form.e(6, 1)) == Form.zero(6)


def test_d_published_example(nil_algebra):
    lhs = nil_algebra.apply("d", parse_form("e35 - e45", 6))
    assert lhs == Form.e(6, 1, 3, 4) - Form.e(6, 1, 2, 5)


def test_d_of_constant(nil_algebra):
    assert nil_algebra.apply("d", Form.scalar(6, Fraction(5, 3))) == Form.zero(6)


def test_d_squared_zero_on_all_blades(nil_algebra):
    for k in range(7):
        for m in blades(6, k):
            assert nil_algebra.apply("d", nil_algebra.apply("d", Form(6, {m: 1}))).is_zero()


def test_d_antiderivation_random(nil_algebra):
    rng = random.Random(31)
    for _ in range(30):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a = random_form(rng, 6, ka)
        b = random_form(rng, 6, kb)
        lhs = nil_algebra.apply("d", a.wedge(b))
        rhs = nil_algebra.apply("d", a).wedge(b) + a.wedge(nil_algebra.apply("d", b)) * ((-1) ** ka)
        assert lhs == rhs


def test_d_linear(nil_algebra):
    rng = random.Random(32)
    for _ in range(20):
        a, b = random_form(rng, 6), random_form(rng, 6)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        d = partial(nil_algebra.apply, "d")
        assert d(a + b * s) == d(a) + d(b) * s


# -- integration ------------------------------------------------------------------

def test_integrate_normalization(nil_algebra):
    assert integrate(nil_algebra, Form.e(6, 1, 2, 3, 4, 5, 6)) == 1
    assert integrate(nil_algebra, Form.e(6, 1, 2)) == 0


def test_integrate_kills_exact_top_forms(nil_algebra):
    # unimodularity: enumerate every codimension-one blade
    for m in blades(6, 5):
        assert integrate(nil_algebra, nil_algebra.apply("d", Form(6, {m: 1}))) == 0


def test_integrate_kills_exact_random(nil_algebra):
    rng = random.Random(33)
    for _ in range(20):
        beta = random_form(rng, 6, 5)
        assert integrate(nil_algebra, nil_algebra.apply("d", beta)) == 0
