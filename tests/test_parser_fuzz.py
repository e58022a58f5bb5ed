"""Fuzzing the input parsers and the CLI on short text.

Each parser returns or raises only its documented error, and the CLI keeps
its exit-code contract (0 ok, 2 input error) without a traceback.  Inputs
are capped at 16 characters, so the largest algebra that can parse is the
8-dimensional torus, and ``--omega=12`` is degenerate on it.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as hst

from symcoh.cealgebra import AlgebraValidationError, LieAlgebraSpec, parse_algebra
from symcoh.cli import main
from symcoh.exterior import Form, FormParseError, form_to_str, parse_form
from symcoh.symplectic import parse_omega

# '²' passes str.isdigit but int() refuses it; '٣' is a decimal digit int() reads as 3
TEXT = hst.text(alphabet="0123456789abcdef()+-*/e, ²٣", max_size=16)


def test_a_decimal_digit_of_another_script_is_read_as_int_reads_it():
    assert parse_form("٣*e13", 4) == Form.e(4, 1, 3) * 3
    assert parse_omega("٣*13+24", 4) == parse_omega("3*13+24", 4)
    assert parse_algebra("(0,0,0,٣*12)") == parse_algebra("(0,0,0,3*12)")


@settings(max_examples=300, deadline=None)
@given(TEXT, hst.sampled_from([2, 6, 15]))
def test_parse_form_returns_a_form_or_raises_form_parse_error(text, dim):
    try:
        f = parse_form(text, dim)
    except FormParseError:
        return
    assert isinstance(f, Form) and f.dim == dim
    assert parse_form(form_to_str(f), dim) == f


@settings(max_examples=300, deadline=None)
@given(TEXT, hst.sampled_from([2, 6, 14]))
def test_parse_omega_returns_a_form_or_raises_form_parse_error(text, dim):
    try:
        f = parse_omega(text, dim)
    except FormParseError:
        return
    assert isinstance(f, Form) and f.dim == dim


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_parse_algebra_returns_an_algebra_or_raises_its_errors(text):
    try:
        algebra = parse_algebra(text)
    except (FormParseError, AlgebraValidationError):
        return
    assert isinstance(algebra, LieAlgebraSpec)


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_cli_compute_exits_0_or_2_on_any_algebra_text(text):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["compute", f"--algebra={text}", "--omega=12"])
    assert code in (0, 2)
