"""The one renderer (``exterior.row_to_str``) and the int representatives of
the cohomology groups, against the Form-walking printer and the Fraction
quotient route of ``quotient_oracle``."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as hst

import quotient_oracle as oracle
from symcoh import CohomologyCalculator
from symcoh.cli import RunConfig, _build_complex, cmd_compute
from symcoh.cohomology import GROUP_NAMES
from symcoh.exterior import Form, blade_index, form_to_str, parse_form, row_to_str
from symcoh.linalg import OperatorMatrix
from test_blade_map import SCRAMBLED_N6
from test_int_operators import FIXTURES as INT_FIXTURES

COEFFS = hst.one_of(hst.sampled_from([Fraction(1), Fraction(-1)]),
                    hst.builds(Fraction, hst.integers(-30, 30), hst.integers(1, 12)))


@hst.composite
def forms(draw):
    """Fraction forms of mixed degree in dimensions 1..15, the empty blade
    (a degree-0 term) among the masks."""
    dim = draw(hst.integers(1, 15))
    masks = hst.one_of(hst.just(0), hst.integers(0, (1 << dim) - 1))
    return Form(dim, draw(hst.dictionaries(masks, COEFFS, max_size=8)))


@seed(18)
@settings(max_examples=100, deadline=None)
@given(forms())
@example(Form(6, {0: Fraction(-5, 3), 0b11: 1, 0b101: -1, 0b111: Fraction(7, 2)}))
@example(Form(4, {0b11: Fraction(-1, 2), 0b1100: 3, 0b1111: -1}))
@example(Form(15, {0: 1, (1 << 15) - 1: Fraction(-7, 2), 1 << 14: Fraction(12, 4)}))
@example(Form(1, {0: -1, 1: -1}))
@example(Form(2, {}))
def test_form_to_str_equals_the_form_walking_printer(a):
    text = form_to_str(a)
    assert text == oracle.form_to_str(a)
    assert parse_form(text, a.dim) == a


@hst.composite
def rows(draw):
    """(dim, k, int row over the degree-k blades, positive den)."""
    dim = draw(hst.integers(1, 15))
    k = draw(hst.integers(0, dim))
    n = len(blade_index(dim, k)[0])
    row = draw(hst.dictionaries(hst.integers(0, n - 1),
                                hst.integers(-40, 40).filter(bool), max_size=6))
    return dim, k, row, draw(hst.integers(1, 12))


@seed(18)
@settings(max_examples=100, deadline=None)
@given(rows())
@example((6, 0, {0: -4}, 6))
@example((6, 2, {3: 6, 0: -3, 14: 1}, 3))
def test_row_to_str_prints_the_form_of_the_row(case):
    dim, k, row, den = case
    order = blade_index(dim, k)[0]
    a = Form(dim, {order[j]: Fraction(v, den) for j, v in row.items()})
    assert row_to_str(dim, k, row, den) == oracle.form_to_str(a)


# -- the groups' int rows -------------------------------------------------------

FIXTURES = {
    "N6": ("(0,0,0,12,14,15+23+24)", "16+25-34"),
    "N8": ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78"),
    "T6": ("(0,0,0,0,0,0)", "12+34+56"),
    "scrambled-N6": SCRAMBLED_N6,
    # rational structure constants: dR rows in degrees 2 and 3 have pivot
    # entries 6 and 3, so the representatives are not the rows themselves
    "N6-p/q": INT_FIXTURES["N6-p/q"],
}


@lru_cache(maxsize=None)
def computed(name):
    """A calculator of the fixture and the ``compute`` table the CLI prints."""
    cfg = RunConfig("compute", *FIXTURES[name])
    code, text = cmd_compute(cfg)
    assert code == 0
    return CohomologyCalculator(_build_complex(cfg)), json.loads(text)["groups"]


@pytest.mark.parametrize("name", list(FIXTURES))
def test_printed_bases_and_representatives_equal_the_fraction_route(name):
    calc, table = computed(name)
    for g in GROUP_NAMES:
        for k in calc.legal_degrees(g):
            reps = oracle.representatives(calc, g, k)
            grp = calc.group(g, k)
            assert grp.representatives == reps, (g, k)
            assert grp.dimension == len(reps) == table[g][str(k)]["dim"]
            assert table[g][str(k)]["basis"] == [oracle.form_to_str(f) for f in reps], (g, k)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_class_coordinates_equal_the_solve_route(name):
    """On each group: a combination of the representatives shifted by the
    denominator, one representative, and a blade that may lie outside the
    numerator."""
    calc, _ = computed(name)
    for g in GROUP_NAMES:
        for k in calc.legal_degrees(g):
            grp = calc.group(g, k)
            order = blade_index(calc.dim, k)[0]
            reps = grp.representatives
            mix = Form.zero(calc.dim)
            for i, r in enumerate(reps):
                mix = mix + r * Fraction(i - 2, 3)
            if grp.denominator.ints:
                shift = grp.denominator.ints[-1]
                mix = mix + Form(calc.dim, {order[j]: 5 * v for j, v in shift.items()})
            for f in [mix, *reps[:1], Form(calc.dim, {order[-1]: 1})]:
                expected = oracle.class_coordinates(calc, grp, f)
                if expected is not None:  # the engine keeps the non-zero coordinates
                    expected = {i: c for i, c in enumerate(expected) if c}
                assert calc.class_coordinates(grp, f) == expected


@pytest.mark.parametrize("name", ["N6", "N8", "scrambled-N6", "N6-p/q"])
def test_lefschetz_power_maps_equal_the_form_route(name):
    """omega^p on classes, against L^p of each representative Form decomposed
    by the solve route."""
    calc, _ = computed(name)
    n = calc.n
    for k, p in [(k, n - k) for k in range(n + 1)] + [(1, 1)]:
        src, dst = calc.group("dR", k), calc.group("dR", k + 2 * p)
        cols = [oracle.class_coordinates(calc, dst, calc.st.L_power(r, p))
                for r in src.representatives]
        expected = OperatorMatrix.from_columns([dict(enumerate(c)) for c in cols],
                                               dst.dimension)
        assert calc.lefschetz_power_map(k, p) == expected, (k, p)
