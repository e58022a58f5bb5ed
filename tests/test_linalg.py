import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bareiss_oracle
import subspace_oracle
from symcoh import parse_form, parse_salamon
from symcoh.exterior import Form, blades
from symcoh.linalg import (
    InclusionError,
    OperatorMatrix,
    Subspace,
    det,
    echelon,
    image,
    kernel,
    quotient,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)

from form_oracle import matrix_on_blades


# -- independent dense oracle --------------------------------------------------

def naive_rank(rows, ncols):
    """Plain fraction Gaussian elimination, no pivoting cleverness."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / pv
                for j in range(ncols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols, density=0.6):
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                if v:
                    col[i] = v
        cols.append(col)
    return OperatorMatrix.from_columns(cols, nrows)


# -- kernel / image --------------------------------------------------------------

def test_kernel_zero_matrix():
    m = OperatorMatrix.from_columns([{}, {}], 2)
    assert kernel(m).dim == 2


def test_kernel_identity():
    assert kernel(OperatorMatrix.identity(3)).dim == 0


def test_kernel_of_d_on_one_forms(nil_cx):
    # closed generators span the first three coordinates
    m = matrix_on_blades(nil_cx.d, 6, 1, 2)
    ker = kernel(m)
    assert ker.dim == 3
    expected = Subspace(6, [{0: 1}, {1: 1}, {2: 1}])
    assert ker == expected


def test_image_zero_and_d(nil_cx):
    assert image(OperatorMatrix.from_columns([{}, {}], 3)).dim == 0
    m = matrix_on_blades(nil_cx.d, 6, 1, 2)
    assert image(m).dim == 3


def test_rank_matches_naive_oracle_random():
    rng = random.Random(21)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() == naive_rank(m.rows(), m.ncols)


# small entries include 0; large ones sit over small denominators
ENTRIES = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                              st.integers(1, 6)))


@st.composite
def sparse_rational_rows(draw):
    """Wide or tall sparse rows with empty rows, explicit zeros, and
    repeated and rescaled copies of drawn rows."""
    ncols = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), ENTRIES, max_size=ncols),
        max_size=12))
    if rows:
        for r in draw(st.lists(st.sampled_from(rows), max_size=3)):
            s = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            rows.insert(draw(st.integers(0, len(rows))),
                        {j: v * s for j, v in r.items()})
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(sparse_rational_rows())
def test_rref_matches_bareiss_oracle(case):
    rows, ncols = case
    before = [dict(r) for r in rows]
    pivots, out = rref(rows, ncols)
    assert rows == before
    expected = bareiss_oracle.rref(before, ncols)
    assert (pivots, [{j: Fraction(v, r[p]) for j, v in r.items()}
                     for p, r in zip(pivots, out)]) == expected
    assert all(type(v) is int for r in out for v in r.values())
    assert subspace_oracle.rref(before, ncols) == expected
    assert len(echelon(rows, ncols)) == len(bareiss_oracle.echelon(before, ncols))


def test_rank_nullity():
    rng = random.Random(22)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert kernel(m).dim + image(m).dim == m.ncols


def test_rref_idempotent_canonical():
    rng = random.Random(23)
    for _ in range(30):
        m = random_matrix(rng, 5, 5)
        piv1, rows1 = rref(m.rows(), 5)
        piv2, rows2 = rref(rows1, 5)
        assert piv1 == piv2 and rows1 == rows2


def test_det_examples():
    assert det([[2, 0], [0, 3]], 2) == 6
    assert det([[0, 1], [1, 0]], 2) == -1
    assert det([[1, 2], [2, 4]], 2) == 0
    rng = random.Random(24)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        d = det(rows, n)
        m = OperatorMatrix.from_rows(
            [{j: v for j, v in enumerate(r) if v} for r in rows], n)
        assert (d != 0) == (m.rank() == n)


# -- subspace calculus -------------------------------------------------------------

def test_sum_and_intersection_examples():
    a = Subspace(2, [{0: 1}])
    b = Subspace(2, [{1: 1}])
    assert subspace_sum(a, b) == Subspace.full(2)
    assert subspace_intersect(a, b) == Subspace.zero(2)
    assert subspace_sum(a, a) == a
    assert subspace_intersect(a, a) == a


def test_grassmann_identity_random():
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(2, 7)
        a = Subspace(n, [random_matrix(rng, n, 1).cols[0] for _ in range(rng.randint(0, n))])
        b = Subspace(n, [random_matrix(rng, n, 1).cols[0] for _ in range(rng.randint(0, n))])
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        # every intersection vector is in both
        for r in i.rows:
            assert a.contains(r) and b.contains(r)
        # oracle for the sum: stack and eliminate
        assert s.dim == naive_rank(a.rows + b.rows, n)


def test_intersection_contains_maximal():
    rng = random.Random(26)
    for _ in range(20):
        n = 5
        vecs = [random_matrix(rng, n, 1).cols[0] for _ in range(3)]
        a = Subspace(n, vecs)
        b = Subspace(n, vecs[:2])
        assert subspace_intersect(a, b) == b
        assert subspace_sum(a, b) == a


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(Subspace(2, [{0: 1}]), Subspace(3, [{0: 1}]))


# -- quotients ---------------------------------------------------------------------

def test_quotient_trivial_cases():
    z = Subspace(4, [{0: 1}, {1: 1}])
    dim, reps = quotient(z, z)
    assert dim == 0 and reps == []
    dim, reps = quotient(z, Subspace.zero(4))
    assert dim == 2 and Subspace(4, reps) == z


def test_quotient_inclusion_error():
    z = Subspace(3, [{0: 1}])
    b = Subspace(3, [{1: 1}])
    with pytest.raises(InclusionError):
        quotient(z, b)


def test_quotient_second_betti_number(nil_cx):
    z = kernel(matrix_on_blades(nil_cx.d, 6, 2, 3))
    b = image(matrix_on_blades(nil_cx.d, 6, 1, 2))
    dim, reps = quotient(z, b)
    assert dim == 5
    assert dim == z.dim - b.dim
    for r in reps:
        assert z.contains(r) and not b.contains(r)


def test_quotient_dimension_cross_check_random():
    # for a random two-step complex built as (A, B with BA = 0 via B = C(I - A pinv...))
    # simpler: quotient dim == ker dim - im dim whenever the inclusion holds
    rng = random.Random(27)
    for _ in range(20):
        m = random_matrix(rng, 5, 5)
        z = kernel(m)
        sub_rows = z.rows[: rng.randint(0, z.dim)]
        b = Subspace(5, sub_rows)
        dim, _ = quotient(z, b)
        assert dim == z.dim - b.dim


# -- canonical representation and solving ------------------------------------------

def test_subspace_equality_is_canonical():
    rng = random.Random(28)
    for _ in range(20):
        n = 5
        vecs = [random_matrix(rng, n, 1).cols[0] for _ in range(3)]
        a = Subspace(n, vecs)
        mixed = [vecs[2], vecs[0], vecs[1]]
        scaled = [dict((i, 7 * v) for i, v in vec.items()) for vec in mixed]
        assert Subspace(n, scaled) == a


def test_coordinates_and_reduce():
    s = Subspace(3, [{0: 1, 2: Fraction(1, 2)}, {1: 1}])
    v = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(1)}
    coords = s.coordinates(v)
    assert coords == {0: Fraction(2), 1: Fraction(-1)}
    assert not s.reduce(v)
    assert s.coordinates({2: Fraction(1)}) is None


def test_reduce_keeps_untouched_entries_as_given():
    """``reduce`` works in ints but returns the rational residual: a touched
    entry that cancels is dropped, and an entry that no basis row it uses
    touches stays as given, an explicit 0 included."""
    s = Subspace(3, [{0: 2, 2: 1}])
    assert s.ints == [{0: 2, 2: 1}] and s.rows == [{0: 1, 2: Fraction(1, 2)}]
    assert s.reduce({0: Fraction(1, 2), 1: 0, 2: 1}) == {1: 0, 2: Fraction(3, 4)}
    assert s.reduce({0: 4, 2: 2}) == {}
    assert s.reduce({1: 0}) == {1: 0} and not s.contains({1: 0})
    assert Subspace.zero(1).reduce({0: 0}) == {0: 0}


def test_solve_consistent_and_inconsistent():
    m = OperatorMatrix.from_columns([{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(1)}], 2)
    sol = solve(m, {0: Fraction(3), 1: Fraction(1)})
    assert sol is not None
    assert m.apply(sol) == {0: Fraction(3), 1: Fraction(1)}
    m2 = OperatorMatrix.from_columns([{0: Fraction(1)}], 2)
    assert solve(m2, {1: Fraction(1)}) is None


def test_invert_round_trip():
    rng = random.Random(29)
    done = 0
    while done < 10:
        m = random_matrix(rng, 4, 4, density=0.8)
        if m.rank() < 4:
            continue
        inv = m.invert()
        assert m @ inv == OperatorMatrix.identity(4)
        assert inv @ m == OperatorMatrix.identity(4)
        done += 1


def _stored_zeros(m: OperatorMatrix) -> list:
    return [(i, j) for j, c in enumerate(m.cols) for i, v in c.items() if not v]


def test_no_stored_entry_is_zero():
    """The constructor keeps its columns as given; every other producer of
    a matrix leaves out zero entries and stores ints, so == and is_zero can
    compare the stored columns."""
    rng = random.Random(13)
    a, b = random_matrix(rng, 5, 4), random_matrix(rng, 4, 6)
    sq = random_matrix(rng, 4, 4, density=0.9)
    while sq.rank() < 4:
        sq = random_matrix(rng, 4, 4, density=0.9)
    cancel = OperatorMatrix.combination([(2, a), (Fraction(-4, 3), a.scale(3)), (2, a)],
                                        a.nrows, a.ncols)
    made = {"compose": a @ b, "add": a + a.scale(-1), "sub": a - a, "scale": a.scale(0),
            "scale by 2/3": a.scale(Fraction(2, 3)), "cancelling combination": cancel,
            "transpose": a.transpose(), "invert": sq.invert(),
            "identity": OperatorMatrix.identity(3),
            "from_columns": OperatorMatrix.from_columns([{0: 0, 1: Fraction(1, 2)}, {2: 0}], 3),
            "from_rows": OperatorMatrix.from_rows([{0: 0, 1: Fraction(1, 3)}, {}], 2)}
    for name, m in made.items():
        assert _stored_zeros(m) == [], name
        assert all(type(v) is int for c in m.cols for v in c.values()), name
        assert type(m.den) is int and m.den > 0, name
    zero = OperatorMatrix.from_columns([{}] * a.ncols, a.nrows)
    assert (a - a).is_zero() and (a - a) == zero and a.scale(0) == zero
    assert cancel.is_zero() and cancel == zero
    assert made["from_columns"] == OperatorMatrix.from_columns([{1: Fraction(1, 2)}, {}], 3)
    assert made["from_columns"] != OperatorMatrix.from_columns([{1: Fraction(1, 2)}, {2: 1}], 3)
    assert made["from_columns"].den == 2 and made["from_columns"].cols == [{1: 1}, {}]
