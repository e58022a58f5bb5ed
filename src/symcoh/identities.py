"""Operator-identity battery for one (algebra, omega) fixture.

Every identity is linear, so it holds exactly when it holds as a matrix
equation on each degree.  Each side is an int matrix over its own int
denominator, and A/a = B/b is tested as A b = B a.  The sides keep their own
producers: d, L, Lambda and dLambda come from ``SymplecticComplex.op``;
del_plus, del_minus and the symplectic star are read off their blade maps by
``symplectic._blade_matrix``; an eigenvalue operator sigma(H, R) is
``SymplecticStructure.scale_rs``, the sum of sigma(r, s) times the Lefschetz
projections.  Degrees and blades are walked in the canonical order, so the
first differing column is the first counterexample blade; both its columns
are rebuilt as forms for the detail.  The star reflection and the simplified
expressions on primitive forms are checked on the primitive basis matrices.
The form-by-form battery is the test suite's oracle.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import cache, partial
from math import factorial

from .exterior import Form, blade_index, form_from_coords
from .linalg import OperatorMatrix, int_combination, vec_scale
from .reports import CheckResult
from .symplectic import SymplecticComplex, _blade_matrix

Q = tuple[OperatorMatrix, int]  # M/den, M an int matrix and den an int


def _prod(*ops: Q) -> Q:
    """ops[0] ops[1] ... ops[-1], the last applied first."""
    m, den = ops[-1]
    for a, x in ops[-2::-1]:
        m, den = a @ m, x * den
    return m, den


def _sum(*terms: tuple) -> Q:
    """The sum of c A/a over the (c, (A, a)) terms, all of one shape."""
    m = terms[0][1][0]
    return int_combination([(c, a, x) for c, (a, x) in terms], m.nrows, m.ncols)


def _differs(a: Q, b: Q, j: int) -> bool:
    """Column j of A/a differs from column j of B/b: A_j b != B_j a."""
    (m, x), (p, y) = a, b
    u, v = m.cols[j], p.cols[j]
    return u != v if x == y else vec_scale(u, y) != vec_scale(v, x)


def _column(a: Q, j: int, k: int, dim: int) -> Form:
    """Column j of A/a as a degree-k form."""
    return form_from_coords({i: F(v, a[1]) for i, v in a[0].cols[j].items()},
                            blade_index(dim, k)[0], dim)


def run_identity_suite(cx: SymplecticComplex) -> CheckResult:
    st = cx.structure
    dim, n = cx.dim, cx.n
    details: list[str] = []
    ok = True

    @cache
    def blade_op(name: str, k: int) -> Q:
        """del_plus, del_minus or the star from degree k, read once per run."""
        images, to = {"del_plus": (cx.del_plus, k + 1), "del_minus": (cx.del_minus, k - 1),
                      "star": (st._star_blade, dim - k)}[name]
        return _blade_matrix(images, k, to)

    def one(k: int) -> Q:
        size = len(blade_index(dim, k)[0])
        return OperatorMatrix(size, size, [{i: 1} for i in range(size)]), 1

    def Lp(k: int, r: int) -> Q:
        """L^r from degree k."""
        return _prod(*(L(k + 2 * i) for i in reversed(range(r))), one(k))

    L, Lam, d, dL = (partial(cx.op, name) for name in ("L", "Lambda", "d", "dLambda"))
    P, M, S = (partial(blade_op, name) for name in ("del_plus", "del_minus", "star"))
    sigma = st.scale_rs

    def check(name: str, shift: int, lhs, rhs) -> None:
        """lhs(k) = rhs(k), or 0 if rhs is None, from degree k to k + shift."""
        nonlocal ok
        for k in range(dim + 1):
            a = lhs(k)
            b = rhs(k) if rhs else (OperatorMatrix(a[0].nrows, a[0].ncols, [{}] * a[0].ncols), 1)
            j = next((j for j in range(a[0].ncols) if _differs(a, b, j)), None)
            if j is not None:
                ok = False
                f = Form(dim, {blade_index(dim, k)[0][j]: 1})
                a_j, b_j = (_column(side, j, k + shift, dim) for side in (a, b))
                details.append(f"{name}: first counterexample {f}: {a_j} != {b_j}")
                return

    # sl(2) commutators
    check("[Lambda,L] = H", 0, lambda k: _sum((1, _prod(Lam(k + 2), L(k))),
                                              (-1, _prod(L(k - 2), Lam(k)))),
          lambda k: _sum((n - k, one(k))))
    check("[H,Lambda] = 2 Lambda", -2, lambda k: _sum((n - k + 2, Lam(k)), (k - n, Lam(k))),
          lambda k: _sum((2, Lam(k))))
    check("[H,L] = -2 L", 2, lambda k: _sum((n - k - 2, L(k)), (k - n, L(k))),
          lambda k: _sum((-2, L(k))))

    # powers of L against Lambda, and the two mixed products
    for r in range(1, n + 1):
        check(f"[Lambda,L^{r}] = {r} (H+{r}-1) L^{r - 1}", 2 * r - 2,
              lambda k, r=r: _sum((1, _prod(Lam(k + 2 * r), Lp(k, r))),
                                  (-1, _prod(Lp(k - 2, r), Lam(k)))),
              lambda k, r=r: _sum((r * (n - k - r + 1), Lp(k, r - 1))))
    check("L Lambda = (H+R+1) R", 0, lambda k: _prod(L(k - 2), Lam(k)),
          lambda k: sigma(lambda r, s: r * (n - r - s + 1), k))
    check("Lambda L = (H+R) (R+1)", 0, lambda k: _prod(Lam(k + 2), L(k)),
          lambda k: sigma(lambda r, s: (n - r - s) * (r + 1), k))

    # the splitting of d
    check("d = del_plus + L del_minus", 1, d,
          lambda k: _sum((1, P(k)), (1, _prod(L(k - 1), M(k)))))
    check("del_plus^2 = 0", 2, lambda k: _prod(P(k + 1), P(k)), None)
    check("del_minus^2 = 0", -2, lambda k: _prod(M(k - 1), M(k)), None)
    check("L del_plus del_minus = -L del_minus del_plus", 2,
          lambda k: _prod(L(k), P(k - 1), M(k)), lambda k: _sum((-1, _prod(L(k), M(k + 1), P(k)))))
    check("[del_plus, L] = 0", 3, lambda k: _prod(P(k + 2), L(k)), lambda k: _prod(L(k + 1), P(k)))
    check("[L del_minus, L] = 0", 3, lambda k: _prod(L(k + 1), M(k + 2), L(k)),
          lambda k: _prod(L(k + 1), L(k - 1), M(k)))

    # adjoint differential: decomposition and second-order relation
    check("d_lambda = (H+R+1)^{-1} del_plus Lambda - (H+R) del_minus", -1, dL,
          lambda k: _sum((1, sigma(lambda r, s: F(1, n - r - s + 1), k - 1,
                                   _prod(P(k - 2), Lam(k)))),
                         (-1, sigma(lambda r, s: n - r - s, k - 1, M(k)))))
    check("d d_lambda = -(H+2R+1) del_plus del_minus", 0, lambda k: _prod(d(k - 1), dL(k)),
          lambda k: _sum((-1, sigma(lambda r, s: n - s + 1, k, _prod(P(k - 1), M(k))))))

    # two independent routes must agree everywhere: the star route for
    # d_lambda and the closed formulas for del_plus and del_minus
    check("d_lambda two routes", -1, dL,
          lambda k: _sum(((-1) ** (k + 1), _prod(S(dim - k + 1), d(dim - k), S(k)))))
    check("del_plus two routes", 1, P,
          lambda k: sigma(lambda r, s: F(1, n - s + 1), k + 1, _sum(
              (1, sigma(lambda r, s: n - r - s + 1, k + 1, d(k))), (1, _prod(L(k - 1), dL(k))))))
    check("del_minus two routes", -1, M,
          lambda k: sigma(lambda r, s: F(-1, (n - s + 1) * (n - r - s)), k - 1, _sum(
              (1, sigma(lambda r, s: n - r - s, k - 1, dL(k))), (-1, _prod(Lam(k + 1), d(k))))))

    # symplectic star: involution
    check("star star = 1", 0, lambda k: _prod(S(dim - k), S(k)), one)

    # on the primitive basis matrices B_s: the star on each omega-power of a
    # primitive form reflects the power, and the simplified expressions
    for s in range(n + 1):
        b_s = st._primitive_data(s)[2:]
        sign = (-1) ** (s * (s + 1) // 2)
        sides = [(_sum((F(1, factorial(r)), _prod(S(s + 2 * r), Lp(s, r), b_s))),
                  _sum((F(sign, factorial(n - r - s)), _prod(Lp(s, n - r - s), b_s))))
                 for r in range(n - s + 1)]
        for j, b in enumerate(st.primitive_basis(s)):
            r = next((r for r, (a, c) in enumerate(sides) if _differs(a, c, j)), None)
            if r is not None:
                ok = False
                details.append(f"star reflection fails at (r={r}, s={s}): {b}")
    for s in range(n + 1):
        b_s = st._primitive_data(s)[2:]
        db = _prod(d(s), b_s)
        lam_db, dm_b, c = _prod(Lam(s + 1), db), _prod(M(s), b_s), F(1, n - s + 1)
        checks = [(dm_b, _sum((c, lam_db)), "del_minus != (1/H) Lambda d"),
                  (_prod(P(s), b_s), _sum((1, db), (-c, _prod(L(s - 1), lam_db))),
                   "del_plus != d - L(1/H) Lambda d"),
                  (_prod(P(s - 1), dm_b), _sum((c, _prod(d(s - 1), lam_db))),
                   "del_plus del_minus != (1/(H+1)) d Lambda d"),
                  (_prod(dL(s), b_s), _sum((s - n - 1, dm_b)), "d_lambda != -H del_minus")]
        for j, b in enumerate(st.primitive_basis(s)):
            for lhs, rhs, what in checks:
                if _differs(lhs, rhs, j):
                    ok = False
                    details.append(f"{what} on {b}")

    return CheckResult("operator-identities", ok, details)
