"""Operator-identity battery for one (algebra, omega) fixture.

Every identity is linear, so it holds exactly when it holds as a matrix
equation on each degree.  Each side is an ``OperatorMatrix``, int columns
over its own denominator, and the two are compared with ``==``, A/a = B/b
as A b = B a.  The sides keep their own producers: d, L, Lambda and dLambda
come from ``SymplecticComplex.op``; del_plus and del_minus on the blades
from ``SymplecticComplex.del_blades`` and the symplectic star from
``SymplecticStructure.star_matrix``; an eigenvalue operator sigma(H, R) is
``SymplecticStructure.scale_rs``, the sum of sigma(r, s) lift(s, r) C_r.
The last three are built from the same Lefschetz components C_r and lifts
L^r/r! on P^s, which the "two routes" identities therefore share.  All
are built once per degree and kept by the complex, so a second run builds
nothing.  Degrees and blades are walked in the canonical order; only when
the two sides differ are their columns compared, and the first differing
column is the first counterexample blade, printed with both its columns
by ``exterior.counterexample``.  The star reflection and the simplified
expressions on primitive forms are checked on the primitive basis matrices,
and a primitive Form is built only to name a failing column.  The
form-by-form battery, which decomposes each blade on its own, is the test
suite's oracle.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import partial
from math import factorial

from .exterior import counterexample
from .linalg import OperatorMatrix, differing_columns, memo
from .reports import CheckResult
from .symplectic import SymplecticComplex, _size


def run_identity_suite(cx: SymplecticComplex) -> CheckResult:
    st = cx.structure
    dim, n = cx.dim, cx.n
    details: list[str] = []
    powers: dict[tuple[int, int], OperatorMatrix] = {}

    def one(k: int) -> OperatorMatrix:
        return OperatorMatrix.identity(_size(dim, k))

    def Lp(k: int, r: int) -> OperatorMatrix:
        """L^r from degree k, kept for the run: L^i = L_{k+2i-2} L^{i-1}, by a
        loop, as a recursive closure would hold the complex in a cycle."""
        for i in range(r + 1):
            p = memo(powers, (k, i), lambda: L(k + 2 * i - 2) @ p if i else one(k))
        return p

    L, Lam, d, dL = (partial(cx.op, name) for name in ("L", "Lambda", "d", "dLambda"))
    P, M, S = (lambda k: cx.del_blades(k)[0]), (lambda k: cx.del_blades(k)[1]), st.star_matrix
    sigma = st.scale_rs

    def check(name: str, shift: int, lhs, rhs) -> None:
        """lhs(k) = rhs(k), or 0 if rhs is None, from degree k to k + shift."""
        for k in range(dim + 1):
            a = lhs(k)
            b = rhs(k) if rhs else OperatorMatrix(a.nrows, a.ncols, [{}] * a.ncols)
            if witness := counterexample(dim, k, shift, a, b):
                details.append(f"{name}: {witness}")
                return

    # sl(2) commutators
    check("[Lambda,L] = H", 0, lambda k: Lam(k + 2) @ L(k) - L(k - 2) @ Lam(k),
          lambda k: one(k).scale(n - k))
    check("[H,Lambda] = 2 Lambda", -2, lambda k: Lam(k).scale(n - k + 2) + Lam(k).scale(k - n),
          lambda k: Lam(k).scale(2))
    check("[H,L] = -2 L", 2, lambda k: L(k).scale(n - k - 2) + L(k).scale(k - n),
          lambda k: L(k).scale(-2))

    # powers of L against Lambda, and the two mixed products
    for r in range(1, n + 1):
        check(f"[Lambda,L^{r}] = {r} (H+{r}-1) L^{r - 1}", 2 * r - 2,
              lambda k, r=r: Lam(k + 2 * r) @ Lp(k, r) - Lp(k - 2, r) @ Lam(k),
              lambda k, r=r: Lp(k, r - 1).scale(r * (n - k - r + 1)))
    check("L Lambda = (H+R+1) R", 0, lambda k: L(k - 2) @ Lam(k),
          lambda k: sigma(lambda r, s: r * (n - r - s + 1), k))
    check("Lambda L = (H+R) (R+1)", 0, lambda k: Lam(k + 2) @ L(k),
          lambda k: sigma(lambda r, s: (n - r - s) * (r + 1), k))

    # the splitting of d
    check("d = del_plus + L del_minus", 1, d, lambda k: P(k) + L(k - 1) @ M(k))
    check("del_plus^2 = 0", 2, lambda k: P(k + 1) @ P(k), None)
    check("del_minus^2 = 0", -2, lambda k: M(k - 1) @ M(k), None)
    check("L del_plus del_minus = -L del_minus del_plus", 2,
          lambda k: L(k) @ P(k - 1) @ M(k), lambda k: (L(k) @ M(k + 1) @ P(k)).scale(-1))
    check("[del_plus, L] = 0", 3, lambda k: P(k + 2) @ L(k), lambda k: L(k + 1) @ P(k))
    check("[L del_minus, L] = 0", 3, lambda k: L(k + 1) @ M(k + 2) @ L(k),
          lambda k: L(k + 1) @ L(k - 1) @ M(k))

    # adjoint differential: decomposition and second-order relation
    check("d_lambda = (H+R+1)^{-1} del_plus Lambda - (H+R) del_minus", -1, dL,
          lambda k: (sigma(lambda r, s: F(1, n - r - s + 1), k - 1, P(k - 2) @ Lam(k))
                     - sigma(lambda r, s: n - r - s, k - 1, M(k))))
    check("d d_lambda = -(H+2R+1) del_plus del_minus", 0, lambda k: d(k - 1) @ dL(k),
          lambda k: sigma(lambda r, s: n - s + 1, k, P(k - 1) @ M(k)).scale(-1))

    # two independent routes must agree everywhere: the star route for
    # d_lambda and the closed formulas for del_plus and del_minus
    check("d_lambda two routes", -1, dL,
          lambda k: (S(dim - k + 1) @ d(dim - k) @ S(k)).scale((-1) ** (k + 1)))
    check("del_plus two routes", 1, P,
          lambda k: sigma(lambda r, s: F(1, n - s + 1), k + 1,
                          sigma(lambda r, s: n - r - s + 1, k + 1, d(k)) + L(k - 1) @ dL(k)))
    check("del_minus two routes", -1, M,
          lambda k: sigma(lambda r, s: F(-1, (n - s + 1) * (n - r - s)), k - 1,
                          sigma(lambda r, s: n - r - s, k - 1, dL(k)) - Lam(k + 1) @ d(k)))

    # symplectic star: involution
    check("star star = 1", 0, lambda k: S(dim - k) @ S(k), one)

    # on the primitive basis matrices B_s = lift(s, 0): the star on each omega-power of a
    # primitive form reflects the power, and the simplified expressions
    for s in range(n + 1):
        b_s = st.lift(s, 0)
        sign = (-1) ** (s * (s + 1) // 2)
        bad = [set(differing_columns(
                   (S(s + 2 * r) @ Lp(s, r) @ b_s).scale(F(1, factorial(r))),
                   (Lp(s, n - r - s) @ b_s).scale(F(sign, factorial(n - r - s)))))
               for r in range(n - s + 1)]
        for j in sorted(set().union(*bad)):
            r = next(r for r, cols in enumerate(bad) if j in cols)
            details.append(f"star reflection fails at (r={r}, s={s}): {st.primitive_basis(s)[j]}")
    for s in range(n + 1):
        b_s = st.lift(s, 0)
        db = d(s) @ b_s
        lam_db, dm_b, c = Lam(s + 1) @ db, M(s) @ b_s, F(1, n - s + 1)
        checks = [(dm_b, lam_db.scale(c), "del_minus != (1/H) Lambda d"),
                  (P(s) @ b_s, db - (L(s - 1) @ lam_db).scale(c),
                   "del_plus != d - L(1/H) Lambda d"),
                  (P(s - 1) @ dm_b, (d(s - 1) @ lam_db).scale(c),
                   "del_plus del_minus != (1/(H+1)) d Lambda d"),
                  (dL(s) @ b_s, dm_b.scale(s - n - 1), "d_lambda != -H del_minus")]
        bad = [(set(differing_columns(lhs, rhs)), what) for lhs, rhs, what in checks]
        for j in sorted(set().union(*(cols for cols, _ in bad))):
            details.extend(f"{what} on {st.primitive_basis(s)[j]}"
                           for cols, what in bad if j in cols)

    return CheckResult("operator-identities", not details, details)
