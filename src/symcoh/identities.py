"""Operator-identity battery for one (algebra, omega) fixture.

Every identity is linear, so it holds exactly when it holds as a matrix
equation on each degree.  Each side is an ``OperatorMatrix``, int columns
over its own denominator, and the two are compared with ``==``, A/a = B/b
as A b = B a.  Every operator is read off the complex's one
``op(name, k)``: d, L, Lambda, dLambda, del_plus and del_minus on the
blades and the symplectic star, each built once per degree and kept by its
owner, as are the Lefschetz components C_r and the lifts L^r/r! on P^s.
An eigenvalue operator sigma(H, R) is ``SymplecticStructure.scale_rs``,
the sum of sigma(r, s) lift(s, r) C_r, times an operand if given, or a sum
of such terms, one per (sigma, operand) pair, with one lift product per
component.

Every product of these operators that two identities read is built once
per run, in the run's memo: Lambda L and L Lambda per degree, which the
sl(2) commutators and the two mixed products share; the commutators
[Lambda, L^r], by the ring identity [Lambda, L^r]_k = [Lambda,
L]_{k+2r-2} L^{r-1}_k + L_{k+2r-4} [Lambda, L^{r-1}]_k; the powers L^r,
L^1 being L itself; and L del_minus and del_plus del_minus, which the
splitting identities share.  Each family is dropped after the last
identity that reads it, so that the operators built later reuse its
memory.

Once per run and degree the battery checks that the components invert
the lifts, C_r lift(s', r') = delta_{rr'} 1, which together cost one
product of the stacked C_r with the lifts side by side.  Where that holds,
the lifts side by side are an invertible matrix, on whose block r sigma(f)
acts as f(r, s), and sigma(f) sigma(g) = sigma(fg).  So

- "L Lambda" and "Lambda L" compare their left side on each lift(s, r)
  with f(r, s) lift(s, r), building no sigma;
- each closed formula of the "two routes" for del_plus and del_minus
  fuses its nested sigmas into one sum of pairs.  In del_minus the fused
  factor of dLambda is 0 where its inner factor n-r-s vanishes, since the
  outer factor is undefined there.

Where the check fails, or a lift block differs, the degree runs the blade
route as written, so a corrupted component or lift gives the same details
and witnesses.  "d_lambda = ..." needs no check: its sum of two sigmas is
one sum of pairs by distributivity alone.  The identities whose right side
reads del_plus, del_minus or the star on the blades stay on the blades: a
shortcut that took those by construction would miss a corrupted column of
them.

Degrees and blades are walked in the canonical order; only when the two
sides differ are their columns compared, and the first differing column is
the first counterexample blade, printed with both its columns by
``exterior.counterexample``.  The star reflection and the simplified
expressions on primitive forms are checked on the primitive basis
matrices, and a primitive Form is built only to name a failing column.  The
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
from .symplectic import SymplecticComplex, SymplecticStructure, _size


def _inverts_lifts(st: SymplecticStructure, k: int) -> bool:
    """C_r lift(s', r') = delta_{rr'} 1 on degree k, s' = k-2r', for every
    pair of components: together, the stacked C_r times the lifts side by
    side is the identity.  True outside 0..2n, where there are none."""
    comps = st.lefschetz_components(k)
    lifts = {r: st.lift(k - 2 * r, r) for r in comps}
    return all(p == OperatorMatrix.identity(c.nrows) if q == r else p.is_zero()
               for r, c in comps.items() for q, m in lifts.items() for p in [c @ m])


def run_identity_suite(cx: SymplecticComplex) -> CheckResult:
    st = cx.structure
    dim, n = cx.dim, cx.n
    details: list[str] = []
    products: dict = {}

    L, Lam, d, dL, P, M, S = (partial(cx.op, name) for name in (
        "L", "Lambda", "d", "dLambda", "del_plus", "del_minus", "star"))
    sigma = st.scale_rs

    def one(k: int) -> OperatorMatrix:
        return OperatorMatrix.identity(_size(dim, k))

    def combination(*terms) -> OperatorMatrix:
        return OperatorMatrix.combination(list(terms), terms[0][1].nrows, terms[0][1].ncols)

    def Lp(k: int, r: int) -> OperatorMatrix:
        """L^r from degree k, kept for the run: L^1 = L and L^i = L_{k+2i-2}
        L^{i-1}, by a loop, as a recursive closure would hold the complex in
        a cycle."""
        if not r:
            return one(k)
        p = L(k)
        for i in range(2, r + 1):
            p = memo(products, ("L^", k, i), lambda: L(k + 2 * i - 2) @ p)
        return p

    def LamL(k: int) -> OperatorMatrix:
        return memo(products, ("Lambda L", k), lambda: Lam(k + 2) @ L(k))

    def LLam(k: int) -> OperatorMatrix:
        return memo(products, ("L Lambda", k), lambda: L(k - 2) @ Lam(k))

    def bracket(k: int) -> OperatorMatrix:
        """[Lambda, L] from degree k."""
        return memo(products, ("[Lambda,L]", k), lambda: LamL(k) - LLam(k))

    def bracket_power(k: int, r: int) -> OperatorMatrix:
        """[Lambda, L^r] from degree k, by the ring identity
        [Lambda, L^i]_k = [Lambda, L]_{k+2i-2} L^{i-1}_k + L_{k+2i-4}
        [Lambda, L^{i-1}]_k, in a loop as in ``Lp``."""
        c = bracket(k)
        for i in range(2, r + 1):
            c = memo(products, ("[Lambda,L^]", k, i), lambda: (
                bracket(k + 2 * i - 2) @ Lp(k, i - 1) + L(k + 2 * i - 4) @ c))
        return c

    def drop(*names: str) -> None:
        """Forget the run's products of these names, which no later identity
        reads, so that the operators built after them reuse their memory."""
        for key in [key for key in products if key[0] in names]:
            del products[key]

    def PM(k: int) -> OperatorMatrix:
        return memo(products, ("del_plus del_minus", k), lambda: P(k - 1) @ M(k))

    def LM(k: int) -> OperatorMatrix:
        return memo(products, ("L del_minus", k), lambda: L(k - 1) @ M(k))

    def inverts(k: int) -> bool:
        """Whether the components invert the lifts on degree k, checked once
        per run."""
        return memo(products, ("inverts", k), lambda: _inverts_lifts(st, k))

    def on_lifts(lhs, fn):
        """Where the components invert the lifts on degree k, lhs(k) =
        sigma(fn, k) exactly when lhs(k) lift(s, r) = fn(r, s) lift(s, r)
        for every component."""
        return lambda k: inverts(k) and all(
            lhs(k) @ (m := st.lift(k - 2 * r, r)) == m.scale(fn(r, k - 2 * r))
            for r in st.lefschetz_components(k))

    def check(name: str, shift: int, lhs, rhs, same=None) -> None:
        """lhs(k) = rhs(k), or 0 if rhs is None, from degree k to k + shift;
        a degree where same(k) holds is equal, and rhs(k) is not built."""
        for k in range(dim + 1):
            if same and same(k):
                continue
            a = lhs(k)
            b = rhs(k) if rhs else OperatorMatrix(a.nrows, a.ncols, [{}] * a.ncols)
            if witness := counterexample(dim, k, shift, a, b):
                details.append(f"{name}: {witness}")
                return

    # sl(2) commutators
    check("[Lambda,L] = H", 0, bracket, lambda k: one(k).scale(n - k))
    check("[H,Lambda] = 2 Lambda", -2,
          lambda k: combination((n - k + 2, Lam(k)), (k - n, Lam(k))), lambda k: Lam(k).scale(2))
    check("[H,L] = -2 L", 2,
          lambda k: combination((n - k - 2, L(k)), (k - n, L(k))), lambda k: L(k).scale(-2))

    # powers of L against Lambda, and the two mixed products
    for r in range(1, n + 1):
        check(f"[Lambda,L^{r}] = {r} (H+{r}-1) L^{r - 1}", 2 * r - 2,
              partial(bracket_power, r=r), lambda k, r=r: Lp(k, r - 1).scale(r * (n - k - r + 1)))

    def fn_l_lambda(r, s):
        return r * (n - r - s + 1)

    def fn_lambda_l(r, s):
        return (n - r - s) * (r + 1)

    check("L Lambda = (H+R+1) R", 0, LLam, partial(sigma, fn_l_lambda),
          on_lifts(LLam, fn_l_lambda))
    check("Lambda L = (H+R) (R+1)", 0, LamL, partial(sigma, fn_lambda_l),
          on_lifts(LamL, fn_lambda_l))
    drop("Lambda L", "L Lambda", "[Lambda,L]", "[Lambda,L^]")

    # the splitting of d
    check("d = del_plus + L del_minus", 1, d, lambda k: P(k) + LM(k))
    check("del_plus^2 = 0", 2, lambda k: P(k + 1) @ P(k), None)
    check("del_minus^2 = 0", -2, lambda k: M(k - 1) @ M(k), None)
    check("L del_plus del_minus = -L del_minus del_plus", 2,
          lambda k: L(k) @ PM(k), lambda k: (LM(k + 1) @ P(k)).scale(-1))
    check("[del_plus, L] = 0", 3, lambda k: P(k + 2) @ L(k), lambda k: L(k + 1) @ P(k))
    check("[L del_minus, L] = 0", 3, lambda k: LM(k + 2) @ L(k),
          lambda k: Lp(k - 1, 2) @ M(k))

    # adjoint differential: decomposition and second-order relation
    check("d_lambda = (H+R+1)^{-1} del_plus Lambda - (H+R) del_minus", -1, dL,
          lambda k: sigma([(lambda r, s: F(1, n - r - s + 1), P(k - 2) @ Lam(k)),
                           (lambda r, s: r + s - n, M(k))], k - 1))
    check("d d_lambda = -(H+2R+1) del_plus del_minus", 0, lambda k: d(k - 1) @ dL(k),
          lambda k: sigma(lambda r, s: s - n - 1, k, PM(k)))
    drop("L del_minus", "del_plus del_minus")

    # two independent routes must agree everywhere: the star route for
    # d_lambda and the closed formulas for del_plus and del_minus, fused
    # where the components invert the lifts
    def del_plus_formula(k: int) -> OperatorMatrix:
        """(H+2R+1)^{-1} [(H+R+1) d + L d_lambda] from degree k."""
        x, y = d(k), L(k - 1) @ dL(k)
        if inverts(k + 1):
            return sigma([(lambda r, s: F(n - r - s + 1, n - s + 1), x),
                          (lambda r, s: F(1, n - s + 1), y)], k + 1)
        return sigma(lambda r, s: F(1, n - s + 1), k + 1,
                     sigma(lambda r, s: n - r - s + 1, k + 1, x) + y)

    def del_minus_formula(k: int) -> OperatorMatrix:
        """-[(H+2R+1)(H+R)]^{-1} [(H+R) d_lambda - Lambda d] from degree k."""
        x, y = dL(k), Lam(k + 1) @ d(k)
        if inverts(k - 1):
            return sigma([(lambda r, s: F(-1, n - s + 1) if n - r - s else 0, x),
                          (lambda r, s: F(1, (n - s + 1) * (n - r - s)), y)], k - 1)
        return sigma(lambda r, s: F(-1, (n - s + 1) * (n - r - s)), k - 1,
                     sigma(lambda r, s: n - r - s, k - 1, x) - y)

    check("d_lambda two routes", -1, dL,
          lambda k: (S(dim - k + 1) @ d(dim - k) @ S(k)).scale((-1) ** (k + 1)))
    check("del_plus two routes", 1, P, del_plus_formula)
    check("del_minus two routes", -1, M, del_minus_formula)

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
