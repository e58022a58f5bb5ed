"""Symplectic linear algebra on invariant forms.

``SymplecticStructure`` wraps a non-degenerate 2-form: the sl(2) action of
L and Lambda, the Lefschetz decomposition into primitive pieces, primitive
bases and coordinates, and the symplectic star.  ``SymplecticComplex`` adds
a Lie-algebra differential: d, its symplectic adjoint dLambda, and the
degree +1/-1 pieces of d.

Both own blade operators (``exterior.BladeOperators``), each with one
table: the structure's rows are L, Lambda and "star", the complex's
"dLambda", "del_plus" and "del_minus", and the complex reaches its
algebra's d and its structure's rows as its parts'.  ``op(name, k)`` reads
each operator, an ``OperatorMatrix`` per degree, int columns over one
denominator, and ``apply(name, form)`` applies it to a Form.  Each matrix
is built once by ``linalg.memo`` into its owner's one cache, ``_ops``, as
are the Lefschetz pieces and the primitive bases in the structure's and
the pieces of d in primitive coordinates in the complex's; no cached value
holds its owner.  omega and its inverse
bivector are kept only as ``OperatorMatrix``es (``omega_matrix``,
``inverse``), and omega is degenerate exactly when inverting its matrix
fails.  L, Lambda and d are built on the blade masks
(``exterior.blade_operator``) from the terms of omega, of its inverse and
of the structure constants; dLambda is their product.  The primitive
degree-s forms P^s are kept as the kernel of Lambda (``primitive_subspace``),
in which ``prim_matrix`` reads primitive coordinates; ``primitive_basis``
builds their Forms on each read.

Every Lefschetz operator goes through one map, ``lift(s, r)``: L^r/r! from
the primitive coordinates of P^s to the degree s+2r blades, lift(s, 0)
being the basis matrix B_s.  Side by side, the lifts into degree k are a
basis of the degree-k forms, and the row blocks of that matrix's inverse
are the Lefschetz components C_r, each to the primitive coordinates of
P^s, s = k-2r (``lefschetz_components``).  Each other operator sums over
r a lift times a primitive-coordinate block times C_r:

- an eigenvalue operator such as 1/(H+2R+1), R counting the omega wedges:
  fn(r, s) lift(s, r) C_r, on blocks that do not vanish, or a sum of such
  operators, each times its operand, with one lift per component
  (``scale_rs``);
- the star: (-1)^{s(s+1)/2} lift(s, n-r-s) C_r;
- del_plus and del_minus on the blades: lift(s+1, r) P_s C_r and
  lift(s-1, r) M_s C_r, (P_s, M_s) the pieces of d in primitive
  coordinates (``del_matrices``).

``SymplecticStructure.split`` splits a degree +1 operator that commutes
with L into its two pieces on the primitive basis, in blade coordinates:
of d it gives (P_s, M_s), of xi ^ the symbols of the primitive complex
(``symbolcheck``).  The form-by-form Lefschetz decomposition is the test
suite's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Callable

from .cealgebra import LieAlgebraSpec
from .exterior import (
    BladeOperators,
    Form,
    blade_index,
    blade_indices,
    blade_operator,
    form_from_coords,
)
from .linalg import OperatorMatrix, Subspace, kernel, memo

RS = Callable[[int, int], int | Fraction]


class NotSymplecticError(ValueError):
    """The given 2-form is not symplectic; ``reason`` says why."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason  # "not_2form" | "degenerate" | "not_closed"


class SymplecticStructure(BladeOperators):
    """A non-degenerate 2-form with its inverse bivector and sl(2) action.

    Its operators are L, which wedges each term of omega, Lambda, which
    contracts e_j, then e_i, for each term e_ij of the inverse bivector, and
    the star, the sum over r of (-1)^{s(s+1)/2} lift(s, n-r-s) C_r, s =
    k-2r.  Closedness is not checked here (that needs a differential); see
    ``SymplecticComplex``.
    """

    OPS = {"L": (lambda st, k: k + 2,
                 lambda st, k: blade_operator(st.dim, k, k + 2, st._terms["L"])),
           "Lambda": (lambda st, k: k - 2,
                      lambda st, k: blade_operator(st.dim, k, k - 2, st._terms["Lambda"])),
           "star": (lambda st, k: st.dim - k, lambda st, k: st._star(k))}

    def __init__(self, omega: Form):
        if omega.is_zero() or omega.degrees() != {2}:
            raise NotSymplecticError(
                f"omega must be a non-zero 2-form, got {omega}", "not_2form")
        self.omega = omega
        self.dim = omega.dim
        if self.dim % 2:
            raise NotSymplecticError("ambient dimension must be even", "not_2form")
        self.n = self.dim // 2
        rows: list[dict] = [{} for _ in range(self.dim)]
        for mask, c in omega.items():
            i, j = blade_indices(mask)
            rows[i - 1][j - 1], rows[j - 1][i - 1] = c, -c
        self.omega_matrix = OperatorMatrix.from_rows(rows, self.dim)
        # the matrix is singular iff its det is 0; omega^n/n! has top
        # coefficient Pf(omega), and Pf(omega)^2 = det, so this also refuses
        # every omega whose n-th power vanishes
        try:
            self.inverse = self.omega_matrix.invert()
        except ValueError:
            raise NotSymplecticError(
                f"omega is degenerate (det of its coefficient matrix is 0): {omega}",
                "degenerate") from None
        if self.inverse @ self.omega_matrix != OperatorMatrix.identity(self.dim):
            raise AssertionError("inverse bivector check failed")
        inv = self.inverse
        self._terms = {"L": [(0, m, c) for m, c in omega.items()], "Lambda": [
            (1 << i | 1 << j, 0, Fraction(v, inv.den)) for i, row in enumerate(inv.rows())
            for j, v in row.items() if i < j]}
        self._ops: dict = {}

    # -- Lefschetz decomposition ------------------------------------------

    def lift(self, s: int, r: int) -> OperatorMatrix:
        """L^r/r! on the primitive degree-s forms, from their primitive
        coordinates to the degree s+2r blades: lift(s, 0) is B_s, whose
        column i is basis row i of P^s over its pivot entry, and lift(s, r)
        = L lift(s, r-1)/r.  No columns outside 0..n; injective for r <=
        n-s.  Built once per (s, r)."""
        if r:
            return memo(self._ops, ("lift", s, r), lambda: (
                self.op("L", s + 2 * r - 2) @ self.lift(s, r - 1)).scale(Fraction(1, r)))
        p = self.primitive_subspace(s)
        return memo(self._ops, ("lift", s, 0),
                    lambda: OperatorMatrix.over_pivots(list(zip(p.pivots, p.ints)), p.ambient))

    def lefschetz_components(self, k: int) -> dict[int, OperatorMatrix]:
        """C_r on degree k, keyed by r: a degree-k form a is the sum over r
        of L^r b_r / r! = lift(k-2r, r) C_r a, b_r primitive, and C_r a is
        b_r in primitive coordinates: row block r of the inverse of the
        lifts side by side, r from max(k-n, 0) to k/2.  No components
        outside 0..2n.  Built once per degree."""
        return memo(self._ops, ("C", k), lambda: self._components(k))

    def _components(self, k: int) -> dict[int, OperatorMatrix]:
        lifts = {r: self.lift(k - 2 * r, r) for r in range(max(k - self.n, 0), k // 2 + 1)}
        if not lifts:
            return {}
        # the lifts side by side are A; the inverse of A^T, the transposed
        # lifts stacked, is (A^-1)^T, whose column block r is C_r^T
        inv = reduce(OperatorMatrix.stack, [m.transpose() for m in lifts.values()]).invert()
        cols = iter(inv.cols)
        return {r: OperatorMatrix(inv.nrows, m.ncols, [next(cols) for _ in range(m.ncols)],
                                  inv.den).transpose() for r, m in lifts.items()}

    def scale_rs(self, fn: RS | list[tuple[RS, OperatorMatrix]], k: int,
                 operand: OperatorMatrix | None = None) -> OperatorMatrix:
        """The sum of fn(r, s) lift(s, r) C_r on degree k, times ``operand``
        if given; or, for fn a list of (fn, operand) pairs with operands of
        one shape, the sum of their terms, one lift product per component.
        Each fn is evaluated only on its blocks C_r operand that are not
        zero, as is each projected block, lift(s, r) being injective: a
        component that cancels is never scaled, and one that survives where
        fn divides by 0 raises."""
        pairs = fn if isinstance(fn, list) else [(fn, operand)]
        size, first = _size(self.dim, k), pairs[0][1]
        ncols = size if first is None else first.ncols
        terms = []
        for r, c in self.lefschetz_components(k).items():
            blocks = [(f(r, k - 2 * r), b) for f, x in pairs
                      if not (b := c if x is None else c @ x).is_zero()]
            if blocks:
                f, b = blocks[0] if len(blocks) == 1 else (
                    1, OperatorMatrix.combination(blocks, c.nrows, ncols))
                terms.append((f, self.lift(k - 2 * r, r) @ b))
        return OperatorMatrix.combination(terms, size, ncols)

    # -- primitive forms ---------------------------------------------------

    def primitive_basis(self, k: int) -> list[Form]:
        """Canonical basis of the primitive degree-k forms (kernel of Lambda),
        as Forms built on each read."""
        if not 0 <= k <= self.n:
            raise ValueError(f"primitive degree must be in 0..{self.n}, got {k}")
        order = blade_index(self.dim, k)[0]
        return [form_from_coords(row, order, self.dim) for row in self.primitive_subspace(k).rows]

    def primitive_subspace(self, k: int) -> Subspace:
        """Primitive forms as a subspace over the degree-k blade basis, the
        kernel of Lambda (0 outside 0..n), in which ``prim_matrix`` reads
        primitive coordinates.  Built once per degree."""
        return memo(self._ops, ("prim", k), lambda: kernel(self.op("Lambda", k))
                    if 0 <= k <= self.n else Subspace(_size(self.dim, k)))

    # -- primitive coordinates -----------------------------------------------

    def prim_matrix(self, m: OperatorMatrix, k: int) -> OperatorMatrix:
        """The columns of m, blade coordinates of primitive degree-k forms,
        read at the primitive pivots: m in primitive coordinates.  Unchecked;
        see ``check_primitive``."""
        p = self.primitive_subspace(k)
        return OperatorMatrix(p.dim, m.ncols, [p.at_pivots(c) for c in m.cols], m.den)

    def check_primitive(self, m: OperatorMatrix, k: int, what: str) -> None:
        """Raise AssertionError unless Lambda kills every column of m, in
        degree-k blade coordinates."""
        if not (self.op("Lambda", k) @ m).is_zero():
            raise AssertionError(f"{what} leaves the primitive forms in degree {k}")

    def split(self, d: OperatorMatrix, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """(P, M) for a degree +1 operator d on the degree-k blades that
        commutes with L: the j-th columns of P and M are the two primitive
        pieces of d on primitive basis form j, in blade coordinates, from
        D = d B_k by the closed primitive formulas del_minus =
        Lambda_{k+1} D/(n-k+1) and del_plus = D - L_{k-1} del_minus; Lambda
        kills both."""
        db = d @ self.lift(k, 0)
        dm = (self.op("Lambda", k + 1) @ db).scale(Fraction(1, self.n - k + 1))
        dp = db - self.op("L", k - 1) @ dm
        self.check_primitive(dp, k + 1, f"a primitive piece from degree {k}")
        self.check_primitive(dm, k - 1, f"a primitive piece from degree {k}")
        return dp, dm

    # -- symplectic star ----------------------------------------------------

    def _star(self, k: int) -> OperatorMatrix:
        """The star from degree k to 2n-k, reflecting each Lefschetz
        component across the middle."""
        terms = []
        for r, c in self.lefschetz_components(k).items():
            s = k - 2 * r
            terms.append(((-1) ** (s * (s + 1) // 2), self.lift(s, self.n - r - s) @ c))
        return OperatorMatrix.combination(terms, _size(self.dim, self.dim - k), _size(self.dim, k))


def standard_omega(n: int) -> Form:
    """e_{12} + e_{34} + ... + e_{2n-1,2n}."""
    out = Form.zero(2 * n)
    for j in range(n):
        out = out + Form.e(2 * n, 2 * j + 1, 2 * j + 2)
    return out


def parse_omega(text: str, dim: int) -> Form:
    """Symplectic-form input: the full form grammar, or the two-index
    shorthand ``16+25-34`` (index pairs with optional integer coefficients)."""
    from .cealgebra import _parse_structure_entry
    from .exterior import parse_form
    # a shorthand 'e' is index 14, the second index of a pair; a full-grammar
    # 'e' starts a blade and never follows an index character
    if any(ch == "e" and (i == 0 or text[i - 1] not in "123456789abcd")
           for i, ch in enumerate(text)):
        return parse_form(text, dim)
    return _parse_structure_entry(text, dim, text, 0)


# ---------------------------------------------------------------------------
# recursive primitive basis for the standard structure
# ---------------------------------------------------------------------------
# No code in the package calls this second route to the primitive bases: it
# is exported for demo 02, which prints its output under a pinned hash.

def recursive_primitive_basis(k: int, n: int) -> list[Form]:
    """Primitive-form basis for the standard omega, built by peeling off the
    first symplectic plane and recursing on dimension 2(n-1).

    Branches, in order: e_1 ^ (degree k-1 basis), e_2 ^ (degree k-1 basis),
    the corrected plane form (e_12 - omega_rest/(n-k+1)) ^ (degree k-2 basis),
    and the degree-k basis untouched by the first plane.
    """
    if n < 1:
        raise ValueError("half-dimension must be at least 1")
    if k < 0 or k > n:
        return []
    dim = 2 * n
    if k == 0:
        return [Form.scalar(dim, 1)]
    if n == 1:
        return [Form.e(dim, 1), Form.e(dim, 2)]

    def shift(b: Form) -> Form:
        return Form(dim, {m << 2: c for m, c in b.items()})

    e1, e2, e12 = Form.e(dim, 1), Form.e(dim, 2), Form.e(dim, 1, 2)
    omega_rest = Form.zero(dim)
    for j in range(2, n + 1):
        omega_rest = omega_rest + Form.e(dim, 2 * j - 1, 2 * j)
    out: list[Form] = []
    for b in recursive_primitive_basis(k - 1, n - 1):
        out.append(e1.wedge(shift(b)))
    for b in recursive_primitive_basis(k - 1, n - 1):
        out.append(e2.wedge(shift(b)))
    if k >= 2:
        corrector = e12 - omega_rest * Fraction(1, n - k + 1)
        for b in recursive_primitive_basis(k - 2, n - 1):
            out.append(corrector.wedge(shift(b)))
    for b in recursive_primitive_basis(k, n - 1):
        out.append(shift(b))
    return out


# ---------------------------------------------------------------------------
# the differential pair
# ---------------------------------------------------------------------------

class SymplecticComplex(BladeOperators):
    """A unimodular Lie-algebra differential together with a symplectic form.

    Its own operators are the symplectic adjoint differential, dLambda_k =
    d_{k-2} Lambda_k - Lambda_{k+1} d_k, and the two primitive pieces of d
    on the blades, del_plus and del_minus; ``op`` and ``apply`` reach its
    parts' d, L, Lambda and star too, which the parts keep.  d is split
    once per degree on the primitive basis and kept in primitive
    coordinates (``del_matrices``); del_plus and del_minus on the blades
    lift each Lefschetz component's pieces.  The closed formulas for the
    pieces, the star route for dLambda and the projection route, which
    decomposes d of each component, are their oracles in the test suite.
    """

    PARTS = ("algebra", "structure")
    OPS = {"dLambda": (lambda cx, k: k - 1, lambda cx, k: cx.op("d", k - 2) @ cx.op("Lambda", k)
                       - cx.op("Lambda", k + 1) @ cx.op("d", k)),
           "del_plus": (lambda cx, k: k + 1, lambda cx, k: cx._del(k, 0)),
           "del_minus": (lambda cx, k: k - 1, lambda cx, k: cx._del(k, 1))}

    def __init__(self, algebra: LieAlgebraSpec, omega: Form):
        if algebra.dim != omega.dim:
            raise ValueError(
                f"algebra dimension {algebra.dim} != omega dimension {omega.dim}")
        self.algebra = algebra
        self.structure = SymplecticStructure(omega)
        d_omega = algebra.apply("d", omega)  # d_2 omega
        if d_omega:
            raise NotSymplecticError(
                f"omega is not closed: d(omega) = {d_omega}", "not_closed")
        self.omega = omega
        self.dim = algebra.dim
        self.n = self.structure.n
        self._ops: dict = {}

    # -- primitive pieces of d ----------------------------------------------

    def _del(self, k: int, piece: int) -> OperatorMatrix:
        """Piece ``piece`` of d from the degree-k blades, 0 for del_plus and
        1 for del_minus: the sum over r of lift(s+1, r) P_s C_r or of
        lift(s-1, r) M_s C_r, where (P_s, M_s) = ``del_matrices(s)``, s =
        k-2r."""
        st, step = self.structure, 1 - 2 * piece
        return OperatorMatrix.combination(
            [(1, st.lift(k - 2 * r + step, r) @ (self.del_matrices(k - 2 * r)[piece] @ c))
             for r, c in st.lefschetz_components(k).items()],
            _size(self.dim, k + step), _size(self.dim, k))

    def del_matrices(self, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """(del_plus: P^k -> P^{k+1}, del_minus: P^k -> P^{k-1}) in primitive
        coordinates, exact: ``SymplecticStructure.split`` of d on degree k
        read at the primitive pivots, built once per degree; the projection
        routes of the test suite are their oracle."""
        st = self.structure
        return memo(self._ops, ("del_matrices", k), lambda: tuple(
            map(st.prim_matrix, st.split(self.op("d", k), k), (k + 1, k - 1))))


def _size(dim: int, k: int) -> int:
    """The number of degree-k blades; 0 outside 0..dim."""
    return len(blade_index(dim, k)[0])
