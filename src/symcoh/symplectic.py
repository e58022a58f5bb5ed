"""Symplectic linear algebra on invariant forms.

``SymplecticStructure`` wraps a non-degenerate 2-form: the sl(2) triple
(L, Lambda, H), the Lefschetz decomposition into primitive pieces,
primitive bases and coordinates, and the symplectic star.
``SymplecticComplex`` adds a Lie-algebra differential: d, its symplectic
adjoint dLambda, and the degree +1/-1 pieces of d.

Every operator is an ``OperatorMatrix`` on each degree, int columns over
one denominator, built once by ``linalg.memo`` into its owner's one cache,
``_ops``: d in the algebra's, L, Lambda, the Lefschetz pieces and the
primitive bases in the structure's, dLambda and the pieces of d in the
complex's; no cached value holds its owner.  omega and its inverse
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
  fn(r, s) lift(s, r) C_r, on blocks that do not vanish (``scale_rs``);
- the star: (-1)^{s(s+1)/2} lift(s, n-r-s) C_r (``star_matrix``);
- del_plus and del_minus on the blades: lift(s+1, r) P_s C_r and
  lift(s-1, r) M_s C_r (``del_blades``), (P_s, M_s) the pieces of d in
  primitive coordinates (``del_matrices``).

``SymplecticStructure.split`` splits a degree +1 operator that commutes
with L into its two pieces on the primitive basis, in blade coordinates:
of d it gives (P_s, M_s), of xi ^ the symbols of the primitive complex
(``symbolcheck``).  The form-level L, Lambda and star, d of the algebra,
and del_plus and del_minus apply these matrices degree by degree; the
complex gives no second name to its parts' operators.  The form-by-form
Lefschetz decomposition is the test suite's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from typing import Callable

from .cealgebra import LieAlgebraSpec
from .exterior import (
    Form,
    _by_degree,
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


class SymplecticStructure:
    """A non-degenerate 2-form with its inverse bivector and sl(2) action.

    Closedness is not checked here (that needs a differential); see
    ``SymplecticComplex``.
    """

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
        # L wedges each term of omega; Lambda contracts e_j, then e_i, for
        # each term e_ij of the inverse bivector
        inv = self.inverse
        self._terms = {"L": (2, [(0, m, c) for m, c in omega.items()]), "Lambda": (
            -2, [(1 << i | 1 << j, 0, Fraction(v, inv.den)) for i, row in enumerate(inv.rows())
                 for j, v in row.items() if i < j])}
        self._ops: dict = {}

    # -- sl(2) action ----------------------------------------------------

    def L(self, a: Form) -> Form:
        """Wedge with omega."""
        return _by_degree(a, self.dim, partial(self.op, "L"), lambda k: k + 2)

    def L_power(self, a: Form, r: int) -> Form:
        return self.L_power(self.L(a), r - 1) if r else a

    def Lambda(self, a: Form) -> Form:
        """Contraction with the inverse bivector (degree -2)."""
        return _by_degree(a, self.dim, partial(self.op, "Lambda"), lambda k: k - 2)

    def op(self, name: str, k: int) -> OperatorMatrix:
        """L or Lambda on degree k as in ``SymplecticComplex.op``, built once
        on the blade masks from the terms of omega or of its inverse."""
        step, terms = self._terms[name]
        return memo(self._ops, (name, k), lambda: blade_operator(self.dim, k, k + step, terms))

    def H(self, a: Form) -> Form:
        """Grading operator: multiplies the degree-k part by n-k."""
        return Form(a.dim, {m: c * (self.n - m.bit_count()) for m, c in a.items()})

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

    def scale_rs(self, fn: RS, k: int, operand: OperatorMatrix | None = None) -> OperatorMatrix:
        """The sum of fn(r, s) lift(s, r) C_r on degree k, times ``operand``
        if given.  fn is evaluated only on the blocks C_r operand that are
        not zero, as is each projected block, lift(s, r) being injective:
        a component that cancels is never scaled, and one that survives
        where fn divides by 0 raises."""
        size = _size(self.dim, k)
        terms = [(fn(r, k - 2 * r), self.lift(k - 2 * r, r) @ block)
                 for r, c in self.lefschetz_components(k).items()
                 if not (block := c if operand is None else c @ operand).is_zero()]
        return OperatorMatrix.combination(terms, size, size if operand is None else operand.ncols)

    # -- primitive forms ---------------------------------------------------

    def is_primitive(self, a: Form) -> bool:
        return self.Lambda(a).is_zero()

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

    def star_matrix(self, k: int) -> OperatorMatrix:
        """The star from degree k to 2n-k: the sum over r of
        (-1)^{s(s+1)/2} lift(s, n-r-s) C_r, s = k-2r.  Built once per
        degree."""
        return memo(self._ops, ("star", k), lambda: self._star(k))

    def _star(self, k: int) -> OperatorMatrix:
        terms = []
        for r, c in self.lefschetz_components(k).items():
            s = k - 2 * r
            terms.append(((-1) ** (s * (s + 1) // 2), self.lift(s, self.n - r - s) @ c))
        return OperatorMatrix.combination(terms, _size(self.dim, self.dim - k), _size(self.dim, k))

    def star(self, a: Form) -> Form:
        """Symplectic star: reflects Lefschetz components across the middle."""
        return _by_degree(a, self.dim, self.star_matrix, lambda k: self.dim - k)


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

class SymplecticComplex:
    """A unimodular Lie-algebra differential together with a symplectic form.

    Provides d, the symplectic adjoint differential as a matrix (``op``),
    and the two primitive pieces of d; the form-level d, L, Lambda and star
    are its ``algebra``'s and ``structure``'s.  d is split once per degree
    on the primitive basis and kept in primitive coordinates
    (``del_matrices``); del_plus and del_minus on the blades lift each
    Lefschetz component's pieces (``del_blades``).  The closed formulas for
    the pieces, the star route for dLambda and the projection route, which
    decomposes d of each component, are their oracles in the test suite.
    """

    def __init__(self, algebra: LieAlgebraSpec, omega: Form):
        if algebra.dim != omega.dim:
            raise ValueError(
                f"algebra dimension {algebra.dim} != omega dimension {omega.dim}")
        self.algebra = algebra
        self.structure = SymplecticStructure(omega)
        d_omega = algebra.d(omega)  # d_2 omega
        if d_omega:
            raise NotSymplecticError(
                f"omega is not closed: d(omega) = {d_omega}", "not_closed")
        self.omega = omega
        self.dim = algebra.dim
        self.n = self.structure.n
        self._ops: dict = {}

    def op(self, name: str, k: int) -> OperatorMatrix:
        """"d", "L", "Lambda" or "dLambda" on the degree-k blades, each built
        once by its owner: d by the algebra, L and Lambda by the structure,
        and dLambda_k = d_{k-2} Lambda_k - Lambda_{k+1} d_k by the complex."""
        if name == "d":
            return self.algebra.d_matrix(k)
        if name != "dLambda":
            return self.structure.op(name, k)
        return memo(self._ops, (name, k), lambda: self.op("d", k - 2) @ self.op("Lambda", k)
                    - self.op("Lambda", k + 1) @ self.op("d", k))

    # -- primitive pieces of d ----------------------------------------------

    def del_blades(self, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """(del_plus, del_minus) from the degree-k blades: the sums over r of
        lift(s+1, r) P_s C_r and lift(s-1, r) M_s C_r, where (P_s, M_s) =
        ``del_matrices(s)``, s = k-2r.  Built once per degree."""
        st = self.structure
        return memo(self._ops, ("del_blades", k), lambda: tuple(OperatorMatrix.combination(
            [(1, st.lift(k - 2 * r + step, r) @ (self.del_matrices(k - 2 * r)[i] @ c))
             for r, c in st.lefschetz_components(k).items()],
            _size(self.dim, k + step), _size(self.dim, k)) for i, step in enumerate((1, -1))))

    def _del_piece(self, which: int, a: Form) -> Form:
        """Piece ``which`` of d on a form, 0 for del_plus and 1 for
        del_minus, through ``del_blades``."""
        return _by_degree(a, self.dim, lambda k: self.del_blades(k)[which],
                          lambda k: k + 1 - 2 * which)

    def del_plus(self, a: Form) -> Form:
        """The primitive part of d on each Lefschetz component of a."""
        return self._del_piece(0, a)

    def del_minus(self, a: Form) -> Form:
        """The omega-wedge part of d on each Lefschetz component of a."""
        return self._del_piece(1, a)

    def del_matrices(self, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """(del_plus: P^k -> P^{k+1}, del_minus: P^k -> P^{k-1}) in primitive
        coordinates, exact: ``SymplecticStructure.split`` of d on degree k
        read at the primitive pivots, built once per degree; the projection
        routes ``del_plus``/``del_minus`` are their oracle."""
        st = self.structure
        return memo(self._ops, ("del_matrices", k), lambda: tuple(
            map(st.prim_matrix, st.split(self.op("d", k), k), (k + 1, k - 1))))


def _size(dim: int, k: int) -> int:
    """The number of degree-k blades; 0 outside 0..dim."""
    return len(blade_index(dim, k)[0])
