"""Symplectic linear algebra on invariant forms.

``SymplecticStructure`` wraps a non-degenerate 2-form: the sl(2) triple
(L, Lambda, H), the Lefschetz decomposition into primitive pieces,
primitive-form tests, bases and coordinates, and the symplectic star.
``SymplecticComplex`` adds a Lie-algebra differential: d, its symplectic
adjoint dLambda, and the degree +1/-1 pieces of d.

L, Lambda, d, the star and del_plus/del_minus are memoised per blade in
``exterior.BladeMap``s, and so is each blade's Lefschetz decomposition,
keyed by (r, s).  The complex's one operator cache (``op``) reads d, L and
Lambda on each degree off those images once, as ``OperatorMatrix``es that
carry their own denominators; dLambda is their product.  ``SymplecticStructure.split``
splits any degree +1 operator that commutes with L into its two pieces on
the primitive basis; applied to d it gives del_plus and del_minus
(``del_images``), applied to xi ^ it gives the symbols of the primitive
complex (``symbolcheck``).  ``prim_matrix`` reads such blade-coordinate
columns in primitive coordinates.  del_plus and del_minus on a blade read
each of its Lefschetz components' pieces off the ``del_images`` columns at
the component's primitive coordinates, so the form-level operators and the
matrices come from one split of d.  Scalar operators such as 1/(H+2R+1), R
counting the omega wedges, act by eigenvalue on each Lefschetz component.
``projections`` reads the projection onto each (r, s) component once per
degree off the kept decompositions, and ``scale_rs`` sums them weighted by
the eigenvalue, evaluating it only on blocks that do not vanish.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial as _factorial, lcm
from typing import Callable

from .cealgebra import LieAlgebraSpec
from .exterior import BladeMap, Form, blade_index, form_from_coords, form_to_coords
from .linalg import OperatorMatrix, Subspace, det, kernel

RS = Callable[[int, int], int | Fraction]


class NotSymplecticError(ValueError):
    """The given 2-form is not symplectic; ``reason`` says why."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason  # "not_2form" | "degenerate" | "not_closed"


class LefschetzComponents:
    """Primitive components of a homogeneous form.

    ``components[r]`` is the primitive (k-2r)-form whose r-fold omega wedge
    (divided by r!) contributes to the form; reconstruction is exact and is
    checked at construction, as is primitivity of every component.
    """

    __slots__ = ("structure", "degree", "components")

    def __init__(self, structure: "SymplecticStructure", degree: int,
                 components: dict[int, Form], original: Form):
        self.structure = structure
        self.degree = degree
        self.components = components
        for r, b in components.items():
            if not structure.is_primitive(b):
                raise AssertionError(f"component r={r} is not primitive: {b}")
        if self.reconstruct() != original:
            raise AssertionError("Lefschetz reconstruction does not match input")

    def reconstruct(self) -> Form:
        out = Form.zero(self.structure.dim)
        for r, b in self.components.items():
            out = out + self.structure.L_power(b, r) / _factorial(r)
        return out


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
        w = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for mask, c in omega.items():
            i, j = [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]
            w[i - 1][j - 1] = c
            w[j - 1][i - 1] = -c
        self.matrix = w
        if det(w, self.dim) == 0:
            raise NotSymplecticError(
                f"omega is degenerate (det of its coefficient matrix is 0): {omega}",
                "degenerate")
        self.omega_matrix = OperatorMatrix.from_rows([dict(enumerate(r)) for r in w], self.dim)
        winv = self.omega_matrix.invert()
        if winv @ self.omega_matrix != OperatorMatrix.identity(self.dim):
            raise AssertionError("inverse bivector check failed")
        self.inverse = [[winv.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]
        pairs = [(i, j, self.inverse[i][j])
                 for i in range(self.dim) for j in range(i + 1, self.dim) if self.inverse[i][j]]
        self._L_blade = BladeMap(self.dim, lambda _, m: omega.wedge(Form(omega.dim, {m: 1})))
        self._Lambda_blade = BladeMap(self.dim, partial(self._Lambda_of_blade, pairs))
        # per blade: its Lefschetz components keyed by (r, s), a memo never applied, and its star
        self._pieces = BladeMap(self.dim, partial(
            self._pieces_of_blade, self._L_blade, self._Lambda_blade, self.n))
        self._star_blade = BladeMap(self.dim, partial(
            self._star_of_blade, self._pieces, self._L_blade, self.n))
        if not self.volume():
            raise NotSymplecticError("omega^n vanishes", "degenerate")
        self._primitive: dict[int, tuple[Subspace, list[Form], OperatorMatrix]] = {}
        self._ops: dict[tuple, OperatorMatrix | dict] = {}

    # -- sl(2) action ----------------------------------------------------

    @staticmethod
    def _Lambda_of_blade(pairs, images: BladeMap, mask: int) -> Form:
        """Contract e_j, then e_i, for each pair i < j of the bivector.  The
        two signs count the factors before e_j and before e_i, so together,
        mod 2, the factors from e_i up to but not including e_j."""
        c = {}
        for i, j, v in pairs:
            if mask >> i & 1 and mask >> j & 1:
                odd = (mask & ((1 << j) - (1 << i))).bit_count() & 1
                c[mask ^ (1 << i) ^ (1 << j)] = -v if odd else v
        return Form(images.dim, c)

    def L(self, a: Form) -> Form:
        """Wedge with omega."""
        return self._L_blade(a)

    def L_power(self, a: Form, r: int) -> Form:
        return _power(self._L_blade, a, r)

    def Lambda(self, a: Form) -> Form:
        """Contraction with the inverse bivector (degree -2)."""
        return self._Lambda_blade(a)

    def op(self, name: str, k: int) -> OperatorMatrix:
        """L or Lambda on degree k as in ``SymplecticComplex.op``."""
        if (name, k) not in self._ops:
            images, step = {"L": (self._L_blade, 2), "Lambda": (self._Lambda_blade, -2)}[name]
            self._ops[name, k] = _blade_matrix(images, k, k + step)
        return self._ops[name, k]

    def H(self, a: Form) -> Form:
        """Grading operator: multiplies the degree-k part by n-k."""
        out = Form.zero(a.dim)
        for k in a.degrees():
            out = out + a.grade(k) * (self.n - k)
        return out

    # -- Lefschetz decomposition ------------------------------------------

    def _decompose_degree(self, a: Form, k: int) -> dict[int, Form]:
        """Primitive components of a homogeneous degree-k form (closed formula)."""
        return self._decompose(self._L_blade, self._Lambda_blade, self.n, a, k)

    @staticmethod
    def _decompose(L: BladeMap, Lam: BladeMap, n: int, a: Form, k: int) -> dict[int, Form]:
        comps: dict[int, Form] = {}
        if a.is_zero():
            return comps
        max_pow = k // 2
        lam_pows = [a]
        for _ in range(max_pow):
            lam_pows.append(Lam(lam_pows[-1]))
        for r in range(max(k - n, 0), max_pow + 1):
            m = n - k + 2 * r + 1
            denom_r = 1
            for i in range(r + 1):
                denom_r *= m - i
            b = Form.zero(a.dim)
            denom_l = 1
            for l in range(max_pow - r + 1):
                denom_l *= m + l
                coeff = Fraction((-1) ** l * m * m, denom_r * denom_l * _factorial(l))
                term = lam_pows[r + l]
                if term:
                    b = b + _power(L, term, l) * coeff
            if b:
                comps[r] = b
        return comps

    @staticmethod
    def _pieces_of_blade(L: BladeMap, Lam: BladeMap, n: int, images: BladeMap, mask: int) -> dict:
        k = mask.bit_count()
        comps = SymplecticStructure._decompose(L, Lam, n, Form(images.dim, {mask: 1}), k)
        return {(r, k - 2 * r): b for r, b in comps.items()}

    def lefschetz_decompose(self, a: Form, k: int | None = None) -> LefschetzComponents:
        if a.is_zero():
            return LefschetzComponents(self, k if k is not None else 0, {}, a)
        if not a.is_homogeneous():
            raise ValueError(f"form is not homogeneous: {a}")
        deg = a.degree()
        if k is not None and k != deg:
            raise ValueError(f"form has degree {deg}, not {k}")
        return LefschetzComponents(self, deg, self._decompose_degree(a, deg), a)

    def projections(self, k: int) -> dict[tuple[int, int], OperatorMatrix]:
        """The Lefschetz projections of degree k, keyed by (r, s): Pi_{r,s}
        maps a blade to its (r, s) component L^r b / r!, b from ``_pieces``.
        Built once per degree."""
        if ("Pi", k) not in self._ops:
            keys = sorted({rs for m in blade_index(self.dim, k)[0] for rs in self._pieces[m]})
            self._ops["Pi", k] = {rs: _blade_matrix(BladeMap(self.dim, partial(
                _lefschetz_piece, self._pieces, self._L_blade, rs)), k, k) for rs in keys}
        return self._ops["Pi", k]

    def scale_rs(self, fn: RS, k: int, operand: OperatorMatrix | None = None) -> OperatorMatrix:
        """The sum of fn(r, s) Pi_{r,s} on degree k, times ``operand`` if
        given.  fn is evaluated only on the blocks Pi_{r,s} operand that are
        not zero: a component that cancels is never scaled, and one that
        survives where fn divides by 0 raises."""
        size = len(blade_index(self.dim, k)[0])
        terms = [(fn(r, s), block) for (r, s), p in self.projections(k).items()
                 if not (block := p if operand is None else p @ operand).is_zero()]
        return OperatorMatrix.combination(terms, size, size if operand is None else operand.ncols)

    # -- primitive forms ---------------------------------------------------

    def is_primitive(self, a: Form) -> bool:
        return self.Lambda(a).is_zero()

    def _primitive_data(self, k: int) -> tuple[Subspace, list[Form], OperatorMatrix]:
        """Kernel of Lambda in blade coordinates (0 outside 0..n), its basis
        forms, and the matrix B_k whose columns are those forms' blade
        coordinates."""
        cached = self._primitive.get(k)
        if cached is not None:
            return cached
        order = blade_index(self.dim, k)[0]
        sub = kernel(self.op("Lambda", k)) if 0 <= k <= self.n else Subspace(len(order))
        forms = [form_from_coords(row, order, self.dim) for row in sub.rows]
        # basis row i is int row i over its pivot q_i: B_k is over lcm(q_i)
        qs = [r[p] for p, r in zip(sub.pivots, sub.ints)]
        den = lcm(*qs)
        cols = [{j: v * (den // q) for j, v in r.items()} for q, r in zip(qs, sub.ints)]
        data = self._primitive[k] = (sub, forms, OperatorMatrix(len(order), sub.dim, cols, den))
        return data

    def _prim_forms(self, k: int) -> list[Form]:
        """The primitive basis of degree k; empty outside 0..n."""
        return self._primitive_data(k)[1]

    def primitive_basis(self, k: int) -> list[Form]:
        """Canonical basis of the primitive degree-k forms (kernel of Lambda)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"primitive degree must be in 0..{self.n}, got {k}")
        return list(self._primitive_data(k)[1])

    def primitive_subspace(self, k: int) -> Subspace:
        """Primitive forms as a subspace over the degree-k blade basis, in
        which ``prim_matrix`` reads primitive coordinates."""
        return self._primitive_data(k)[0]

    # -- primitive coordinates -----------------------------------------------

    def lift(self, vec: dict, k: int) -> dict:
        """Degree-k blade coordinates of the form with primitive coordinates
        ``vec``."""
        return self._primitive_data(k)[2].apply(vec)

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
        db = d @ self._primitive_data(k)[2]
        dm = (self.op("Lambda", k + 1) @ db).scale(Fraction(1, self.n - k + 1))
        dp = db - self.op("L", k - 1) @ dm
        self.check_primitive(dp, k + 1, f"a primitive piece from degree {k}")
        self.check_primitive(dm, k - 1, f"a primitive piece from degree {k}")
        return dp, dm

    # -- symplectic star ----------------------------------------------------

    @staticmethod
    def _star_of_blade(pieces: BladeMap, L: BladeMap, n: int, images: BladeMap, mask: int) -> Form:
        out = Form.zero(images.dim)
        for (r, s), b in pieces[mask].items():
            p = n - r - s
            out = out + _power(L, b, p) * Fraction((-1) ** (s * (s + 1) // 2), _factorial(p))
        return out

    def star(self, a: Form) -> Form:
        """Symplectic star: reflects Lefschetz components across the middle."""
        return self._star_blade(a)

    def volume(self) -> Form:
        """omega^n / n!."""
        return self.L_power(Form.scalar(self.dim, 1), self.n) / _factorial(self.n)


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
    and the two primitive pieces of d.  d is split once per degree
    (``del_images``); on a form, del_plus and del_minus read each primitive
    Lefschetz component's pieces off those columns.  The closed formulas
    for the pieces, the star route for dLambda and the projection route,
    which decomposes d of each component, are their oracles in the test
    suite.
    """

    def __init__(self, algebra: LieAlgebraSpec, omega: Form):
        if algebra.dim != omega.dim:
            raise ValueError(
                f"algebra dimension {algebra.dim} != omega dimension {omega.dim}")
        self.algebra = algebra
        self.structure = SymplecticStructure(omega)
        d_omega = algebra.d(omega)
        if d_omega:
            raise NotSymplecticError(
                f"omega is not closed: d(omega) = {d_omega}", "not_closed")
        self.omega = omega
        self.dim = algebra.dim
        self.n = self.structure.n
        self._ops: dict[tuple, OperatorMatrix | tuple] = {}
        # per blade: both pieces of d, read off ``del_images``, a memo never applied;
        # then each piece
        self._del_pieces = BladeMap(self.dim, partial(
            self._del_pieces_of_blade, self.structure, algebra._d_blade, self._ops))
        self._del_blade = [BladeMap(self.dim, partial(
            self._del_of_blade, self._del_pieces, which)) for which in (0, 1)]
        # on a form: del_plus keeps the primitive part of d on each Lefschetz
        # component, del_minus the omega-wedge part
        self.del_plus, self.del_minus = self._del_blade

    # convenience passthroughs
    def d(self, a: Form) -> Form:
        return self.algebra.d(a)

    def L(self, a: Form) -> Form:
        return self.structure.L(a)

    def Lambda(self, a: Form) -> Form:
        return self.structure.Lambda(a)

    def H(self, a: Form) -> Form:
        return self.structure.H(a)

    def primitive_basis(self, k: int) -> list[Form]:
        return self.structure.primitive_basis(k)

    def star(self, a: Form) -> Form:
        return self.structure.star(a)

    def op(self, name: str, k: int) -> OperatorMatrix:
        """"d", "L", "Lambda" or "dLambda" on the degree-k blades, built once
        per complex, with dLambda_k = d_{k-2} Lambda_k - Lambda_{k+1} d_k."""
        if name not in ("d", "dLambda"):
            return self.structure.op(name, k)
        if name == "d":
            return self._d_op(self.algebra._d_blade, self._ops, k)
        if (name, k) not in self._ops:
            self._ops[name, k] = (self.op("d", k - 2) @ self.op("Lambda", k)
                                  - self.op("Lambda", k + 1) @ self.op("d", k))
        return self._ops[name, k]

    # ``op("d")`` and ``del_images`` on the cache dict alone, so that the
    # per-blade del memo can build them without holding the complex
    @staticmethod
    def _d_op(d_blade: BladeMap, ops: dict, k: int) -> OperatorMatrix:
        if ("d", k) not in ops:
            ops["d", k] = _blade_matrix(d_blade, k, k + 1)
        return ops["d", k]

    @staticmethod
    def _del_images(st: SymplecticStructure, d_blade: BladeMap, ops: dict,
                    k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        if ("del", k) not in ops:
            ops["del", k] = st.split(SymplecticComplex._d_op(d_blade, ops, k), k)
        return ops["del", k]

    # -- primitive pieces of d ----------------------------------------------

    @staticmethod
    def _del_pieces_of_blade(st: SymplecticStructure, d_blade: BladeMap, ops: dict,
                             images: BladeMap, mask: int) -> tuple[Form, Form]:
        """(del_plus, del_minus) of one blade: each Lefschetz component's two
        pieces are the ``del_images`` columns at its primitive coordinates,
        wedged with omega^r/r!."""
        out = [Form.zero(st.dim), Form.zero(st.dim)]
        for (r, s), b in st._pieces[mask].items():
            coords = st.primitive_subspace(s).coordinates(
                form_to_coords(b, blade_index(st.dim, s)[1]))
            if coords is None:
                raise AssertionError(f"Lefschetz component ({r}, {s}) is not primitive: {b}")
            pieces = SymplecticComplex._del_images(st, d_blade, ops, s)
            for which, (m, k) in enumerate(zip(pieces, (s + 1, s - 1))):
                if col := m.apply(coords):
                    piece = form_from_coords(col, blade_index(st.dim, k)[0], st.dim)
                    out[which] = out[which] + st.L_power(piece, r) / _factorial(r)
        return out[0], out[1]

    @staticmethod
    def _del_of_blade(pieces: BladeMap, which: int, images: BladeMap, mask: int) -> Form:
        """Piece ``which`` (0: del_plus, 1: del_minus) of one blade."""
        return pieces[mask][which]

    def del_images(self, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """``SymplecticStructure.split`` of d on degree k, built once: the
        columns of P and M are del_plus and del_minus of the primitive basis
        in blade coordinates."""
        return self._del_images(self.structure, self.algebra._d_blade, self._ops, k)

    def del_matrices(self, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
        """(del_plus: P^k -> P^{k+1}, del_minus: P^k -> P^{k-1}) in primitive
        coordinates, exact, built once per degree from ``del_images``; the
        projection routes ``del_plus``/``del_minus`` are their oracle."""
        cached = self._ops.get(("del_matrices", k))
        if cached is None:
            dp, dm = self.del_images(k)
            prim = self.structure.prim_matrix
            cached = self._ops["del_matrices", k] = (prim(dp, k + 1), prim(dm, k - 1))
        return cached

def _power(op: BladeMap, a: Form, r: int) -> Form:
    for _ in range(r):
        a = op(a)
    return a


def _lefschetz_piece(pieces: BladeMap, L: BladeMap, rs: tuple[int, int],
                     images: BladeMap, mask: int) -> Form:
    """The (r, s) component L^r b / r! of one blade, b from ``pieces``."""
    b = pieces[mask].get(rs)
    return _power(L, b, rs[0]) / _factorial(rs[0]) if b else Form.zero(images.dim)


def _blade_matrix(images: BladeMap, k_from: int, k_to: int) -> OperatorMatrix:
    """The matrix of a blade map from degree k_from to k_to, read off the
    map's memoised blade images."""
    idx = blade_index(images.dim, k_to)[1]
    return OperatorMatrix.from_columns([form_to_coords(images[m], idx)
                                        for m in blade_index(images.dim, k_from)[0]], len(idx))
