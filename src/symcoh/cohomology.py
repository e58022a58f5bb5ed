"""Exact cohomology groups of the invariant complex and structure checks.

Six families are computed as exact quotients with canonical representatives:

* ``dR``    - kernel/image of d on all invariant forms, degree 0..2n;
* ``dL``    - same for the symplectic adjoint differential;
* ``p+``    - primitive forms killed by the degree +1 piece of d, modulo its
              image, degree 0..n-1;
* ``p-``    - the degree -1 analogue, degree 0..n-1;
* ``d+dL``  - primitive forms killed by both pieces, modulo the image of
              their second-order composition, degree 0..n;
* ``ddL``   - primitive forms killed by the composition, modulo the sum of
              both first-order images, degree 0..n.

Before every quotient the denominator is checked to lie inside the
numerator; a failure indicates a broken operator, never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cealgebra import LieAlgebraSpec
from .exterior import Form, blade_index, form_from_coords, form_to_coords
from .linalg import (
    OperatorMatrix,
    Subspace,
    image,
    kernel,
    quotient,
    solve,
    subspace_intersect,
    subspace_sum,
)
from .reports import CheckResult
from .symplectic import SymplecticComplex

GROUP_NAMES = ("dR", "dL", "p+", "p-", "d+dL", "ddL")


class DegreeRangeError(ValueError):
    """Requested a group outside its legal degree range."""


@dataclass
class CohomologyGroup:
    name: str
    degree: int
    dimension: int
    representatives: list[Form]
    numerator: Subspace
    denominator: Subspace


class CohomologyCalculator:
    """All groups and checks for one (algebra, omega) fixture."""

    def __init__(self, cx: SymplecticComplex):
        self.cx = cx
        self.st = cx.structure
        self.dim = cx.dim
        self.n = cx.n
        self._cache: dict = {}

    # -- coordinates -------------------------------------------------------

    def blade_order(self, k: int) -> list[int]:
        return blade_index(self.dim, k)[0]

    def to_vec(self, f: Form, k: int) -> dict:
        return form_to_coords(f, blade_index(self.dim, k)[1])

    def to_form(self, vec: dict, k: int) -> Form:
        return form_from_coords(vec, self.blade_order(k), self.dim)

    def span_of_forms(self, forms: list[Form], k: int) -> Subspace:
        return Subspace(len(self.blade_order(k)), [self.to_vec(f, k) for f in forms])

    # -- operator matrices ---------------------------------------------------

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def d_matrix(self, k: int) -> OperatorMatrix:
        return self.cx.op("d", k)

    def dl_matrix(self, k: int) -> OperatorMatrix:
        return self.cx.op("dLambda", k)

    # -- full-complex subspaces ----------------------------------------------

    def ker_d(self, k: int) -> Subspace:
        return self._memo(("ker_d", k), lambda: kernel(self.d_matrix(k)))

    def im_d(self, k: int) -> Subspace:
        """Image of d inside degree k."""
        if k == 0:
            return Subspace.zero(len(self.blade_order(0)))
        return self._memo(("im_d", k), lambda: image(self.d_matrix(k - 1)))

    def ker_dl(self, k: int) -> Subspace:
        return self._memo(("ker_dl", k), lambda: kernel(self.dl_matrix(k)))

    def im_dl(self, k: int) -> Subspace:
        if k == 2 * self.n:
            return Subspace.zero(len(self.blade_order(k)))
        return self._memo(("im_dl", k), lambda: image(self.dl_matrix(k + 1)))

    def prim(self, k: int) -> Subspace:
        return self.st.primitive_subspace(k)

    # -- primitive operator spaces -------------------------------------------
    # The pieces of d on the primitive basis, in blade coordinates
    # (``SymplecticComplex.del_images``), span their images; kernels are
    # taken in primitive coordinates and lifted back.

    def _prim_kernel(self, m: OperatorMatrix, k_to: int, k: int) -> Subspace:
        """Kernel, in degree-k blades, of the map sending the primitive basis
        to the primitive degree-``k_to`` forms, the columns of ``m``."""
        kern = kernel(self.st.prim_matrix(m, k_to))
        b = self.st._primitive_data(k)[2]
        return Subspace(b.nrows, (b @ OperatorMatrix(b.ncols, kern.dim, kern.ints)).cols)

    def _dpdm(self, k: int) -> OperatorMatrix:
        """Blade coordinates of del_plus del_minus of the primitive degree-k
        basis."""
        return self._memo(("dpdm", k), lambda: self.cx.del_images(k - 1)[0]
                          @ self.st.prim_matrix(self.cx.del_images(k)[1], k - 1))

    def dp_span(self, k: int) -> Subspace:
        """Image of the degree +1 piece on primitive degree-k forms."""
        return self._memo(("dp_span", k), lambda: Subspace(
            len(self.blade_order(k + 1)), self.cx.del_images(k)[0].cols))

    def dm_span(self, k: int) -> Subspace:
        """Image of the degree -1 piece on primitive degree-k forms."""
        return self._memo(("dm_span", k), lambda: Subspace(
            len(self.blade_order(k - 1)), self.cx.del_images(k)[1].cols))

    def dpdm_span(self, k: int) -> Subspace:
        return self._memo(("dpdm_span", k), lambda: Subspace(
            len(self.blade_order(k)), self._dpdm(k).cols))

    def ker_dp(self, k: int) -> Subspace:
        return self._memo(("ker_dp", k), lambda: self._prim_kernel(
            self.cx.del_images(k)[0], k + 1, k))

    def ker_dm(self, k: int) -> Subspace:
        return self._memo(("ker_dm", k), lambda: self._prim_kernel(
            self.cx.del_images(k)[1], k - 1, k))

    def ker_dpdm(self, k: int) -> Subspace:
        return self._memo(("ker_dpdm", k), lambda: self._prim_kernel(self._dpdm(k), k, k))

    # -- groups ----------------------------------------------------------------

    def _finish(self, name: str, k: int, num: Subspace, den: Subspace) -> CohomologyGroup:
        dim, reps = quotient(num, den)
        return CohomologyGroup(name, k, dim, [self.to_form(r, k) for r in reps],
                               num, den)

    def de_rham(self, k: int) -> CohomologyGroup:
        if not 0 <= k <= 2 * self.n:
            raise DegreeRangeError(f"dR degree must be in 0..{2 * self.n}, got {k}")
        return self._finish("dR", k, self.ker_d(k), self.im_d(k))

    def dlambda_cohomology(self, k: int) -> CohomologyGroup:
        if not 0 <= k <= 2 * self.n:
            raise DegreeRangeError(f"dL degree must be in 0..{2 * self.n}, got {k}")
        return self._finish("dL", k, self.ker_dl(k), self.im_dl(k))

    def primitive_plus(self, k: int) -> CohomologyGroup:
        if not 0 <= k < self.n:
            raise DegreeRangeError(f"p+ degree must be in 0..{self.n - 1}, got {k}")
        den = self.dp_span(k - 1) if k >= 1 else Subspace.zero(len(self.blade_order(k)))
        return self._finish("p+", k, self.ker_dp(k), den)

    def primitive_minus(self, k: int) -> CohomologyGroup:
        if not 0 <= k < self.n:
            raise DegreeRangeError(f"p- degree must be in 0..{self.n - 1}, got {k}")
        return self._finish("p-", k, self.ker_dm(k), self.dm_span(k + 1))

    def d_plus_dlambda(self, k: int) -> CohomologyGroup:
        if not 0 <= k <= self.n:
            raise DegreeRangeError(f"d+dL degree must be in 0..{self.n}, got {k}")
        num = subspace_intersect(self.ker_dp(k), self.ker_dm(k))
        return self._finish("d+dL", k, num, self.dpdm_span(k))

    def ddlambda(self, k: int) -> CohomologyGroup:
        if not 0 <= k <= self.n:
            raise DegreeRangeError(f"ddL degree must be in 0..{self.n}, got {k}")
        den = Subspace.zero(len(self.blade_order(k)))
        if k >= 1:
            den = subspace_sum(den, self.dp_span(k - 1))
        if k + 1 <= self.n:
            den = subspace_sum(den, self.dm_span(k + 1))
        return self._finish("ddL", k, self.ker_dpdm(k), den)

    def legal_degrees(self, name: str) -> range:
        if name in ("dR", "dL"):
            return range(0, 2 * self.n + 1)
        if name in ("p+", "p-"):
            return range(0, self.n)
        if name in ("d+dL", "ddL"):
            return range(0, self.n + 1)
        raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")

    def group(self, name: str, k: int) -> CohomologyGroup:
        fn = {"dR": self.de_rham, "dL": self.dlambda_cohomology,
              "p+": self.primitive_plus, "p-": self.primitive_minus,
              "d+dL": self.d_plus_dlambda, "ddL": self.ddlambda}.get(name)
        if fn is None:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        return self._memo(("group", name, k), lambda: fn(k))

    # -- intersection groups (closed forms that happen to be primitive) --------

    def de_rham_primitive_part(self, k: int) -> CohomologyGroup:
        """(ker d ^ P^k) / (im d ^ P^k)."""
        num = subspace_intersect(self.ker_d(k), self.prim(k))
        den = subspace_intersect(self.im_d(k), self.prim(k))
        return self._finish("dR^P", k, num, den)

    def dlambda_primitive_part(self, k: int) -> CohomologyGroup:
        """(ker dL ^ P^k) / (im dL ^ P^k)."""
        num = subspace_intersect(self.ker_dl(k), self.prim(k))
        den = subspace_intersect(self.im_dl(k), self.prim(k))
        return self._finish("dL^P", k, num, den)

    # -- class arithmetic -------------------------------------------------------

    def class_coordinates(self, g: CohomologyGroup, f: Form) -> list | None:
        """Coordinates of [f] over the group's representatives, or None if f
        is not in the numerator."""
        v = self.to_vec(f, g.degree)
        if not g.numerator.contains(v):
            return None
        cols = [self.to_vec(r, g.degree) for r in g.representatives] + g.denominator.ints
        sol = solve(OperatorMatrix.from_columns(cols, len(self.blade_order(g.degree))), v)
        if sol is None:
            raise AssertionError("class decomposition failed")
        return [sol.get(i, Fraction(0)) for i in range(len(g.representatives))]

    def classes_span_equal(self, g: CohomologyGroup, forms: list[Form]) -> bool:
        """Do the given forms represent a basis of the group?

        Checked as subspace equality modulo the denominator, never as string
        equality of representatives.
        """
        for f in forms:
            if not g.numerator.contains(self.to_vec(f, g.degree)):
                return False
        if len(forms) != g.dimension:
            return False
        lifted = subspace_sum(g.denominator, self.span_of_forms(forms, g.degree))
        return lifted.dim == g.denominator.dim + g.dimension

    # -- structure checks ---------------------------------------------------------

    def check_low_degree_equivalence(self) -> CheckResult:
        """In degrees 0 and 1 the one-sided primitive groups coincide with the
        d- and dL-cohomologies: numerators and denominators agree as subspaces."""
        details = []
        ok = True
        for k in (0, 1):
            if k >= self.n:
                continue
            pp, dr = self.group("p+", k), self.group("dR", k)
            pm, dl = self.group("p-", k), self.group("dL", k)
            for label, a, b in (
                (f"p+/dR numerator k={k}", pp.numerator, dr.numerator),
                (f"p+/dR denominator k={k}", pp.denominator, dr.denominator),
                (f"p-/dL numerator k={k}", pm.numerator, dl.numerator),
                (f"p-/dL denominator k={k}", pm.denominator, dl.denominator),
            ):
                if a != b:
                    ok = False
                    details.append(f"{label}: subspaces differ ({a.dim} vs {b.dim})")
        return CheckResult("low-degree-equivalence", ok, details)

    def lefschetz_power_map(self, k: int, power: int) -> OperatorMatrix:
        """Matrix of wedging with omega^power on classes: H^k -> H^{k+2*power}."""
        src = self.group("dR", k)
        dst = self.group("dR", k + 2 * power)
        w_pow = self.st.L_power(Form.scalar(self.dim, 1), power)
        cols = []
        for rep in src.representatives:
            target = w_pow.wedge(rep)
            coords = self.class_coordinates(dst, target)
            if coords is None:
                raise AssertionError("image of a closed form is not closed")
            cols.append({i: c for i, c in enumerate(coords) if c})
        return OperatorMatrix.from_columns(cols, dst.dimension)

    def check_strong_lefschetz(self) -> CheckResult:
        """Bijectivity of omega^(n-k): H^k -> H^(2n-k) for every k <= n, plus
        the one-step diagnostic omega: H^1 -> H^3 when n >= 2."""
        details = []
        per_degree = {}
        for k in range(self.n + 1):
            m = self.lefschetz_power_map(k, self.n - k)
            src_dim = self.group("dR", k).dimension
            dst_dim = self.group("dR", 2 * self.n - k).dimension
            bij = (src_dim == dst_dim == m.rank())
            per_degree[k] = bij
            if not bij:
                details.append(
                    f"omega^{self.n - k}: H^{k} -> H^{2 * self.n - k} "
                    f"has rank {m.rank()} (dims {src_dim}, {dst_dim})")
        holds = all(per_degree.values())
        if self.n >= 2:
            diag = self.lefschetz_power_map(1, 1)
            ker_dim = kernel(diag).dim
            details.append(
                f"omega: H^1 -> H^3 {'injective' if ker_dim == 0 else 'not injective'}")
        return CheckResult("strong-lefschetz", holds, details)

    def diagnostic_one_step_kernel(self) -> Subspace:
        """Kernel of omega: H^1 -> H^3 in class coordinates of H^1."""
        return kernel(self.lefschetz_power_map(1, 1))

    def check_ddlambda_lemma(self) -> CheckResult:
        """For d-closed primitive forms, exactness under the two first-order
        pieces and under their composition must be one and the same subspace;
        reports the first witness otherwise.  Also records co-occurrence with
        the strong Lefschetz property."""
        details = []
        ok = True
        for k in range(self.n + 1):
            closed_prim = subspace_intersect(self.ker_d(k), self.prim(k))
            conditions = []
            zero = Subspace.zero(len(self.blade_order(k)))
            conditions.append(("plus-exact",
                               subspace_intersect(self.dp_span(k - 1), closed_prim)
                               if k >= 1 else zero))
            if k < self.n:
                conditions.append(("minus-exact",
                                   subspace_intersect(self.dm_span(k + 1), closed_prim)))
            if k > 0:
                conditions.append(("composite-exact",
                                   subspace_intersect(self.dpdm_span(k), closed_prim)))
            for i in range(len(conditions)):
                for j in range(i + 1, len(conditions)):
                    (la, sa), (lb, sb) = conditions[i], conditions[j]
                    if sa != sb:
                        ok = False
                        big, small, b_label, s_label = (
                            (sa, sb, la, lb) if sa.dim >= sb.dim else (sb, sa, lb, la))
                        witness = next((r for r in big.rows if not small.contains(r)), None)
                        w_str = str(self.to_form(witness, k)) if witness else "?"
                        details.append(
                            f"k={k}: {b_label} and {s_label} differ; witness {w_str}")
        sl = self.check_strong_lefschetz()
        details.append(f"strong Lefschetz {'holds' if sl.passed else 'fails'}; "
                       f"exactness lemma {'holds' if ok else 'fails'}")
        result = CheckResult("ddlambda-lemma", ok, details)
        return result

    def check_intersection_bounds(self) -> CheckResult:
        """dim p+(k) = dim p-(k) >= dim(dL-cohomology ^ P^k) at every k < n;
        when the exactness lemma holds, the one-sided groups equal the
        primitive parts of the d- and dL-cohomologies for 2 <= k < n."""
        details = []
        ok = True
        lemma = self.check_ddlambda_lemma().passed
        for k in range(self.n):
            dp = self.group("p+", k).dimension
            dm = self.group("p-", k).dimension
            d_cap = self.de_rham_primitive_part(k).dimension
            dl_cap = self.dlambda_primitive_part(k).dimension
            details.append(
                f"k={k}: p+={dp} p-={dm} dR^P={d_cap} dL^P={dl_cap}")
            if dp != dm:
                ok = False
                details.append(f"k={k}: one-sided dimensions differ")
            if dp < dl_cap:
                ok = False
                details.append(f"k={k}: lower bound violated ({dp} < {dl_cap})")
            if lemma and 2 <= k < self.n and (dp != d_cap or dm != dl_cap):
                ok = False
                details.append(f"k={k}: lemma holds but equalities fail")
        return CheckResult("intersection-bounds", ok, details)

    def elliptic_index(self) -> int:
        """Alternating dimension sum along the primitive elliptic sequence."""
        n = self.n
        idx = 0
        for k in range(n):
            idx += (-1) ** k * self.group("p+", k).dimension
        idx += (-1) ** n * self.group("ddL", n).dimension
        idx += (-1) ** (n + 1) * self.group("d+dL", n).dimension
        for j in range(1, n + 1):
            idx += (-1) ** (n + 1 + j) * self.group("p-", n - j).dimension
        return idx

    def check_index(self) -> CheckResult:
        idx = self.elliptic_index()
        return CheckResult("elliptic-index", idx == 0, [f"index = {idx}"])


def omega_dependence(algebra: LieAlgebraSpec, omegas: list[Form],
                     degree: int = 2) -> list[dict[str, int]]:
    """Dimensions of the one-sided primitive groups for several symplectic
    forms on the same algebra."""
    out = []
    for w in omegas:
        calc = CohomologyCalculator(SymplecticComplex(algebra, w))
        out.append({"p+": calc.group("p+", degree).dimension,
                    "p-": calc.group("p-", degree).dimension})
    return out
