"""Exact cohomology groups of the invariant complex and structure checks.

Six families are computed as exact quotients with canonical representatives,
each reached only through ``CohomologyCalculator.group(name, k)``, which
checks k against ``legal_degrees`` and reads the family's numerator and
denominator off ``_spaces``:

* ``dR``    - kernel/image of d on all invariant forms, degree 0..2n;
* ``dL``    - same for the symplectic adjoint differential;
* ``p+``    - primitive forms killed by the degree +1 piece of d, modulo its
              image, degree 0..n-1;
* ``p-``    - the degree -1 analogue, degree 0..n-1;
* ``d+dL``  - primitive forms killed by both pieces, modulo the image of
              their second-order composition, degree 0..n;
* ``ddL``   - primitive forms killed by the composition, modulo the sum of
              both first-order images, degree 0..n.

del_plus and del_minus map primitive forms to primitive forms, so the four
primitive families are quotients of subspaces of P^k, eliminated in its
primitive coordinates (dim P^k columns, not C(2n, k)) and lifted by B_k with
no second elimination (``_lift``).  Every intersection is a kernel: the d+dL
numerator is the kernel of [del_plus; del_minus], and the exactness lemma
meets each span with ker d ^ P^k, the kernel of [d; Lambda] (``linalg.meet``).

The images of d and dL are eliminated on the columns outside the free set of
the memoized kernel of the same matrix (``linalg.image`` given the kernel's
pivots), which checks that rank and nullity add up; the primitive spans
eliminate every column.

Before every quotient the denominator is checked to lie inside the
numerator; a failure indicates a broken operator, never bad input.  Every
subspace and group is built once by ``linalg.memo`` into the calculator's
one cache, ``_ops``.  A group keeps ``quotient``'s int rows; its
representative Forms are built on read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .exterior import Form, blade_index, form_to_coords, row_to_str
from .linalg import (OperatorMatrix, Subspace, differing_row, image, kernel, lift_canonical,
                     meet, memo, quotient)
from .reports import CheckResult
from .symplectic import SymplecticComplex, _size

GROUP_NAMES = ("dR", "dL", "p+", "p-", "d+dL", "ddL")


class DegreeRangeError(ValueError):
    """Requested a group outside its legal degree range."""


class CohomologyGroup(namedtuple("CohomologyGroup",
                                 "name degree rows numerator denominator form_dim")):
    """numerator/denominator in degree k: ``rows`` are ``quotient``'s (pivot,
    int row) pairs and ``form_dim`` is 2n, the dimension of the forms."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def representatives(self) -> list[Form]:
        """Each row over its pivot entry, as a Form built on each read."""
        order = blade_index(self.form_dim, self.degree)[0]
        return [Form(self.form_dim, {order[j]: Fraction(v, r[p]) for j, v in r.items()})
                for p, r in self.rows]


class CohomologyCalculator:
    """All groups and checks for one (algebra, omega) fixture."""

    def __init__(self, cx: SymplecticComplex):
        self.cx = cx
        self.st = cx.structure
        self.dim = cx.dim
        self.n = cx.n
        self._del = cx.del_matrices  # (del_plus, del_minus) from P^k, primitive coordinates
        self._ops: dict = {}

    def to_vec(self, f: Form, k: int) -> dict:
        return form_to_coords(f, blade_index(self.dim, k)[1])

    # -- full-complex subspaces ----------------------------------------------

    def ker_d(self, k: int) -> Subspace:
        return memo(self._ops, ("ker_d", k), lambda: kernel(self.cx.op("d", k)))

    def im_d(self, k: int) -> Subspace:
        """Image of d inside degree k, from the columns of d_(k-1) outside
        ker_d(k - 1)'s free set."""
        if k == 0:
            return Subspace.zero(_size(self.dim, 0))
        return memo(self._ops, ("im_d", k),
                    lambda: image(self.cx.op("d", k - 1), self.ker_d(k - 1).pivots))

    def ker_dl(self, k: int) -> Subspace:
        return memo(self._ops, ("ker_dl", k), lambda: kernel(self.cx.op("dLambda", k)))

    def im_dl(self, k: int) -> Subspace:
        if k == 2 * self.n:
            return Subspace.zero(_size(self.dim, k))
        return memo(self._ops, ("im_dl", k),
                    lambda: image(self.cx.op("dLambda", k + 1), self.ker_dl(k + 1).pivots))

    # -- primitive operator spaces -------------------------------------------
    # Each is eliminated in the primitive coordinates of P^k, on ``_del``'s
    # pieces, and lifted to blades by ``_lift``.

    def _lift(self, sub: Subspace, k: int) -> Subspace:
        """sub, in the primitive coordinates of P^k, lifted to degree-k blades
        by B_k, whose column i is row i of P^k over its pivot entry."""
        return lift_canonical(self.st.primitive_subspace(k), self.st.lift(k, 0), sub)

    def _dpdm(self, k: int) -> OperatorMatrix:
        """del_plus del_minus on P^k in primitive coordinates."""
        return memo(self._ops, ("dpdm", k), lambda: self._del(k - 1)[0] @ self._del(k)[1])

    def dp_span(self, k: int) -> Subspace:
        """Image of the degree +1 piece on primitive degree-k forms; 0 for
        k = -1, as P^-1 = 0."""
        return memo(self._ops, ("dp_span", k), lambda: self._lift(image(self._del(k)[0]), k + 1))

    def dm_span(self, k: int) -> Subspace:
        """Image of the degree -1 piece on primitive degree-k forms."""
        return memo(self._ops, ("dm_span", k), lambda: self._lift(image(self._del(k)[1]), k - 1))

    def dpdm_span(self, k: int) -> Subspace:
        return memo(self._ops, ("dpdm_span", k), lambda: self._lift(image(self._dpdm(k)), k))

    def ker_dp(self, k: int) -> Subspace:
        return memo(self._ops, ("ker_dp", k), lambda: self._lift(kernel(self._del(k)[0]), k))

    def ker_dm(self, k: int) -> Subspace:
        return memo(self._ops, ("ker_dm", k), lambda: self._lift(kernel(self._del(k)[1]), k))

    def ker_dpdm(self, k: int) -> Subspace:
        return memo(self._ops, ("ker_dpdm", k), lambda: self._lift(kernel(self._dpdm(k)), k))

    # -- groups ----------------------------------------------------------------

    def legal_degrees(self, name: str) -> range:
        top = {"dR": 2 * self.n, "dL": 2 * self.n, "p+": self.n - 1, "p-": self.n - 1,
               "d+dL": self.n, "ddL": self.n}
        if name not in top:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        return range(0, top[name] + 1)

    def group(self, name: str, k: int) -> CohomologyGroup:
        """The group ``name`` in degree k, built once."""
        if k not in (degrees := self.legal_degrees(name)):
            raise DegreeRangeError(f"{name} degree must be in 0..{degrees.stop - 1}, got {k}")
        return memo(self._ops, ("group", name, k),
                    lambda: self._finish(name, k, *self._spaces(name, k)))

    def _finish(self, name: str, k: int, num: Subspace, den: Subspace) -> CohomologyGroup:
        return CohomologyGroup(name, k, quotient(num, den), num, den, self.dim)

    def _spaces(self, name: str, k: int) -> tuple[Subspace, Subspace]:
        """The numerator and denominator of the group ``name`` in degree k."""
        if name == "dR":
            return self.ker_d(k), self.im_d(k)
        if name == "dL":
            return self.ker_dl(k), self.im_dl(k)
        if name == "p+":
            return self.ker_dp(k), self.dp_span(k - 1)
        if name == "p-":
            return self.ker_dm(k), self.dm_span(k + 1)
        if name == "d+dL":
            # ker P ^ ker M is the kernel of [P; M]
            return (self._lift(kernel(OperatorMatrix.stack(*self._del(k))), k),
                    self.dpdm_span(k))
        # ddL: over the sum of both first-order images, P^(n+1) = 0
        rows = [*self.dp_span(k - 1).ints, *(self.dm_span(k + 1).ints if k < self.n else [])]
        return self.ker_dpdm(k), Subspace(_size(self.dim, k), rows)

    # -- class arithmetic -------------------------------------------------------

    def class_coordinates(self, g: CohomologyGroup, f: Form | dict) -> dict | None:
        """The non-zero coordinates {i: c} of [f] (a Form or its blade
        coordinates) over the representatives, or None if f is not in the
        numerator.  f's residual modulo the denominator is read sparsely at
        the numerator's pivots: it is 0 at the denominator's, which are among
        them, and numerator row r is kept row r - (denominator pivots before)."""
        v = f if isinstance(f, dict) else self.to_vec(f, g.degree)
        if not g.numerator.contains(v):
            return None
        index, dpiv = g.numerator.index, g.denominator.pivots
        return {index[p] - bisect_left(dpiv, p): Fraction(c)
                for p, c in g.denominator.reduce(v).items() if p in index}

    # -- structure checks ---------------------------------------------------------

    def _witness(self, k: int, a: Subspace, b: Subspace) -> str:
        """A basis row of a that b lacks, else one of b that a lacks, printed."""
        r = differing_row(a, b)
        return row_to_str(self.dim, k, r, r[min(r)])  # over its pivot, its first column

    def lefschetz_power_map(self, k: int, power: int) -> OperatorMatrix:
        """Matrix of wedging with omega^power on classes: H^k -> H^{k+2*power},
        built once per (k, power)."""
        return memo(self._ops, ("lefschetz", k, power), lambda: self._power_map(k, power))

    def _power_map(self, k: int, power: int) -> OperatorMatrix:
        src = self.group("dR", k)
        dst = self.group("dR", k + 2 * power)
        cols = []
        for p, row in src.rows:
            target = row
            for j in range(k, k + 2 * power, 2):
                target = self.st.op("L", j).apply(target)
            coords = self.class_coordinates(dst, target)
            if coords is None:
                raise AssertionError("image of a closed form is not closed")
            cols.append({i: c / row[p] for i, c in coords.items()})
        return OperatorMatrix.from_columns(cols, dst.dimension)

    def check_strong_lefschetz(self) -> CheckResult:
        """Bijectivity of omega^(n-k): H^k -> H^(2n-k) for every k <= n, plus
        the one-step diagnostic omega: H^1 -> H^3 when n >= 2."""
        details = []
        for k in range(self.n + 1):
            rank = self.lefschetz_power_map(k, self.n - k).rank()
            src_dim = self.group("dR", k).dimension
            dst_dim = self.group("dR", 2 * self.n - k).dimension
            if not src_dim == dst_dim == rank:
                details.append(
                    f"omega^{self.n - k}: H^{k} -> H^{2 * self.n - k} "
                    f"has rank {rank} (dims {src_dim}, {dst_dim})")
        holds = not details
        if self.n >= 2:
            ker_dim = self.diagnostic_one_step_kernel().dim
            details.append(
                f"omega: H^1 -> H^3 {'injective' if ker_dim == 0 else 'not injective'}")
        return CheckResult("strong-lefschetz", holds, details)

    def diagnostic_one_step_kernel(self) -> Subspace:
        """Kernel of omega: H^1 -> H^3 in class coordinates of H^1."""
        return kernel(self.lefschetz_power_map(1, 1))

    def exactness_conditions(self, k: int) -> list[tuple[str, Subspace]]:
        """The d-closed primitive degree-k forms that are exact under
        del_plus, del_minus (k < n) and del_plus del_minus (k > 0): each span
        met with ker d ^ P^k, the kernel of [d; Lambda]."""
        closed = self.cx.op("d", k).stack(self.cx.op("Lambda", k))
        spans = [("plus-exact", self.dp_span(k - 1))]
        if k < self.n:
            spans.append(("minus-exact", self.dm_span(k + 1)))
        if k > 0:
            spans.append(("composite-exact", self.dpdm_span(k)))
        return [(label, meet(span, closed)) for label, span in spans]

    def check_ddlambda_lemma(self) -> CheckResult:
        """For d-closed primitive forms, exactness under the two first-order
        pieces and under their composition must be one and the same subspace;
        reports the first witness otherwise.  Also records co-occurrence with
        the strong Lefschetz property."""
        details = []
        for k in range(self.n + 1):
            for (la, sa), (lb, sb) in combinations(self.exactness_conditions(k), 2):
                if sa != sb:
                    big, small, b_label, s_label = (
                        (sa, sb, la, lb) if sa.dim >= sb.dim else (sb, sa, lb, la))
                    details.append(f"k={k}: {b_label} and {s_label} differ; "
                                   f"witness {self._witness(k, big, small)}")
        ok = not details
        sl = self.check_strong_lefschetz()
        details.append(f"strong Lefschetz {'holds' if sl.passed else 'fails'}; "
                       f"exactness lemma {'holds' if ok else 'fails'}")
        return CheckResult("ddlambda-lemma", ok, details)

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
