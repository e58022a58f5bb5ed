"""Exact cohomology groups of the invariant complex and structure checks.

Each of the six families is a kernel modulo an image, reached only through
``CohomologyCalculator.group(name, k)``.  One table (``_family``) gives each
family's top degree, the operator of its numerator and those of its
denominator:

* ``dR``   - ker d / im d on all invariant forms, degree 0..2n;
* ``dL``   - the same for the symplectic adjoint differential;
* ``p+``   - ker del_plus / im del_plus on primitive forms, degree 0..n-1;
* ``p-``   - the same for del_minus, degree 0..n-1;
* ``d+dL`` - ker del_plus ^ ker del_minus / im del_plus del_minus, 0..n;
* ``ddL``  - ker del_plus del_minus / im del_plus + im del_minus, 0..n.

Every subspace is ``ker(op, k)`` or ``im(op, k)``, op from degree k, read
off one operator table (``_OPS``).  d and dL act on the blades, and an image
of either is eliminated on the columns outside the free set of the memoized
kernel of the same matrix (``linalg.image`` given its pivots), which checks
that rank and nullity add up.  del_plus and del_minus map primitive forms to
primitive forms, so dp, dm, their composition dpdm and the stacked "dp;dm"
(whose kernel is ker dp ^ ker dm) act in the primitive coordinates of P^k,
dim P^k columns, not C(2n, k); their images eliminate every column, and each
subspace is lifted to blades by B with no second elimination (``_lift``).
At the edge degrees the matrices are empty and so are the subspaces; only
ddL drops im del_minus at k = n, where ``split`` would divide by 0.  The
exactness lemma meets each primitive image with ker d ^ P^k, the kernel of
[d; Lambda] (``linalg.meet``).

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
from .symplectic import SymplecticComplex

GROUP_NAMES = ("dR", "dL", "p+", "p-", "d+dL", "ddL")


# op: (its matrix from degree k, given the calculator, the degree step of its
# image, and whether it acts in the primitive coordinates of P^k).  d and dL
# act on the blades; dp, dm and dpdm (del_plus del_minus) on P^k, and "dp;dm",
# the two pieces stacked, has a kernel only.
_OPS = {
    "d": (lambda c, k: c.cx.op("d", k), 1, False),
    "dL": (lambda c, k: c.cx.op("dLambda", k), -1, False),
    "dp": (lambda c, k: c.cx.del_matrices(k)[0], 1, True),
    "dm": (lambda c, k: c.cx.del_matrices(k)[1], -1, True),
    # ker and im of the composition both read it: built once
    "dpdm": (lambda c, k: memo(c._ops, ("dpdm", k), lambda: (
        c.cx.del_matrices(k - 1)[0] @ c.cx.del_matrices(k)[1])), 0, True),
    "dp;dm": (lambda c, k: OperatorMatrix.stack(*c.cx.del_matrices(k)), None, True),
}


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
        self._ops: dict = {}

    def to_vec(self, f: Form, k: int) -> dict:
        return form_to_coords(f, blade_index(self.dim, k)[1])

    # -- kernels and images ----------------------------------------------------

    def _lift(self, sub: Subspace, k: int) -> Subspace:
        """sub, in the primitive coordinates of P^k, lifted to degree-k blades
        by B_k, whose column i is row i of P^k over its pivot entry."""
        return lift_canonical(self.st.primitive_subspace(k), self.st.lift(k, 0), sub)

    def ker(self, op: str, k: int) -> Subspace:
        """The kernel of ``op`` on degree k, over the degree-k blades."""
        matrix, _, primitive = _OPS[op]

        def build():
            sub = kernel(matrix(self, k))
            return self._lift(sub, k) if primitive else sub
        return memo(self._ops, ("ker", op, k), build)

    def im(self, op: str, k: int) -> Subspace:
        """The image of ``op`` from degree k, over the blades of the degree it
        maps to; the zero space where there are no degree-k forms.  d and dL
        eliminate only the columns outside the free set of ``ker(op, k)``."""
        matrix, step, primitive = _OPS[op]
        if step is None:
            raise ValueError(f"{op} has no image in one degree")

        def build():
            if primitive:
                return self._lift(image(matrix(self, k)), k + step)
            return image(matrix(self, k), self.ker(op, k).pivots)
        return memo(self._ops, ("im", op, k), build)

    # -- groups ----------------------------------------------------------------

    def _family(self, name: str, k: int) -> tuple[int, str, list[tuple[str, int]]]:
        """The family ``name`` in degree k: its top degree, the operator whose
        kernel is its numerator and the (operator, source degree) pairs whose
        images span its denominator."""
        n = self.n
        table = {"dR": (2 * n, "d", [("d", k - 1)]),
                 "dL": (2 * n, "dL", [("dL", k + 1)]),
                 "p+": (n - 1, "dp", [("dp", k - 1)]),
                 "p-": (n - 1, "dm", [("dm", k + 1)]),
                 # ker dp ^ ker dm is the kernel of [dp; dm]
                 "d+dL": (n, "dp;dm", [("dpdm", k)]),
                 # P^(n+1) = 0, and ``split`` divides by n-k+1 there
                 "ddL": (n, "dpdm", [("dp", k - 1), *([("dm", k + 1)] if k < n else [])])}
        if name not in table:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        return table[name]

    def legal_degrees(self, name: str) -> range:
        return range(0, self._family(name, 0)[0] + 1)

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
        _, op, sources = self._family(name, k)
        images = [self.im(o, j) for o, j in sources]
        return self.ker(op, k), (images[0] if len(images) == 1 else
                                 Subspace(images[0].ambient, [r for s in images for r in s.ints]))

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
        spans = [("plus-exact", self.im("dp", k - 1))]
        if k < self.n:
            spans.append(("minus-exact", self.im("dm", k + 1)))
        if k > 0:
            spans.append(("composite-exact", self.im("dpdm", k)))
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
