"""Finite-dimensional Hodge theory on the invariant complex.

A compatible triple (omega, J, g) is built exactly: symplectic Gram-Schmidt
over Q gives a basis T in which J is the standard rotation, g(x, y) =
omega(x, Jy), and all three are ``OperatorMatrix``es.  The triple checks g
positive definite by its leading minors, read off one fraction-free pass
over g's int columns (``linalg.leading_minors``).  On each degree the
splitting operator, i^(p-q) on the (p, q) component, is a compound of J^T,
and the Gram matrix of the blades for the metric g induces is a compound of
g^-1 = T T^T (Cauchy-Binet, ``exterior.compound``): the two rows, "jay"
and "gram", of the triple's operator table (``exterior.BladeOperators``),
each built once per degree, read by ``op(name, k)`` and applied to a Form
by ``apply(name, form)``.  The test suite's oracle reads the Gram matrix by
the star route, integrating a ^ *a' against the Liouville volume.

``HodgeTheory`` reads the blade Gram matrices off its triple's table and
works on int matrices over the primitive bases, each built once per degree
by ``linalg.memo`` into its one cache, ``_ops``: the primitive Gram
B^T G_k B, B = ``lift(k, 0)``, and its inverse, the pieces of d and their
adjoints, and each harmonic space, the kernel of its Laplacian checked
against the kernel of d_out stacked on d_in*.  Two pieces of the Hodge
decomposition with basis matrices A and B are orthogonal iff A^T (G B) = 0.
The pairing matrix lifts the p+ classes, in primitive coordinates, by
``lift(k, n-k)`` = L^{n-k}/(n-k)! and reads each top coefficient against
the p- rows through the signed permutation ``top_dual``.  The
splitting-conjugation check reads del_plus and del_minus on the blades off
the complex's table and compares matrix identities multiplied through by
blade Gram matrices, so it inverts none.
A failing check names its witness forms, printed by ``exterior.row_to_str``.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import CohomologyCalculator
from .exterior import (BladeOperators, blade_index, compound, counterexample, row_to_str,
                       wedge_sign)
from .linalg import (OperatorMatrix, Subspace, differing_row, image, kernel, leading_minors,
                     memo, vec_dot)
from .reports import CheckResult
from .symplectic import SymplecticComplex, SymplecticStructure, _size


def darboux_basis(structure: SymplecticStructure,
                  order: list[int] | None = None) -> list[tuple[dict, dict]]:
    """Symplectic Gram-Schmidt: pairs (u_i, v_i) with omega(u_i, v_j) = d_ij.

    ``order`` permutes which coordinate vectors seed the pivoting; any order
    yields a valid basis (used to exhibit metric independence).
    """
    dim = structure.dim
    w = structure.omega_matrix
    seq = list(order) if order is not None else list(range(dim))
    if sorted(seq) != list(range(dim)):
        raise ValueError("order must be a permutation of 0..2n-1")
    remaining = [{c: Fraction(1)} for c in seq]
    pairs = []
    while remaining:
        u = remaining.pop(0)
        if not u:
            raise AssertionError("degenerate vector during symplectic reduction")
        partner = None
        for idx, cand in enumerate(remaining):
            val = vec_dot(u, w.apply(cand))
            if val:
                partner = idx
                break
        if partner is None:
            raise AssertionError("no symplectic partner found; omega degenerate?")
        v = {j: c / val for j, c in remaining.pop(partner).items()}
        projected = []
        for x in remaining:
            w_x = w.apply(x)
            wx, ux = vec_dot(v, w_x), vec_dot(u, w_x)
            y = dict(x)
            for j, c in u.items():
                y[j] = y.get(j, 0) + wx * c
            for j, c in v.items():
                y[j] = y.get(j, 0) - ux * c
            projected.append({j: c for j, c in y.items() if c})
        remaining = projected
        pairs.append((u, v))
    return pairs


class CompatibleTriple(BladeOperators):
    """omega together with an exact compatible complex structure and metric.

    Its operators are the compounds of J^T and of g^-1 on each degree
    (``exterior.compound``).  "jay" is the splitting operator, which sends
    e_i to row i of J and multiplies each (p, q) component by i^(p - q);
    "gram" sends e_i to row i of g^-1, so it is the Gram matrix of the
    degree-k blades (Cauchy-Binet), checked symmetric."""

    OPS = {"jay": (lambda t, k: k, lambda t, k: t._compound("jay", k)),
           "gram": (lambda t, k: k, lambda t, k: t._compound("gram", k))}

    def __init__(self, structure: SymplecticStructure, order: list[int] | None = None):
        self.structure = structure
        self.dim = dim = structure.dim
        n = structure.n
        pairs = darboux_basis(structure, order)
        self.basis = OperatorMatrix.from_columns([c for pair in pairs for c in pair], dim)
        basis_inv = self.basis.invert()
        jstd = OperatorMatrix(dim, dim, [c for j in range(n)
                                         for c in ({2 * j + 1: 1}, {2 * j: -1})])
        self.J = self.basis @ jstd @ basis_inv
        w_mat = structure.omega_matrix
        self.metric = w_mat @ self.J
        self._validate(w_mat)
        # The basis is orthonormal for g, so g^-1 = basis basis^T.  Each of J
        # and g^-1 induces an algebra map on forms, whose blade matrices are
        # its compounds (``OPS``).
        ginv = self.basis @ self.basis.transpose()
        if ginv @ self.metric != OperatorMatrix.identity(dim):
            raise AssertionError("basis basis^T is not the inverse metric")
        self._generators = {"jay": self.J.transpose(), "gram": ginv}
        self._ops: dict = {}

    def _validate(self, w_mat: OperatorMatrix):
        dim = self.structure.dim
        g = self.metric
        if (self.J @ self.J) != OperatorMatrix.identity(dim).scale(-1):
            raise AssertionError("J^2 != -1")
        if g != g.transpose():
            raise AssertionError("metric is not symmetric")
        # g is 1 in the Darboux basis, so only a metric set by hand fails this;
        # den > 0, so each minor of g has the sign of the int minor
        if any(minor <= 0 for minor in leading_minors(g)):
            raise AssertionError("metric is not positive definite")
        if (self.J.transpose() @ w_mat @ self.J) != w_mat:
            raise AssertionError("J does not preserve omega")

    def _compound(self, name: str, k: int) -> OperatorMatrix:
        lower = self.op(name, k - 1) if 0 < k <= self.dim else None
        m = compound(self._generators[name], k, lower)
        if name == "gram" and m != m.transpose():
            raise AssertionError(f"Gram matrix at degree {k} is not symmetric")
        return m


def build_triple(omega, order: list[int] | None = None) -> CompatibleTriple:
    """Compatible triple for a non-degenerate 2-form (or structure)."""
    st = omega if isinstance(omega, SymplecticStructure) else SymplecticStructure(omega)
    return CompatibleTriple(st, order)


# ---------------------------------------------------------------------------
# inner product and adjoints
# ---------------------------------------------------------------------------

def adjoint_in_bases(op: OperatorMatrix, gram_dom_inverse: OperatorMatrix,
                     gram_cod: OperatorMatrix) -> OperatorMatrix:
    """Adjoint of op: dom -> cod, given the inverse of the domain's Gram
    matrix and the codomain's Gram matrix in arbitrary bases."""
    return gram_dom_inverse @ op.transpose() @ gram_cod


def top_dual(dim: int, k: int) -> OperatorMatrix:
    """The signed permutation sending the degree-k coordinates of b to the
    degree-(dim - k) coordinates of c with vec_dot(a, c) = (a ^ b)[top] for
    every form a: c[I] = eps(I, I^c) b[I^c], eps the sign of e_I ^ e_{I^c}."""
    top = (1 << dim) - 1
    at = blade_index(dim, dim - k)[1]
    return OperatorMatrix(len(at), _size(dim, k), [
        {at[top ^ m]: wedge_sign(top ^ m, m)} for m in blade_index(dim, k)[0]])


def _printed(dim: int, k: int, lift: OperatorMatrix, vecs: list[dict]) -> list[str]:
    """The printed degree-k forms with blade coordinates lift·v, for the int
    vectors v."""
    m = lift @ OperatorMatrix(lift.ncols, len(vecs), vecs)
    return [row_to_str(dim, k, c, m.den) for c in m.cols]


# ---------------------------------------------------------------------------
# harmonic theory on the primitive complex
# ---------------------------------------------------------------------------

class HodgeTheory:
    """Laplacians, harmonic spaces and structure checks for one fixture."""

    def __init__(self, cx: SymplecticComplex, triple: CompatibleTriple | None = None):
        self.cx = cx
        self.st = cx.structure
        self.n = cx.n
        self.dim = cx.dim
        self.triple = triple if triple is not None else CompatibleTriple(self.st)
        if self.triple.structure.omega != self.st.omega:
            raise ValueError("triple was built for a different omega")
        self._ops: dict = {}

    # -- primitive-basis plumbing ----------------------------------------

    def prim_gram(self, k: int) -> OperatorMatrix:
        """B^T G_k B, B = lift(k, 0) the primitive basis in blade coordinates
        and G_k the blade Gram matrix."""
        return memo(self._ops, ("prim_gram", k), lambda: (
            b := self.st.lift(k, 0)).transpose() @ self.triple.op("gram", k) @ b)

    def prim_gram_inverse(self, k: int) -> OperatorMatrix:
        return memo(self._ops, ("prim_gram_inv", k), lambda: self.prim_gram(k).invert())

    # -- harmonic spaces ---------------------------------------------------

    def _updown(self, which: str, k: int) -> tuple[OperatorMatrix, ...]:
        """The piece of d leaving P^k, the one arriving in P^k, and their
        adjoints, formed once per (which, k); outside 0..n a primitive
        space is 0."""
        return memo(self._ops, ("updown", which, k), lambda: self._adjoints(which, k))

    def _adjoints(self, which: str, k: int) -> tuple[OperatorMatrix, ...]:
        if which not in ("plus", "minus"):
            raise ValueError("which must be 'plus' or 'minus'")
        if not 0 <= k < self.n:
            raise ValueError(f"harmonic degree must be in 0..{self.n - 1}, got {k}")
        # plus: P^k -> P^{k+1} and P^{k-1} -> P^k; minus: P^k -> P^{k-1} and P^{k+1} -> P^k
        piece, step = (0, 1) if which == "plus" else (1, -1)
        d_out = self.cx.del_matrices(k)[piece]
        d_in = self.cx.del_matrices(k - step)[piece]
        return (d_out, d_in,
                adjoint_in_bases(d_out, self.prim_gram_inverse(k), self.prim_gram(k + step)),
                adjoint_in_bases(d_in, self.prim_gram_inverse(k - step), self.prim_gram(k)))

    def laplacian(self, k: int, which: str) -> OperatorMatrix:
        d_out, d_in, d_out_star, d_in_star = self._updown(which, k)
        return d_in @ d_in_star + d_out_star @ d_out

    def harmonic_space(self, k: int, which: str) -> Subspace:
        """Kernel of the Laplacian on P^k in primitive coordinates, computed
        once per (k, which); checked against ker(d) ^ ker(d*), the kernel of
        the two stacked."""
        return memo(self._ops, ("harmonic", k, which), lambda: self._harmonic(k, which))

    def _harmonic(self, k: int, which: str) -> Subspace:
        d_out, _, _, d_in_star = self._updown(which, k)
        via_laplacian = kernel(self.laplacian(k, which))
        via_kernels = kernel(d_out.stack(d_in_star))
        if via_laplacian != via_kernels:
            raise AssertionError(
                "harmonic space differs between Laplacian kernel and ker(d) ^ ker(d*)")
        return via_laplacian

    def harmonic_dimension(self, k: int, which: str) -> int:
        return self.harmonic_space(k, which).dim

    # -- structure checks ----------------------------------------------------

    def check_hodge_decomposition(self, k: int, which: str) -> CheckResult:
        """P^k = harmonic + image + coimage, orthogonal with matching dims.
        With A and B the basis matrices of two pieces, they are orthogonal iff
        A^T (G B) = 0, G the primitive Gram; a failure names the pair of basis
        forms at its first non-zero entry."""
        name = f"hodge-decomposition(k={k}, {which})"
        g_k = self.prim_gram(k)
        _, d_in, d_out_star, _ = self._updown(which, k)
        pieces = [("harmonic", self.harmonic_space(k, which)), ("image", image(d_in)),
                  ("coimage", image(d_out_star))]
        details = []
        dims = [s.dim for _, s in pieces]
        if sum(dims) != g_k.nrows:
            details.append(f"dimensions {'+'.join(map(str, dims))} != {g_k.nrows}")
        mats = [OperatorMatrix(g_k.nrows, s.dim, s.ints) for _, s in pieces]
        for j in (1, 2):
            g_b = g_k @ mats[j]
            for i in range(j):
                entries = [(r, c) for c, col in enumerate((mats[i].transpose() @ g_b).cols)
                           for r in col]
                if entries:
                    r, c = min(entries)
                    a, b = _printed(self.dim, k, self.st.lift(k, 0),
                                    [mats[i].cols[r], mats[j].cols[c]])
                    details.append(f"{pieces[i][0]} not orthogonal to {pieces[j][0]}: "
                                   f"<{a}, {b}> != 0")
        return CheckResult(name, not details, details)

    def check_jay_conjugation(self, k: int) -> CheckResult:
        """Conjugating del_plus by the splitting operator gives the adjoint of
        del_minus times the eigenvalue of H+R, and dually; exact over Q.

        With G the blade Gram matrices, adjoint(del_minus) is
        G_{k+1}^-1 del_minus^T G_k and adjoint(del_plus) is
        G_k^-1 del_plus^T G_{k+1}.  Both identities are compared multiplied
        through by G_{k+1} and G_k, which are positive definite because the
        metric is (``CompatibleTriple._validate``), so no Gram matrix is
        inverted and each comparison is equivalent to the identity.  A failure
        names the first blade column where the two sides differ."""
        name = f"jay-conjugation(k={k})"
        n, st = self.n, self.st
        jk, jk1 = self.triple.op("jay", k), self.triple.op("jay", k + 1)
        m_dp, m_dm = self.cx.op("del_plus", k), self.cx.op("del_minus", k + 1)
        g_k, g_k1 = self.triple.op("gram", k), self.triple.op("gram", k + 1)
        s_hr_k = st.scale_rs(lambda r, s: n - r - s, k)
        details = []
        # the splitting operator squares to (-1)^k on degree k
        jk_inv = jk.scale((-1) ** k)
        # J del_plus J^-1 = adjoint(del_minus) (H+R), times G_{k+1}
        if w := counterexample(self.dim, k, 1, g_k1 @ jk1 @ m_dp @ jk_inv,
                               m_dm.transpose() @ g_k @ s_hr_k):
            details.append(f"conjugate of del_plus != adjoint(del_minus) (H+R): {w}")
        # J adjoint(del_plus) J^-1 = (H+R) del_minus, conjugated back by J
        # and times G_k
        if w := counterexample(self.dim, k + 1, -1, m_dp.transpose() @ g_k1,
                               g_k @ jk_inv @ s_hr_k @ m_dm @ jk1):
            details.append(f"conjugate of adjoint(del_plus) != (H+R) del_minus: {w}")
        if k < n:
            h, b_k = self.harmonic_space(k, "plus"), st.lift(k, 0)
            mapped = jk @ (b_k @ OperatorMatrix(h.ambient, h.dim, h.ints))
            st.check_primitive(mapped, k, "the splitting operator on harmonic(+)")
            reached, minus = image(st.prim_matrix(mapped, k)), self.harmonic_space(k, "minus")
            if reached != minus:
                w = _printed(self.dim, k, b_k, [differing_row(reached, minus)])[0]
                details.append("splitting operator does not map harmonic(+) onto harmonic(-); "
                               f"witness {w}")
        return CheckResult(name, not details, details)

    def pairing_matrix(self, k: int, plus: list[tuple[int, dict]],
                       minus: list[tuple[int, dict]]) -> OperatorMatrix:
        """Gram matrix of the duality pairing between degree-k classes:
        entry (i, j) integrates omega^(n-k)/(n-k)! ^ b_plus_i ^ b_minus_j.
        ``plus`` and ``minus`` are (pivot, int row) pairs in blade
        coordinates, each row over its pivot entry a b (``CohomologyGroup``'s
        rows).  The b_plus, read in primitive coordinates, are lifted by
        ``lift(k, n-k)``, and each top coefficient is read against
        ``top_dual`` of a b_minus."""
        size = _size(self.dim, k)
        plus_prim = self.st.prim_matrix(OperatorMatrix.over_pivots(plus, size), k)
        dual = top_dual(self.dim, k) @ OperatorMatrix.over_pivots(minus, size)
        return (self.st.lift(k, self.n - k) @ plus_prim).transpose() @ dual

    def _pairing_witness(self, k: int, pm: OperatorMatrix, plus: list[tuple[int, dict]],
                         minus: list[tuple[int, dict]]) -> str:
        """A class that pairs to 0 with every class of the other family, for
        a pairing matrix ``pm`` that is not square of full rank: a p- class
        in its kernel, else a p+ class in the kernel of its transpose."""
        name, other, rows, null = next(side for side in (
            ("p-", "p+", minus, kernel(pm)), ("p+", "p-", plus, kernel(pm.transpose())))
            if side[3].dim)
        lift = OperatorMatrix.over_pivots(rows, _size(self.dim, k))
        form = _printed(self.dim, k, lift, null.ints[:1])[0]
        return f"the {name} class of {form} pairs to 0 with every {other} class"


def run_hodge_suite(cx: SymplecticComplex,
                    calc: CohomologyCalculator | None = None) -> CheckResult:
    """Harmonic dimensions vs quotients, orthogonal decomposition, splitting
    conjugation, pairing rank, elliptic index, and stability of the harmonic
    dimensions under a different symplectic basis choice.  The quotients
    come from ``calc``, a ``CohomologyCalculator`` of cx, if given."""
    details = []
    ht = HodgeTheory(cx)
    if calc is None:
        calc = CohomologyCalculator(cx)
    n = cx.n
    for k in range(n):
        for which, gname in (("plus", "p+"), ("minus", "p-")):
            hdim = ht.harmonic_dimension(k, which)
            qdim = calc.group(gname, k).dimension
            if hdim != qdim:
                details.append(f"k={k} {which}: harmonic {hdim} != quotient {qdim}")
            dec = ht.check_hodge_decomposition(k, which)
            details.extend(f"{dec.name}: {d}" for d in dec.details)
        conj = ht.check_jay_conjugation(k)
        details.extend(f"{conj.name}: {d}" for d in conj.details)
        plus, minus = calc.group("p+", k).rows, calc.group("p-", k).rows
        pm = ht.pairing_matrix(k, plus, minus)
        if not (pm.nrows == pm.ncols == pm.rank()):
            details.append(f"k={k}: pairing matrix rank-deficient; "
                           f"{ht._pairing_witness(k, pm, plus, minus)}")
    idx = calc.elliptic_index()
    if idx != 0:
        details.append(f"elliptic index = {idx}, expected 0")
    # metric independence: a second symplectic basis choice, reversed pivots
    alt = HodgeTheory(cx, CompatibleTriple(cx.structure,
                                           order=list(range(cx.dim))[::-1]))
    for k in range(n):
        for which in ("plus", "minus"):
            if alt.harmonic_dimension(k, which) != ht.harmonic_dimension(k, which):
                details.append(f"k={k} {which}: harmonic dimension depends on the metric")
    return CheckResult("hodge-suite", not details, details)
