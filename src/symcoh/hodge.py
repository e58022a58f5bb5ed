"""Finite-dimensional Hodge theory on the invariant complex.

A compatible triple (omega, J, g) is built exactly: a symplectic basis is
computed by linear symplectic Gram-Schmidt over the rationals, J is the
standard rotation in that basis, and g(x, y) = omega(x, Jy); omega, J and
g are ``OperatorMatrix``es, and the basis pairs vectors through omega's.  The complex
splitting operator multiplies each (p, q) component by i^(p-q); that is the
algebra automorphism induced by J on covectors, so on each degree its
matrix is a compound of J^T, an int matrix built over the rationals
(``exterior.compound``).  The inner product on forms is the one g induces.
The symplectic basis T is orthonormal for g, so g^-1 = T T^T, and the Gram
matrix of the degree-k blades is the k-th compound of g^-1
(Cauchy-Binet).  The triple builds both once per degree (``op``) and checks
each Gram matrix symmetric as it builds it.  The
Gram matrix equals integration of a ^ *a' against the Liouville volume,
normalized so that <1, 1> = 1, with * the splitting operator after the
symplectic star; that star route is the test suite's oracle.  The
primitive Gram is B^T G_k B over the primitive basis matrix B.  The
pairing matrix reads each top coefficient as a sparse dot product with the
other factor's complementary blades (``top_dual``), forming no wedge per
pair.

All harmonic spaces, adjoints and decomposition checks are exact matrix
computations over the primitive bases.  ``HodgeTheory`` reads the blade
Gram matrices off the triple and builds each primitive Gram, its inverse,
each pair of adjoints and each harmonic space once per degree by
``linalg.memo`` into its one cache, ``_ops``.  Every matrix is an ``OperatorMatrix``, int columns over one
denominator, so the Gram matrices, adjoints and Laplacians are int products
scaled once.  The splitting-conjugation check reads J on the blades off
the triple (``op``), del_plus and del_minus on the blades off the
complex's per-degree matrices (``del_blades``: the split of d applied to
each Lefschetz component C_r), and H+R off the Lefschetz projections
(``scale_rs``), and compares matrix identities multiplied through by blade
Gram matrices, so it inverts none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .cohomology import CohomologyCalculator
from .exterior import Form, _by_degree, compound, wedge_sign
from .linalg import (
    OperatorMatrix,
    Subspace,
    det,
    image,
    kernel,
    memo,
    subspace_intersect,
    vec_dot,
)
from .reports import CheckResult
from .symplectic import SymplecticComplex, SymplecticStructure, _factorial


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


class CompatibleTriple:
    """omega together with an exact compatible complex structure and metric."""

    def __init__(self, structure: SymplecticStructure, order: list[int] | None = None):
        self.structure = structure
        dim = structure.dim
        n = structure.n
        pairs = darboux_basis(structure, order)
        basis_cols = []
        for u, v in pairs:
            basis_cols.append(u)
            basis_cols.append(v)
        self.basis = OperatorMatrix.from_columns(basis_cols, dim)
        basis_inv = self.basis.invert()
        jstd = OperatorMatrix(dim, dim, [c for j in range(n)
                                         for c in ({2 * j + 1: 1}, {2 * j: -1})])
        self.J = self.basis @ jstd @ basis_inv
        w_mat = structure.omega_matrix
        self.metric = w_mat @ self.J
        self._validate(w_mat)
        # The basis is orthonormal for g, so g^-1 = basis basis^T.  Each of J
        # and g^-1 induces an algebra map on forms, whose blade matrices are
        # its compounds (``op``).
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
        # g is 1 in the Darboux basis, so only a metric set by hand fails this
        for k in range(1, dim + 1):
            minor = det([[g.entry(i, j) for j in range(k)] for i in range(k)], k)
            if minor <= 0:
                raise AssertionError("metric is not positive definite")
        if (self.J.transpose() @ w_mat @ self.J) != w_mat:
            raise AssertionError("J does not preserve omega")

    def op(self, name: str, k: int) -> OperatorMatrix:
        """"jay" or "gram" on the degree-k blades, built once per degree as
        the compound of J^T or of g^-1 (``exterior.compound``).  "jay" is the
        splitting operator, which sends e_i to row i of J and multiplies each
        (p, q) component by i^(p - q); "gram" sends e_i to row i of g^-1, so
        it is the Gram matrix of the degree-k blades (Cauchy-Binet), checked
        symmetric."""
        return memo(self._ops, (name, k), lambda: self._compound(name, k))

    def _compound(self, name: str, k: int) -> OperatorMatrix:
        lower = self.op(name, k - 1) if 0 < k <= self.structure.dim else None
        m = compound(self._generators[name], k, lower)
        if name == "gram" and m != m.transpose():
            raise AssertionError(f"Gram matrix at degree {k} is not symmetric")
        return m

    def jay(self, a: Form) -> Form:
        """The splitting operator on a form, degree by degree."""
        return _by_degree(a, self.structure.dim, partial(self.op, "jay"), lambda k: k)


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


def top_dual(b: Form) -> dict:
    """The blade-keyed vector c with vec_dot(a, c) = (a ^ b)[top] for every
    form a: c[I] = eps(I, I^c) b[I^c], eps the sign of e_I ^ e_{I^c}."""
    top = (1 << b.dim) - 1
    return {top ^ m: wedge_sign(top ^ m, m) * v for m, v in b._c.items()}


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

    def gram(self, k: int) -> OperatorMatrix:
        """The Gram matrix of <a, a'> on the degree-k blades: the k-th
        compound of g^-1, read off the triple."""
        return self.triple.op("gram", k)

    def prim_gram(self, k: int) -> OperatorMatrix:
        """B^T G_k B, B the primitive basis in blade coordinates and G_k the
        blade Gram matrix."""
        return memo(self._ops, ("prim_gram", k), lambda: (
            b := self.st._primitive_data(k)[1]).transpose() @ self.gram(k) @ b)

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
        once per (k, which); checked against ker(d) ^ ker(d*)."""
        return memo(self._ops, ("harmonic", k, which), lambda: self._harmonic(k, which))

    def _harmonic(self, k: int, which: str) -> Subspace:
        d_out, _, _, d_in_star = self._updown(which, k)
        via_laplacian = kernel(self.laplacian(k, which))
        via_kernels = subspace_intersect(kernel(d_out), kernel(d_in_star))
        if via_laplacian != via_kernels:
            raise AssertionError(
                "harmonic space differs between Laplacian kernel and ker(d) ^ ker(d*)")
        return via_laplacian

    def harmonic_dimension(self, k: int, which: str) -> int:
        return self.harmonic_space(k, which).dim

    # -- structure checks ----------------------------------------------------

    def check_hodge_decomposition(self, k: int, which: str) -> CheckResult:
        """P^k = harmonic + image + coimage, orthogonal with matching dims."""
        name = f"hodge-decomposition(k={k}, {which})"
        g_k = self.prim_gram(k)
        _, d_in, d_out_star, _ = self._updown(which, k)
        harm = self.harmonic_space(k, which)
        im_in = image(d_in)
        im_adj = image(d_out_star)
        details = []
        ok = True
        total = harm.dim + im_in.dim + im_adj.dim
        if total != g_k.nrows:
            ok = False
            details.append(f"dimensions {harm.dim}+{im_in.dim}+{im_adj.dim} != {g_k.nrows}")
        pieces = [("harmonic", harm), ("image", im_in), ("coimage", im_adj)]
        for j in (1, 2):
            g_bs = [g_k.apply(b) for b in pieces[j][1].ints]
            for i in range(j):
                for a in pieces[i][1].ints:
                    for g_b in g_bs:
                        if vec_dot(a, g_b):
                            ok = False
                            details.append(
                                f"{pieces[i][0]} not orthogonal to {pieces[j][0]}")
        return CheckResult(name, ok, details)

    def check_jay_conjugation(self, k: int) -> CheckResult:
        """Conjugating del_plus by the splitting operator gives the adjoint of
        del_minus times the eigenvalue of H+R, and dually; exact over Q.

        With G the blade Gram matrices, adjoint(del_minus) is
        G_{k+1}^-1 del_minus^T G_k and adjoint(del_plus) is
        G_k^-1 del_plus^T G_{k+1}.  Both identities are compared multiplied
        through by G_{k+1} and G_k, which are positive definite because the
        metric is (``CompatibleTriple._validate``), so no Gram matrix is
        inverted and each comparison is equivalent to the identity."""
        name = f"jay-conjugation(k={k})"
        n, st = self.n, self.st
        jk, jk1 = self.triple.op("jay", k), self.triple.op("jay", k + 1)
        m_dp, m_dm = self.cx.del_blades(k)[0], self.cx.del_blades(k + 1)[1]
        g_k, g_k1 = self.gram(k), self.gram(k + 1)
        s_hr_k = st.scale_rs(lambda r, s: n - r - s, k)
        details = []
        ok = True
        # the splitting operator squares to (-1)^k on degree k
        jk_inv = jk.scale((-1) ** k)
        # J del_plus J^-1 = adjoint(del_minus) (H+R), times G_{k+1}
        if (g_k1 @ jk1 @ m_dp @ jk_inv) != (m_dm.transpose() @ g_k @ s_hr_k):
            ok = False
            details.append("conjugate of del_plus != adjoint(del_minus) (H+R)")
        # J adjoint(del_plus) J^-1 = (H+R) del_minus, conjugated back by J
        # and times G_k
        if (m_dp.transpose() @ g_k1) != (g_k @ jk_inv @ s_hr_k @ m_dm @ jk1):
            ok = False
            details.append("conjugate of adjoint(del_plus) != (H+R) del_minus")
        if k < n:
            harm = self.harmonic_space(k, "plus").rows
            mapped = jk @ OperatorMatrix.from_columns([st.lift(r, k) for r in harm], jk.nrows)
            st.check_primitive(mapped, k, "the splitting operator on harmonic(+)")
            if image(st.prim_matrix(mapped, k)) != self.harmonic_space(k, "minus"):
                ok = False
                details.append("splitting operator does not map harmonic(+) onto harmonic(-)")
        return CheckResult(name, ok, details)

    def pairing_matrix(self, k: int, reps_plus: list[Form],
                       reps_minus: list[Form]) -> OperatorMatrix:
        """Gram matrix of the duality pairing between degree-k classes:
        entry (i, j) integrates omega^(n-k)/(n-k)! ^ b_plus_i ^ b_minus_j.
        Each b_plus_i is lifted by L^(n-k)/(n-k)! once, and the top
        coefficient is read with ``top_dual`` of b_minus_j."""
        lifted = [(self.st.L_power(b_plus, self.n - k) / _factorial(self.n - k))._c
                  for b_plus in reps_plus]
        cols = []
        for b_minus in reps_minus:
            dual = top_dual(b_minus)
            cols.append({i: v for i, a in enumerate(lifted) if (v := vec_dot(a, dual))})
        return OperatorMatrix.from_columns(cols, len(reps_plus))


def run_hodge_suite(cx: SymplecticComplex,
                    calc: CohomologyCalculator | None = None) -> CheckResult:
    """Harmonic dimensions vs quotients, orthogonal decomposition, splitting
    conjugation, pairing rank, elliptic index, and stability of the harmonic
    dimensions under a different symplectic basis choice.  The quotients
    come from ``calc``, a ``CohomologyCalculator`` of cx, if given."""
    details = []
    ok = True
    ht = HodgeTheory(cx)
    if calc is None:
        calc = CohomologyCalculator(cx)
    n = cx.n
    for k in range(n):
        for which, gname in (("plus", "p+"), ("minus", "p-")):
            hdim = ht.harmonic_dimension(k, which)
            qdim = calc.group(gname, k).dimension
            if hdim != qdim:
                ok = False
                details.append(f"k={k} {which}: harmonic {hdim} != quotient {qdim}")
            dec = ht.check_hodge_decomposition(k, which)
            if not dec.passed:
                ok = False
                details.extend(f"{dec.name}: {d}" for d in dec.details)
        conj = ht.check_jay_conjugation(k)
        if not conj.passed:
            ok = False
            details.extend(f"{conj.name}: {d}" for d in conj.details)
        pm = ht.pairing_matrix(k, calc.group("p+", k).representatives,
                               calc.group("p-", k).representatives)
        if not (pm.nrows == pm.ncols == pm.rank()):
            ok = False
            details.append(f"k={k}: pairing matrix rank-deficient")
    idx = calc.elliptic_index()
    if idx != 0:
        ok = False
        details.append(f"elliptic index = {idx}, expected 0")
    # metric independence: a second symplectic basis choice, reversed pivots
    alt = HodgeTheory(cx, CompatibleTriple(cx.structure,
                                           order=list(range(cx.dim))[::-1]))
    for k in range(n):
        for which in ("plus", "minus"):
            if alt.harmonic_dimension(k, which) != ht.harmonic_dimension(k, which):
                ok = False
                details.append(f"k={k} {which}: harmonic dimension depends on the metric")
    return CheckResult("hodge-suite", ok, details)
