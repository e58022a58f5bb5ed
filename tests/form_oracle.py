"""Test oracle: the form-level operator routes symcoh used before its matrices.

The engine builds d, L and Lambda as int matrices, one per degree, by bit
arithmetic on the blade masks (``exterior.blade_operator``), and the
splitting operator and the blade Gram matrix as int compound matrices of J^T
and g^-1 (``exterior.compound``).  This module keeps independent routes
that build nothing per blade and keep nothing between calls:

* ``Lambda`` is the contraction sum over the inverse bivector, with the
  bivector's pairs read off ``inverse``;
* ``L`` and ``L_power`` wedge with omega;
* ``d`` applies the Leibniz rule to every factor of every blade, left to
  right, from the generators' differentials;
* ``jay`` wedges the images of a blade's factors, each a row of J.

Sums of exact Fractions do not depend on their order, so both routes must
return equal Forms.

It also keeps the blade maps the engine read its d, L, Lambda, splitting
operator and Gram matrices off before it built them as int matrices: a
``BladeMap`` memoises one Fraction Form per blade, each built from the
images of smaller blades, and ``blade_matrix`` reads those images into an
``OperatorMatrix`` over the least denominator.  ``d_blade_map`` builds d
of a blade by the Leibniz rule on its lowest factor (``d_of_blade``),
``L_blade_map`` wedges omega with a blade, ``Lambda_blade_map`` contracts a
blade with each pair of the bivector (``Lambda_of_blade``), and
``algebra_map`` wedges the images of a blade's lowest factor and the rest
(``image_of_blade``), for J and g^-1 given the image of each covector.
``blade_matrix`` of each must equal the engine's matrix.

It also keeps the form-level primitive-coordinate route the engine used
before ``SymplecticStructure.split`` and ``prim_matrix``:

* ``prim_coords`` reads a primitive form's coordinates over the primitive
  basis, checking that it is primitive;
* ``_symbol_plus``/``_symbol_minus``/``_symbol_middle`` apply the symbols of
  the primitive complex to one form by the closed formulas;
* ``prim_op_matrix`` builds a matrix in primitive coordinates one basis
  form at a time, and ``symbol_maps`` the whole symbol sequence with it.

And it keeps the closed sl(2) formula for the Lefschetz decomposition,
where the engine reads the components C_r of each degree off the inverse
of its lifts L^r/r! on P^s side by side
(``SymplecticStructure.lefschetz_components``): ``decompose_degree``
applies the closed formula, the sum over l of c_{r,l} L^l Lambda^{r+l}, to
one homogeneous form with the engine's form-level L and Lambda, and
``lefschetz_decompose`` wraps it in ``LefschetzComponents``, which checks
that each component is primitive and that they rebuild the form.
``components`` decomposes every degree of a form on each call, and
``apply_rs``, ``star``, ``del_plus`` and ``del_minus`` read those
components.

And it keeps the per-blade routes the engine used before its per-degree
Lefschetz matrices: ``pieces_of_blade`` decomposes one blade, and
``lefschetz_piece``, ``star_of_blade`` and ``del_pieces_of_blade`` (with
``del_of_blade``) give the blade's column of a projection Pi_{r,s}, of the
star and of del_plus and del_minus, the last by reading the per-degree
split of d (``SymplecticComplex.del_matrices``) at each component's
primitive coordinates.  ``on_blades``
makes a matrix of such a per-blade route.

And it keeps the projection route for the two pieces of d that the
engine reads off the per-degree split (``SymplecticComplex.del_matrices``):
``split_d_primitive`` decomposes d of one primitive form by the closed
formula, and ``del_plus``/``del_minus`` apply it to each Lefschetz
component.

And it keeps the star route for the inner product that the engine reads
as the compound of the inverse metric (``HodgeTheory.gram``): ``pair``
integrates a ^ *b against the Liouville volume omega^n/n! (``volume``),
*b this module's ``jay`` after the symplectic star, ``wedge_gram`` does so
for every pair of a list of forms, and ``gram`` reads a blade Gram column
as ``top_dual`` of a starred blade, the blade-keyed vector that reads a top
coefficient off one factor.  No step of it reads the engine's compound matrices.

And it keeps the wedge route for the duality pairing that
``HodgeTheory.pairing_matrix`` reads off int rows, the L matrices and the
signed permutation ``hodge.top_dual``: ``pairing_matrix`` wedges
omega^(n-k)/(n-k)!, the p+ and the p- form for every pair and integrates
the product (``paper_checks.integrate``).

And it keeps ``matrix_on_blades``, which applies a form operator to each
blade, where the engine builds its matrices from the structure constants,
omega and the triple's J and g^-1.

And it keeps the form-by-form identity battery (``identity_battery``) that
the engine checks as per-degree matrix equations, with the form routes only
it calls: ``memo_components`` and ``memo_apply_rs`` sum and scale the
columns of the engine's C_r blade by blade, where the engine sums the
lifted components per degree (``SymplecticStructure.scale_rs``);
``d_lambda`` is d Lambda - Lambda d with the engine's form-level d and
Lambda;
``d_lambda_via_star``, ``del_plus_formula`` and ``del_minus_formula`` are
the second routes the battery compares; ``del_minus_primitive``,
``del_plus_primitive`` and ``scale_by_degree`` give the simplified
expressions on primitive forms.  Every route reads the engine's operators,
the per-degree matrices of L, Lambda and d, C_r, the star and del, so a
perturbed matrix column makes the form battery and the engine's battery
name the same first counterexample.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

from symcoh.exterior import (
    DimensionMismatchError, Form, blade_index, blade_indices, blades, contract,
    form_from_coords, form_to_coords, wedge_sign)
from symcoh.linalg import OperatorMatrix
from symcoh.reports import CheckResult

from paper_checks import integrate


def Lambda(st, a: Form) -> Form:
    """Contraction with the inverse bivector (degree -2)."""
    pairs = [(i, j, st.inverse.entry(i, j))
             for i in range(st.dim) for j in range(i + 1, st.dim) if st.inverse.entry(i, j)]
    out = Form.zero(a.dim)
    for i, j, c in pairs:
        out = out + contract(i + 1, contract(j + 1, a)) * c
    return out


def L(st, a: Form) -> Form:
    """Wedge with omega."""
    return st.omega.wedge(a)


def L_power(st, a: Form, r: int) -> Form:
    for _ in range(r):
        a = st.omega.wedge(a)
    return a


def d(algebra, a: Form) -> Form:
    """d(e_{i1} ^ ... ^ e_{ik}) = sum over t of (-1)^t times the blade with
    its t-th factor replaced by that generator's differential."""
    dim = a.dim
    out = Form.zero(dim)
    for mask, c in a.items():
        indices = blade_indices(mask)
        for t, i in enumerate(indices):
            term = Form.scalar(dim, c * (-1) ** t)
            for s, j in enumerate(indices):
                term = term.wedge(algebra.differentials[i - 1] if s == t else Form.e(dim, j))
            out = out + term
    return out


class BladeMap(dict):
    """A linear map on dimension ``dim``, kept as its blade images: from
    ``known`` on, each is built once, by ``image_of_blade(images, mask)``.
    The builder must not hold this mapping or its owner, so that no
    reference cycle keeps the memo alive after its owner is gone."""

    def __init__(self, dim: int, image_of_blade, known=()):
        super().__init__(known)
        self.dim = dim
        self._image_of_blade = image_of_blade

    def __missing__(self, mask: int) -> Form:
        image = self[mask] = self._image_of_blade(self, mask)
        return image

    def __call__(self, a: Form) -> Form:
        """Apply the map in one pass over ``a`` that builds one Form."""
        if a.dim != self.dim:
            raise DimensionMismatchError(f"ambient dimensions differ: {a.dim} vs {self.dim}")
        c: dict[int, object] = {}
        for mask, v in a._c.items():
            for m, w in self[mask]._c.items():
                c[m] = c.get(m, 0) + v * w
        return Form(a.dim, c)


def blade_matrix(images: BladeMap, k_from: int, k_to: int) -> OperatorMatrix:
    """The matrix of a blade map from degree k_from to k_to, read off the
    map's memoised blade images."""
    idx = blade_index(images.dim, k_to)[1]
    return OperatorMatrix.from_columns([form_to_coords(images[m], idx)
                                        for m in blade_index(images.dim, k_from)[0]], len(idx))


def image_of_blade(images: BladeMap, mask: int) -> Form:
    """Image of a blade under an algebra map: the lowest factor's image
    wedged onto the image of the rest."""
    low = mask & -mask
    return images[low].wedge(images[mask ^ low])


def algebra_map(rows) -> BladeMap:
    """The algebra map on forms sending e_{i+1} to the 1-form with
    coefficients rows[i], a square list of rows."""
    dim = len(rows)
    images = BladeMap(dim, image_of_blade, {0: Form.scalar(dim, 1)})
    images.update({1 << i: Form(dim, {1 << j: v for j, v in enumerate(r)})
                   for i, r in enumerate(rows)})
    return images


def d_of_blade(images: BladeMap, mask: int) -> Form:
    """Image of a blade of degree >= 2 by the Leibniz rule on its lowest
    factor e_i: d(e_i ^ rest) = d(e_i) ^ rest - e_i ^ d(rest)."""
    low = mask & -mask
    rest = mask ^ low
    return (images[low].wedge(Form(images.dim, {rest: 1}))
            - Form(images.dim, {low: 1}).wedge(images[rest]))


def d_blade_map(algebra) -> BladeMap:
    """d on the blades, from the generators' differentials."""
    images = BladeMap(algebra.dim, d_of_blade, {0: Form.zero(algebra.dim)})
    images.update({1 << i: f for i, f in enumerate(algebra.differentials)})
    return images


def L_blade_map(st) -> BladeMap:
    """omega ^ on the blades."""
    return BladeMap(st.dim, lambda _, m: st.omega.wedge(Form(st.dim, {m: 1})))


def Lambda_of_blade(pairs, images: BladeMap, mask: int) -> Form:
    """Contract e_j, then e_i, for each pair i < j of the bivector.  The
    two signs count the factors before e_j and before e_i, so together,
    mod 2, the factors from e_i up to but not including e_j."""
    c = {}
    for i, j, v in pairs:
        if mask >> i & 1 and mask >> j & 1:
            odd = (mask & ((1 << j) - (1 << i))).bit_count() & 1
            c[mask ^ (1 << i) ^ (1 << j)] = -v if odd else v
    return Form(images.dim, c)


def Lambda_blade_map(st) -> BladeMap:
    """Lambda on the blades, from the pairs of the inverse bivector."""
    pairs = [(i, j, st.inverse.entry(i, j))
             for i in range(st.dim) for j in range(i + 1, st.dim) if st.inverse.entry(i, j)]
    return BladeMap(st.dim, partial(Lambda_of_blade, pairs))


def jay(triple, a: Form) -> Form:
    """The algebra automorphism sending the covector e_i to row i of J."""
    dim = a.dim
    out = Form.zero(dim)
    for mask, c in a.items():
        term = Form.scalar(dim, c)
        for i in blade_indices(mask):
            term = term.wedge(Form(dim, {1 << j: triple.J.entry(i - 1, j) for j in range(dim)}))
        out = out + term
    return out


def prim_coords(st, f: Form, k: int) -> dict:
    """Coordinates of a primitive degree-k form over ``primitive_basis(k)``.

    Outside 0..n only the zero form is primitive.  Raises AssertionError
    on a form that is not primitive.
    """
    if 0 <= k <= st.n:
        coords = st.primitive_subspace(k).coordinates(
            form_to_coords(f, blade_index(st.dim, k)[1]))
    else:
        coords = None if f else {}
    if coords is None:
        raise AssertionError(f"form is not primitive in degree {k}: {f}")
    return coords


def prim_forms(st, k: int) -> list[Form]:
    """The primitive basis of degree k; empty outside 0..n."""
    return st.primitive_basis(k) if 0 <= k <= st.n else []


def prim_op_matrix(st, op, k_from: int, k_to: int) -> OperatorMatrix:
    """Matrix of a form operator from the primitive k_from-forms to the
    primitive k_to-forms, both in primitive coordinates."""
    cols = [prim_coords(st, op(b), k_to) for b in prim_forms(st, k_from)]
    return OperatorMatrix.from_columns(cols, len(prim_forms(st, k_to)))


def _symbol_plus(st, xi: Form, mu: Form) -> Form:
    """(1 - L H^{-1} Lambda)(xi ^ mu)."""
    k = 0 if mu.is_zero() else mu.degree()
    t = xi.wedge(mu)
    u = st.Lambda(t)                      # degree k-1
    return t - st.L(u) * Fraction(1, st.n - k + 1)


def _symbol_minus(st, xi: Form, mu: Form) -> Form:
    """H^{-1} Lambda (xi ^ mu)."""
    k = 0 if mu.is_zero() else mu.degree()
    return st.Lambda(xi.wedge(mu)) * Fraction(1, st.n - k + 1)


def _symbol_middle(st, xi: Form, mu: Form) -> Form:
    """(H+1)^{-1} [ xi ^ (Lambda (xi ^ mu)) ]."""
    k = 0 if mu.is_zero() else mu.degree()
    return xi.wedge(st.Lambda(xi.wedge(mu))) * Fraction(1, st.n - k + 1)


def symbol_maps(st, xi: Form) -> list[OperatorMatrix]:
    """The symbol sequence P^0 -> ... -> P^n -> P^n -> ... -> P^0 of xi,
    one primitive basis form at a time."""
    n = st.n
    maps = [prim_op_matrix(st, lambda m: _symbol_plus(st, xi, m), k, k + 1) for k in range(n)]
    maps.append(prim_op_matrix(st, lambda m: _symbol_middle(st, xi, m), n, n))
    maps += [prim_op_matrix(st, lambda m: _symbol_minus(st, xi, m), k, k - 1)
             for k in range(n, 0, -1)]
    return maps


def decompose_degree(st, a: Form, k: int) -> dict[int, Form]:
    """Primitive components of a homogeneous degree-k form by the closed
    sl(2) formula, keyed by r: the sum over l of (-1)^l m^2 L^l Lambda^{r+l} a
    / (m (m-1) ... (m-r) m (m+1) ... (m+l) l!), m = n-k+2r+1, applied form by
    form with the engine's form-level L and Lambda."""
    comps: dict[int, Form] = {}
    if a.is_zero():
        return comps
    n, max_pow = st.n, k // 2
    lam_pows = [a]
    for _ in range(max_pow):
        lam_pows.append(st.Lambda(lam_pows[-1]))
    for r in range(max(k - n, 0), max_pow + 1):
        m = n - k + 2 * r + 1
        denom_r = 1
        for i in range(r + 1):
            denom_r *= m - i
        b = Form.zero(a.dim)
        denom_l = 1
        for l in range(max_pow - r + 1):
            denom_l *= m + l
            coeff = Fraction((-1) ** l * m * m, denom_r * denom_l * factorial(l))
            term = lam_pows[r + l]
            if term:
                b = b + st.L_power(term, l) * coeff
        if b:
            comps[r] = b
    return comps


class LefschetzComponents:
    """Primitive components of a homogeneous form.

    ``components[r]`` is the primitive (k-2r)-form whose r-fold omega wedge
    (divided by r!) contributes to the form; reconstruction is exact and is
    checked at construction, as is primitivity of every component.
    """

    __slots__ = ("structure", "degree", "components")

    def __init__(self, structure, degree: int, components: dict[int, Form], original: Form):
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
            out = out + self.structure.L_power(b, r) / factorial(r)
        return out


def lefschetz_decompose(st, a: Form, k: int | None = None) -> LefschetzComponents:
    if a.is_zero():
        return LefschetzComponents(st, k if k is not None else 0, {}, a)
    if not a.is_homogeneous():
        raise ValueError(f"form is not homogeneous: {a}")
    deg = a.degree()
    if k is not None and k != deg:
        raise ValueError(f"form has degree {deg}, not {k}")
    return LefschetzComponents(st, deg, decompose_degree(st, a, deg), a)


def components(st, a: Form) -> dict[tuple[int, int], Form]:
    """Primitive components of an arbitrary form, keyed by (r, s)."""
    out = {}
    for k in a.degrees():
        for r, b in decompose_degree(st, a.grade(k), k).items():
            out[(r, k - 2 * r)] = b
    return out


def apply_rs(st, a: Form, fn) -> Form:
    """Scale each (r, s) Lefschetz component by fn(r, s) and reassemble."""
    out = Form.zero(st.dim)
    for (r, s), b in components(st, a).items():
        out = out + st.L_power(b, r) * (Fraction(fn(r, s)) / factorial(r))
    return out


def star(st, a: Form) -> Form:
    """Symplectic star: reflects Lefschetz components across the middle."""
    out = Form.zero(st.dim)
    for (r, s), b in components(st, a).items():
        sign = (-1) ** (s * (s + 1) // 2)
        p = st.n - r - s
        out = out + st.L_power(b, p) * Fraction(sign, factorial(p))
    return out


def split_d_primitive(cx, b: Form, s: int) -> tuple[Form, Form]:
    """d(B_s) = B0_{s+1} + omega ^ B1_{s-1} for primitive B_s, by the closed
    Lefschetz decomposition of d(B_s); raises AssertionError if d(B_s) has
    a component beyond one omega wedge."""
    st = cx.structure
    z = Form.zero(st.dim)
    db = d(cx.algebra, b)
    if db.is_zero():
        return z, z
    comps = decompose_degree(st, db, s + 1)
    if any(r > 1 for r in comps):
        raise AssertionError(
            f"d of a primitive form has components beyond one omega wedge: {b}")
    return comps.get(0, z), comps.get(1, z)


def _del_piece(cx, a: Form, which: int) -> Form:
    st = cx.structure
    out = Form.zero(cx.dim)
    for (r, s), b in components(st, a).items():
        piece = split_d_primitive(cx, b, s)[which]
        if piece:
            out = out + st.L_power(piece, r) / factorial(r)
    return out


def del_plus(cx, a: Form) -> Form:
    """Degree +1 piece of d: keeps the primitive part of d on each
    Lefschetz component."""
    return _del_piece(cx, a, 0)


def del_minus(cx, a: Form) -> Form:
    """Degree -1 piece of d: keeps the omega-wedge part of d on each
    Lefschetz component."""
    return _del_piece(cx, a, 1)


def pieces_of_blade(st, mask: int) -> dict[tuple[int, int], Form]:
    """The Lefschetz components of one blade, keyed by (r, s)."""
    k = mask.bit_count()
    return {(r, k - 2 * r): b
            for r, b in decompose_degree(st, Form(st.dim, {mask: 1}), k).items()}


def lefschetz_piece(st, rs: tuple[int, int], mask: int) -> Form:
    """The (r, s) component L^r b / r! of one blade."""
    b = pieces_of_blade(st, mask).get(rs)
    return st.L_power(b, rs[0]) / factorial(rs[0]) if b else Form.zero(st.dim)


def star_of_blade(st, mask: int) -> Form:
    """The star of one blade, from its components."""
    out = Form.zero(st.dim)
    for (r, s), b in pieces_of_blade(st, mask).items():
        p = st.n - r - s
        out = out + st.L_power(b, p) * Fraction((-1) ** (s * (s + 1) // 2), factorial(p))
    return out


def del_pieces_of_blade(cx, mask: int) -> tuple[Form, Form]:
    """(del_plus, del_minus) of one blade: each Lefschetz component's two
    pieces are the ``del_matrices`` columns at its primitive coordinates,
    lifted to blades by B = ``lift(j, 0)`` and wedged with omega^r/r!."""
    st = cx.structure
    out = [Form.zero(st.dim), Form.zero(st.dim)]
    for (r, s), b in pieces_of_blade(st, mask).items():
        coords = prim_coords(st, b, s)
        for which, (m, k) in enumerate(zip(cx.del_matrices(s), (s + 1, s - 1))):
            if col := st.lift(k, 0).apply(m.apply(coords)):
                piece = form_from_coords(col, blade_index(st.dim, k)[0], st.dim)
                out[which] = out[which] + st.L_power(piece, r) / factorial(r)
    return out[0], out[1]


def del_of_blade(cx, which: int, mask: int) -> Form:
    """Piece ``which`` (0: del_plus, 1: del_minus) of one blade."""
    return del_pieces_of_blade(cx, mask)[which]


def on_blades(image_of_blade, dim: int, k_from: int, k_to: int) -> OperatorMatrix:
    """The matrix whose column for each degree-k_from blade is
    ``image_of_blade(mask)`` in degree-k_to blade coordinates."""
    idx = blade_index(dim, k_to)[1]
    return OperatorMatrix.from_columns(
        [form_to_coords(image_of_blade(m), idx) for m in blade_index(dim, k_from)[0]], len(idx))


def volume(st) -> Form:
    """omega^n / n!."""
    return st.L_power(Form.scalar(st.dim, 1), st.n) / factorial(st.n)


def volume_norm(st):
    """The top coefficient of the Liouville volume omega^n/n!, by which the
    star route divides so that <1, 1> = 1."""
    return volume(st).coeff((1 << st.dim) - 1)


def hodge_star(triple, a: Form) -> Form:
    """Riemannian star of the triple: the splitting operator after the
    symplectic star."""
    return jay(triple, triple.structure.star(a))


def _integral(st, f: Form):
    """The top coefficient of f over the volume norm."""
    return f.coeff((1 << st.dim) - 1) / volume_norm(st)


def pair(triple, a: Form, b: Form):
    """<a, b>: the integral of a ^ *b."""
    return _integral(triple.structure, a.wedge(hodge_star(triple, b)))


def wedge_gram(triple, forms: list[Form]) -> OperatorMatrix:
    """The Gram matrix of ``forms`` by the wedge route: entry (i, j) is the
    integral of forms_i ^ *forms_j, each form starred once."""
    cols = []
    for b in forms:
        star_b = hodge_star(triple, b)
        cols.append({i: _integral(triple.structure, a.wedge(star_b)) for i, a in enumerate(forms)})
    return OperatorMatrix.from_columns(cols, len(forms))


def gram(triple, k: int) -> OperatorMatrix:
    """The degree-k blade Gram matrix by the star route: column J is
    ``top_dual`` of the starred blade e_J over the volume norm, so that
    entry I is <e_I, e_J>."""
    dim = triple.structure.dim
    norm = volume_norm(triple.structure)
    order, idx = blade_index(dim, k)
    return OperatorMatrix.from_columns(
        [{idx[m]: v / norm for m, v in top_dual(hodge_star(triple, Form(dim, {j: 1}))).items()}
         for j in order], len(order))


def top_dual(b: Form) -> dict:
    """The blade-keyed vector c with (a ^ b)[top] = sum of a[I] c[I] for
    every form a: c[I] = eps(I, I^c) b[I^c], eps the sign of e_I ^ e_{I^c}."""
    top = (1 << b.dim) - 1
    return {top ^ m: wedge_sign(top ^ m, m) * v for m, v in b._c.items()}


def pairing_matrix(cx, k: int, reps_plus: list[Form], reps_minus: list[Form]) -> OperatorMatrix:
    """Entry (i, j) is the integral of omega^(n-k)/(n-k)! ^ b_plus_i ^ b_minus_j."""
    power = L_power(cx.structure, Form.scalar(cx.dim, 1), cx.n - k) / factorial(cx.n - k)
    cols = []
    for b_minus in reps_minus:
        col = {}
        for i, b_plus in enumerate(reps_plus):
            v = integrate(cx.algebra, power.wedge(b_plus).wedge(b_minus))
            if v:
                col[i] = v
        cols.append(col)
    return OperatorMatrix.from_columns(cols, len(reps_plus))


def matrix_on_blades(op, dim: int, k_from: int, k_to: int) -> OperatorMatrix:
    """Materialize a degree-homogeneous operator over canonical blade bases.

    Raises if the operator's image on some blade leaves degree ``k_to``.
    """
    dom = blade_index(dim, k_from)[0]
    cod, idx = blade_index(dim, k_to)
    cols = [form_to_coords(op(Form(dim, {m: 1})), idx) for m in dom]
    return OperatorMatrix.from_columns(cols, len(cod))


# ---------------------------------------------------------------------------
# the form-by-form identity battery
# ---------------------------------------------------------------------------

def memo_components(st, a: Form) -> dict[tuple[int, int], Form]:
    """Primitive components of an arbitrary form, keyed by (r, s): the
    sums of its blades' columns of the engine's C_r
    (``SymplecticStructure.lefschetz_components``), each lifted to blades by
    B_s = ``lift(s, 0)``, with the zero sums dropped."""
    st.omega._check_dim(a)
    sums: dict[tuple[int, int], dict] = {}
    for mask, v in a._c.items():
        k = mask.bit_count()
        j = blade_index(st.dim, k)[1][mask]
        for r, comp in st.lefschetz_components(k).items():
            s = k - 2 * r
            c = sums.setdefault((r, s), {})
            order = blade_index(st.dim, s)[0]
            for i, w in st.lift(s, 0).apply(comp.column(j)).items():
                c[order[i]] = c.get(order[i], 0) + v * w
    return {rs: b for rs, c in sums.items() if (b := Form(st.dim, c))}


def memo_apply_rs(st, a: Form, fn) -> Form:
    """Scale each (r, s) Lefschetz component by fn(r, s) and reassemble; fn
    is evaluated only on the components that do not cancel."""
    out = Form.zero(st.dim)
    for (r, s), b in memo_components(st, a).items():
        out = out + st.L_power(b, r) * (Fraction(fn(r, s)) / factorial(r))
    return out


def d_lambda(cx, a: Form) -> Form:
    """d Lambda - Lambda d."""
    d, lam = cx.algebra.d, cx.structure.Lambda
    return d(lam(a)) - lam(d(a))


def d_lambda_via_star(cx, a: Form) -> Form:
    """(-1)^(k+1) star d star, degree by degree."""
    out = Form.zero(cx.dim)
    st = cx.structure
    for k in a.degrees():
        piece = st.star(cx.algebra.d(st.star(a.grade(k))))
        out = out + piece * ((-1) ** (k + 1))
    return out


def del_plus_formula(cx, a: Form) -> Form:
    """(H+2R+1)^{-1} [ (H+R+1) d + L d_Lambda ], eigenvalues per component."""
    st, n = cx.structure, cx.n
    operand = memo_apply_rs(st, cx.algebra.d(a), lambda r, s: Fraction(n - r - s + 1)) \
        + st.L(d_lambda(cx, a))
    return memo_apply_rs(st, operand, lambda r, s: Fraction(1, n - s + 1))


def del_minus_formula(cx, a: Form) -> Form:
    """-[(H+2R+1)(H+R)]^{-1} [ (H+R) d_Lambda - Lambda d ].

    The outer eigenvalue inverse divides by n-r-s, which vanishes on
    boundary components; those cancel exactly in the operand, so a
    ZeroDivisionError here means an operator bug, not bad input.
    """
    st, n = cx.structure, cx.n
    operand = memo_apply_rs(st, d_lambda(cx, a), lambda r, s: Fraction(n - r - s)) \
        - st.Lambda(cx.algebra.d(a))
    return memo_apply_rs(st, operand, lambda r, s: Fraction(-1, (n - s + 1) * (n - r - s)))


def del_minus_primitive(cx, b: Form) -> Form:
    """(1/H) Lambda d on a primitive form."""
    if not cx.structure.is_primitive(b):
        raise ValueError("argument must be primitive")
    x = cx.structure.Lambda(cx.algebra.d(b))
    out = Form.zero(cx.dim)
    for k in x.degrees():
        out = out + x.grade(k) / (cx.n - k)
    return out


def del_plus_primitive(cx, b: Form) -> Form:
    """d - L (1/H) Lambda d on a primitive form."""
    if not cx.structure.is_primitive(b):
        raise ValueError("argument must be primitive")
    return cx.algebra.d(b) - cx.structure.L(del_minus_primitive(cx, b))


def scale_by_degree(a: Form, fn) -> Form:
    out = Form.zero(a.dim)
    for k in a.degrees():
        out = out + a.grade(k) * Fraction(fn(k))
    return out


def _check_on_blades(name: str, dim: int, lhs, rhs, details: list[str]) -> bool:
    for k in range(dim + 1):
        for m in blades(dim, k):
            f = Form(dim, {m: 1})
            a, b = lhs(f), rhs(f)
            if a != b:
                details.append(f"{name}: first counterexample {f}: {a} != {b}")
                return False
    return True


def identity_battery(cx) -> CheckResult:
    """The operator-identity battery form by form: each identity applied to
    every blade of every degree, each side a form route."""
    st = cx.structure
    dim, n = cx.dim, cx.n
    details: list[str] = []
    ok = True

    def check(name, lhs, rhs):
        nonlocal ok
        if not _check_on_blades(name, dim, lhs, rhs, details):
            ok = False

    L, Lam, H = st.L, st.Lambda, st.H
    dp, dm = cx.del_plus, cx.del_minus
    dl = partial(d_lambda, cx)

    def apply_rs(a, fn):
        return memo_apply_rs(st, a, fn)

    # sl(2) commutators
    check("[Lambda,L] = H", lambda f: Lam(L(f)) - L(Lam(f)), H)
    check("[H,Lambda] = 2 Lambda", lambda f: H(Lam(f)) - Lam(H(f)), lambda f: Lam(f) * 2)
    check("[H,L] = -2 L", lambda f: H(L(f)) - L(H(f)), lambda f: L(f) * (-2))

    # powers of L against Lambda, and the two mixed products
    for r in range(1, n + 1):
        check(f"[Lambda,L^{r}] = {r} (H+{r}-1) L^{r - 1}",
              lambda f, r=r: Lam(st.L_power(f, r)) - st.L_power(Lam(f), r),
              lambda f, r=r: scale_by_degree(
                  st.L_power(f, r - 1), lambda k, r=r: r * (n - k + r - 1)))
    check("L Lambda = (H+R+1) R",
          lambda f: L(Lam(f)),
          lambda f: apply_rs(f, lambda r, s: Fraction(r * (n - r - s + 1))))
    check("Lambda L = (H+R) (R+1)",
          lambda f: Lam(L(f)),
          lambda f: apply_rs(f, lambda r, s: Fraction((n - r - s) * (r + 1))))

    # the splitting of d
    check("d = del_plus + L del_minus",
          cx.algebra.d, lambda f: dp(f) + L(dm(f)))
    check("del_plus^2 = 0", lambda f: dp(dp(f)), lambda f: Form.zero(dim))
    check("del_minus^2 = 0", lambda f: dm(dm(f)), lambda f: Form.zero(dim))
    check("L del_plus del_minus = -L del_minus del_plus",
          lambda f: L(dp(dm(f))), lambda f: -L(dm(dp(f))))
    check("[del_plus, L] = 0", lambda f: dp(L(f)), lambda f: L(dp(f)))
    check("[L del_minus, L] = 0",
          lambda f: L(dm(L(f))), lambda f: L(L(dm(f))))

    # adjoint differential: decomposition and second-order relation
    check("d_lambda = (H+R+1)^{-1} del_plus Lambda - (H+R) del_minus",
          dl,
          lambda f: apply_rs(dp(Lam(f)), lambda r, s: Fraction(1, n - r - s + 1))
          - apply_rs(dm(f), lambda r, s: Fraction(n - r - s)))
    check("d d_lambda = -(H+2R+1) del_plus del_minus",
          lambda f: cx.algebra.d(dl(f)),
          lambda f: -apply_rs(dp(dm(f)), lambda r, s: Fraction(n - s + 1)))

    # two independent routes must agree everywhere
    check("d_lambda two routes", dl, partial(d_lambda_via_star, cx))
    check("del_plus two routes", dp, partial(del_plus_formula, cx))
    check("del_minus two routes", dm, partial(del_minus_formula, cx))

    # symplectic star: involution
    check("star star = 1", lambda f: st.star(st.star(f)), lambda f: f)

    # star on each omega-power of a primitive form reflects the power
    for s in range(n + 1):
        for b in st.primitive_basis(s):
            for r in range(n - s + 1):
                lhs = st.star(st.L_power(b, r) / factorial(r))
                p = n - r - s
                rhs = st.L_power(b, p) * Fraction((-1) ** (s * (s + 1) // 2), factorial(p))
                if lhs != rhs:
                    ok = False
                    details.append(
                        f"star reflection fails at (r={r}, s={s}): {b}")
                    break

    # simplified expressions on primitive forms
    for s in range(n + 1):
        for b in st.primitive_basis(s):
            if dm(b) != del_minus_primitive(cx, b):
                ok = False
                details.append(f"del_minus != (1/H) Lambda d on {b}")
            if dp(b) != del_plus_primitive(cx, b):
                ok = False
                details.append(f"del_plus != d - L(1/H) Lambda d on {b}")
            dld = cx.algebra.d(Lam(cx.algebra.d(b)))
            via = scale_by_degree(dld, lambda k: Fraction(1, n - k + 1))
            if dp(dm(b)) != via:
                ok = False
                details.append(f"del_plus del_minus != (1/(H+1)) d Lambda d on {b}")
            if dl(b) != scale_by_degree(dm(b), lambda k: -(n - k)):
                ok = False
                details.append(f"d_lambda != -H del_minus on {b}")

    return CheckResult("operator-identities", ok, details)
