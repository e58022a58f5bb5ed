"""Test oracle: the primitive subspaces of ``CohomologyCalculator`` by the
routes symcoh used before it eliminated them in primitive coordinates.

The engine takes every kernel and image of del_plus, del_minus and their
composition in the primitive coordinates of P^k and lifts the canonical
rows to blades with no second elimination (``CohomologyCalculator._lift``).
This module keeps the earlier bodies:

* a kernel is taken in primitive coordinates, lifted through B_k, and the
  lifted rows are eliminated again by ``Subspace`` (lift-then-``rref``);
* an image is eliminated in blade coordinates, from the blade columns of
  the pieces of d, ``SymplecticComplex.del_matrices`` lifted by B
  (``del_images``);
* the d+dL numerator is the Zassenhaus intersection of ker del_plus and
  ker del_minus (``subspace_intersect``, kept in ``subspace_oracle``);
* the ddL denominator is two chained ``subspace_sum`` calls, the first a sum
  with the zero space.

``groups`` gives the (numerator, denominator) of the four primitive
families by these routes; ``linalg.quotient`` of the two is the group's rows.
"""

from __future__ import annotations

from subspace_oracle import subspace_intersect, subspace_sum
from symcoh.linalg import OperatorMatrix, Subspace, kernel
from symcoh.symplectic import _size

PRIMITIVE_GROUPS = ("p+", "p-", "d+dL", "ddL")


def prim_kernel(calc, m: OperatorMatrix, k_to: int, k: int) -> Subspace:
    """Kernel, in degree-k blades, of the map sending the primitive basis to
    the primitive degree-``k_to`` forms, the columns of ``m``: lifted through
    B_k and eliminated again."""
    kern = kernel(calc.st.prim_matrix(m, k_to))
    b = calc.st.lift(k, 0)
    return Subspace(b.nrows, (b @ OperatorMatrix(b.ncols, kern.dim, kern.ints)).cols)


def del_images(cx, k: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Blade coordinates of del_plus and del_minus of the primitive degree-k
    basis: the pieces of d in primitive coordinates, lifted by B_{k+1} and
    B_{k-1}."""
    return tuple(cx.structure.lift(j, 0) @ m
                 for m, j in zip(cx.del_matrices(k), (k + 1, k - 1)))


def dpdm(calc, k: int) -> OperatorMatrix:
    """Blade coordinates of del_plus del_minus of the primitive degree-k basis."""
    return del_images(calc.cx, k - 1)[0] @ calc.st.prim_matrix(del_images(calc.cx, k)[1], k - 1)


def dp_span(calc, k: int) -> Subspace:
    return Subspace(_size(calc.dim, k + 1), del_images(calc.cx, k)[0].cols)


def dm_span(calc, k: int) -> Subspace:
    return Subspace(_size(calc.dim, k - 1), del_images(calc.cx, k)[1].cols)


def dpdm_span(calc, k: int) -> Subspace:
    return Subspace(_size(calc.dim, k), dpdm(calc, k).cols)


def ker_dp(calc, k: int) -> Subspace:
    return prim_kernel(calc, del_images(calc.cx, k)[0], k + 1, k)


def ker_dm(calc, k: int) -> Subspace:
    return prim_kernel(calc, del_images(calc.cx, k)[1], k - 1, k)


def ker_dpdm(calc, k: int) -> Subspace:
    return prim_kernel(calc, dpdm(calc, k), k, k)


def groups(calc, name: str, k: int) -> tuple[Subspace, Subspace]:
    """(numerator, denominator) of primitive group ``name`` in degree k."""
    zero = Subspace.zero(_size(calc.dim, k))
    if name == "p+":
        return ker_dp(calc, k), dp_span(calc, k - 1) if k >= 1 else zero
    if name == "p-":
        return ker_dm(calc, k), dm_span(calc, k + 1)
    if name == "d+dL":
        return subspace_intersect(ker_dp(calc, k), ker_dm(calc, k)), dpdm_span(calc, k)
    if name == "ddL":
        den = zero
        if k >= 1:
            den = subspace_sum(den, dp_span(calc, k - 1))
        if k + 1 <= calc.n:
            den = subspace_sum(den, dm_span(calc, k + 1))
        return ker_dpdm(calc, k), den
    raise ValueError(f"not a primitive group: {name!r}")
