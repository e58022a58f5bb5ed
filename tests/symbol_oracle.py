"""Test oracle: the symbol suite's routes before they went to integers.

The engine splits each basis covector's wedge once per n, forms a
covector's maps as int combinations of those pieces, and decides exactness
by ranks once every composition is zero.  This module keeps the earlier
routes:

* ``split_symbol_maps`` splits xi ^'s own wedge matrix with
  ``SymplecticStructure.split`` and reads each map in primitive
  coordinates;
* ``subspace_exactness`` multiplies the maps as they are and compares the
  kernel and the image at every position as canonical subspaces; a
  non-zero composition names its first non-zero column as a Form of the
  primitive basis, printed by ``quotient_oracle.form_to_str``.
"""

from __future__ import annotations

from form_oracle import BladeMap, blade_matrix
from quotient_oracle import form_to_str
from symcoh.exterior import Form
from symcoh.linalg import OperatorMatrix, Subspace, image, kernel
from symcoh.reports import CheckResult
from symcoh.symbolcheck import SymbolComplex, _standard_structure


def split_symbol_maps(n: int, xi: Form) -> list[OperatorMatrix]:
    """The symbol sequence of xi from the split of xi ^ itself."""
    st = _standard_structure(n)
    wedge = BladeMap(2 * n, lambda _, m: xi.wedge(Form(2 * n, {m: 1})))
    ws = [blade_matrix(wedge, k, k + 1) for k in range(n + 1)]
    pieces = [st.split(w, k) for k, w in enumerate(ws)]
    maps = [st.prim_matrix(dp, k + 1) for k, (dp, _) in enumerate(pieces[:n])]
    middle = ws[n - 1] @ pieces[n][1]
    st.check_primitive(middle, n, "the middle symbol")
    maps.append(st.prim_matrix(middle, n))
    maps += [st.prim_matrix(pieces[k][1], k - 1) for k in range(n, 0, -1)]
    return maps


def subspace_exactness(c: SymbolComplex) -> CheckResult:
    """Zero composition plus ker = im at every position of the sequence."""
    details = []
    ok = True
    degrees = [*range(c.n + 1), *range(c.n, -1, -1)]
    for i in range(len(c.maps) - 1):
        composed = c.maps[i + 1].compose(c.maps[i])
        if not composed.is_zero():
            ok = False
            # the first non-zero column, named as a Form of the primitive basis
            j = next(j for j in range(composed.ncols) if any(composed.column(j).values()))
            witness = form_to_str(c.structure.primitive_basis(degrees[i])[j])
            details.append(f"composition at step {i} -> {i + 1} is non-zero on {witness}")
    # Euler characteristic must vanish for an exact sequence
    euler = sum((-1) ** p * dim for p, dim in enumerate(c.dims))
    if euler != 0:
        ok = False
        details.append(f"alternating dimension sum is {euler}, not 0")
    for p, dim_p in enumerate(c.dims):
        incoming = image(c.maps[p - 1]) if p > 0 else Subspace.zero(dim_p)
        if p < len(c.maps):
            outgoing = kernel(c.maps[p])
        else:
            outgoing = Subspace.full(dim_p)
        if incoming != outgoing:
            ok = False
            details.append(
                f"position {p}: ker dim {outgoing.dim} != im dim {incoming.dim}")
    return CheckResult(f"symbol-exactness(n={c.n}, xi={c.xi})", ok, details)
