"""Test oracle: the form-level operator routes symcoh used before its blade maps.

The engine now keeps each operator (L, Lambda, d and the splitting operator)
as a ``BladeMap``: every blade's image is built once, kept, and applied in
one pass.  This module keeps independent routes that build nothing per blade
and keep nothing between calls:

* ``Lambda`` is the contraction sum over the inverse bivector, unchanged
  from the engine, with the bivector's pairs read off ``inverse``;
* ``L`` and ``L_power`` wedge with omega;
* ``d`` applies the Leibniz rule to every factor of every blade, left to
  right, from the generators' differentials;
* ``jay`` wedges the images of a blade's factors, each a row of J.

Sums of exact Fractions do not depend on their order, so both routes must
return equal Forms.
"""

from __future__ import annotations

from symcoh.exterior import Form, blade_indices, contract


def Lambda(st, a: Form) -> Form:
    """Contraction with the inverse bivector (degree -2)."""
    pairs = [(i, j, st.inverse[i][j])
             for i in range(st.dim) for j in range(i + 1, st.dim) if st.inverse[i][j]]
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
