"""Pointwise symbol complex on the primitive exterior algebra.

For a symplectic vector space with the standard form and a non-zero covector
xi, the symbols of the two first-order primitive operators and of their
second-order middle composition assemble into the sequence

    0 -> P^0 -> ... -> P^{n-1} -> P^n -> P^n -> P^{n-1} -> ... -> P^0 -> 0

(ascending maps, one middle map, descending maps).  The symbol of d is
xi ^, and the symbols of its two primitive pieces are the
``SymplecticStructure.split`` of xi ^, just as del_plus and del_minus are
the split of d: the ascending maps are the degree +1 pieces, the descending
maps the degree -1 pieces, and the middle map is xi ^ after the degree -1
piece on P^n.  ``check_exactness`` verifies by exact linear algebra that
consecutive compositions vanish and that the sequence is exact at every
position, which is the pointwise content of ellipticity for the associated
differential complex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exterior import BladeMap, Form
from .linalg import OperatorMatrix, Subspace, image, kernel
from .reports import CheckResult
from .symplectic import SymplecticStructure, _blade_matrix, standard_omega

DEFAULT_SEED = 1729


@dataclass
class SymbolComplex:
    n: int
    xi: Form
    structure: SymplecticStructure
    spaces: list[list[Form]]          # primitive bases, first ascending then descending
    maps: list[OperatorMatrix]        # maps[i]: spaces[i] -> spaces[i+1]


@lru_cache(maxsize=None)
def _standard_structure(n: int) -> SymplecticStructure:
    """The standard structure of dimension 2n, with its primitive bases and
    its L and Lambda matrices cached, shared by every covector."""
    return SymplecticStructure(standard_omega(n))


def build_symbols(n: int, xi: Form) -> SymbolComplex:
    """Materialize the symbol sequence for covector xi (standard omega)."""
    if xi.is_zero():
        raise ValueError("covector must be non-zero")
    if xi.degrees() != {1}:
        raise ValueError(f"covector must be a 1-form, got {xi}")
    if xi.dim != 2 * n:
        raise ValueError(f"covector dimension {xi.dim} != 2n = {2 * n}")
    st = _standard_structure(n)
    wedge = BladeMap(2 * n, lambda _, m: xi.wedge(Form(2 * n, {m: 1})))
    ws = [_blade_matrix(wedge, k, k + 1) for k in range(n + 1)]
    pieces = [st.split(w, x, k) for k, (w, x) in enumerate(ws)]
    asc = [st.primitive_basis(k) for k in range(n + 1)]
    spaces = asc + asc[::-1]
    maps = [st.prim_matrix(dp, k + 1).scale(Fraction(1, den))
            for k, (dp, _, den) in enumerate(pieces[:n])]
    (w, x), (_, dm, den) = ws[n - 1], pieces[n]
    middle = w @ dm
    st.check_primitive(middle, n, "the middle symbol")
    maps.append(st.prim_matrix(middle, n).scale(Fraction(1, x * den)))
    maps += [st.prim_matrix(pieces[k][1], k - 1).scale(Fraction(1, pieces[k][2]))
             for k in range(n, 0, -1)]
    return SymbolComplex(n=n, xi=xi, structure=st, spaces=spaces, maps=maps)


def check_exactness(c: SymbolComplex) -> CheckResult:
    """Zero composition plus ker = im at every position of the sequence."""
    details = []
    ok = True
    for i in range(len(c.maps) - 1):
        if not c.maps[i + 1].compose(c.maps[i]).is_zero():
            ok = False
            details.append(f"composition at step {i} -> {i + 1} is non-zero")
    # Euler characteristic must vanish for an exact sequence
    euler = sum((-1) ** p * len(basis) for p, basis in enumerate(c.spaces))
    if euler != 0:
        ok = False
        details.append(f"alternating dimension sum is {euler}, not 0")
    for p in range(len(c.spaces)):
        dim_p = len(c.spaces[p])
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


def random_covectors(n: int, count: int, seed: int = DEFAULT_SEED) -> list[Form]:
    """Deterministic pseudorandom non-zero covectors with small integer parts."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = {1 << i: rng.randint(-3, 3) for i in range(2 * n)}
        xi = Form(2 * n, coeffs)
        if xi:
            out.append(xi)
    return out


def run_symbol_suite(n: int, count: int = 20, seed: int = DEFAULT_SEED) -> CheckResult:
    """Exactness for xi = e_1 and for ``count`` seeded pseudorandom covectors."""
    results = [check_exactness(build_symbols(n, Form.e(2 * n, 1)))]
    for xi in random_covectors(n, count, seed):
        results.append(check_exactness(build_symbols(n, xi)))
    details = []
    for r in results:
        if not r.passed:
            details.append(r.name)
            details.extend("  " + d for d in r.details)
    return CheckResult(f"symbol-suite(n={n}, count={count}, seed={seed})",
                       all(r.passed for r in results), details)
