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

The split is linear in its operand, so each basis covector's wedge is split
once per n and a covector's maps are linear combinations of those pieces
(``OperatorMatrix.combination``), int columns over one denominator, so the
compositions and ranks run on ints.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache

from .exterior import Form, blade_operator, row_to_str
from .linalg import OperatorMatrix, Subspace, image, kernel
from .reports import DEFAULT_SEED, CheckResult
from .symplectic import SymplecticStructure, standard_omega

# dims: the primitive dimensions, first ascending then descending;
# maps[i]: the map from position i to position i + 1
SymbolComplex = namedtuple("SymbolComplex", "n xi structure dims maps")


@lru_cache(maxsize=None)
def _standard_structure(n: int) -> SymplecticStructure:
    """The standard structure of dimension 2n, with its primitive bases and
    its L and Lambda matrices cached, shared by every covector."""
    return SymplecticStructure(standard_omega(n))


@lru_cache(maxsize=None)
def _basis_symbols(n: int) -> tuple[list[list[tuple]], list[OperatorMatrix]]:
    """For each basis covector e_{i+1}: ``pieces[k][i]``, the (P, M) of
    ``split`` of e_{i+1} ^ on degree k, and ``wedges[i]``, e_{i+1} ^ from
    degree n - 1 to n."""
    st = _standard_structure(n)
    pieces: list[list[tuple]] = [[] for _ in range(n + 1)]
    wedges = []
    for i in range(2 * n):
        for k in range(n + 1):
            w = blade_operator(2 * n, k, k + 1, [(0, 1 << i, 1)])
            pieces[k].append(st.split(w, k))
            if k == n - 1:
                wedges.append(w)
    return pieces, wedges


def build_symbols(n: int, xi: Form) -> SymbolComplex:
    """Materialize the symbol sequence for covector xi (standard omega): each
    map is the int combination of the basis covectors' pieces with xi's
    coefficients, and the middle map xi ^ after the degree -1 piece."""
    if xi.is_zero():
        raise ValueError("covector must be non-zero")
    if xi.degrees() != {1}:
        raise ValueError(f"covector must be a 1-form, got {xi}")
    if xi.dim != 2 * n:
        raise ValueError(f"covector dimension {xi.dim} != 2n = {2 * n}")
    st = _standard_structure(n)
    pieces, wedges = _basis_symbols(n)
    coeffs = [(m.bit_length() - 1, c) for m, c in xi.items()]

    def combine(mats: list[OperatorMatrix]) -> OperatorMatrix:
        return OperatorMatrix.combination([(c, mats[i]) for i, c in coeffs],
                                          mats[0].nrows, mats[0].ncols)

    def symbol(m: OperatorMatrix, k: int, what: str) -> OperatorMatrix:
        st.check_primitive(m, k, what)
        return st.prim_matrix(m, k)

    asc = [st.primitive_subspace(k).dim for k in range(n + 1)]
    maps = [symbol(combine([p for p, _ in pieces[k]]), k + 1, "an ascending symbol")
            for k in range(n)]
    minus = {k: combine([m for _, m in pieces[k]]) for k in range(1, n + 1)}
    maps.append(symbol(combine(wedges) @ minus[n], n, "the middle symbol"))
    maps += [symbol(minus[k], k - 1, "a descending symbol") for k in range(n, 0, -1)]
    return SymbolComplex(n, xi, st, asc + asc[::-1], maps)


def check_exactness(c: SymbolComplex) -> CheckResult:
    """Zero composition plus ker = im at every position of the sequence.

    Once every composition is zero, im M_{p-1} lies in ker M_p, so the two
    are equal iff rank M_{p-1} + rank M_p = dim P_p.  If a composition is
    not zero, the kernel and image are compared as subspaces instead."""
    details = []
    composed_to_zero = True
    for i in range(len(c.maps) - 1):
        cols = c.maps[i + 1].compose(c.maps[i]).cols
        j = next((j for j, col in enumerate(cols) if col), None)
        if j is not None:
            composed_to_zero = False
            k = min(i, 2 * c.n + 1 - i)  # position i's degree; column j is basis row j of P^k
            row = c.structure.primitive_subspace(k).ints[j]
            details.append(f"composition at step {i} -> {i + 1} is non-zero on "
                           f"{row_to_str(2 * c.n, k, row, row[min(row)])}")
    # Euler characteristic must vanish for an exact sequence.  build_symbols puts one
    # dimension at p and 2n + 1 - p, of opposite parity, so only a hand-built sequence fails
    euler = sum((-1) ** p * dim for p, dim in enumerate(c.dims))
    if euler != 0:
        details.append(f"alternating dimension sum is {euler}, not 0")
    if composed_to_zero:
        ranks = [0] + [m.rank() for m in c.maps] + [0]
        failing = [(p, dim - ranks[p + 1], ranks[p]) for p, dim in enumerate(c.dims)
                   if dim - ranks[p + 1] != ranks[p]]
    else:
        failing = []
        for p, dim in enumerate(c.dims):
            incoming = image(c.maps[p - 1]) if p > 0 else Subspace.zero(dim)
            outgoing = kernel(c.maps[p]) if p < len(c.maps) else Subspace.full(dim)
            if incoming != outgoing:
                failing.append((p, outgoing.dim, incoming.dim))
    details += [f"position {p}: ker dim {ker} != im dim {im}" for p, ker, im in failing]
    return CheckResult(f"symbol-exactness(n={c.n}, xi={c.xi})", not details, details)


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
