"""Finite-dimensional Hodge theory on the invariant complex.

An exact compatible triple is built by symplectic Gram-Schmidt; harmonic
primitive forms then represent each cohomology class, and the duality
pairing between the two one-sided families is non-degenerate.
"""

from symcoh import (
    CohomologyCalculator,
    CompatibleTriple,
    Form,
    HodgeTheory,
    SymplecticComplex,
    parse_form,
    parse_salamon,
)

algebra = parse_salamon("(0,0,0,12,14,15+23+24)")
omega = parse_form("e16 + e25 - e34", 6)
cx = SymplecticComplex(algebra, omega)
ht = HodgeTheory(cx)
calc = CohomologyCalculator(cx)

print("splitting operator on sample forms (exact, over the rationals):")
print("  on 1:", ht.triple.apply("jay", Form.scalar(6, 1)))
print("  on omega:", ht.triple.apply("jay", omega) == omega)

print("\nharmonic dimensions equal quotient dimensions:")
for k in range(3):
    print(f"  degree {k}: harmonic {ht.harmonic_dimension(k, 'plus')}"
          f" / quotient {calc.group('p+', k).dimension}")

print("\northogonal three-way splitting of each primitive space:")
for k in range(3):
    res = ht.check_hodge_decomposition(k, "plus")
    print(f"  degree {k}: {'ok' if res.passed else res.details}")

print("\nduality pairing at degree 2 (5x5, full rank):")
pm = ht.pairing_matrix(2, calc.group("p+", 2).rows, calc.group("p-", 2).rows)
for i in range(pm.nrows):
    print("  ", [str(pm.entry(i, j)) for j in range(pm.ncols)])
print("  rank:", pm.rank())

print("\nharmonic dimensions do not depend on the basis choice:")
alt = HodgeTheory(cx, CompatibleTriple(cx.structure, order=list(range(6))[::-1]))
print("  reversed pivot order gives",
      [alt.harmonic_dimension(k, "plus") for k in range(3)])
