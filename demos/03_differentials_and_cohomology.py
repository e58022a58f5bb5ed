"""The split differential and the primitive cohomology table.

On the invariant complex of the nilmanifold (0,0,0,12,14,15+23+24) with
omega = e16+e25-e34, the exterior derivative splits into a degree +1 piece
and an omega-wedged degree -1 piece on primitive forms.  The table of all
six cohomology families comes out exactly.
"""

from symcoh import CohomologyCalculator, Form, SymplecticComplex, parse_form, parse_salamon

algebra = parse_salamon("(0,0,0,12,14,15+23+24)")
omega = parse_form("e16 + e25 - e34", 6)
cx = SymplecticComplex(algebra, omega)

print("the split of d on primitive forms:")
e4, e6 = Form.e(6, 4), Form.e(6, 6)
print("  d e4  =", cx.algebra.d(e4), "   degree+1 piece:", cx.del_plus(e4))
print("  d e6  =", cx.algebra.d(e6))
print("    degree+1 piece:", cx.del_plus(e6))
print("    degree-1 piece:", cx.del_minus(e6))
check = cx.del_plus(e6) + cx.structure.L(cx.del_minus(e6))
print("  recombining gives d e6 back:", check == cx.algebra.d(e6))

calc = CohomologyCalculator(cx)
print("\ncohomology dimensions per degree:")
for name in ("dR", "dL", "p+", "p-", "d+dL", "ddL"):
    dims = [calc.group(name, k).dimension for k in calc.legal_degrees(name)]
    print(f"  {name:5s}: {dims}")

print("\ndegree-2 representatives of the + family:")
for f in calc.group("p+", 2).representatives:
    print("  ", f)

print("\nthe elliptic sequence has index", calc.elliptic_index())
