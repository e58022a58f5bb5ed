"""The sl(2) action, Lefschetz decomposition and primitive forms.

L wedges with omega, its partner contracts with the inverse bivector, and the
grading operator weighs degree k by n-k.  Primitive forms are the highest
weight vectors; every form splits uniquely into omega-powers of primitives.
"""

from symcoh import Form, SymplecticStructure, parse_form, recursive_primitive_basis
from symcoh.exterior import blade_index, form_from_coords, form_to_coords

st = SymplecticStructure(parse_form("e16 + e25 - e34", 6))

print("commutator check on a sample form:")
a = parse_form("e13 + 2*e145 - e2", 6)
lhs = st.apply("Lambda", st.apply("L", a)) - st.apply("L", st.apply("Lambda", a))
# H weighs the degree-k part by n-k
h_a = sum((a.grade(k) * (st.n - k) for k in a.degrees()), Form.zero(6))
print("  [Lambda, L] a == H a :", lhs == h_a)

print("\ncontracting omega itself returns the half-dimension:")
print("  Lambda(omega) =", st.apply("Lambda", st.omega))

print("\nLefschetz decomposition of a 3-form, one projection matrix per component:")
f = parse_form("e125 + e236", 6)
order, index = blade_index(6, 3)
# the projection onto the (r, s) component is L^r/r! on P^s after C_r
parts = {(r, 3 - 2 * r): form_from_coords(
             (st.lift(3 - 2 * r, r) @ c).apply(form_to_coords(f, index)), order, 6)
         for r, c in st.lefschetz_components(3).items()}
for (r, s), part in parts.items():
    print(f"  omega^{r}/{r}! ^ (primitive {s}-form): {part}")
print("  the parts sum to the form:", sum(parts.values(), Form.zero(6)) == f)
print("  the omega^0 part is primitive:", st.apply("Lambda", parts[0, 3]).is_zero())

print("\nprimitive basis sizes match the binomial difference:")
for k in range(4):
    print(f"  degree {k}: {len(st.primitive_basis(k))} elements")

print("\nthe recursion over symplectic planes gives the same spaces (standard omega):")
basis = recursive_primitive_basis(2, 2)
print("  n=2, k=2:", ", ".join(str(b) for b in basis))
