"""Strong Lefschetz failure and the exactness-lemma witness.

The one-sided primitive cohomologies see more than the de Rham groups: their
degree-2 dimensions change when the symplectic class changes, and the
two-form e12 is exact for both first-order pieces yet not for their
second-order composition.
"""

from symcoh import CohomologyCalculator, Form, SymplecticComplex, parse_form, parse_salamon


def wedge_chain(dim, index_string):
    out = Form.scalar(dim, 1)
    for ch in index_string:
        out = out.wedge(Form.e(dim, int(ch, 16)))
    return out


algebra = parse_salamon("(0,0,0,12,14,15+23+24)")

for text in ("e16 + e25 - e34", "e13 + e26 - e45"):
    omega = parse_form(text, 6)
    calc = CohomologyCalculator(SymplecticComplex(algebra, omega))
    ker = calc.diagnostic_one_step_kernel()
    print(f"omega = {text}:")
    print("   dim of degree-2 one-sided groups:",
          calc.group("p+", 2).dimension, "/", calc.group("p-", 2).dimension)
    print("   omega-wedge H^1 -> H^3 kernel dimension:", ker.dim)

omega = parse_form("e16 + e25 - e34", 6)
cx = SymplecticComplex(algebra, omega)
calc = CohomologyCalculator(cx)
e12 = Form.e(6, 1, 2)
print("\nthe witness two-form e12 on the first structure:")
print("   d-closed:", cx.apply("d", e12).is_zero(),
      " primitive:", cx.apply("Lambda", e12).is_zero())
print("   = degree+1 piece of e4:", cx.apply("del_plus", Form.e(6, 4)) == e12)
pre = wedge_chain(6, "416") - wedge_chain(6, "425")
print("   = degree-1 piece of (e416 - e425):", cx.apply("del_minus", pre) == e12)
print("   in the image of the second-order composition:",
      calc.im("dpdm", 2).contains(calc.to_vec(e12, 2)))
print("\nso the three exactness notions disagree here, exactly as the")
print("degree-2 dimension jump predicts.")
