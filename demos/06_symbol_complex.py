"""Pointwise exactness of the primitive symbol sequence.

For every non-zero covector the symbols of the two first-order pieces and of
the middle second-order composition form an exact sequence on the primitive
exterior algebra: the analytic backbone behind finiteness of the primitive
cohomologies.
"""

from symcoh import Form
from symcoh.symbolcheck import build_symbols, check_exactness, random_covectors

for n in (1, 2, 3):
    c = build_symbols(n, Form.e(2 * n, 1))
    res = check_exactness(c)
    print(f"n={n}: primitive space dims {c.dims} -> exact: {res.passed}")

print("\nand with a generic rational covector:")
xi = Form.e(6, 1) + Form.e(6, 4) * 2 - Form.e(6, 5)
res = check_exactness(build_symbols(3, xi))
print(f"  xi = {xi}: exact: {res.passed}")

print("\ntwenty seeded pseudorandom covectors (n=3):")
bad = [str(xi) for xi in random_covectors(3, 20)
       if not check_exactness(build_symbols(3, xi)).passed]
print("  failures:", bad if bad else "none")
