"""Counting roots on the unit circle exactly, two independent ways.

On the Delta side, roots with |z| = 1 map to roots of the trace model D in
(-2, 2) via Y = z + 1/z.  On the P side, root pairs with z + conj(z) = 1
map to roots of the v-model Q below -1/4 via v = z^2 - z.  Both counts are
Sturm-sequence certificates over exact rationals, and they must agree.
"""

from fractions import Fraction

from knotsig import (
    IntPoly,
    delta_to_p,
    isolate_roots,
    parse_poly,
    poly_text,
    rho_delta,
    rho_p,
    trace_polynomial,
    v_polynomial,
)

delta1 = parse_poly("x^4 - x^2 + 1")
delta2 = parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")
delta = delta1 * delta2

d = trace_polynomial(delta)
print(f"Delta = {poly_text(delta)}")
print(f"trace model D (Delta(X) = X^n D(X + 1/X)): {poly_text(d)}")
print(f"rho(Delta) = {rho_delta(delta)}")

p = delta_to_p(delta)
q = v_polynomial(p)
print(f"\ncompanion P = {poly_text(p)}")
print(f"v-model Q (P(X) = Q(X^2 - X)): {poly_text(q)}")
print(f"rho(P) = {rho_p(p)}  (computed independently, equal by construction)")

print("\nthe unit-circle quadratic factors X^2 - X - lambda, by isolated v-root:")
for iv in isolate_roots(q, b=Fraction(-1, 4)):
    print(f"  lambda in ({iv.lo}, {iv.hi})")

print("\nthe sextic family Delta_a = x^6 - a*x^5 - x^4 + (2a-1)*x^3 - x^2 - a*x + 1:")
for a in range(4):
    da = IntPoly([1, -a, -1, 2 * a - 1, -1, -a, 1])
    print(f"  a = {a}: rho = {rho_delta(da)} (of degree 6)")
print("rho = 4 < 8 means every knot with one of these polynomials has signature 0")
