"""Exact factorization: integer polynomials over Z, reductions mod p, and
the resultant that ties the two together.

The Z-side factorization runs squarefree decomposition, a mod-p
factorization, quadratic Hensel lifting past the coefficient bound, and
subset recombination.  factor_z takes a companion polynomial P, fixed
by X -> 1-X, through its half-degree v-model Q with P(X) = Q(X^2 - X), and
keeps each lift q(X^2 - X) whole once a mod-p certificate proves it
irreducible; the trace shows Q's one prime.  The result is checked by one
re-multiplication at half degree, of Q's factors against Q: composing
with X^2 - X is an injective ring homomorphism, so the lifts then
multiply to P.
"""

from knotsig import factor_z, integer_factor, parse_poly, poly_text, resultant, standing_assumptions
from knotsig.modp import PolyModP, factor_mod_p

f1 = parse_poly("x^4 - 2*x^3 + 5*x^2 - 4*x + 1")
f2 = parse_poly("x^4 - 2*x^3 + 11*x^2 - 10*x + 3")
P = f1 * f2

print(f"P = {poly_text(P)}")
trace: list[str] = []
fz = factor_z(P, trace=trace)
for q, mult in fz.factors:
    print(f"  irreducible factor: {poly_text(q)}" + (f" ^{mult}" if mult > 1 else ""))
print("how the factorization went:")
for line in trace:
    print(f"  {line}")

sa = standing_assumptions(P)
print(f"squarefree: {sa.squarefree}, every factor symmetric under X -> 1-X: {sa.all_symmetric}")

print()
res = resultant(f1, f2)
print(f"resultant(f1, f2) = {res} with prime support {sorted(set(integer_factor(res)))}")
print("only primes dividing the resultant can give the reductions a common factor:")
for p in (2, 3, 5):
    a = PolyModP.from_int_poly(f1, p)
    fac = factor_mod_p(a)
    pieces = " * ".join(
        f"({', '.join(map(str, q.coeffs))})" + (f"^{e}" if e > 1 else "") for q, e in fac.factors
    )
    print(f"  f1 mod {p} factors (ascending coefficients): {pieces}")
