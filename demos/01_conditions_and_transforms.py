"""The three conditions on an Alexander-type polynomial, and the exact
change of variable between Delta and its companion P.

Delta qualifies when it is reciprocal of even degree 2n, takes the value
(-1)^n at 1, and a perfect square at -1.  The companion
P(X) = (-1)^n X^2n Delta(1 - 1/X) is fixed by X -> 1-X, and the transform
is an exact bijection (and multiplicative), so everything done on the P
side translates back.
"""

from knotsig import alexander_check, delta_to_p, p_to_delta, parse_poly, poly_text

delta1 = parse_poly("x^4 - x^2 + 1")
delta2 = parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")

for name, delta in (("Delta_1", delta1), ("Delta_2", delta2), ("Delta_1*Delta_2", delta1 * delta2)):
    rep = alexander_check(delta)
    print(f"{name} = {poly_text(delta)}")
    print(f"  reciprocal of degree 2n (n = {rep.n}): {rep.reciprocal}")
    print(f"  value (-1)^n at 1:                    {rep.value_at_one}")
    print(
        f"  square at -1:                         {rep.square_at_minus_one}"
        f" ({rep.delta_minus_one} = {rep.square_root_witness}^2)"
    )

print()
for delta in (delta1, delta2):
    p = delta_to_p(delta)
    print(f"companion of {poly_text(delta)}:")
    print(f"  P = {poly_text(p)}")
    assert p_to_delta(p) == delta
    print("  round trip back to Delta: exact")

p_prod = delta_to_p(delta1 * delta2)
assert p_prod == delta_to_p(delta1) * delta_to_p(delta2)
print("\nthe transform is multiplicative: P(Delta_1 * Delta_2) = P_1 * P_2")

# a reciprocal polynomial that fails the value condition
bad = parse_poly("x^2 - x + 1")
print(f"\n{poly_text(bad)}: value at 1 is {bad.evaluate(1)}, needs (-1)^1 = -1 ->", end=" ")
print("passes" if alexander_check(bad).all_pass else "fails")
