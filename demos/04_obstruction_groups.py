"""The obstruction group: linking factors through shared symmetric factors
mod p.

For each pair of irreducible factors of P, the candidate primes are the
prime support of their resultant; a prime joins the set when the two
reductions share a factor h with h(1-X) = h(X).  Every candidate joins:
the shared factor shown for it is the gcd of the two reductions, which
X -> 1-X fixes.  Factors linked by a
nonempty prime set fall into one component; the group is elementary
abelian of rank (components - 1), and rank 0 is what makes every
admissible signature realizable.
"""

from knotsig import IntPoly, delta_to_p, obstruction_group, parse_poly, poly_text, standing_assumptions


def show(name: str, p_poly) -> None:
    sfs = standing_assumptions(p_poly)
    group, table = obstruction_group(sfs)
    print(name)
    for i, f in enumerate(sfs.factors):
        print(f"  factor {i}: {poly_text(f)}")
    for entry in table:
        i, j = entry.pair
        primes = "{" + ", ".join(map(str, entry.primes)) + "}"
        print(f"  primes({i},{j}) = {primes}")
        for p, w in entry.witnesses:
            print(f"    shared symmetric factor mod {p}: coefficients {list(w.coeffs)}")
    comps = " | ".join("{" + ", ".join(map(str, c)) + "}" for c in group.components)
    print(f"  components: {comps}  ->  rank {group.rank} (group of order 2^{group.rank})")
    print()


# two quartics that become a common square mod 2: linked, trivial group
f1 = parse_poly("x^4 - 2*x^3 + 5*x^2 - 4*x + 1")
f2 = parse_poly("x^4 - 2*x^3 + 11*x^2 - 10*x + 3")
show("linked pair (trivial group):", f1 * f2)

# transforms of a sextic and a quartic that stay coprime at every prime
g1 = parse_poly("x^6 - 3*x^5 - x^4 + 5*x^3 - x^2 - 3*x + 1")
g2 = parse_poly("x^4 - x^2 + 1")
show("unlinked pair (group Z/2):", delta_to_p(g1) * delta_to_p(g2))

# two members of the sextic family, again linked at 2
da = IntPoly([1, 0, -1, -1, -1, 0, 1])
db = IntPoly([1, -2, -1, 3, -1, -2, 1])
show("sextic family members a=0, b=2 (trivial group):", delta_to_p(da) * delta_to_p(db))
