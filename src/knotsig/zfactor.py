"""Complete factorization of integer polynomials over Z, and the factor set
of a companion polynomial P with its standing-assumption flags.

`factor_z`, the one entry point, chooses the route: a polynomial fixed by
X -> 1-X goes through its half-degree v-model, any other directly.  The
direct route is Zassenhaus: content/primitive split, Yun squarefree
decomposition (integer `gcd_z`, only when no mod-p certificate shows the
input squarefree), then per squarefree part g, in this order: one prime p
at which g's monic model is squarefree (so no modular squarefree split
runs); the count of modular factors mod p, by distinct-degree passes of
the known factors dividing g and of the cofactor they leave (of g when
none does); g itself for one, `BudgetExceededError` for more than
MAX_MODULAR_FACTORS = 16; then the known factors, and the cofactor goes
on at p: equal-degree splitting, a quadratic Hensel lift past the
Mignotte bound (each linear factor X - r as its root r, by p-adic Newton
steps; the others by recursive splitting of the cofactor the roots leave:
the products of the two halves of their list lift together, then each
half against its lifted product), and subset recombination in one pass
over subset sizes.  All modular work runs on coefficient lists in
`modp`'s kernels, over Z/m for the lift.  A subset that does not divide
the cofactor left divides none of its divisors, so the enumeration goes
on past an accepted subset and the size grows only when none of it
divides: a part costs at most
sum_{k<=8} C(16, k) = 39,202 trial divisions (`polys.divides`).  No step
uses Fractions; results are checked by one re-multiplication, at half
degree on the v-model route: f = Q(X^2 - X) exactly, and composing with
X^2 - X is an injective ring homomorphism, so the factors of Q multiply
to Q exactly when their lifts multiply to f (proof at `factor_z`).

Distinct Delta share factors (see `memos`).  `_known_factors` holds
those a factorization proved irreducible (Zassenhaus output, parts
irreducible mod p, lifts of v-model factors, certified or split), entered
once the factor set passed its check.  `_factor` scans it once per input
and hands each squarefree part the divisors found that divide the part.
An input whose memoized candidates fill its degree and multiply to it is
its one squarefree part, and that product is its check (proof at
`_factor`): no Yun, no division and no second product.  A part, from
either source, that its known factors fill is answered by
`_factor_squarefree` alone (proof there): at degree <= 16 with no prime,
as the cap could not refuse; above, once the cap has counted it part by
part: each known factor and the cofactor they leave get a
distinct-degree pass of their own at the part's prime (a root scan for a
cubic v-model factor), so the count, and any refusal, is that of a cold
run.  `_lift_facts` is the one record of each v-model factor q, memoized
per q: its lift q(X^2 - X), composed once, whether that lift is shown
irreducible, and its rho, counted once; the pipeline reads each factor's
rho from it.  A q with rho > 0 (a real root below -1/4) is certified
with no prime.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce

from .errors import BudgetExceededError, KnotsigError
from .intfactor import is_probable_prime
from .memos import PER_FACTOR, memo, register
from .modp import (
    _add,
    _distinct_degree,
    _divrem,
    _equal_degree_factors,
    _gcd,
    _lifts_split,
    _monic,
    _mul,
    _reduced,
    _rem,
    _sub,
    _xgcd,
)
from .polys import (X2_MINUS_X, IntPoly, _mul_coeffs, _p_to_delta, divides, exact_div, gcd_z,
                    poly_text, resultant, v_polynomial)
from .realroots import _sign_hom, rho_delta

MAX_MODULAR_FACTORS = 16
# Primes tried per lift certificate of a q with no real root below -1/4: of
# the 598 irreducible lifts of the Delta_a sextics, a = -300..299, 300 are
# certified by such a root, and 290 of the other 298 within the first 8.
LIFT_PRIMES = 8
# the three largest primes below 2^30, so residues and their products stay small
CERTIFICATE_PRIMES = (1073741789, 1073741783, 1073741741)


@dataclass(frozen=True)
class FactorizationZ:
    """content * prod(factor^mult); factors primitive, positive leading
    coefficient, pairwise non-associate, sorted by (degree, coefficients).
    ``models`` maps a factor to the v-model `factor_z` already holds for
    it, q for each certified lift q(X^2 - X); it is left out of equality
    and repr."""

    content: int
    factors: tuple[tuple[IntPoly, int], ...]
    models: dict[IntPoly, IntPoly] = field(default_factory=dict, compare=False, repr=False)

    def product(self) -> IntPoly:
        factors = (q.coeffs for q, e in self.factors for _ in range(e))
        return IntPoly(reduce(_mul_coeffs, factors, [self.content]))

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


@dataclass(frozen=True)
class SymmetricFactorSet:
    """The factorization of P with each factor's v-model (None for a
    factor not fixed by X -> 1-X) and the standing-assumption flags:
    whether each factor is fixed, and whether P is monic with all fixed."""

    factorization: FactorizationZ
    models: tuple[IntPoly | None, ...]
    all_symmetric: bool

    @property
    def symmetric(self) -> tuple[bool, ...]:
        return tuple(m is not None for m in self.models)

    @property
    def factors(self) -> tuple[IntPoly, ...]:
        return tuple(q for q, _ in self.factorization.factors)

    @property
    def squarefree(self) -> bool:
        return self.factorization.is_squarefree


# ---------------------------------------------------------------------------
# squarefree decomposition over Z (Yun)


def _yun(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Squarefree decomposition of a primitive positive-lc polynomial."""
    if f.degree <= 1 or certified_squarefree(f):
        return [(f, 1)]
    a0 = gcd_z(f, f.derivative())
    if a0.degree == 0:
        return [(f, 1)]
    out: list[tuple[IntPoly, int]] = []
    b = exact_div(f, a0)
    d = exact_div(f.derivative(), a0) - b.derivative()
    i = 1
    while b.degree > 0:
        g = gcd_z(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = exact_div(b, g)
        d = exact_div(d, g) - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# Hensel lifting (monic, quadratic: Newton steps on roots, recursive split)


def _hensel_step(f, g, h, s, t, m, last=False):
    """One quadratic step: from f = g*h and s*g + t*h = 1 (mod m) to the
    same congruences mod m^2, with g, h monic; so is h2 = h + r, as
    deg r < deg h, and both divide over Z/m^2.  Products stay unreduced
    until the sum or division that takes them reduces once.  After the
    ``last`` round nothing reads s, t, so they are returned unlifted."""
    m2 = m * m
    e = _sub(f, _mul_coeffs(g, h), m2)
    q, r = _divrem(_mul_coeffs(s, e), h, m2)
    g2 = _add(_add(g, _mul_coeffs(t, e), m2), _mul_coeffs(q, g), m2)
    h2 = _add(h, r, m2)
    if last:
        return g2, h2, s, t
    b = _sub(_add(_mul_coeffs(s, g2), _mul_coeffs(t, h2), m2), (1,), m2)
    c, d = _divrem(_mul_coeffs(s, b), h2, m2)
    s2 = _sub(s, d, m2)
    t2 = _sub(_sub(t, _mul_coeffs(t, b), m2), _mul_coeffs(c, g2), m2)
    return g2, h2, s2, t2


def _value_and_slope(c, x: int, m: int) -> tuple[int, int]:
    """(c(x), c'(x)) mod m, for ascending coefficients c, by one Horner pass."""
    value = slope = 0
    for a in reversed(c):
        slope = (slope * x + value) % m
        value = (value * x + a) % m
    return value, slope


def _hensel_lift(F: IntPoly, factors: list[list[int]], p: int, target: int):
    """Lift the monic factors mod p of monic F, coefficient lists, until the
    modulus reaches ``target``; returns (lifted factors, modulus), in the
    order of ``factors``.

    A linear factor X - r lifts as its root, by Newton's step
    r <- r - F(r)/F'(r) mod m^2 from a root r mod m, over the moduli p,
    p^2, p^4, ...: r is a simple root, as F is squarefree mod p, so F'(r)
    is a unit, and F(r - F(r)u) = F(r)(1 - F'(r)u) = 0 mod m^2 for
    u = 1/F'(r), since F(r) = 0 mod m.  One exact division mod the final
    modulus gives the cofactor N = F / prod(X - r~), and the other
    factors lift against N by recursive splitting: the products g, h of
    the two halves of their list lift against N, then each half against
    its lifted product; one factor is N itself.  The monic lift of a
    coprime factorization mod p is unique, so X - r~ is the split tree's
    lift of X - r, N is the product of the other lifts, and neither the
    roots nor the order of the splits change any factor."""
    moduli = [p]
    while moduli[-1] < target:
        moduli.append(moduli[-1] ** 2)
    final = moduli[-1]

    def split(f, factors):
        if len(factors) == 1:
            return [_reduced(f, final)]
        mid = len(factors) // 2
        g, h = (reduce(lambda a, b: _mul(a, b, p), half) for half in (factors[:mid], factors[mid:]))
        d, u = _xgcd(g, h, p)
        if len(d) != 1:
            raise KnotsigError("modular factors are not coprime")
        # enforce deg(s) < deg(h), deg(t) < deg(g)
        s = _rem(u, h, p)
        t = _divrem(_sub((1,), _mul_coeffs(s, g), p), h, p)[0]
        for m in moduli[:-1]:
            g, h, s, t = _hensel_step(f, g, h, s, t, m, m == moduli[-2])
        return split(g, factors[:mid]) + split(h, factors[mid:])

    lifted = list(factors)
    linear = [i for i, q in enumerate(factors) if len(q) == 2]
    for i in linear:
        r = -factors[i][0]
        for m in moduli[1:]:
            value, slope = _value_and_slope(F.coeffs, r, m)
            if not slope % p:
                raise KnotsigError("modular factors are not coprime")
            r = (r - value * pow(slope, -1, m)) % m
        lifted[i] = [-r % final, 1]
    rest = [i for i, q in enumerate(factors) if len(q) > 2]
    if rest:
        roots = reduce(lambda a, b: _mul(a, b, final), (lifted[i] for i in linear), [1])
        N = _divrem(F.coeffs, roots, final)[0]
        for i, leaf in zip(rest, split(N, [factors[i] for i in rest])):
            lifted[i] = leaf
    return lifted, final


# ---------------------------------------------------------------------------
# Zassenhaus recombination


def _squarefree_mod(g: IntPoly, dg: tuple[int, ...], p: int) -> bool:
    """p does not divide lc(g) and gcd(g mod p, g' mod p) = 1, with
    ``dg`` the coefficients of g'."""
    return g.lc % p != 0 and len(_gcd(_reduced(g.coeffs, p), _reduced(dg, p), p)) == 1


def certified_squarefree(f: IntPoly) -> bool:
    """True when a prime p of CERTIFICATE_PRIMES passes `_squarefree_mod`;
    False decides nothing.

    Such a p shows f squarefree over Q: by Gauss's lemma h^2 | f over Q
    with deg h >= 1 gives h^2 | f in Z[X], reducing mod p keeps deg h,
    and then h mod p would divide that gcd."""
    df = f.derivative().coeffs
    return any(_squarefree_mod(f, df, p) for p in CERTIFICATE_PRIMES)


def _good_primes(g: IntPoly, lift: bool = False) -> Iterator[int]:
    """The odd primes p, ascending, that divide neither Res(g, g') nor,
    with ``lift``, 4^d g(-1/4) (d = deg g): those that pass
    `_squarefree_mod`, so g's monic model is squarefree mod p too, and
    with ``lift`` also have g(-1/4) != 0 mod p, which makes g(X^2 - X)
    squarefree mod p too.  The integers are taken once; each candidate
    costs one remainder.

    The same primes as a gcd mod p per candidate.  Res(g, g') =
    +-lc(g) disc(g), so p does not divide lc g, and g mod p keeps degree
    d; the Sylvester determinant of g and g' (formal degrees d and d - 1)
    reduces mod p to that of g mod p and g' mod p.  Where p divides d and
    g' mod p drops k degrees, expanding along the first k columns, where
    lc(g) is each one's only nonzero entry, leaves
    +-lc(g)^k Res(g mod p, g' mod p), with lc(g) a unit; where g' = 0
    mod p the determinant is 0 and the gcd is g.  So p divides
    Res(g, g') exactly when g mod p and g' mod p share a factor."""
    bad = resultant(g, g.derivative())
    if lift:
        d = len(g.coeffs) - 1
        bad *= sum(c * (-1) ** k * 4 ** (d - k) for k, c in enumerate(g.coeffs))
    p = 1
    while True:
        p += 2
        if bad % p and is_probable_prime(p):
            yield p


def _mignotte_bound(G: IntPoly) -> int:
    """Coefficient bound for any monic divisor of monic G."""
    norm2 = math.isqrt(sum(c * c for c in G.coeffs)) + 1
    return (1 << int(G.degree)) * norm2


def _model(f: IntPoly, lc: int) -> IntPoly:
    """lc^deg(f) * f(X/lc) / lc(f), for lc(f) | lc: monic over Z, with roots
    lc times f's, so at one lc the model of a divisor divides f's model."""
    d = len(f.coeffs) - 1
    return f if lc == 1 else IntPoly([c * lc ** (d - k) // f.lc for k, c in enumerate(f.coeffs)])


def _factor_squarefree(
    g: IntPoly, known: list[IntPoly], trace: list[str] | None, lift: bool = False
) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree positive-lc polynomial
    g, given ``known``, the memoized ones that divide it; ``lift`` as in
    `_good_primes`.

    Known factors that fill g's degree are its factorization: distinct
    primitive positive-lc irreducibles dividing g multiply to a divisor
    (Gauss's lemma), at full degree g.  If deg g <= MAX_MODULAR_FACTORS
    they answer with no prime: g has at most deg g modular factors, so the
    cap could not refuse it.  Above, the cap counts g's modular factors at
    its first good prime p part by part.  p does not divide lc g and g is
    squarefree mod p, so g mod p is the product of the pairwise coprime
    q mod p (q known) and r mod p, r the cofactor g / prod q: its
    irreducible factors are the disjoint union of theirs.  The count is
    the sum of the degrees from each q's own distinct-degree pass (p does
    not divide lc q, and q is squarefree mod p) and from r's.  That is the
    count of a pass over all of g, so the prime, the trace line and the cap
    do not depend on the memo; when the known factors fill g, no pass and
    no division runs at g's degree."""
    d = int(g.degree)
    left = d - _degree(known)
    if not left and d <= MAX_MODULAR_FACTORS:
        if trace is not None:
            trace.append(f"{len(known)} known factors, cofactor of degree 0")
        return known
    if d <= 1:
        return [g]
    p = next(_good_primes(g, lift))
    degrees = [k for q in known
               for k in _modular_degrees(_distinct_degree(_monic(_reduced(q.coeffs, p), p), p))]
    if left:
        rest = exact_div(g, _product(known)) if known else g
        # the model of a divisor of g at lc g is certified squarefree mod p with g's
        G = _model(rest, g.lc)
        blocks = _distinct_degree(_reduced(G.coeffs, p), p)
        own = _modular_degrees(blocks)
        degrees += own
    degrees.sort()
    if trace is not None:
        trace.append(f"prime {p}: modular degrees {degrees}")
    if len(degrees) == 1:
        return [g]
    if len(degrees) > MAX_MODULAR_FACTORS:
        raise BudgetExceededError(
            f"{len(degrees)} modular factors of a degree-{d} polynomial at p = {p} exceed"
            f" the recombination cap of {MAX_MODULAR_FACTORS}"
        )
    if known:
        if trace is not None:
            trace.append(f"{len(known)} known factors, cofactor of degree {left}")
        if not left:
            return known
        if len(own) == 1:
            return known + [rest]
    return known + _recombined(G, g.lc, blocks, p, trace)


def _modular_degrees(blocks) -> list[int]:
    """The degrees of the irreducible factors of distinct-degree blocks, ascending."""
    return [k for block, k in blocks for _ in range((len(block) - 1) // k)]


def _recombined(G: IntPoly, lc: int, blocks, p: int, trace) -> list[IntPoly]:
    """The irreducible factors of h from G = `_model`(h, lc) and its blocks
    mod p: equal-degree splitting, the Hensel lift, then recombination."""
    modular = _equal_degree_factors(blocks, p)
    lifted, modulus = _hensel_lift(G, modular, p, 2 * _mignotte_bound(G) + 1)
    if trace is not None:
        trace.append(f"lifted {len(lifted)} factors to modulus {p}^k = {modulus}")

    found: list[IntPoly] = []
    alive = set(range(len(lifted)))
    current, size, half = G, 1, modulus // 2
    while 2 * size <= len(alive):
        # subsets passed over divide no later cofactor: go on past an accepted one
        for combo in itertools.combinations(sorted(alive), size):
            if not alive.issuperset(combo):
                continue
            prod = [1]
            for i in combo:
                prod = _mul(prod, lifted[i], modulus)
            cand = IntPoly(c - modulus if c > half else c for c in prod)  # in (-m/2, m/2]
            if divides(cand, current):
                found.append(cand)
                current = exact_div(current, cand)
                alive.difference_update(combo)
                if trace is not None:
                    trace.append(f"accepted subset {list(combo)} of degree {int(cand.degree)}")
                if 2 * size > len(alive):
                    break
        # no subset of this size divides current, so none divides a divisor of it
        size += 1
    if current.degree > 0:
        found.append(current)
    # back from the model: X -> lc*X, then the primitive part
    return found if lc == 1 else [IntPoly(c * lc**k for k, c in enumerate(H.coeffs)).primitive()
                                  for H in found]


class _KnownFactors:
    """Primitive positive-lc polynomials proven irreducible over Z, least
    recently used first out past ``maxsize``, each kept with |q(16)| (1 for
    X - 16): q | g forces deg q <= deg g and q(16) | g(16), two integer
    tests that every divisor of g passes.  At 16 a non-divisor seldom
    passes (at 2 often).

    The entries are distinct irreducibles, so when those that pass for g
    fill its degree and multiply to g, they are g's factorization, each of
    multiplicity 1: that one product shows each of them a divisor, with no
    `divides`, and it is the only check such an answer needs.  On the
    v-model route of `factor_z`, g is Q's primitive part, and the product
    checks P too (proof there)."""

    def __init__(self, maxsize: int):
        self.maxsize, self.entries = maxsize, {}

    def cache_clear(self) -> None:
        self.entries.clear()

    def __call__(self, g: IntPoly) -> list[IntPoly]:
        """The entries that divide g, refreshed.  When they fill g's degree,
        one product has checked that they multiply to g: the product of the
        entries that pass both tests, or, when that differs (a non-divisor
        passed), the product of the divisors `divides` finds among them."""
        n, at16 = len(g.coeffs), g.evaluate(16)
        found = [q for q, v in self.entries.items() if not at16 % v and len(q.coeffs) <= n]
        if _degree(found) != n - 1 or _product(found) != g:
            found = [q for q in found if divides(q, g)]
            if _degree(found) == n - 1 and _product(found) != g:
                raise KnotsigError("internal error: factorization failed re-multiplication")
        self.learn(found)
        return found

    def learn(self, factors: list[IntPoly]) -> None:
        for q in factors:
            self.entries[q] = self.entries.pop(q, None) or abs(q.evaluate(16)) or 1
        while len(self.entries) > self.maxsize:
            del self.entries[next(iter(self.entries))]


_known_factors = register(_KnownFactors(PER_FACTOR))


def _factor(f: IntPoly, trace: list[str] | None, lift: bool = False) -> FactorizationZ:
    """The factorization of nonzero f over Z, checked by one product:
    content * prod(factor^mult) = f; ``lift`` as in `_good_primes`.  On
    the v-model route of `factor_z`, f is Q, and this one product at half
    degree checks P too (proof there).

    Known factors first, from one scan of the memo.  When the memo's
    divisors of prim fill its degree, prim is its one squarefree part, and
    the product `_KnownFactors` took to find them is the check: they
    multiply to prim, which is then squarefree, so no Yun runs and no
    second product is taken; when the entries that pass the memo's tests
    are these divisors, no `divides` runs either.  Otherwise Yun's parts
    are factored and multiplied out.  Each part gets the known divisors of
    prim that divide it, and `_factor_squarefree` answers it."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content = f.content() if f.lc > 0 else -f.content()
    prim = f.primitive()
    if prim.degree == 0:
        return FactorizationZ(content, ())
    known = _known_factors(prim)
    filled = _degree(known) == prim.degree  # checked by `_known_factors`
    out: list[tuple[IntPoly, int]] = []
    for part, mult in [(prim, 1)] if filled else _yun(prim):
        part_known = known if part == prim else [q for q in known if divides(q, part)]
        if trace is not None and part != prim:
            trace.append(f"squarefree part of multiplicity {mult}: {part}")
        out += [(irr, mult) for irr in _factor_squarefree(part, part_known, trace, lift)]
    result = _sorted(content, out)
    if not filled and result.product() != f:
        raise KnotsigError("internal error: factorization failed re-multiplication")
    return result


def _degree(factors: list[IntPoly]) -> int:
    return sum(len(q.coeffs) - 1 for q in factors)


def _product(factors: list[IntPoly]) -> IntPoly:
    return IntPoly(reduce(_mul_coeffs, (q.coeffs for q in factors), [1]))


def _sorted(content: int, factors: list[tuple[IntPoly, int]],
            models: dict[IntPoly, IntPoly] | None = None) -> FactorizationZ:
    """content * prod(factor^mult), the factors sorted by (degree, coefficients)."""
    factors.sort(key=lambda fe: (int(fe[0].degree), fe[0].coeffs))
    return FactorizationZ(content, tuple(factors), models or {})


@memo(PER_FACTOR)
def _lift_facts(q: IntPoly) -> tuple[IntPoly, bool, int]:
    """The record of a v-model factor q, irreducible over Z other than
    4Y + 1: its lift q(X^2 - X), whether that lift is shown irreducible
    over Z, and the rho of the lift, memoized per q.  The lift is composed
    once, so a known factor is not composed again.  rho is that of the
    factor Delta_f of Delta (`polys._p_to_delta`) that f = q(X^2 - X)
    comes from, counted once by its trace model (`realroots.rho_delta`),
    and 0 for q = Y, the one irreducible q with q(0) = 0, whose lift
    X^2 - X would lose degree there.  It is twice the count of q's real
    roots below -1/4: they give the roots of f on Re z = 1/2
    (`realroots.rho_p`), which X -> 1 - 1/X carries onto the unit circle.

    `rho_delta` never refuses here.  For q != Y, f(0) = q(0) != 0, so
    Delta_f has degree deg f = 2 deg q and is reciprocal, as f is fixed by
    X -> 1-X.  Delta_f(1) = +-lc f != 0, and Delta_f(-1) = +-4^(deg q)
    q(-1/4) != 0, as 4Y + 1 does not divide q.  q is squarefree and
    q(-1/4) != 0, so f is squarefree, and so is Delta_f, a change of
    variable X -> 1/(1 - X) of f with f(0) != 0.

    The lift is shown irreducible at once when rho > 0, else when at one
    of the first LIFT_PRIMES primes p of ``_good_primes(q, lift=True)``,
    1 + 4y is a non-square in F_p[y]/r for some monic irreducible factor
    r of q mod p.  False decides nothing: `factor_z` then factors the lift
    directly, and factorization over Z is unique, so no factor set
    depends on the certificate.

    rho > 0: a real root lambda < -1/4.  Let K = Q(theta), q(theta) = 0,
    and alpha a root of X^2 - X - theta.  Were 1 + 4 theta = beta^2 with
    beta in K, the real embedding theta -> lambda would give
    1 + 4 lambda = sigma(beta)^2 >= 0.  So X^2 - X - theta is irreducible
    over K, [Q(alpha) : Q] = 2 deg q, and q(X^2 - X) is irreducible over
    Q; it is primitive, as X^2 - X is monic, so irreducible over Z.  So
    every factor with a Milnor value is certified with no prime.

    A prime p.  Then X^2 - X - y has no root in that field, so
    r(X^2 - X) is irreducible mod p and fixed by X -> 1-X.  A split lift
    q(X^2 - X) = +-h(X) h(1-X) would put it into h or h(1-X) mod p, by
    symmetry into both, and so its square into q(X^2 - X), which is
    squarefree mod p.  Euler's criterion (`modp._lifts_split`) runs on each
    distinct-degree block B of q mod p: (1 + 4y)^((p^k - 1)/2) mod B is +-1
    modulo each degree-k factor of B, so it differs from 1 exactly when one
    factor has a non-square."""
    lift = q.compose(X2_MINUS_X)
    rho = rho_delta(_p_to_delta(lift)) if q.coeffs[0] else 0
    if rho:
        return lift, True, rho
    for p in itertools.islice(_good_primes(q, lift=True), LIFT_PRIMES):
        qp = _monic(_reduced(q.coeffs, p), p)
        if not all(_lifts_split(block, k, p) for block, k in _distinct_degree(qp, p)):
            return lift, True, 0
    return lift, False, 0


def v_model(f: IntPoly) -> IntPoly | None:
    """`polys.v_polynomial` of f (the symmetry test), or None if f is not symmetric."""
    try:
        return v_polynomial(f)
    except ValueError:
        return None


def factor_z(f: IntPoly, trace: list[str] | None = None) -> FactorizationZ:
    """Factor f completely into irreducibles over Z, by the route f selects.

    A symmetric f (f(1-X) = f(X)) with f(1/2) != 0 goes through its
    half-degree v-model Q, f(X) = Q(X^2 - X) (`polys.v_polynomial`),
    factored at primes good for f as well (Q squarefree and Q(-1/4) != 0
    mod p), where the cap MAX_MODULAR_FACTORS counts at most f's modular
    factors.  Each irreducible q of Q lifts to q(X^2 - X), one factor of f
    fixed by X -> 1-X or a pair h(X), h(1-X): kept whole when its record
    (`_lift_facts`) shows it irreducible, else factored directly.  Any
    other f is factored directly: it is not symmetric, or (2X - 1)^2
    divides f (4Y + 1 divides Q) and no prime is good for f.

    The route is chosen by one integer Horner pass: 4Y + 1 divides Q
    (Gauss's lemma: it is primitive) exactly when 4^d Q(-1/4) = 0.  On
    either route a part that known factors cover is answered from them,
    above degree 16 once the cap has counted it (`_factor_squarefree`);
    no answer or refusal depends on them.

    The factor set is checked by one re-multiplication: of f on the
    direct route, of Q at half degree on the v-model route, where the
    product of known factors that answers Q is that check (`_factor`).
    `v_polynomial` builds Q by exact division, so f = Q(X^2 - X), and
    q -> q(X^2 - X) is a ring homomorphism Z[Y] -> Z[X], injective since
    X^2 - X is not constant (deg q(X^2 - X) = 2 deg q).  So content *
    prod q^e = Q exactly when content * prod q(X^2 - X)^e = f.  A lift
    kept whole is q(X^2 - X) itself; the pieces of a split one are
    checked against it by `_factor`, so the factors of f multiply to f
    with no product at f's degree.  A certified lift hands its q on as
    its v-model (``models``).  A list passed as ``trace`` collects the
    route, the primes and recombination events.
    """
    q_poly = v_model(f)
    if q_poly is None or not _sign_hom(q_poly, -1, 4):
        q_factors, result = (), _factor(f, trace)
    else:
        if trace is not None:
            trace.append(f"through the v-model Q = {poly_text(q_poly)}")
        fq = _factor(q_poly, trace, lift=True)
        factors, models = [], {}
        for q, e in fq.factors:
            lifted, certified, _ = _lift_facts(q)
            if certified:
                factors.append((lifted, e))
                models[lifted] = q
            else:
                factors += [(h, m * e) for h, m in _factor(lifted, trace).factors]
        q_factors, result = fq.factors, _sorted(fq.content, factors, models)
    _known_factors.learn([q for q, _ in q_factors + result.factors])
    return result


def standing_assumptions(p_poly: IntPoly) -> SymmetricFactorSet:
    """Factor P by `factor_z` (which chooses the route), take each factor's
    v-model from it where it holds one and derive the others once, and
    flag whether P is a product of distinct monic irreducible polynomials,
    each symmetric."""
    fz = factor_z(p_poly)
    models = tuple(fz.models[q] if q in fz.models else v_model(q) for q, _ in fz.factors)
    return SymmetricFactorSet(fz, models, p_poly.is_monic and all(m is not None for m in models))
