"""Complete factorization of integer polynomials over Z, and the factor set
of a companion polynomial P with its standing-assumption flags.

`factor_z`, the one entry point, chooses the route: a polynomial fixed by
X -> 1-X goes through its half-degree v-model, any other directly.  The
direct route is Zassenhaus: content/primitive split, Yun squarefree
decomposition (integer `gcd_z`, only when no mod-p certificate shows the
input squarefree), then per squarefree part g, in this order: one prime p
at which g's monic model is squarefree (so no modular squarefree split
runs); the distinct-degree pass mod p, which counts modular factors; g
itself for one, `BudgetExceededError` for more than MAX_MODULAR_FACTORS =
16; then the known factors that divide g.  Only the cofactor they leave
goes on at p: equal-degree splitting, a quadratic Hensel lift past the
Mignotte bound by recursive splitting (the products of the two halves of
the factor list lift together, then each half against its lifted product),
and subset recombination in one pass over subset sizes.  All modular work
runs on coefficient lists in `modp`'s kernels, over Z/m for the lift.  A
subset that does not divide the cofactor left divides none of its
divisors, so the enumeration goes on past an accepted subset and the size
grows only when none of it divides: a part costs at most
sum_{k<=8} C(16, k) = 39,202 trial divisions (`polys.divides`).  No step
uses Fractions; results are checked by re-multiplication and do not
depend on the splitting seed.

Distinct Delta share factors.  `_known_factors`, keyed on the factor,
holds those a factorization proved irreducible (Zassenhaus output, parts
irreducible mod p, lifts of v-model factors, certified or split), about
340 B each (tracemalloc), entered once `_verified` re-multiplied it.
`_factor` scans it once per input and hands each squarefree part the
divisors found that divide the part.  An input of degree <= 16 whose
memoized divisors fill its degree is answered from them before any modular
work (proof at `_factor`); it could not reach the cap, and on any other
input the cap comes first, so no refusal depends on the memo.
`_lift_certified` needs no prime for a v-model factor with a real root
below -1/4; it is memoized per factor (about 270 B each), as are a pair's
primes and the witness of a gcd mod p in `obstruction`.  Each memo holds
at most FACTOR_FACTS_MEMO = 1024 entries per process, least recently
used first out: a full Delta-facts memo of the largest benchmark Delta
(6 factors, 15 pairs) holds 384 factors and 960 pairs.  Exceptions are
never memoized.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import BudgetExceededError, KnotsigError
from .modp import (
    _add,
    _distinct_degree,
    _divrem,
    _equal_degree_factors,
    _gcd,
    _monic,
    _mul,
    _powmod,
    _reduced,
    _rem,
    _sub,
    _xgcd,
)
from .polys import (IntPoly, _mul_coeffs, certified_squarefree, divides, exact_div, gcd_z,
                    poly_text, v_polynomial)
from .realroots import v_root_count

MAX_MODULAR_FACTORS = 16
# Primes tried per lift certificate of a q with no real root below -1/4: of
# the 598 irreducible lifts of the Delta_a sextics, a = -300..299, 300 are
# certified by such a root, and 290 of the other 298 within the first 8.
LIFT_PRIMES = 8
FACTOR_FACTS_MEMO = 1024

_V = IntPoly((0, -1, 1))  # X^2 - X
_QUARTER = IntPoly((1, 4))  # its lift is (2X - 1)^2
_MemoInfo = namedtuple("MemoInfo", "maxsize currsize")


@dataclass(frozen=True)
class FactorizationZ:
    """content * prod(factor^mult); factors primitive, positive leading
    coefficient, pairwise non-associate, sorted by (degree, coefficients)."""

    content: int
    factors: tuple[tuple[IntPoly, int], ...]

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
    symmetric: tuple[bool, ...]
    all_symmetric: bool

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
# Hensel lifting (monic, quadratic, recursive split)


def _pm_divrem_monic(a, b, m) -> tuple[list[int], list[int]]:
    """Division by a monic polynomial works over Z/m."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be monic")
    return _divrem(a, b, m)


def _hensel_step(f, g, h, s, t, m, last=False):
    """One quadratic step: from f = g*h and s*g + t*h = 1 (mod m) to the
    same congruences mod m^2, with g, h monic.  Products stay unreduced
    until the sum or division that takes them reduces once.  After the
    ``last`` round nothing reads s, t, so they are returned unlifted."""
    m2 = m * m
    e = _sub(f, _mul_coeffs(g, h), m2)
    q, r = _pm_divrem_monic(_mul_coeffs(s, e), h, m2)
    g2 = _add(_add(g, _mul_coeffs(t, e), m2), _mul_coeffs(q, g), m2)
    h2 = _add(h, r, m2)
    if last:
        return g2, h2, s, t
    b = _sub(_add(_mul_coeffs(s, g2), _mul_coeffs(t, h2), m2), (1,), m2)
    c, d = _pm_divrem_monic(_mul_coeffs(s, b), h2, m2)
    s2 = _sub(s, d, m2)
    t2 = _sub(_sub(t, _mul_coeffs(t, b), m2), _mul_coeffs(c, g2), m2)
    return g2, h2, s2, t2


def _hensel_lift(F: IntPoly, factors: list[list[int]], p: int, target: int):
    """Lift the monic factors mod p of monic F, coefficient lists, until the
    modulus reaches ``target``; returns (lifted factors, modulus).  The
    products g, h of the two halves of the list lift against F, then each
    half against its lifted product.  The monic lift of a coprime
    factorization mod p is unique, so the order of the splits does not
    change the factors."""
    moduli = [p]
    while moduli[-1] < target:
        moduli.append(moduli[-1] ** 2)

    def split(f, factors):
        if len(factors) == 1:
            return [_reduced(f, moduli[-1])]
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

    return split(F.coeffs, factors), moduli[-1]


# ---------------------------------------------------------------------------
# Zassenhaus recombination


def _good_primes(g: IntPoly, lift: bool = False) -> Iterator[int]:
    """The odd primes p, ascending, with p not dividing lc(g) and g
    squarefree mod p (so is its monic model).  With ``lift`` also
    g(-1/4) != 0 mod p, which makes g(X^2 - X) squarefree mod p too."""
    from .intfactor import is_probable_prime

    p, dg = 1, g.derivative().coeffs
    while True:
        p += 2
        if not is_probable_prime(p) or g.lc % p == 0:
            continue
        gp = _reduced(g.coeffs, p)
        # with lift, g(-1/4) mod p: the remainder mod X + 1/4, by Horner's rule
        if len(_gcd(gp, _reduced(dg, p), p)) == 1 and (not lift or _rem(gp, [pow(4, -1, p), 1], p)):
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
    g: IntPoly, known: list[IntPoly], seed: int, trace: list[str] | None, lift: bool = False
) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree positive-lc polynomial
    g, given ``known``, the memoized ones that divide it; ``lift`` as in
    `_good_primes`."""
    d = int(g.degree)
    if d <= 1:
        return [g]
    p = next(_good_primes(g, lift))
    # the model G is certified squarefree mod p: no squarefree split again
    G = _model(g, g.lc)
    blocks = _distinct_degree(_reduced(G.coeffs, p), p)
    degrees = [k for block, k in blocks for _ in range((len(block) - 1) // k)]
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
        rest = exact_div(g, math.prod(known))
        if trace is not None:
            trace.append(f"{len(known)} known factors, cofactor of degree {int(rest.degree)}")
        if rest.degree <= 0:
            return known
        G = _model(rest, g.lc)
        gp = _reduced(G.coeffs, p)
        blocks = [(b, k) for b, k in ((_gcd(b, gp, p), k) for b, k in blocks) if len(b) > 1]
        if sum((len(b) - 1) // k for b, k in blocks) == 1:
            return known + [rest]
    return known + _recombined(G, g.lc, blocks, p, seed, trace)


def _recombined(G: IntPoly, lc: int, blocks, p: int, seed: int, trace) -> list[IntPoly]:
    """The irreducible factors of h from G = `_model`(h, lc) and its blocks
    mod p: equal-degree splitting, the Hensel lift, then recombination."""
    modular = _equal_degree_factors(blocks, p, random.Random(seed))
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
    recently used first out past ``maxsize``, each kept with its degree and
    |q(16)| (1 for X - 16): q | g forces q(16) | g(16), two integer tests
    before any `divides`.  At 16 a non-divisor seldom passes (at 2 often)."""

    def __init__(self, maxsize: int):
        self.maxsize, self.entries = maxsize, {}
        # lru_cache's two methods, set here so that the class is no memo
        self.cache_clear = self.entries.clear
        self.cache_info = lambda: _MemoInfo(maxsize, len(self.entries))

    def __call__(self, g: IntPoly) -> list[IntPoly]:
        """The entries that divide g, refreshed."""
        d, at16 = len(g.coeffs) - 1, g.evaluate(16)
        found = [q for deg, v, q in self.entries.values()
                 if not at16 % v and deg <= d and divides(q, g)]
        self.learn(found)
        return found

    def learn(self, factors: list[IntPoly]) -> None:
        for q in factors:
            entry = self.entries.pop(q, None)
            self.entries[q] = entry or (len(q.coeffs) - 1, abs(q.evaluate(16)) or 1, q)
        while len(self.entries) > self.maxsize:
            del self.entries[next(iter(self.entries))]


_known_factors = _KnownFactors(FACTOR_FACTS_MEMO)


def _factor(
    f: IntPoly, seed: int, trace: list[str] | None, lift: bool = False
) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Content and unsorted (irreducible, multiplicity) pairs of nonzero f,
    not yet checked by re-multiplication; ``lift`` as in `_good_primes`.

    Known factors first, from one scan of the memo: if deg(prim) <=
    MAX_MODULAR_FACTORS and the memo's divisors of prim fill its degree,
    they are its factorization, each of multiplicity 1; no Yun, prime or
    distinct-degree pass runs.  (i) prim has at most deg(prim) modular
    factors, so the cap could not refuse it.  (ii) Distinct primitive
    positive-lc irreducibles dividing prim multiply to a divisor (Gauss's
    lemma), at full degree prim.  Otherwise each squarefree part gets the
    known divisors of prim that divide it."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content = f.content() if f.lc > 0 else -f.content()
    prim = f.primitive()
    out: list[tuple[IntPoly, int]] = []
    if prim.degree == 0:
        return content, out
    known = _known_factors(prim)
    if prim.degree <= MAX_MODULAR_FACTORS and sum(len(q.coeffs) - 1 for q in known) == prim.degree:
        if trace is not None:
            trace.append(f"{len(known)} known factors, cofactor of degree 0")
        return content, [(q, 1) for q in known]
    for part, mult in _yun(prim):
        part_known = known if part == prim else [q for q in known if divides(q, part)]
        if trace is not None and part != prim:
            trace.append(f"squarefree part of multiplicity {mult}: {part}")
        for irr in _factor_squarefree(part, part_known, seed, trace, lift):
            out.append((irr, mult))
    return content, out


def _verified(f: IntPoly, content: int, factors: list[tuple[IntPoly, int]]) -> FactorizationZ:
    """The factorization of f sorted by (degree, coefficients), once it
    multiplies out to f."""
    factors.sort(key=lambda fe: (int(fe[0].degree), fe[0].coeffs))
    result = FactorizationZ(content=content, factors=tuple(factors))
    if result.product() != f:
        raise KnotsigError("internal error: factorization failed re-multiplication")
    return result


@lru_cache(maxsize=FACTOR_FACTS_MEMO)
def _lift_certified(q: IntPoly) -> bool:
    """True when q(X^2 - X) is shown irreducible over Z, for q irreducible
    over Z other than 4Y + 1: at once when q has a real root below -1/4,
    else when at one of the first LIFT_PRIMES primes p of
    ``_good_primes(q, lift=True)``, 1 + 4y is a non-square in F_p[y]/r for
    some monic irreducible factor r of q mod p.  False decides nothing:
    `factor_z` then factors the lift directly, and factorization over Z
    is unique, so no factor set depends on the certificate.

    A real root lambda < -1/4.  Let K = Q(theta), q(theta) = 0, and alpha a
    root of X^2 - X - theta.  Were 1 + 4 theta = beta^2 with beta in K, the
    real embedding theta -> lambda would give 1 + 4 lambda = sigma(beta)^2
    >= 0.  So X^2 - X - theta is irreducible over K, [Q(alpha) : Q] =
    2 deg q, and q(X^2 - X) is irreducible over Q; it is primitive, as
    X^2 - X is monic, so irreducible over Z.  The factor's rho reads the
    same memoized count (`realroots.v_root_count`; q is squarefree, and
    -1/4 is a root only of 4Y + 1).  So every factor with a Milnor value
    (rho > 0) is certified with no prime.

    A prime p.  Then X^2 - X - y has no root in that field, so
    r(X^2 - X) is irreducible mod p and fixed by X -> 1-X.  A split lift
    q(X^2 - X) = +-h(X) h(1-X) would put it into h or h(1-X) mod p, by
    symmetry into both, and so its square into q(X^2 - X), which is
    squarefree mod p.  Euler's criterion runs on each distinct-degree block
    B of q mod p: (1 + 4y)^((p^k - 1)/2) mod B is +-1 modulo each degree-k
    factor of B, so it differs from 1 exactly when one factor has a
    non-square."""
    if v_root_count(q):
        return True
    for p in itertools.islice(_good_primes(q, lift=True), LIFT_PRIMES):
        qp = _monic(_reduced(q.coeffs, p), p)
        if any(_powmod([1, 4], (p**k - 1) // 2, block, p) != [1]
               for block, k in _distinct_degree(qp, p)):
            return True
    return False


def v_model(f: IntPoly) -> IntPoly | None:
    """`polys.v_polynomial` of f (the symmetry test), or None if f is not symmetric."""
    try:
        return v_polynomial(f)
    except ValueError:
        return None


def factor_z(f: IntPoly, seed: int = 0, trace: list[str] | None = None) -> FactorizationZ:
    """Factor f completely into irreducibles over Z, by the route f selects.

    A symmetric f (f(1-X) = f(X)) with f(1/2) != 0 goes through its
    half-degree v-model Q, f(X) = Q(X^2 - X) (`polys.v_polynomial`),
    factored at primes good for f as well (Q squarefree and Q(-1/4) != 0
    mod p), where the cap MAX_MODULAR_FACTORS counts at most f's modular
    factors.  Each irreducible q of Q lifts to q(X^2 - X), one factor of f
    fixed by X -> 1-X or a pair h(X), h(1-X): kept whole when
    `_lift_certified` proves it irreducible, else factored directly.  Any
    other f is factored directly: it is not symmetric, or (2X - 1)^2
    divides f (4Y + 1 divides Q) and no prime is good for f.

    On either route a part of degree <= 16 that known factors cover is
    answered from them (`_factor`); no answer or refusal depends on them.

    The seed steers randomized splitting only; the factor set is
    seed-independent and checked by re-multiplication.  A list passed as
    ``trace`` collects the route, the primes and recombination events.
    """
    q_poly = v_model(f)
    q_factors: list[tuple[IntPoly, int]] = []
    if q_poly is None or divides(_QUARTER, q_poly):
        content, factors = _factor(f, seed, trace)
    else:
        if trace is not None:
            trace.append(f"through the v-model Q = {poly_text(q_poly)}")
        content, q_factors = _factor(q_poly, seed, trace, lift=True)
        factors = []
        for q, e in q_factors:
            lifted = q.compose(_V)
            split = [(lifted, 1)] if _lift_certified(q) else _factor(lifted, seed, trace)[1]
            factors += [(h, m * e) for h, m in split]
    result = _verified(f, content, factors)
    _known_factors.learn([q for q, _ in q_factors + list(result.factors)])
    return result


def standing_assumptions(p_poly: IntPoly, seed: int = 0) -> SymmetricFactorSet:
    """Factor P by `factor_z` (which chooses the route), derive each factor's
    v-model once, and flag whether P is a product of distinct monic
    irreducible polynomials, each symmetric."""
    fz = factor_z(p_poly, seed)
    models = tuple(v_model(q) for q, _ in fz.factors)
    symmetric = tuple(q is not None for q in models)
    return SymmetricFactorSet(fz, models, symmetric, p_poly.is_monic and all(symmetric))
