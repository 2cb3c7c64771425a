"""Polynomial arithmetic and factorization over prime fields F_p.

Carries the decision procedure behind the prime-set computation: whether
two polynomials acquire a common factor h mod p with h(1-X) = h(X).  The
involution X -> 1-X acts on monic irreducible factors; a qualifying h
exists exactly when the gcd contains an orbit pair {q, q~}, an even-degree
fixed factor, or (p odd) the square of X - 1/2.  The prime table itself
reads the same witness off the half-degree gcd of two v-models
(`obstruction._symmetric_witness`).

All arithmetic runs in the private kernels `_add`, `_sub`, `_mul`,
`_divrem`, `_rem`, `_powmod`, `_gcd`, `_xgcd` and `_roots` on plain
ascending coefficient lists.  They accumulate products
(`polys._mul_coeffs`) and subtractions unreduced (Python integers do not
overflow) and reduce each output coefficient once, plus the leading
coefficient once per division step: a reduction per inner multiply-add
costs more than the multiply-add itself.  Every result is reduced and
trimmed, and exact for a modulus of any size; the primes come from
`intfactor`, which certifies each one it returns.  Beyond the inverse of
a divisor's leading coefficient they need no prime modulus, so they work
over Z/m with monic divisors too.  Every caller computes on them: the
factoring code (`zfactor`, its squarefree certificate
`certified_squarefree` included) and the prime table (`obstruction`)
directly, and the public mod-p API (`factor_mod_p`,
`symmetric_common_factor`) on the coefficients of its arguments; that
API refuses by name a modulus that `intfactor.is_probable_prime`
rejects.  `PolyModP` is only the value type of that API and of the prime
table's witnesses: a modulus p >= 2 and reduced, trimmed coefficients,
with no arithmetic and no primality test (the prime table builds one per
pair prime).

The pieces factored are mostly small: linear distinct-degree blocks,
cubic v-model factors and cubic gcds of v-models, at p <= 23 on products
of the Delta_a sextics (`perfbench/workloads.py`).  Below
`_SCAN_BELOW` = 256 they are read off their roots, found by `_roots`
(Horner evaluation at every residue): a linear block splits into its
X - r (`_equal_degree_factors`), a squarefree f of degree at most 3 is
classed by its number of roots (`_distinct_degree`), and the prime table's
gcd of degree at most 3 gives its distinct irreducible factors the same
way (`_irreducible_factors`).  Factorization mod p is unique and every
factor list is sorted, so the results are those of splitting.  The bound
is the measured crossover (CPython 3.11, 2 vCPUs; 40 random squarefree
cubics and 20 linear blocks per prime): a cubic's scan against its
distinct-degree pass took 4.0 against 24 us at p = 23, 29 against 40 us
at p = 251, and 49 against 36 us at p = 401; a linear block of 7 roots
took 7 against 239 us of splitting at p = 23, 64 against 430 us at
p = 251, and one of 2 roots still won at p = 1021.
Other blocks go through Cantor-Zassenhaus equal-degree splitting, which
draws from `Random(0)`; it is built only when a block of degree >= 2
needs splitting, or a linear block at p >= `_SCAN_BELOW`, and no factor
set or witness depends on the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

from .intfactor import is_probable_prime
from .polys import IntPoly, _mul_coeffs, _at_one_minus_x as _shifted

Coeffs = Sequence[int]

# below this prime, small pieces are factored by their roots (module docstring)
_SCAN_BELOW = 256


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _reduced(c: Iterable[int], m: int) -> list[int]:
    return _trim([x % m for x in c])


def _add(a: Coeffs, b: Coeffs, m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _reduced(out, m)


def _sub(a: Coeffs, b: Coeffs, m: int) -> list[int]:
    return _add(a, [-c for c in b], m)


def _mul(a: Coeffs, b: Coeffs, m: int) -> list[int]:
    return _reduced(_mul_coeffs(a, b), m)


def _divrem(a: Coeffs, b: Coeffs, m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over Z/m; the leading coefficient
    of b must be a unit mod m.  a may be unreduced."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    d = len(b) - 1
    rem = list(a)
    n = len(rem) - d
    if n <= 0:
        return [], _reduced(rem, m)
    inv = pow(b[-1], -1, m)
    low = b[:d]
    quot = [0] * n
    for k in range(n - 1, -1, -1):
        q = rem[k + d] * inv % m
        quot[k] = q
        if q:
            for i, c in enumerate(low, k):
                rem[i] -= q * c
    return _trim(quot), _reduced(rem[:d], m)


def _rem(a: Coeffs, b: Coeffs, m: int) -> list[int]:
    return _divrem(a, b, m)[1]


def _powmod(a: Coeffs, e: int, f: Coeffs, m: int) -> list[int]:
    """a**e mod f over Z/m by square-and-multiply; [1] for e = 0."""
    base = _rem(a, f, m)
    result = [1]
    while e:
        if e & 1:
            result = _rem(_mul_coeffs(result, base), f, m)
        e >>= 1
        if e:
            base = _rem(_mul_coeffs(base, base), f, m)
    return result


def _monic(a: Coeffs, p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Coeffs, b: Coeffs, p: int) -> list[int]:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _xgcd(a: Coeffs, b: Coeffs, p: int) -> tuple[list[int], list[int]]:
    """(d, u): d the monic gcd over F_p of a and b, not both zero; u*a = d mod b."""
    u, w = [1], []
    while b:
        q, r = _divrem(a, b, p)
        a, b = b, r
        u, w = w, _sub(u, _mul_coeffs(q, w), p)
    inv = pow(a[-1], -1, p)
    return _monic(a, p), [c * inv % p for c in u]


@dataclass(frozen=True)
class PolyModP:
    """Dense polynomial over F_p, ascending coefficients in [0, p),
    trimmed; a value, not an arithmetic type."""

    p: int
    coeffs: tuple[int, ...]

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if p < 2:
            raise ValueError(f"modulus {p} is not a prime >= 2")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_reduced(coeffs, p)))

    @staticmethod
    def from_int_poly(f: IntPoly, p: int) -> "PolyModP":
        return PolyModP(p, f.coeffs)

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")


def _prime(p: int) -> int:
    """p, once `intfactor.is_probable_prime` accepts it: the public entry
    points refuse a composite modulus by name before any inverse fails."""
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not a prime")
    return p


def _modulus(f: PolyModP, g: PolyModP) -> int:
    if f.p != g.p:
        raise ValueError(f"modulus mismatch: {f.p} vs {g.p}")
    return _prime(f.p)


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(factor^mult) over F_p; factors monic irreducible."""

    unit: int
    factors: tuple[tuple[PolyModP, int], ...]


def _squarefree_parts(f: Coeffs, p: int) -> list[tuple[list[int], int]]:
    """Monic squarefree decomposition [(g_i, mult_i)] of f, reduced and
    nonzero, with prod g_i^mult_i = monic(f)."""
    out: list[tuple[list[int], int]] = []

    def recurse(g: list[int], scale: int) -> None:
        if len(g) < 2:
            return
        dg = _reduced([k * g[k] for k in range(1, len(g))], p)
        if not dg:
            # g = h(X^p) = h_frob(X)^p with c^(1/p) = c over F_p; monic as g is
            recurse(g[::p], scale * p)
            return
        c = _gcd(g, dg, p)
        w = _divrem(g, c, p)[0]  # quotients of monic polynomials are monic
        mult = 1
        while len(w) > 1:
            y = _gcd(w, c, p)
            part = _divrem(w, y, p)[0]
            if len(part) > 1:
                out.append((part, mult * scale))
            w = y
            c = _divrem(c, y, p)[0]
            mult += 1
        if len(c) > 1:
            recurse(c, scale)

    recurse(_monic(f, p), 1)
    return out


def _roots(f: Coeffs, p: int) -> list[int]:
    """The roots of nonzero f in F_p, ascending, by Horner evaluation at
    every residue, stopping once deg f are found."""
    top, rest = f[-1], f[-2::-1]
    out: list[int] = []
    for x in range(p):
        v = top
        for c in rest:
            v = v * x + c
        if not v % p:
            out.append(x)
            if len(out) == len(rest):
                break
    return out


def _distinct_degree(f: Coeffs, p: int) -> list[tuple[Coeffs, int]]:
    """Split monic squarefree f into [(product of irreducibles of degree d, d)],
    ascending by d.  Below `_SCAN_BELOW`, an f of degree 1 to 3 is read off
    its roots: with none it is irreducible (a proper factor would be
    linear), with deg f of them one linear block, and a cubic with one root
    r is the block X - r times an irreducible quadratic block."""
    n = len(f) - 1
    if 1 <= n <= 3 and p < _SCAN_BELOW:
        roots = _roots(f, p)
        if not roots:
            return [(f, n)]
        if len(roots) == n:
            return [(f, 1)]
        if n == 3 and len(roots) == 1:
            linear = [-roots[0] % p, 1]
            return [(linear, 1), (_divrem(f, linear, p)[0], 2)]
    out: list[tuple[Coeffs, int]] = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divrem(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _trace_f2(u: Coeffs, k: int, f: Coeffs) -> list[int]:
    """The trace u + u^2 + u^4 + ... + u^(2^(k-1)) mod f over F_2, for u reduced mod f."""
    t: list[int] = []
    for _ in range(k):
        t = _add(t, u, 2)
        u = _rem(_mul_coeffs(u, u), f, 2)
    return t


def _equal_degree_split(f: Coeffs, d: int, p: int, rng: Random) -> list[Coeffs]:
    """Cantor-Zassenhaus equal-degree factorization of monic squarefree f
    whose irreducible factors all have degree d."""
    if len(f) - 1 == d:
        return [f]
    while True:
        u = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(u) < 2:
            continue
        w = _gcd(u, f, p)
        if not 1 < len(w) < len(f):
            if p == 2:
                t = _trace_f2(u, d, f)
            else:
                t = _sub(_powmod(u, (p**d - 1) // 2, f, p), [1], p)
            w = _gcd(t, f, p)
        if 1 < len(w) < len(f):
            right = _divrem(f, w, p)[0]
            return _equal_degree_split(w, d, p, rng) + _equal_degree_split(right, d, p, rng)


def _equal_degree_factors(blocks, p: int) -> list[list[int]]:
    """Monic irreducible factors of distinct-degree blocks, ascending by
    (degree, coefficients): below `_SCAN_BELOW` a linear block's factors
    are X - r for its roots r, and otherwise a block that is not one
    irreducible factor is split by Cantor-Zassenhaus, drawing from one
    `Random(0)` built for the first such block."""
    rng = None
    out: list[list[int]] = []
    for block, d in blocks:
        if d == 1 and p < _SCAN_BELOW:
            out += [[-r % p, 1] for r in _roots(block, p)]
        elif len(block) - 1 == d:
            out.append(list(block))
        else:
            rng = rng or Random(0)
            out += [list(q) for q in _equal_degree_split(block, d, p, rng)]
    out.sort(key=lambda q: (len(q), q))
    return out


def _irreducible_factors(f: Coeffs, p: int) -> list[list[int]]:
    """The distinct monic irreducible factors of nonzero f, each once.
    Below `_SCAN_BELOW` an f of degree at most 3 is read off its roots, with
    no squarefree decomposition: X - r for each root r, and the cofactor
    left once each X - r is divided out as often as it divides, unless
    constant.  That cofactor has no root, so it is irreducible: were it a
    product of two factors of degree >= 1, the degrees, at most 3 in all,
    would put one factor at degree 1, which has a root."""
    if len(f) > 4 or p >= _SCAN_BELOW:
        return [h for part, _ in _squarefree_parts(f, p)
                for h in _equal_degree_factors(_distinct_degree(part, p), p)]
    hs, rest = [], f
    for r in _roots(f, p):
        hs.append([-r % p, 1])
        quot, rem = _divrem(rest, hs[-1], p)
        while not rem:
            rest = quot
            quot, rem = _divrem(rest, hs[-1], p)
    return hs + [_monic(rest, p)] if len(rest) > 1 else hs


def _lifts_split(block: Coeffs, k: int, p: int) -> bool:
    """Whether r(X^2 - X) splits mod p for every monic irreducible factor r
    of monic squarefree ``block``, all of degree k and none Y + 1/4: that
    is, X^2 - X - y has a root in each field F_p[y]/r.  For odd p, Euler's
    criterion on the discriminant: (1 + 4y)^((p^k - 1)/2) mod r is +-1,
    and 1 exactly for a square.  For p = 2, X^2 + X = y is solvable
    exactly when the trace y + y^2 + ... + y^(2^(k-1)), which is 0 or 1
    mod r, is 0."""
    if p != 2:
        return _powmod([1, 4], (p**k - 1) // 2, block, p) == [1]
    return not _trace_f2(_rem([0, 1], block, p), k, block)


def factor_mod_p(f: PolyModP) -> FactorizationModP:
    """Complete factorization over F_p: squarefree decomposition, then
    distinct-degree, then equal-degree splitting; a modulus that is not
    prime is refused by name."""
    if not f.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    p = _prime(f.p)
    factors = [
        (q, mult)
        for part, mult in _squarefree_parts(f.coeffs, p)
        for q in _equal_degree_factors(_distinct_degree(part, p), p)
    ]
    factors.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return FactorizationModP(f.coeffs[-1], tuple((PolyModP(p, q), e) for q, e in factors))


def _image(h: Coeffs, p: int) -> tuple[int, ...]:
    """Monic normalization of h(1-X), reduced from the shift over Z."""
    return tuple(_monic(_reduced(_shifted(h), p), p))


# no caller in knotsig; kept because perfbench/tracing.py traces it
def symmetric_common_factor(f: PolyModP, g: PolyModP) -> tuple[bool, PolyModP | None]:
    """Decide whether some h with deg h >= 1 and h(1-X) = h(X) divides both
    f and g over F_p; returns a witness when one exists.

    Works on d = gcd(f, g): its irreducible factors are grouped into orbits
    of the involution.  A symmetric divisor exists iff (a) some orbit pair
    {q, q~} with q != q~ has both members in d (witness q*q~), (b) some
    fixed factor of even degree divides d (such a factor is itself
    symmetric; witness q), or (c) p is odd and X - 1/2 divides d with
    multiplicity >= 2 (witness its square; a single power is fixed only up
    to sign).
    """
    p = _modulus(f, g)
    if not f.coeffs or not g.coeffs:
        raise ValueError("symmetric_common_factor needs nonzero polynomials")
    d = _gcd(f.coeffs, g.coeffs, p)
    if len(d) < 2:
        return False, None
    fac = factor_mod_p(PolyModP(p, d))
    present = {q.coeffs for q, _ in fac.factors}
    for q, e in fac.factors:
        qt = _image(q.coeffs, p)
        if qt == q.coeffs:
            if len(qt) % 2:  # even degree
                return True, q
            if p != 2 and e >= 2:
                return True, PolyModP(p, _mul(qt, qt, p))
        elif qt in present and q.coeffs < qt:
            return True, PolyModP(p, _mul(q.coeffs, qt, p))
    return False, None
