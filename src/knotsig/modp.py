"""Polynomial arithmetic and factorization over prime fields F_p.

Carries the decision procedure at the heart of the prime-set computation:
whether two polynomials acquire a common factor h mod p with h(1-X) = h(X).
The involution X -> 1-X acts on monic irreducible factors; a qualifying h
exists exactly when the gcd contains an orbit pair {q, q~}, an even-degree
fixed factor, or (p odd) the square of X - 1/2.

All arithmetic runs in the private kernels `_add`, `_sub`, `_mul`,
`_divrem`, `_rem`, `_powmod`, `_gcd` and `_xgcd` on plain ascending
coefficient lists.  They accumulate products and subtractions unreduced
(Python integers do not overflow) and reduce each output coefficient
once, plus the leading coefficient once per division step: a reduction
per inner multiply-add costs more than the multiply-add itself.  Every
result is reduced and trimmed.  Beyond the inverse of a divisor's leading
coefficient they need no prime modulus, so `zfactor`'s Hensel lifting
runs on them over Z/m with monic divisors.  `PolyModP` methods delegate
to the kernels and wrap results with `_wrap`, which skips re-reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .polys import IntPoly

Coeffs = Sequence[int]


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


def _product(a: Coeffs, b: Coeffs) -> list[int]:
    """a*b over Z, untrimmed; empty when a factor is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _mul(a: Coeffs, b: Coeffs, m: int) -> list[int]:
    return _reduced(_product(a, b), m)


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
            result = _rem(_product(result, base), f, m)
        e >>= 1
        if e:
            base = _rem(_product(base, base), f, m)
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
    """(d, u) with d the monic gcd of a and b over F_p and u*a = d mod b."""
    u, w = [1], []
    while b:
        q, r = _divrem(a, b, p)
        a, b = b, r
        u, w = w, _sub(u, _product(q, w), p)
    if not a:
        return [], u
    inv = pow(a[-1], -1, p)
    return _monic(a, p), [c * inv % p for c in u]


def _wrap(p: int, coeffs: Coeffs) -> "PolyModP":
    """A PolyModP from coefficients already reduced mod p and trimmed."""
    poly = object.__new__(PolyModP)
    object.__setattr__(poly, "p", p)
    object.__setattr__(poly, "coeffs", tuple(coeffs))
    return poly


@dataclass(frozen=True)
class PolyModP:
    """Dense polynomial over F_p, ascending coefficients in [0, p)."""

    p: int
    coeffs: tuple[int, ...]

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        if p >= 1 << 62:
            raise ValueError("modulus exceeds the machine-word prime limit")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_reduced(coeffs, p)))

    @staticmethod
    def from_int_poly(f: IntPoly, p: int) -> "PolyModP":
        return PolyModP(p, f.coeffs)

    @staticmethod
    def zero(p: int) -> "PolyModP":
        return PolyModP(p, ())

    @staticmethod
    def one(p: int) -> "PolyModP":
        return PolyModP(p, (1,))

    @staticmethod
    def x(p: int) -> "PolyModP":
        return PolyModP(p, (0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _check(self, other: "PolyModP") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "PolyModP") -> "PolyModP":
        self._check(other)
        return _wrap(self.p, _add(self.coeffs, other.coeffs, self.p))

    def __sub__(self, other: "PolyModP") -> "PolyModP":
        self._check(other)
        return _wrap(self.p, _sub(self.coeffs, other.coeffs, self.p))

    def __neg__(self) -> "PolyModP":
        return PolyModP(self.p, (-c for c in self.coeffs))

    def __mul__(self, other: "PolyModP | int") -> "PolyModP":
        if isinstance(other, int):
            return PolyModP(self.p, (c * other for c in self.coeffs))
        self._check(other)
        return _wrap(self.p, _mul(self.coeffs, other.coeffs, self.p))

    __rmul__ = __mul__

    def divrem(self, other: "PolyModP") -> tuple["PolyModP", "PolyModP"]:
        self._check(other)
        q, r = _divrem(self.coeffs, other.coeffs, self.p)
        return _wrap(self.p, q), _wrap(self.p, r)

    def __floordiv__(self, other: "PolyModP") -> "PolyModP":
        return self.divrem(other)[0]

    def __mod__(self, other: "PolyModP") -> "PolyModP":
        return self.divrem(other)[1]

    def monic(self) -> "PolyModP":
        if self.is_zero or self.is_monic:
            return self
        return self * pow(self.lc, -1, self.p)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def derivative(self) -> "PolyModP":
        return PolyModP(self.p, (k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __repr__(self) -> str:
        return f"PolyModP(p={self.p}, coeffs={list(self.coeffs)})"


def gcd_mod_p(f: PolyModP, g: PolyModP) -> PolyModP:
    """Monic gcd over F_p."""
    f._check(g)
    return _wrap(f.p, _gcd(f.coeffs, g.coeffs, f.p))


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(factor^mult) over F_p; factors monic irreducible."""

    unit: int
    factors: tuple[tuple[PolyModP, int], ...]

    def product(self, p: int) -> PolyModP:
        acc = PolyModP(p, (self.unit,))
        for q, e in self.factors:
            for _ in range(e):
                acc = acc * q
        return acc


def _squarefree_parts(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Monic squarefree decomposition [(g_i, mult_i)] with prod g_i^mult_i = f."""
    p = f.p
    out: list[tuple[PolyModP, int]] = []

    def recurse(g: PolyModP, scale: int) -> None:
        if g.degree == 0:
            return
        dg = g.derivative()
        if dg.is_zero:
            # g = h(X^p) = h_frob(X)^p with c^(1/p) = c over F_p
            h = PolyModP(p, (g.coeff(i * p) for i in range(int(g.degree) // p + 1)))
            recurse(h.monic(), scale * p)
            return
        c = gcd_mod_p(g, dg)
        w = (g // c).monic()
        mult = 1
        while w.degree > 0:
            y = gcd_mod_p(w, c)
            part = (w // y).monic()
            if part.degree > 0:
                out.append((part, mult * scale))
            w = y
            c = c // y
            mult += 1
        if c.degree > 0:
            recurse(c.monic(), scale)

    recurse(f.monic(), 1)
    return out


def _distinct_degree(f: Coeffs, p: int) -> list[tuple[Coeffs, int]]:
    """Split monic squarefree f into [(product of irreducibles of degree d, d)]."""
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


def _equal_degree_split(f: Coeffs, d: int, p: int, rng: random.Random) -> list[Coeffs]:
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
                # trace map over F_2: u + u^2 + u^4 + ... + u^(2^(d-1))
                t: list[int] = []
                for _ in range(d):
                    t = _add(t, u, p)
                    u = _rem(_product(u, u), f, p)
            else:
                t = _sub(_powmod(u, (p**d - 1) // 2, f, p), [1], p)
            w = _gcd(t, f, p)
        if 1 < len(w) < len(f):
            right = _divrem(f, w, p)[0]
            return _equal_degree_split(w, d, p, rng) + _equal_degree_split(right, d, p, rng)


def _squarefree_factors(f: Coeffs, p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors of monic f, squarefree mod p, ascending by
    (degree, coefficients): distinct-degree blocks, each split by seeded
    equal-degree splitting.  The caller certifies squarefreeness
    (`_squarefree_parts`, or zfactor's good primes)."""
    out = [
        list(q)
        for block, d in _distinct_degree(f, p)
        for q in _equal_degree_split(block, d, p, rng)
    ]
    out.sort(key=lambda q: (len(q), q))
    return out


def degree_pattern(f: PolyModP) -> list[int]:
    """Ascending degrees of the irreducible factors of f over F_p, read off
    the distinct-degree blocks without splitting them.  f must be
    squarefree mod p; the caller certifies that (zfactor's good primes)."""
    blocks = _distinct_degree(_monic(f.coeffs, f.p), f.p)
    return [d for block, d in blocks for _ in range((len(block) - 1) // d)]


def factor_mod_p(f: PolyModP, seed: int = 0) -> FactorizationModP:
    """Complete factorization over F_p: squarefree decomposition, then
    distinct-degree, then seeded equal-degree splitting."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    unit = f.lc
    factors: list[tuple[PolyModP, int]] = []
    if f.degree >= 1:
        for part, mult in _squarefree_parts(f):
            for q in _squarefree_factors(part.coeffs, f.p, rng):
                factors.append((_wrap(f.p, q), mult))
    factors.sort(key=lambda fe: (int(fe[0].degree), fe[0].coeffs))
    return FactorizationModP(unit=unit, factors=tuple(factors))


def _at_one_minus_x(h: PolyModP) -> list[int]:
    """Coefficients of h(1-X), by Horner's rule."""
    acc: list[int] = []
    for c in reversed(h.coeffs):
        acc = _add(_product(acc, (1, -1)), (c,), h.p)
    return acc


def involution_image(h: PolyModP) -> PolyModP:
    """Monic normalization of h(1-X); an involution on monic polynomials."""
    return _wrap(h.p, _monic(_at_one_minus_x(h), h.p))


def is_symmetric_mod_p(h: PolyModP) -> bool:
    """True when h(1-X) = h(X) exactly (not just up to a unit)."""
    return tuple(_at_one_minus_x(h)) == h.coeffs


def symmetric_common_factor(
    f: PolyModP, g: PolyModP, seed: int = 0
) -> tuple[bool, PolyModP | None]:
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
    f._check(g)
    if f.is_zero or g.is_zero:
        raise ValueError("symmetric_common_factor needs nonzero polynomials")
    p = f.p
    d = gcd_mod_p(f, g)
    if d.degree < 1:
        return False, None
    fac = factor_mod_p(d, seed)
    mult = {q: e for q, e in fac.factors}
    for q, e in fac.factors:
        qt = involution_image(q)
        if qt == q:
            if int(q.degree) % 2 == 0:
                return True, q
            if p != 2 and e >= 2:
                return True, q * q
        elif qt in mult and q.coeffs < qt.coeffs:
            return True, q * qt
    return False, None
