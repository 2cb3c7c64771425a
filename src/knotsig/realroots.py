"""Exact real-root counting and isolation via Sturm sequences.

Inputs are integer polynomials (`IntPoly`).  Endpoints are exact
rationals and every sign is exact, so counts and intervals are
certificates, not approximations.  Sturm sequences are
sign-corrected primitive pseudo-remainder sequences over Z, and every sign
at a point p/q (or at +-infinity, as (+-1, 0)) is that of one homogeneous
integer Horner sum.  Bisection keeps its endpoints as integer numerators
over a shared denominator d 2^j (d that of the starting interval), so no
step reduces a fraction; ``Fraction``s appear only in the returned
intervals.  Once an interval holds one root, the sign of f alone says
which half holds it.  On top sit the two unit-circle
root counters: rho of a reciprocal polynomial Delta via its trace model D
(Delta(X) = X^n D(X + 1/X), roots on |z| = 1 become roots of D in
(-2, 2)), and rho of a symmetric P via its model Q (P(X) = Q(X^2 - X),
root pairs with z + conj(z) = 1 become roots of Q below -1/4).

Each input check runs once, on an object already built for the count:
- the Sturm sequence of f is the Euclidean sequence of (f, f'), so f is
  squarefree exactly when it ends in a nonzero constant;
- Delta = X^n D(X + 1/X) is squarefree with no root at +-1 exactly when
  D is squarefree and D(+-2) != 0 (each root y != +-2 of D gives the two
  roots z, 1/z of z + 1/z = y);
- P = Q(X^2 - X) is squarefree exactly when Q is squarefree and
  Q(-1/4) != 0 (each root y != -1/4 of Q gives two roots of X^2 - X = y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .polys import IntPoly, _pseudo_rem, trace_polynomial, v_polynomial

Endpoint = Union[Fraction, int, float]  # float only for +-inf

NEG_INF = float("-inf")
POS_INF = float("inf")

DEFAULT_WIDTH = Fraction(1, 1 << 10)


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval containing exactly one root; endpoints are
    never roots."""

    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class IrrRFactor:
    """A monic irreducible real quadratic factor X^2 - X - lambda of P,
    recorded through the isolating interval of its v-root lambda < -1/4."""

    v_root_interval: IsolatingInterval


def sturm_sequence(f: IntPoly, g: IntPoly | None = None) -> list[IntPoly]:
    """f, g (by default f'), then negated remainders until constant, each
    a positive multiple of the rational one: the pseudo-remainder, negated
    unless lc(b)^(deg a - deg b + 1) < 0, over its content."""
    seq = [f, f.derivative() if g is None else g]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        r = _pseudo_rem(a, b)
        c = r.content() or 1
        if b.lc > 0 or (a.degree - b.degree) % 2 or a.degree < b.degree:
            c = -c
        seq.append(IntPoly(x // c for x in r.coeffs))
    if seq[-1].is_zero:
        seq.pop()
    return seq


def _sign_hom(f: IntPoly, p: int, q: int) -> int:
    """Sign of sum c_i p^i q^(d-i), by Horner in integers: for q > 0 the
    sign of f(p/q), and for (p, q) = (+-1, 0) that of f at +-infinity."""
    acc, qk = f.coeffs[-1], 1
    for c in reversed(f.coeffs[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return (acc > 0) - (acc < 0)


def _point(x: Endpoint) -> tuple[int, int]:
    """x as (p, q) with q >= 0: p/q in lowest terms, or (+-1, 0) for +-inf."""
    if isinstance(x, float) and x in (NEG_INF, POS_INF):
        return (-1 if x < 0 else 1), 0
    x = Fraction(x)
    return x.numerator, x.denominator


def _variations(seq: list[IntPoly], p: int, q: int) -> int:
    """Sign variations of the Sturm sequence at the point (p, q)."""
    signs = [s for s in (_sign_hom(f, p, q) for f in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _checked_sequence(f: IntPoly, a: Endpoint, b: Endpoint) -> list[IntPoly]:
    """The Sturm sequence of f, once f is squarefree (the sequence ends in
    a constant), a < b, and neither finite endpoint is a root."""
    if f.is_zero:
        raise ValueError("zero polynomial has no root count")
    seq = sturm_sequence(f)
    if seq[-1].degree > 0:
        raise ValueError("Sturm counting requires a squarefree polynomial")
    if a != NEG_INF and b != POS_INF and Fraction(a) >= Fraction(b):
        raise ValueError("empty interval: need a < b")
    if a != NEG_INF and _sign_hom(seq[0], *_point(a)) == 0:
        raise ValueError(f"left endpoint {a} is a root; perturb the interval")
    if b != POS_INF and _sign_hom(seq[0], *_point(b)) == 0:
        raise ValueError(f"right endpoint {b} is a root; perturb the interval")
    return seq


def sturm_count(f: IntPoly, a: Endpoint, b: Endpoint) -> int:
    """Number of real roots of squarefree f in the open interval (a, b);
    finite endpoints must not be roots."""
    seq = _checked_sequence(f, a, b)
    return _variations(seq, *_point(a)) - _variations(seq, *_point(b))


def _split(g: IntPoly, lo: int, hi: int, d: int) -> tuple[int, int, int]:
    """Split (lo/d, hi/d): the midpoint, moved off a root of g by the
    offsets (hi - lo)/4d, (hi - lo)/8d, ..., as (m, e, sign of g there)
    for the point m/(d 2^e)."""
    mid, e, offset = lo + hi, 1, hi - lo  # offset is over the denominator d 2^(e+1)
    while True:
        s = _sign_hom(g, mid, d << e)
        if s:
            return mid, e, s
        mid, e = 2 * mid + offset, e + 1


def _numerators(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(lo, hi) as integer numerators over their least common denominator."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _fractions(lo: int, hi: int, d: int) -> IsolatingInterval:
    return IsolatingInterval(Fraction(lo, d), Fraction(hi, d))


def _isolated(g: IntPoly, lo: int, hi: int, d: int, width: Fraction) -> IsolatingInterval:
    """Bisect (lo/d, hi/d), which holds exactly one root of g, to width at
    most ``width``, keeping at each step the half on which g changes sign."""
    sl = _sign_hom(g, lo, d)
    wn, wd = width.numerator, width.denominator
    while (hi - lo) * wd > wn * d:
        mid, e, sm = _split(g, lo, hi, d)
        if sm != sl:
            lo, hi = lo << e, mid
        else:
            lo, hi, sl = mid, hi << e, sm
        d <<= e
    return _fractions(lo, hi, d)


def isolate_roots(
    f: IntPoly, a: Endpoint = NEG_INF, b: Endpoint = POS_INF, width: Fraction = DEFAULT_WIDTH
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, one per real root of squarefree f in
    (a, b), bisection-refined below ``width``: Sturm counts split the
    intervals until each holds one root, then the sign of f alone picks
    the half that holds it.  Every split point is a midpoint, moved by a
    quarter, an eighth, ... of the width while it is a root."""
    seq = _checked_sequence(f, a, b)
    bound = 2 + Fraction(max(abs(c) for c in f.coeffs), abs(f.lc))  # Cauchy
    lo = Fraction(a) if a != NEG_INF else -bound
    hi = Fraction(b) if b != POS_INF else bound
    lo_n, hi_n, d = _numerators(lo, hi)
    out: list[IsolatingInterval] = []
    stack = [(lo_n, hi_n, d, _variations(seq, lo_n, d), _variations(seq, hi_n, d))]
    while stack:
        l, h, d, vl, vh = stack.pop()
        c = vl - vh
        if c == 1:
            out.append(_isolated(f, l, h, d, width))
        elif c:
            mid, e, _ = _split(f, l, h, d)
            d <<= e
            vm = _variations(seq, mid, d)
            stack.append((l << e, mid, d, vl, vm))
            stack.append((mid, h << e, d, vm, vh))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_interval(f: IntPoly, iv: IsolatingInterval) -> IsolatingInterval:
    """One bisection step preserving the single contained root."""
    lo_n, hi_n, d = _numerators(iv.lo, iv.hi)
    mid, e, sm = _split(f, lo_n, hi_n, d)
    if sm == _sign_hom(f, lo_n, d):
        return _fractions(mid, hi_n << e, d << e)
    return _fractions(lo_n << e, mid, d << e)


def root_gaps(
    f: IntPoly, ivs: list[IsolatingInterval], top: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Root-free open intervals (lo, hi) with lo < hi: one between each
    two consecutive roots isolated by the sorted ``ivs``, and one between
    the last root and ``top`` (which must lie above it).  Intervals that
    touch, or a last one that reaches ``top``, are refined with ``f``
    until a gap of positive width opens; both ends of a gap are interval
    endpoints, so never roots."""
    ivs = list(ivs)
    gaps: list[tuple[Fraction, Fraction]] = []
    for j in range(len(ivs)):
        upper = ivs[j + 1].lo if j + 1 < len(ivs) else top
        while ivs[j].hi >= upper:
            ivs[j] = refine_interval(f, ivs[j])
            if j + 1 < len(ivs):
                ivs[j + 1] = refine_interval(f, ivs[j + 1])
                upper = ivs[j + 1].lo
        gaps.append((ivs[j].hi, upper))
    return gaps


# no caller in knotsig; kept because perfbench/tracing.py traces it
def sign_at_root(expr: IntPoly, minpoly: IntPoly, iv: IsolatingInterval) -> int:
    """Sign of expr(lambda) for the root lambda of ``minpoly`` isolated by
    ``iv``, by the Sturm-Tarski theorem: the Sturm sequence of (m, m' expr)
    drops across iv by the sum of sign(expr(x)) over the roots x of m in iv."""
    if expr.is_zero:
        raise ValueError("expression is identically zero")
    seq = sturm_sequence(minpoly, minpoly.derivative() * expr)
    return _variations(seq, *_point(iv.lo)) - _variations(seq, *_point(iv.hi))


# ---------------------------------------------------------------------------
# unit-circle root counts


def rho_delta(delta: IntPoly) -> int:
    """Number of roots of Delta on the unit circle: twice the count of real
    roots of the trace model D in (-2, 2).

    ``trace_polynomial`` refuses a Delta that is not reciprocal of even
    degree, D(2) and D(-2) (Delta(1) and +-Delta(-1)) refuse a root at
    X = 1 or X = -1, and the Sturm sequence of D refuses the rest of a
    Delta that is not squarefree."""
    try:
        d = trace_polynomial(delta)
    except ValueError:
        if delta.is_zero:
            raise
        raise ValueError("rho needs a reciprocal polynomial of even degree") from None
    # a root at +-1 is necessarily doubled in a reciprocal polynomial, so
    # test it first to report the sharper violation
    if d.evaluate(2) == 0 or d.evaluate(-2) == 0:
        raise ValueError("rho excludes roots at X = 1 or X = -1")
    try:
        return 2 * sturm_count(d, Fraction(-2), Fraction(2))
    except ValueError:  # the one left: the sequence of D ends in a nonconstant
        raise ValueError("rho needs a squarefree polynomial") from None


def rho_p(p: IntPoly) -> int:
    """Number of roots z of P with z + conj(z) = 1: twice the count of real
    roots of the v-model Q below -1/4.

    ``v_polynomial`` refuses a P with P(1-X) != P(X); the Sturm count of Q
    refuses the rest of a P that is not squarefree, through its sequence
    (Q not squarefree) or its endpoint (Q(-1/4) = P(1/2) = 0)."""
    q = v_polynomial(p)
    try:
        return 2 * sturm_count(q, NEG_INF, Fraction(-1, 4))
    except ValueError:
        raise ValueError("P must be squarefree") from None


def irr_r_factors(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> list[IrrRFactor]:
    """The monic irreducible degree-2 real factors of P, one per real
    v-root lambda < -1/4, sorted by interval position; P is checked as in
    :func:`rho_p`."""
    q = v_polynomial(p)
    try:
        ivs = isolate_roots(q, NEG_INF, Fraction(-1, 4), width)
    except ValueError:
        raise ValueError("P must be squarefree") from None
    return [IrrRFactor(iv) for iv in ivs]
