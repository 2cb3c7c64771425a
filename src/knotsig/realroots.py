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

`rho_p` and `seifert`'s Milnor root isolation (`_v_roots`) take the
Sturm sequence of a v-model from `_v_chain`, checked on (-inf, -1/4),
with its root count there.  `rho_delta` builds its own sequence of the
trace model D; the pipeline takes the rho of each factor of P from it, by
the factor Delta_f of Delta that the factor comes from, counted once in
the record of the factor's v-model (`zfactor._lift_facts`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .polys import NEG_INF, IntPoly, _pseudo_rem, trace_polynomial, v_polynomial

Endpoint = Union[Fraction, int, float]  # float only for +-inf

POS_INF = float("inf")

DEFAULT_WIDTH = Fraction(1, 1 << 10)


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval containing exactly one root; endpoints are
    never roots."""

    lo: Fraction
    hi: Fraction


def sturm_sequence(f: IntPoly, g: IntPoly | None = None) -> list[IntPoly]:
    """f, g (by default f'), then negated remainders until constant, each
    a positive multiple of the rational one: the pseudo-remainder, negated
    unless lc(b)^(deg a - deg b + 1) < 0, over its content."""
    seq = [f, f.derivative() if g is None else g]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        a, b = seq[-2], seq[-1]
        r = _pseudo_rem(a.coeffs, b.coeffs)
        c = math.gcd(*r) or 1
        if b.lc > 0 or (a.degree - b.degree) % 2 or a.degree < b.degree:
            c = -c
        seq.append(IntPoly(x // c for x in r))
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


def _variations(seq: Sequence[IntPoly], p: int, q: int) -> int:
    """Sign variations of the Sturm sequence at the point (p, q)."""
    signs = [s for s in (_sign_hom(f, p, q) for f in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _checked(seq: Sequence[IntPoly], a: Endpoint, b: Endpoint) -> Sequence[IntPoly]:
    """The Sturm sequence ``seq`` of f, once f is squarefree (the sequence
    ends in a constant), a < b, and neither finite endpoint is a root."""
    if seq[0].is_zero:
        raise ValueError("zero polynomial has no root count")
    if seq[-1].degree > 0:
        raise ValueError("Sturm counting requires a squarefree polynomial")
    if a != NEG_INF and b != POS_INF and Fraction(a) >= Fraction(b):
        raise ValueError("empty interval: need a < b")
    if a != NEG_INF and _sign_hom(seq[0], *_point(a)) == 0:
        raise ValueError(f"left endpoint {a} is a root; perturb the interval")
    if b != POS_INF and _sign_hom(seq[0], *_point(b)) == 0:
        raise ValueError(f"right endpoint {b} is a root; perturb the interval")
    return seq


def _count(seq: Sequence[IntPoly], a: Endpoint, b: Endpoint) -> int:
    return _variations(seq, *_point(a)) - _variations(seq, *_point(b))


# no caller in knotsig; kept because perfbench/tracing.py traces it
def sturm_count(f: IntPoly, a: Endpoint, b: Endpoint) -> int:
    """Number of real roots of squarefree f in the open interval (a, b);
    finite endpoints must not be roots."""
    return _count(_checked(sturm_sequence(f), a, b), a, b)


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
    return _isolate(_checked(sturm_sequence(f), a, b), a, b, width)


def _isolate(
    seq: Sequence[IntPoly], a: Endpoint, b: Endpoint, width: Fraction
) -> list[IsolatingInterval]:
    """:func:`isolate_roots` of f = seq[0] from its checked Sturm sequence."""
    f = seq[0]
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


def root_signs(f: IntPoly, g: IntPoly, ivs: list[IsolatingInterval]) -> list[int]:
    """For each interval of ``ivs``, isolating one root x of f, the sign of
    f'(x) g(x), all from one Sturm sequence: by the Sturm-Tarski theorem
    the sequence of (f, g) drops across an interval by the sum of
    sign(f'(x) g(x)) over the roots x of f in it.  A zero g gives zeros."""
    seq = sturm_sequence(f, g)
    return [_variations(seq, *_point(iv.lo)) - _variations(seq, *_point(iv.hi)) for iv in ivs]


# no caller in knotsig; kept because perfbench/tracing.py traces it
def sign_at_root(expr: IntPoly, minpoly: IntPoly, iv: IsolatingInterval) -> int:
    """Sign of expr(lambda) for the root lambda of ``minpoly`` isolated by
    ``iv``: :func:`root_signs` of (m, m' expr), as m'(lambda)^2 > 0."""
    if expr.is_zero:
        raise ValueError("expression is identically zero")
    return root_signs(minpoly, minpoly.derivative() * expr, [iv])[0]


# ---------------------------------------------------------------------------
# unit-circle root counts


def rho_delta(delta: IntPoly) -> int:
    """Number of roots of Delta on the unit circle: twice the count of real
    roots of the trace model D in (-2, 2).

    ``trace_polynomial`` refuses a Delta that is not reciprocal of even
    degree, D(2) and D(-2) (Delta(1) and +-Delta(-1)) refuse a root at
    X = 1 or X = -1, and the Sturm sequence of D refuses the rest of a
    Delta that is not squarefree.  These are the checks of `sturm_count`
    on (-2, 2), each run once, and the count is taken at the integer
    points +-2."""
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
    seq = sturm_sequence(d)
    if seq[-1].degree > 0:
        raise ValueError("rho needs a squarefree polynomial")
    return 2 * (_variations(seq, -2, 1) - _variations(seq, 2, 1))


_MINUS_QUARTER = Fraction(-1, 4)


def _v_chain(q: IntPoly) -> tuple[tuple[IntPoly, ...], int]:
    """The Sturm sequence of the nonzero v-model q, checked on
    (-inf, -1/4) as by :func:`_checked`, and its count of roots there.
    A refusal means P = q(X^2 - X) is not squarefree:
    q is not squarefree, or q(-1/4) = P(1/2) = 0."""
    try:
        seq = tuple(_checked(sturm_sequence(q), NEG_INF, _MINUS_QUARTER))
    except ValueError:
        raise ValueError("P must be squarefree") from None
    return seq, _count(seq, NEG_INF, _MINUS_QUARTER)


def v_root_count(q: IntPoly) -> int:
    """Number of real roots of the v-model q below -1/4; refuses q as
    :func:`_v_chain` does."""
    return _v_chain(q)[1]


def rho_p(p: IntPoly) -> int:
    """Number of roots z of P with z + conj(z) = 1: twice the count of real
    roots of the v-model Q below -1/4.

    ``v_polynomial`` refuses a P with P(1-X) != P(X), and the Sturm
    sequence of Q (:func:`_v_chain`) the rest of a P not squarefree."""
    return 2 * v_root_count(v_polynomial(p))


def _v_roots(q: IntPoly) -> list[IsolatingInterval]:
    """The isolating intervals of the real roots of the v-model Q below
    -1/4, sorted; P = Q(X^2 - X) is checked as in :func:`rho_p`."""
    return _isolate(_v_chain(q)[0], NEG_INF, _MINUS_QUARTER, DEFAULT_WIDTH)
