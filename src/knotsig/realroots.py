"""Exact real-root counting and isolation via Sturm sequences.

Everything runs over Fraction endpoints, so counts and intervals are
certificates, not approximations.  On top of the generic machinery sit the
two unit-circle root counters: rho of a reciprocal polynomial Delta via its
trace model D (Delta(X) = X^n D(X + 1/X), roots on |z| = 1 become roots of
D in (-2, 2)), and rho of a symmetric P via its model Q (P(X) = Q(X^2 - X),
root pairs with z + conj(z) = 1 become roots of Q below -1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CertificationError
from .polys import (
    IntPoly,
    RatPoly,
    alexander_check,
    is_squarefree_q,
    trace_polynomial,
    v_polynomial,
)

Endpoint = Union[Fraction, int, float]  # float only for +-inf

NEG_INF = float("-inf")
POS_INF = float("inf")

DEFAULT_WIDTH = Fraction(1, 1 << 10)
MAX_BISECTIONS = (1 << 16) + 64  # interval-width analogue of a precision cap


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval containing exactly one root; endpoints are
    never roots."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class IrrRFactor:
    """A monic irreducible real quadratic factor X^2 - X - lambda of P,
    recorded through the isolating interval of its v-root lambda < -1/4."""

    v_root_interval: IsolatingInterval


def sturm_sequence(f: RatPoly) -> list[RatPoly]:
    """f, f', then negated Euclidean remainders until constant."""
    seq = [f, f.derivative()]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero:
        seq.pop()
    return seq


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(f: RatPoly, x: Endpoint) -> int:
    if x == NEG_INF:
        if f.is_zero:
            return 0
        return _sign(f.lc) * (-1 if int(f.degree) % 2 else 1)
    if x == POS_INF:
        return _sign(f.lc) if not f.is_zero else 0
    return _sign(f.evaluate(Fraction(x)))


def _variations(seq: list[RatPoly], x: Endpoint) -> int:
    signs = [s for s in (_sign_at(f, x) for f in seq) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _require_squarefree(f: RatPoly) -> None:
    if f.is_zero:
        raise ValueError("zero polynomial has no root count")
    if not is_squarefree_q(f.clear_denominators()):
        raise ValueError("Sturm counting requires a squarefree polynomial")


def _require_interval(f: RatPoly, a: Endpoint, b: Endpoint) -> None:
    if a != NEG_INF and b != POS_INF and Fraction(a) >= Fraction(b):
        raise ValueError("empty interval: need a < b")
    if a != NEG_INF and _sign_at(f, a) == 0:
        raise ValueError(f"left endpoint {a} is a root; perturb the interval")
    if b != POS_INF and _sign_at(f, b) == 0:
        raise ValueError(f"right endpoint {b} is a root; perturb the interval")


def sturm_count(f: RatPoly, a: Endpoint, b: Endpoint) -> int:
    """Number of real roots of squarefree f in the open interval (a, b);
    finite endpoints must not be roots."""
    _require_squarefree(f)
    _require_interval(f, a, b)
    if f.degree == 0:
        return 0
    seq = sturm_sequence(f)
    return _variations(seq, a) - _variations(seq, b)


def _cauchy_bound(f: RatPoly) -> Fraction:
    lead = abs(f.lc)
    return 2 + max(abs(c) for c in f.coeffs) / lead


def isolate_roots(
    f: RatPoly, a: Endpoint = NEG_INF, b: Endpoint = POS_INF, width: Fraction = DEFAULT_WIDTH
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, one per real root of squarefree f in
    (a, b), bisection-refined below ``width``.  Midpoints that happen to
    hit a root are dodged by halved dyadic offsets."""
    _require_squarefree(f)
    _require_interval(f, a, b)
    seq = sturm_sequence(f)
    if _variations(seq, a) == _variations(seq, b):
        return []
    bound = _cauchy_bound(f)
    lo = Fraction(a) if a != NEG_INF else -bound
    hi = Fraction(b) if b != POS_INF else bound

    out: list[IsolatingInterval] = []
    stack = [(lo, hi, _variations(seq, lo), _variations(seq, hi))]
    while stack:
        l, h, vl, vh = stack.pop()
        c = vl - vh
        if c == 0:
            continue
        if c == 1 and h - l <= width:
            out.append(IsolatingInterval(l, h))
            continue
        mid = (l + h) / 2
        offset = (h - l) / 4
        while f.evaluate(mid) == 0:
            mid += offset
            offset /= 2
        vm = _variations(seq, mid)
        stack.append((l, mid, vl, vm))
        stack.append((mid, h, vm, vh))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_interval(f: RatPoly, iv: IsolatingInterval) -> IsolatingInterval:
    """One bisection step preserving the single contained root."""
    mid = iv.midpoint
    offset = iv.width / 4
    while f.evaluate(mid) == 0:
        mid += offset
        offset /= 2
    sl = _sign_at(f, iv.lo)
    if sl != 0 and _sign(f.evaluate(mid)) == sl:
        return IsolatingInterval(mid, iv.hi)
    return IsolatingInterval(iv.lo, mid)


def root_gaps(
    f: RatPoly, ivs: list[IsolatingInterval], top: Fraction
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


def interval_eval(p: RatPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact interval Horner evaluation: bounds for p([lo, hi])."""
    acc_lo = acc_hi = p.lc if not p.is_zero else Fraction(0)
    for c in reversed(p.coeffs[:-1]) if p.coeffs else ():
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


def sign_at_root(expr: RatPoly, minpoly: RatPoly, iv: IsolatingInterval) -> int:
    """Certified sign of expr(lambda) for the root lambda of ``minpoly``
    isolated by ``iv``; expr must not vanish at lambda (so deg expr <
    deg minpoly and expr != 0 suffice for an irreducible minpoly)."""
    if expr.is_zero:
        raise ValueError("expression is identically zero")
    lo, hi = iv.lo, iv.hi
    current = IsolatingInterval(lo, hi)
    for _ in range(MAX_BISECTIONS):
        vlo, vhi = interval_eval(expr, current.lo, current.hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        current = refine_interval(minpoly, current)
    raise CertificationError(
        "sign certification did not converge within the bisection cap"
    )


# ---------------------------------------------------------------------------
# unit-circle root counts


def _validate_delta(delta: IntPoly) -> None:
    rep = alexander_check(delta)
    if not rep.cond_reciprocal:
        raise ValueError("rho needs a reciprocal polynomial of even degree")
    # a root at +-1 is necessarily doubled in a reciprocal polynomial, so
    # test it first to report the sharper violation
    if delta.evaluate(1) == 0 or delta.evaluate(-1) == 0:
        raise ValueError("rho excludes roots at X = 1 or X = -1")
    if not is_squarefree_q(delta):
        raise ValueError("rho needs a squarefree polynomial")


def rho_delta(delta: IntPoly) -> int:
    """Number of roots of Delta on the unit circle: twice the count of real
    roots of the trace model D in (-2, 2)."""
    _validate_delta(delta)
    d = trace_polynomial(delta)
    return 2 * sturm_count(d.to_rat(), Fraction(-2), Fraction(2))


def _validated_v_model(p: IntPoly) -> IntPoly:
    """The v-model Q of P; raises ValueError unless P is symmetric and
    squarefree.  ``v_polynomial`` makes the one symmetry test."""
    try:
        q = v_polynomial(p)
    except ValueError:
        raise ValueError("P must satisfy P(1-X) = P(X)") from None
    if not is_squarefree_q(p):
        raise ValueError("P must be squarefree")
    return q


def rho_p(p: IntPoly) -> int:
    """Number of roots z of P with z + conj(z) = 1: twice the count of real
    roots of the v-model Q below -1/4."""
    q = _validated_v_model(p)
    return 2 * sturm_count(q.to_rat(), NEG_INF, Fraction(-1, 4))


def irr_r_factors(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> list[IrrRFactor]:
    """The monic irreducible degree-2 real factors of P, one per real
    v-root lambda < -1/4, sorted by interval position."""
    q = _validated_v_model(p)
    ivs = isolate_roots(q.to_rat(), NEG_INF, Fraction(-1, 4), width)
    return [IrrRFactor(iv) for iv in ivs]
