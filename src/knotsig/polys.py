"""Exact dense univariate polynomials over Z.

Coefficients are integers stored in ascending degree order with no
trailing zeros; the zero polynomial has an empty coefficient tuple and
degree -inf.  A `fractions.Fraction` appears only as a point at which a
polynomial is evaluated.  Questions about integer polynomials are
answered in integers: divisibility over Z by integer long division with
leading- and constant-coefficient pre-checks, gcds by primitive
pseudo-remainder sequences, squarefreeness over Q by that gcd (the
factoring code tries the mod-p certificate `zfactor.certified_squarefree`
first).

Besides ring arithmetic this module carries the knot-specific transforms:
the condition checker for Alexander polynomials, the involution-equivariant
change of variable between a polynomial Delta (reciprocal, even degree) and
its companion P with P(1-X) = P(X), the substitutions P(X) = Q(X^2-X) and
Delta(X) = X^n * D(X + 1/X), and the subresultant resultant.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import PolyParseError

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a*b on ascending coefficient lists, untrimmed; [] when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _coefficient(c: object) -> int:
    """c as int when it is an exact integer (``int(c) == c``, so True and
    Fraction(6, 2) pass); a float with a fraction part, a string, nan or
    inf is refused, not truncated or parsed."""
    try:
        n = int(c)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != c:
        raise ValueError(f"coefficient {c!r} is not an integer")
    return n


def _integer(value: object, what: str) -> int:
    """value as int when its type is an integer type (one with
    ``__index__``) other than bool; a float, bool or string is refused
    with a ValueError that names ``what``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _at_one_minus_x(a: Sequence[int]) -> list[int]:
    """f(1 - X) on ascending coefficient lists by additions only: f(-X),
    then the shift X -> X - 1 by repeated synthetic division."""
    out = [-c if k & 1 else c for k, c in enumerate(a)]
    n = len(out)
    for i in range(n - 1):
        acc = out[-1]
        for j in range(n - 2, i - 1, -1):  # out[j] -= out[j + 1], downwards
            acc = out[j] = out[j] - acc
    return out


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; ``IntPoly([1, 0, -2])`` is ``-2x^2 + 1``."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [c if type(c) is int else _coefficient(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        return IntPoly(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        """floor(log2 n) squarings, and a product per set bit past the first."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return IntPoly.one() if result is None else result

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """Exact composition self(inner(X)) by Horner on a plain
        coefficient list, acc <- acc * inner + c."""
        acc: list[int] = []
        for c in reversed(self.coeffs):
            acc = _mul_coeffs(acc, inner.coeffs) or [0]
            acc[0] += c
        return IntPoly(acc)

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def content(self) -> int:
        """gcd of the coefficients, 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lc < 0:
            g = -g
        return IntPoly(c // g for c in self.coeffs)

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def gcd_z(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd over Z with positive leading coefficient: the gcd of the contents
    times the last nonzero term of the primitive pseudo-remainder sequence."""
    a, b = f.primitive(), g.primitive()
    while not b.is_zero:
        a, b = b, IntPoly(_pseudo_rem(a.coeffs, b.coeffs)).primitive()
    c = math.gcd(f.content(), g.content())
    return a * c if a.degree >= 1 else IntPoly((c,))


def _quotient_z(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """f / g by integer long division for nonzero g, or None when g does
    not divide f over Z.  Stops at the first quotient coefficient that is
    not an integer: the rational quotient has one exactly then."""
    gc = g.coeffs
    d, lc = len(gc) - 1, gc[-1]
    rem = list(f.coeffs)
    n = len(rem) - 1 - d
    if n < 0:
        return None if rem else IntPoly.zero()
    quot = [0] * (n + 1)
    for k in range(n, -1, -1):
        top = rem[k + d]
        if top:
            q, r = divmod(top, lc)
            if r:
                return None
            quot[k] = q
            for i in range(d):
                if gc[i]:
                    rem[k + i] -= q * gc[i]
    return None if any(rem[:d]) else IntPoly(quot)


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """f // g when g divides f exactly over Z; raises otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = _quotient_z(f, g)
    if q is None:
        raise ValueError("polynomial division is not exact over Z")
    return q


def divides(g: IntPoly, f: IntPoly) -> bool:
    """True when g divides f over Z.

    f = g*h forces lc(g) | lc(f) and g(0) | f(0); a wrong Zassenhaus
    candidate has a g(0) about the size of the Hensel modulus, so the
    constant test rejects it before any division."""
    if g.is_zero:
        return f.is_zero
    g0 = g.coeffs[0]
    if f.lc % g.lc or (g0 and f.coeff(0) % g0):
        return False
    return _quotient_z(f, g) is not None


# ---------------------------------------------------------------------------
# text syntax


MAX_PARSE_DEGREE = 10_000  # the largest exponent parse_poly accepts, checked before it allocates
_TERM_RE = re.compile(r"^([+-]?)(\d+)?(\*?x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> IntPoly:
    """Parse ``x^4 - 2*x^3 + 5*x^2 - 4*x + 1`` or the ascending
    coefficient list ``1,-4,5,-2,1``."""
    s = text.strip().replace("−", "-")
    if not s:
        raise PolyParseError("empty polynomial")
    if "," in s:
        try:
            return IntPoly(int(part.strip()) for part in s.split(","))
        except ValueError as exc:
            raise PolyParseError(f"bad coefficient list: {text!r}") from exc
    s = s.replace("X", "x").replace(" ", "")
    if "++" in s or s.endswith("+"):
        raise PolyParseError(f"'+' with no term after it in {text!r}")
    s = s.replace("-", "+-")
    coeffs: dict[int, int] = {}
    for chunk in s.split("+"):
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise PolyParseError(f"bad term {chunk!r} in {text!r}")
        sign_s, num_s, x_s, pow_s = m.groups()
        coeff = int(num_s) if num_s else 1
        if sign_s == "-":
            coeff = -coeff
        power = int(pow_s) if pow_s else (1 if x_s else 0)
        if power > MAX_PARSE_DEGREE:
            raise PolyParseError(f"exponent {power} in {text!r} exceeds the degree bound of {MAX_PARSE_DEGREE}")
        coeffs[power] = coeffs.get(power, 0) + coeff
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)


def poly_text(p: IntPoly) -> str:
    """Render in the ``x^k`` syntax accepted by :func:`parse_poly`."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Alexander conditions and the Delta <-> P change of variable


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three admissibility conditions on Delta: reciprocal
    of even degree 2n, value (-1)^n at 1 and a square at -1.  The fields,
    in order and by name, are the ``conditions`` of an analysis report."""

    degree_even: bool
    reciprocal: bool
    value_at_one: bool
    square_at_minus_one: bool
    n: int
    delta_minus_one: int
    square_root_witness: int | None

    @property
    def all_pass(self) -> bool:
        return (
            self.degree_even
            and self.reciprocal
            and self.value_at_one
            and self.square_at_minus_one
        )


def alexander_check(delta: IntPoly) -> ConditionReport:
    """Check that delta is reciprocal of even degree 2n, has value (-1)^n
    at 1, and a perfect square at -1.  Odd degree fails the reciprocity
    condition instead of raising."""
    if delta.is_zero:
        raise ValueError("the zero polynomial has no Alexander conditions")
    deg = int(delta.degree)
    degree_even = deg % 2 == 0
    n = deg // 2
    reciprocal = degree_even and delta.coeffs == tuple(reversed(delta.coeffs))
    at_one = delta.evaluate(1) == (-1) ** n if degree_even else False
    d_minus = int(delta.evaluate(-1))
    witness: int | None = None
    if d_minus >= 0:
        r = math.isqrt(d_minus)
        if r * r == d_minus:
            witness = r
    return ConditionReport(
        degree_even=degree_even,
        reciprocal=reciprocal,
        value_at_one=at_one,
        square_at_minus_one=witness is not None,
        n=n,
        delta_minus_one=d_minus,
        square_root_witness=witness,
    )


def delta_to_p(delta: IntPoly) -> IntPoly:
    """Companion polynomial (-1)^n X^{2n} delta(1 - 1/X), computed as
    (-1)^n rev(delta(1 - X)): delta(1 - X) keeps degree 2n, and reversing
    its coefficients is X^{2n} delta(1 - 1/X).  Its leading coefficient
    is (-1)^n delta(1), so deg P = 2n exactly when delta(1) != 0: X ->
    1/(1 - X) sends a root at X = 1 to infinity.  :func:`p_to_delta`
    inverts it exactly then."""
    deg = delta.degree
    if delta.is_zero or int(deg) % 2 != 0:
        raise ValueError("delta_to_p needs a nonzero polynomial of even degree")
    n = int(deg) // 2
    p = IntPoly(reversed(_at_one_minus_x(delta.coeffs)))
    return p if n % 2 == 0 else -p


def p_to_delta(p: IntPoly) -> IntPoly:
    """Inverse transform (-1)^n (X-1)^{2n} P(X/(X-1)); requires P symmetric
    under X -> 1-X and P(0) != 0.  Since P(X/(X-1)) = P(1/(1-X)) by that
    symmetry, this is (-1)^n rev(P)(1 - X)."""
    if p.is_zero or not symmetric_check(p):
        raise ValueError("p_to_delta needs P with P(1-X) = P(X)")
    if p.evaluate(0) == 0:
        raise ValueError("p_to_delta needs P(0) != 0")
    return _p_to_delta(p)


def _p_to_delta(p: IntPoly) -> IntPoly:
    """:func:`p_to_delta` of a P already known to meet its requirements."""
    n = int(p.degree) // 2
    delta = IntPoly(_at_one_minus_x(p.coeffs[::-1]))
    return delta if n % 2 == 0 else -delta


def symmetric_check(f: IntPoly) -> bool:
    """True when f(1-X) = f(X) coefficientwise."""
    return _at_one_minus_x(f.coeffs) == list(f.coeffs)


# no caller in knotsig; kept because perfbench/tracing.py traces it
def is_squarefree_q(f: IntPoly) -> bool:
    """True when gcd(f, f') is constant over Q, by ``gcd_z``."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return f.degree == 0 or gcd_z(f, f.derivative()).degree == 0


X2_MINUS_X = IntPoly((0, -1, 1))  # v = X^2 - X, so that P(X) = Q(v)


def v_polynomial(p: IntPoly) -> IntPoly:
    """The unique Q with P(X) = Q(X^2 - X), for P with P(1-X) = P(X).

    This is also the symmetry test.  Dividing by v = X^2 - X over and over
    writes any P as sum_k (q_k + b_k X) v^k; X -> 1-X fixes v and sends
    X v^k to (1 - X) v^k, so P is symmetric exactly when every b_k is 0,
    and then Q = sum_k q_k Y^k."""
    if p.is_zero:
        raise ValueError("P must satisfy P(1-X) = P(X)")
    rem, q = list(p.coeffs), []
    while rem:
        for i in range(len(rem) - 1, 1, -1):  # rem[i] X^i = rem[i] X^(i-2) v + rem[i] X^(i-1)
            rem[i - 1] += rem[i]
        if len(rem) > 1 and rem[1]:
            raise ValueError("P must satisfy P(1-X) = P(X)")
        q.append(rem[0])
        rem = rem[2:]
    return IntPoly(q)


def trace_polynomial(delta: IntPoly) -> IntPoly:
    """The unique D of degree n with Delta(X) = X^n * D(X + 1/X), for
    reciprocal Delta of degree 2n.  Uses the integer basis
    V_j(Y) = X^j + X^{-j}: V_0 = 2, V_1 = Y, V_{j+1} = Y*V_j - V_{j-1},
    run on coefficient lists."""
    if delta.is_zero:
        raise ValueError("the zero polynomial has no Alexander conditions")
    if len(delta.coeffs) % 2 == 0 or delta.coeffs != delta.coeffs[::-1]:
        raise ValueError("trace_polynomial needs a reciprocal polynomial of even degree")
    n = len(delta.coeffs) // 2
    d = [delta.coeff(n)] + [0] * n
    v_prev, v_cur = [2], [0, 1]
    for j in range(1, n + 1):
        c = delta.coeff(n + j)
        if c:
            for i, v in enumerate(v_cur):
                d[i] += c * v
        v_next = [0] + v_cur
        for i, v in enumerate(v_prev):
            v_next[i] -= v
        v_prev, v_cur = v_cur, v_next
    return IntPoly(d)


# ---------------------------------------------------------------------------
# resultant by subresultant polynomial remainder sequence


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a mod b, on ascending
    coefficient lists over Z, trimmed."""
    db, d = len(b) - 1, b[-1]
    rem = list(a)
    delta = len(rem) - 1 - db
    scaled = 0
    while len(rem) > db:
        top = rem.pop()  # each step cancels the leading term
        k = len(rem) - db
        rem = [d * c for c in rem]
        for i in range(db):
            rem[k + i] -= top * b[i]
        while rem and rem[-1] == 0:
            rem.pop()
        scaled += 1
    if scaled < delta + 1:
        rem = [d ** (delta + 1 - scaled) * c for c in rem]
    return rem


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant over Z via the subresultant PRS on coefficient lists;
    equals the Sylvester determinant."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    a, b = f.coeffs, g.coeffs
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[-1] ** db
    if db == 0:
        return b[-1] ** da
    sign = -1 if da < db and da % 2 == 1 and db % 2 == 1 else 1
    if da < db:
        a, b, da, db = b, a, db, da
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    t = sign * ca**db * cb**da
    g_coef, h_coef = 1, 1
    while True:
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            t = -t
        rem = _pseudo_rem(a, b)
        a, da = b, db
        denom = g_coef * h_coef**delta
        b = [c // denom for c in rem]
        db = len(b) - 1
        g_coef = a[-1]
        if delta == 1:
            h_coef = g_coef
        elif delta > 1:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
        if not b:
            return 0
        if db == 0:
            break
    if da == 1:
        return t * b[-1]
    return t * (b[-1] ** da // h_coef ** (da - 1))
