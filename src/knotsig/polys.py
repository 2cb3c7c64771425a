"""Exact dense univariate polynomials over Z.

Coefficients are integers stored in ascending degree order with no
trailing zeros; the zero polynomial has an empty coefficient tuple and
degree -inf.  A `fractions.Fraction` appears only as a point at which a
polynomial is evaluated.  Questions about integer polynomials are
answered in integers: divisibility over Z by integer long division with
leading- and constant-coefficient pre-checks, gcds by primitive
pseudo-remainder sequences, squarefreeness over Q by a mod-p certificate
with that gcd as the fallback.

Besides ring arithmetic this module carries the knot-specific transforms:
the condition checker for Alexander polynomials, the involution-equivariant
change of variable between a polynomial Delta (reciprocal, even degree) and
its companion P with P(1-X) = P(X), the substitutions P(X) = Q(X^2-X) and
Delta(X) = X^n * D(X + 1/X), and the subresultant resultant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import PolyParseError

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


def _trimmed(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; ``IntPoly([1, 0, -2])`` is ``-2x^2 + 1``."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _trimmed(int(c) for c in coeffs)
        object.__setattr__(self, "coeffs", cs)

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
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """Exact composition self(inner(X)) by Horner."""
        acc = IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly((c,))
        return acc

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

    def reversed_(self) -> "IntPoly":
        """Coefficient reversal X^deg * p(1/X)."""
        return IntPoly(reversed(self.coeffs))

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def gcd_z(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd over Z with positive leading coefficient: the gcd of the contents
    times the last nonzero term of the primitive pseudo-remainder sequence."""
    a, b = f.primitive(), g.primitive()
    while not b.is_zero:
        a, b = b, _pseudo_rem(a, b).primitive()
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
    s = s.replace("X", "x").replace(" ", "").replace("-", "+-")
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
    """Outcome of the three admissibility conditions on Delta."""

    degree_even: bool
    cond_reciprocal: bool
    cond_at_one: bool
    cond_at_minus_one: bool
    n: int
    delta_minus_one: int
    square_root_witness: int | None

    @property
    def all_pass(self) -> bool:
        return (
            self.degree_even
            and self.cond_reciprocal
            and self.cond_at_one
            and self.cond_at_minus_one
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
        cond_reciprocal=reciprocal,
        cond_at_one=at_one,
        cond_at_minus_one=witness is not None,
        n=n,
        delta_minus_one=d_minus,
        square_root_witness=witness,
    )


def delta_to_p(delta: IntPoly) -> IntPoly:
    """Companion polynomial (-1)^n X^{2n} delta(1 - 1/X), computed as
    (-1)^n rev(delta(1 - X)): delta(1 - X) keeps degree 2n, and reversing
    its coefficients is X^{2n} delta(1 - 1/X)."""
    deg = delta.degree
    if delta.is_zero or int(deg) % 2 != 0:
        raise ValueError("delta_to_p needs a nonzero polynomial of even degree")
    n = int(deg) // 2
    p = delta.compose(IntPoly((1, -1))).reversed_()
    return p if n % 2 == 0 else -p


def p_to_delta(p: IntPoly) -> IntPoly:
    """Inverse transform (-1)^n (X-1)^{2n} P(X/(X-1)); requires P symmetric
    under X -> 1-X and P(0) != 0.  Since P(X/(X-1)) = P(1/(1-X)) by that
    symmetry, this is (-1)^n rev(P)(1 - X)."""
    if p.is_zero or not symmetric_check(p):
        raise ValueError("p_to_delta needs P with P(1-X) = P(X)")
    if p.evaluate(0) == 0:
        raise ValueError("p_to_delta needs P(0) != 0")
    n = int(p.degree) // 2
    delta = p.reversed_().compose(IntPoly((1, -1)))
    return delta if n % 2 == 0 else -delta


def symmetric_check(f: IntPoly) -> bool:
    """True when f(1-X) = f(X) coefficientwise."""
    return f.compose(IntPoly((1, -1))) == f


# the three largest primes below 2^30, so residues and their products stay small
CERTIFICATE_PRIMES = (1073741789, 1073741783, 1073741741)


def certified_squarefree(f: IntPoly) -> bool:
    """True when a prime p of CERTIFICATE_PRIMES with p not dividing lc(f)
    has gcd(f mod p, f' mod p) = 1; False decides nothing.

    Such a p shows f squarefree over Q: by Gauss's lemma h^2 | f over Q
    with deg h >= 1 gives h^2 | f in Z[X], reducing mod p keeps deg h,
    and then h mod p would divide that gcd."""
    from .modp import PolyModP, gcd_mod_p  # modp imports this module

    df = f.derivative()
    return any(
        f.lc % p and gcd_mod_p(PolyModP(p, f.coeffs), PolyModP(p, df.coeffs)).degree == 0
        for p in CERTIFICATE_PRIMES
    )


# no caller in knotsig; kept because perfbench/tracing.py traces it
def is_squarefree_q(f: IntPoly) -> bool:
    """True when gcd(f, f') is constant over Q: by a mod-p certificate, or
    else (always when f is not squarefree) by ``gcd_z``."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if f.degree == 0 or certified_squarefree(f):
        return True
    return gcd_z(f, f.derivative()).degree == 0


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
    V_j(Y) = X^j + X^{-j}: V_0 = 2, V_1 = Y, V_{j+1} = Y*V_j - V_{j-1}."""
    if delta.is_zero:
        raise ValueError("the zero polynomial has no Alexander conditions")
    if len(delta.coeffs) % 2 == 0 or delta.coeffs != delta.coeffs[::-1]:
        raise ValueError("trace_polynomial needs a reciprocal polynomial of even degree")
    n = len(delta.coeffs) // 2
    y = IntPoly.x()
    d = IntPoly((delta.coeff(n),))
    v_prev, v_cur = IntPoly((2,)), y
    for j in range(1, n + 1):
        c = delta.coeff(n + j)
        if c:
            d = d + c * v_cur
        v_prev, v_cur = v_cur, y * v_cur - v_prev
    return d


# ---------------------------------------------------------------------------
# resultant by subresultant polynomial remainder sequence


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a mod b, all over Z."""
    bc = b.coeffs
    db, d = len(bc) - 1, bc[-1]
    rem = list(a.coeffs)
    delta = len(rem) - 1 - db
    scaled = 0
    while len(rem) > db:
        top = rem.pop()  # each step cancels the leading term
        k = len(rem) - db
        rem = [d * c for c in rem]
        for i in range(db):
            rem[k + i] -= top * bc[i]
        while rem and rem[-1] == 0:
            rem.pop()
        scaled += 1
    if scaled < delta + 1:
        rem = [d ** (delta + 1 - scaled) * c for c in rem]
    return IntPoly(rem)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant over Z via the subresultant PRS; equals the Sylvester
    determinant."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.degree == 0 and g.degree == 0:
        return 1
    if f.degree == 0:
        return f.lc ** int(g.degree)
    if g.degree == 0:
        return g.lc ** int(f.degree)
    a, b = f, g
    sign = 1
    if a.degree < b.degree:
        if int(a.degree) % 2 == 1 and int(b.degree) % 2 == 1:
            sign = -sign
        a, b = b, a
    ca, cb = a.content(), b.content()
    a, b = IntPoly(c // ca for c in a.coeffs), IntPoly(c // cb for c in b.coeffs)
    t = sign * ca ** int(b.degree) * cb ** int(a.degree)
    g_coef, h_coef = 1, 1
    while True:
        delta = int(a.degree) - int(b.degree)
        if int(a.degree) % 2 == 1 and int(b.degree) % 2 == 1:
            t = -t
        rem = _pseudo_rem(a, b)
        a = b
        denom = g_coef * h_coef**delta
        b = IntPoly(c // denom for c in rem.coeffs)
        g_coef = a.lc
        if delta == 0:
            pass
        elif delta == 1:
            h_coef = g_coef
        else:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
        if b.is_zero:
            return 0
        if b.degree == 0:
            break
    da = int(a.degree)
    if da == 1:
        return t * b.lc
    return t * (b.lc**da // h_coef ** (da - 1))
