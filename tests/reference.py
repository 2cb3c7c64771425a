"""Independent oracles used by the tests.

Each oracle recomputes a quantity by a different route than the package:
Sylvester determinants for resultants, exhaustive enumeration for the
symmetric common-factor test and irreducibility, floating-point
eigenvalues for root counts and signatures, and plain trial division for
integer factorization, the resultant and the gcds mod p of a pair of
factors of P taken on the factors rather than their v-models, the
number-field eigenspace route for the Milnor signatures of a Seifert
pair, the factors of Delta (rather than of P) for the per-factor
unit-circle root counts, rational (`Fraction`) long division and gcd
for divisibility over Z and squarefreeness over Q, polynomial arithmetic over F_p and Z/m that
reduces at every inner step, and the `Fraction` routes the Seifert path
took before its integer kernels: Lagrange interpolation for pencil
determinants, Euclidean Sturm chains with root isolation, sign
certification by interval bisection, and Gauss-Jordan inversion;
sympy's multifactor Hensel lift (``dup_zz_hensel_lift``); the routes the
Milnor signatures took before their half-size kernels: Hermitian
signatures of the real 2n x 2n realification, and bisection with
`Fraction` endpoints and a full Sturm sequence at every midpoint; and the
term-by-term binomial expansions of the Delta <-> P transforms and the
top-down peel of the v-model behind a separate symmetry test, as the
transforms were computed before coefficient reversal and division by
X^2 - X; composition by Horner on `IntPoly` values, as `IntPoly.compose`
ran before its coefficient-list loop; the trace polynomial by its
recurrence on `IntPoly` values, as `trace_polynomial` ran before its
coefficient-list loop; f(1 - X) by composition over Z and by Horner's
rule over F_p, as the reflections ran before their additions-only shift;
and the Levine-Tristram route the Milnor signatures took before they
were read as eigenplane signs: the n x n Hermitian elimination over
Z[i] at rational sample points t between the roots of Delta_A, with the
root gaps and the interval refinement that placed those points.  The
determinants and characteristic polynomials those routes start from are
sympy's, not the package's kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from knotsig import (
    IntPoly,
    alexander_check,
    factor_z,
    resultant,
    rho_delta,
    v_polynomial,
)
from knotsig.modp import PolyModP, _gcd
from knotsig.realroots import (
    IsolatingInterval,
    _fractions,
    _numerators,
    _sign_hom,
    _split,
    isolate_roots,
    sign_at_root,
    sturm_count,
    sturm_sequence,
)
from knotsig.seifert import as_matrix, mat_mul, transpose


@dataclass(frozen=True)
class RatPoly:
    """Rational polynomial for the Fraction oracles: ascending
    coefficients, no trailing zeros, fractions in lowest terms."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __mul__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return RatPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        inv = 1 / self.lc
        return RatPoly(c * inv for c in self.coeffs)

    def divrem(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Quotient and remainder with deg(remainder) < deg(other)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        inv = 1 / other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] * inv
            quot[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            rem.pop()
        return RatPoly(quot), RatPoly(rem)

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return self.divrem(other)[1]

    def clear_denominators(self) -> IntPoly:
        """Smallest positive integer multiple with integer coefficients."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return IntPoly(int(c * den) for c in self.coeffs)


def divrem(p: RatPoly, q: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Euclidean division of rational polynomials."""
    return p.divrem(q)


def rat_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q (Euclid)."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.divrem(b)[1]
    return a.monic() if not a.is_zero else a


def det_fraction(rows: list[list[int]]) -> int:
    """Determinant by plain rational Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    assert det.denominator == 1
    return int(det)


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant as the determinant of the Sylvester matrix."""
    df, dg = int(f.degree), int(g.degree)
    if df == 0 and dg == 0:
        return 1
    if df == 0:
        return f.lc ** dg
    if dg == 0:
        return g.lc ** df
    n = df + dg
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(dg):
        rows.append([0] * i + fd + [0] * (n - i - len(fd)))
    for i in range(df):
        rows.append([0] * i + gd + [0] * (n - i - len(gd)))
    return det_fraction(rows)


def trial_division(n: int) -> list[int]:
    """Complete factorization of |n| by unbounded trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def pair_facts_on_lifts(f: IntPoly, g: IntPoly) -> tuple[int, dict[int, PolyModP]]:
    """Res(f, g) of two monic factors of P and, at each prime p dividing
    it, the monic gcd of f and g mod p: the full-degree route to the
    facts that `obstruction._pair_primes` reads off the v-models."""
    res = resultant(f, g)
    return res, {
        p: PolyModP(p, _gcd(PolyModP.from_int_poly(f, p).coeffs, PolyModP.from_int_poly(g, p).coeffs, p))
        for p in sorted(set(trial_division(res)))
    }


def exact_div_by_divrem(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """f / g for nonzero g by rational long division, or None unless the
    remainder is zero and the quotient integral."""
    q, r = divrem(RatPoly(f.coeffs), RatPoly(g.coeffs))
    if not r.is_zero or any(c.denominator != 1 for c in q.coeffs):
        return None
    return IntPoly(int(c) for c in q.coeffs)


def divides_by_divrem(g: IntPoly, f: IntPoly) -> bool:
    """Whether g divides f over Z, by rational long division."""
    if g.is_zero:
        return f.is_zero
    return exact_div_by_divrem(f, g) is not None


def squarefree_by_rat_gcd(f: IntPoly) -> bool:
    """Whether gcd(f, f') is constant, by Euclid's algorithm in Fractions."""
    return f.degree < 1 or rat_gcd(RatPoly(f.coeffs), RatPoly(f.derivative().coeffs)).degree == 0


def _trim_steps(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pm_mul_by_steps(a, b, m: int) -> tuple[int, ...]:
    """Product over Z/m, reduced after every multiply-add."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % m
    return _trim_steps(out)


def pm_divrem_by_steps(a, b, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division over Z/m by b whose leading coefficient is a unit,
    reduced after every multiply-subtract; b monic is the Z/m case."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, m)
    rem = list(a)
    d = len(b) - 1
    quot = [0] * max(len(rem) - d, 0)
    while len(rem) - 1 >= d:
        if rem[-1] == 0:
            rem.pop()
            continue
        k = len(rem) - 1 - d
        q = rem[-1] * inv % m
        quot[k] = q
        for i, c in enumerate(b):
            rem[k + i] = (rem[k + i] - q * c) % m
        rem.pop()
    return _trim_steps([c % m for c in quot]), _trim_steps([c % m for c in rem])


def pm_pow_mod_by_steps(a, e: int, f, m: int) -> tuple[int, ...]:
    """a**e mod f over Z/m by square-and-multiply on the oracles above."""
    result: tuple[int, ...] = (1,)
    base = pm_divrem_by_steps(a, f, m)[1]
    while e:
        if e & 1:
            result = pm_divrem_by_steps(pm_mul_by_steps(result, base, m), f, m)[1]
        base = pm_divrem_by_steps(pm_mul_by_steps(base, base, m), f, m)[1]
        e >>= 1
    return result


def pm_product_by_steps(unit: int, factors, m: int) -> tuple[int, ...]:
    """unit * prod(q^e for (q, e) in factors) over Z/m, one factor at a
    time on the oracle above; factors are coefficient sequences."""
    acc = _trim_steps([unit % m])
    for q, e in factors:
        for _ in range(e):
            acc = pm_mul_by_steps(acc, q, m)
    return acc


def pm_gcd_by_steps(a, b, p: int) -> tuple[int, ...]:
    """Monic gcd over F_p by Euclid on the oracles above."""
    while b:
        a, b = b, pm_divrem_by_steps(a, b, p)[1]
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def brute_force_symmetric_common_factor(
    f: PolyModP, g: PolyModP, max_deg: int = 4
) -> bool:
    """Enumerate every monic h over F_p with 1 <= deg h <= max_deg,
    h(1-X) = h(X), and test divisibility by the long division above,
    not by the kernels under test."""
    p = f.p
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=deg):
            h = PolyModP(p, tail + (1,))
            if at_one_minus_x_mod_p_by_horner(h) != h.coeffs:
                continue
            if not any(pm_divrem_by_steps(a.coeffs, h.coeffs, p)[1] for a in (f, g)):
                return True
    return False


def count_real_roots_float(
    f: IntPoly, a: float, b: float, tol: float = 1e-9, guard: float = 1e-5
) -> int | None:
    """Count real roots in (a, b) from companion-matrix eigenvalues;
    returns None when a root is too close to the real axis boundary or an
    endpoint to trust floating point."""
    roots = np.roots(list(reversed(f.coeffs)))
    count = 0
    for z in roots:
        im = abs(z.imag)
        if tol < im < guard:
            return None
        if im >= guard:
            continue
        re = z.real
        if a != float("-inf") and abs(re - a) < guard:
            return None
        if b != float("inf") and abs(re - b) < guard:
            return None
        if a < re < b:
            count += 1
    return count


def signature_float(m: list[list[int]], guard: float = 1e-8) -> int | None:
    """Signature from numpy eigenvalues; None when an eigenvalue is too
    close to zero to trust."""
    eig = np.linalg.eigvalsh(np.array(m, dtype=float))
    if any(abs(x) < guard for x in eig):
        return None
    return int(sum(1 for x in eig if x > 0) - sum(1 for x in eig if x < 0))


def is_irreducible_bruteforce(h: IntPoly) -> bool:
    """Exhaustive divisor search for primitive h of degree <= 4, with
    coefficient bounds from the Mignotte root bound."""
    d = int(h.degree)
    assert 1 <= d <= 4
    if d == 1:
        return True
    norm = 1
    s = sum(c * c for c in h.coeffs)
    while norm * norm < s:
        norm += 1
    bound = (1 << d) * (norm + abs(h.lc))

    def divisors(n: int) -> list[int]:
        n = abs(n)
        return [k for k in range(1, n + 1) if n % k == 0]

    for d1 in range(1, d // 2 + 1):
        for lc in divisors(h.lc):
            # constant coefficient must divide h(0) when h(0) != 0
            c0_range = (
                [c for k in divisors(h.coeffs[0]) for c in (k, -k)]
                if h.coeffs[0] != 0
                else list(range(-bound, bound + 1))
            )
            mid_ranges = [range(-bound, bound + 1)] * (d1 - 1)
            for c0 in c0_range:
                for mid in itertools.product(*mid_ranges):
                    g = IntPoly((c0,) + tuple(mid) + (lc,))
                    if g.degree != d1:
                        continue
                    q, rem = divrem(RatPoly(h.coeffs), RatPoly(g.coeffs))
                    if rem.is_zero:
                        if all(c.denominator == 1 for c in q.coeffs):
                            return False
    return True


def _kmul(x: RatPoly, y: RatPoly, q: RatPoly) -> RatPoly:
    return (x * y) % q


def _kinv(x: RatPoly, q: RatPoly) -> RatPoly:
    """Inverse of x modulo the irreducible q over Q."""
    a, b = q, x % q
    ua, ub = RatPoly.zero(), RatPoly((Fraction(1),))
    while not b.is_zero:
        quo, rem = a.divrem(b)
        a, b = b, rem
        ua, ub = ub, ua - quo * ub
    assert a.degree == 0, "non-invertible element in number field"
    return (ua * (1 / a.lc)) % q


def _kernel_basis_over_field(m: list[list[RatPoly]], q: RatPoly) -> list[list[RatPoly]]:
    """Kernel basis of a matrix over Q[Y]/(q) by Gauss-Jordan elimination."""
    n = len(m)
    rows = [[entry % q for entry in row] for row in m]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if not rows[i][c].is_zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _kinv(rows[r][c], q)
        rows[r] = [_kmul(x, inv, q) for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [(x - _kmul(f, y, q)) % q for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis: list[list[RatPoly]] = []
    one = RatPoly((Fraction(1),))
    for free in (c for c in range(n) if c not in pivots):
        v = [RatPoly.zero()] * n
        v[free] = one
        for c, pr in pivots.items():
            v[c] = (-rows[pr][free]) % q
        basis.append(v)
    return basis


def milnor_values_number_field(s_rows, a_rows) -> tuple[int, ...]:
    """Milnor values of a Seifert pair (S, a) with squarefree charpoly,
    one per v-root interval below -1/4 in sorted order: the
    signature of S on the eigenplane Ker(a^2 - a - lambda), computed over
    the number field Q[Y]/(minpoly of lambda), with the real embedding
    chosen by certified interval signs."""
    s, a = as_matrix(s_rows), as_matrix(a_rows)
    p = sympy_charpoly(a)
    ivs = isolate_roots(v_polynomial(p), b=Fraction(-1, 4))
    if not ivs:
        return ()
    minpolys = [f for f, _ in factor_z(v_polynomial(p)).factors]
    b = tuple(tuple(x - y for x, y in zip(ra, rr)) for ra, rr in zip(mat_mul(a, a), a))
    n = len(a)
    values: list[int] = []
    for iv in ivs:
        (q,) = [mp for mp in minpolys if sturm_count(mp, iv.lo, iv.hi) == 1]
        q_rat = RatPoly(q.coeffs).monic()
        # entries of b - Y*I as elements of Q[Y]/(q)
        m = [
            [
                RatPoly((Fraction(b[i][j]), Fraction(-1))) if i == j else RatPoly((Fraction(b[i][j]),))
                for j in range(n)
            ]
            for i in range(n)
        ]
        basis = _kernel_basis_over_field(m, q_rat)
        assert len(basis) == 2, f"eigenspace dimension {len(basis)}, expected 2"
        v1, v2 = basis

        def gram(u: list[RatPoly], w: list[RatPoly]) -> RatPoly:
            acc = RatPoly.zero()
            for i in range(n):
                if u[i].is_zero:
                    continue
                for j in range(n):
                    if s[i][j] and not w[j].is_zero:
                        acc = acc + s[i][j] * (u[i] * w[j])
            return acc % q_rat

        g11, g12, g22 = gram(v1, v1), gram(v1, v2), gram(v2, v2)
        det_g = (g11 * g22 - g12 * g12) % q_rat
        assert not det_g.is_zero, "restricted form is degenerate"
        # sign_at_root takes integer polynomials: positive multiples keep the signs
        if sign_at_root(det_g.clear_denominators(), q, iv) < 0:
            values.append(0)
        else:
            values.append(2 * sign_at_root(g11.clear_denominators(), q, iv))
    return tuple(values)


def sympy_charpoly(rows) -> IntPoly:
    """det(X - M) by sympy's ``DomainMatrix.charpoly`` over ZZ, not by the
    package's kernels."""
    import sympy

    return IntPoly(int(c) for c in reversed(sympy.Matrix(rows).to_DM().charpoly()))


def sympy_det(rows) -> int:
    """det M by sympy's ``DomainMatrix.det`` over ZZ, not by the package's
    kernels."""
    import sympy

    return int(sympy.Matrix(rows).to_DM().det())


def sympy_factors(f: IntPoly) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors of f over Z from ``sympy.factor_list``, as
    sorted (coefficients low to high with positive leading one,
    multiplicity) pairs."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x).factor_list()
    out = []
    for q, e in factors:
        coeffs = tuple(int(c) for c in reversed(q.all_coeffs()))
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        out.append((coeffs, e))
    return sorted(out)


def delta_factor_rhos(delta: IntPoly) -> list[int] | None:
    """The Delta-side route to the per-factor rho, which the pipeline once
    took for its indecomposability note: factor Delta itself and count the
    unit-circle roots of each factor with ``rho_delta``.  Sorted; None when
    a factor is not reciprocal or has a root at 1 or -1."""
    rhos = []
    for q, _ in factor_z(delta).factors:
        if not alexander_check(q).reciprocal or q.evaluate(1) == 0 or q.evaluate(-1) == 0:
            return None
        rhos.append(rho_delta(q))
    return sorted(rhos)


def indecomposable_by_delta_factors(delta: IntPoly, s: int, mod_required: int) -> bool:
    """Whether the note applies, by a search over the factors of Delta
    itself: s != 0, at least two factors, and no proper nonempty subset of
    them whose rho reaches the signature modulus, so that no summand of a
    connected sum can carry a nonzero signature.  Stricter than the reading
    it replaced (each single factor's rho below the modulus), which two of
    three factors can defeat together."""
    rhos = delta_factor_rhos(delta)
    if s == 0 or rhos is None or len(rhos) < 2:
        return False
    return all(sum(part) < mod_required
               for size in range(1, len(rhos)) for part in itertools.combinations(rhos, size))


# ---------------------------------------------------------------------------
# the Fraction routes of the Seifert path


def pencil_det_by_lagrange(m0, m1) -> IntPoly:
    """det(m0 + X*m1) by Lagrange interpolation over RatPoly through the
    values at X = 0..n."""
    n = len(m0)
    points = range(n + 1)
    values = [
        sympy_det(tuple(tuple(m0[i][j] + x * m1[i][j] for j in range(n)) for i in range(n)))
        for x in points
    ]
    acc = RatPoly.zero()
    for i, xi in enumerate(points):
        term = RatPoly((Fraction(values[i]),))
        for xj in points:
            if xj != xi:
                term = term * RatPoly((Fraction(-xj), Fraction(1))) * Fraction(1, xi - xj)
        acc = acc + term
    assert all(c.denominator == 1 for c in acc.coeffs)
    return IntPoly(int(c) for c in acc.coeffs)


def inverse_by_fractions(rows) -> tuple[tuple[int, ...], ...]:
    """Inverse of a matrix with determinant +-1 by Gauss-Jordan
    elimination over Fraction."""
    n = len(rows)
    det = sympy_det(rows)
    if det not in (1, -1):
        raise ValueError(f"matrix has determinant {det}, not +-1")
    work = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return tuple(tuple(int(x) for x in row[n:]) for row in work)


def rat_sturm_sequence(f: RatPoly) -> list[RatPoly]:
    """f, f', then negated Euclidean remainders over Fraction."""
    seq = [f, f.derivative()]
    while not seq[-1].is_zero and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero:
        seq.pop()
    return seq


def _rat_variations(seq: list[RatPoly], x) -> int:
    signs = []
    for f in seq:
        if x == float("-inf"):
            v = f.lc * (-1 if int(f.degree) % 2 else 1)
        elif x == float("inf"):
            v = f.lc
        else:
            v = f.evaluate(Fraction(x))
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def rat_sturm_count(f: RatPoly, a, b) -> int:
    """Real roots of squarefree f in (a, b) from the Fraction chain."""
    seq = rat_sturm_sequence(f)
    return _rat_variations(seq, a) - _rat_variations(seq, b)


def rat_isolate_roots(f: RatPoly, a, b, width=Fraction(1, 1 << 10)) -> list[IsolatingInterval]:
    """Isolating intervals by the Fraction chain and Fraction evaluation,
    bisecting at the same points as ``isolate_roots``."""
    seq = rat_sturm_sequence(f)
    bound = 2 + max(abs(c) for c in f.coeffs) / abs(f.lc)
    lo = Fraction(a) if a != float("-inf") else -bound
    hi = Fraction(b) if b != float("inf") else bound
    out = []
    stack = [(lo, hi, _rat_variations(seq, lo), _rat_variations(seq, hi))]
    while stack:
        l, h, vl, vh = stack.pop()
        if vl == vh:
            continue
        if vl - vh == 1 and h - l <= width:
            out.append(IsolatingInterval(l, h))
            continue
        mid, offset = (l + h) / 2, (h - l) / 4
        while f.evaluate(mid) == 0:
            mid += offset
            offset /= 2
        vm = _rat_variations(seq, mid)
        stack.append((l, mid, vl, vm))
        stack.append((mid, h, vm, vh))
    return sorted(out, key=lambda iv: iv.lo)


def interval_eval(p: RatPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact interval Horner evaluation: bounds for p([lo, hi])."""
    acc_lo = acc_hi = p.lc if not p.is_zero else Fraction(0)
    for c in reversed(p.coeffs[:-1]) if p.coeffs else ():
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


def sign_at_root_by_bisection(expr: RatPoly, minpoly: RatPoly, iv: IsolatingInterval) -> int:
    """Sign of expr at the root of ``minpoly`` in ``iv``: bisect with the
    Fraction chain until interval Horner bounds exclude zero."""
    lo, hi = iv.lo, iv.hi
    while True:
        vlo, vhi = interval_eval(expr, lo, hi)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1
        mid = (lo + hi) / 2
        if minpoly.evaluate(mid) == 0:
            return 0 if expr.evaluate(mid) == 0 else (1 if expr.evaluate(mid) > 0 else -1)
        if rat_sturm_count(minpoly, lo, mid) == 1:
            hi = mid
        else:
            lo = mid


def hensel_lift_by_sympy(F, factors: list[list[int]], p: int, modulus: int) -> list[list[int]]:
    """The monic lifts to Z/modulus, modulus = p^l, of the pairwise coprime
    monic factors mod p of monic F (ascending coefficient lists), by
    sympy's ``dup_zz_hensel_lift``, with coefficients in [0, modulus)."""
    from sympy import ZZ
    from sympy.polys.factortools import dup_zz_hensel_lift

    l = round(math.log(modulus, p))
    assert p**l == modulus
    lifted = dup_zz_hensel_lift(ZZ(p), [ZZ(c) for c in reversed(F)],
                                [[ZZ(c) for c in reversed(q)] for q in factors], l, ZZ)
    return [[int(c) % modulus for c in reversed(q)] for q in lifted]


def compose_by_intpoly_horner(f: IntPoly, inner: IntPoly) -> IntPoly:
    """f(inner(X)) by Horner, building two IntPolys per step."""
    acc = IntPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * inner + IntPoly((c,))
    return acc


def at_one_minus_x_by_compose(f: IntPoly) -> IntPoly:
    """f(1 - X) by `IntPoly.compose`, as the Delta <-> P transforms and
    `symmetric_check` reflected before their additions-only shift."""
    return f.compose(IntPoly((1, -1)))


def at_one_minus_x_mod_p_by_horner(h: PolyModP) -> tuple[int, ...]:
    """h(1 - X) over F_p by Horner's rule, acc <- acc * (1 - X) + c,
    reduced at every step, as `modp` reflected before it reduced the
    shift over Z."""
    acc: list[int] = []
    for c in reversed(h.coeffs):
        acc = [(a - b) % h.p for a, b in zip(acc + [0], [0] + acc)] or [0]
        acc[0] = (acc[0] + c) % h.p
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def symmetric_mod_p_by_sympy(h: PolyModP) -> bool:
    """h(1 - X) = h(X) over F_p exactly, not just up to a unit, by
    sympy's composition over GF(p), as perfbench's oracle checks a
    witness."""
    import sympy

    x = sympy.Symbol("x")
    f = sympy.Poly(list(reversed(h.coeffs)) or [0], x, modulus=h.p)
    return f.compose(sympy.Poly(1 - x, x, modulus=h.p)) == f


def trace_polynomial_by_intpoly(delta: IntPoly) -> IntPoly:
    """D with Delta(X) = X^n D(X + 1/X) by the recurrence
    V_{j+1} = Y V_j - V_{j-1} on IntPoly values, reciprocal Delta of even
    degree only."""
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


def delta_to_p_by_expansion(delta: IntPoly) -> IntPoly:
    """(-1)^n X^{2n} delta(1 - 1/X) as sum_k c_k (X-1)^k X^{2n-k}."""
    n = int(delta.degree) // 2
    x_minus_1 = IntPoly((-1, 1))
    acc = IntPoly.zero()
    pow_xm1 = IntPoly.one()
    for k, c in enumerate(delta.coeffs):
        if c:
            acc = acc + c * (pow_xm1 * IntPoly.x() ** (2 * n - k))
        pow_xm1 = pow_xm1 * x_minus_1
    return acc if n % 2 == 0 else -acc


def p_to_delta_by_expansion(p: IntPoly) -> IntPoly:
    """(-1)^n (X-1)^{2n} P(X/(X-1)) as sum_k c_k X^k (X-1)^{2n-k}."""
    n = int(p.degree) // 2
    x_minus_1 = IntPoly((-1, 1))
    acc = IntPoly.zero()
    for k, c in enumerate(p.coeffs):
        if c:
            acc = acc + c * (IntPoly.x() ** k * x_minus_1 ** (2 * n - k))
    return acc if n % 2 == 0 else -acc


def v_polynomial_by_peeling(p: IntPoly) -> IntPoly | None:
    """Q with P(X) = Q(X^2 - X), peeling q_k (X^2 - X)^k off the top after
    testing P(1-X) = P(X) by composition; None for an asymmetric P."""
    if at_one_minus_x_by_compose(p) != p:
        return None
    n = int(p.degree) // 2
    v = IntPoly((0, -1, 1))
    rem, q = p, [0] * (n + 1)
    for k in range(n, -1, -1):
        q[k] = rem.coeff(2 * k)
        rem = rem - q[k] * v**k
    assert rem.is_zero
    return IntPoly(q)


def signature_by_real_elimination(m: tuple[tuple[int, ...], ...]) -> int:
    """Signature of a nonsingular symmetric integer matrix by congruence
    diagonalization of the full real matrix: after a pivot d (a diagonal
    entry, or else a 2x2 block [[0, b], [b, 0]] of signature 0) the rest
    is replaced by |d| times its Schur complement, then divided by its
    content.  This is the kernel ``signature_exact`` ran before the Z[i]
    one.  ``signature_exact`` is a real elimination again, but builds the
    smaller matrix as new rows at every pivot; this route updates the
    whole square in place over a shrinking index list, so the two share
    no code."""
    w = [list(row) for row in m]
    active = list(range(len(m)))
    sig = 0
    while active:
        piv = next((k for k in active if w[k][k] != 0), None)
        if piv is not None:
            d = w[piv][piv]
            sign, scale = (1 if d > 0 else -1), abs(d)
            sig += sign
            active.remove(piv)
            wp = w[piv]
            for i in active:
                wi = w[i]
                f = sign * wi[piv]
                for j in active:
                    wi[j] = scale * wi[j] - f * wp[j]
        else:
            off = next(
                ((k, l) for k in active for l in active if k < l and w[k][l] != 0), None
            )
            if off is None:
                raise ValueError("matrix is singular; signature undefined")
            k, l = off
            b = w[k][l]
            sign, scale = (1 if b > 0 else -1), abs(b)
            active.remove(k)
            active.remove(l)
            wk, wl = w[k], w[l]
            for i in active:
                wi = w[i]
                fk, fl = sign * wi[k], sign * wi[l]
                for j in active:
                    wi[j] = scale * wi[j] - fk * wl[j] - fl * wk[j]
        g = math.gcd(*(w[i][j] for i in active for j in active))
        if g > 1:
            for i in active:
                wi = w[i]
                for j in active:
                    wi[j] //= g
    return sig


def hermitian_signature_by_realification(s, k, t: Fraction) -> int:
    """Signature of S + i t K as half that of the real symmetric 2n x 2n
    matrix [[dS, -pK], [pK, dS]] for t = p/d."""
    p, d = t.numerator, t.denominator
    top = [tuple(d * x for x in rs) + tuple(-p * x for x in rk) for rs, rk in zip(s, k)]
    bottom = [tuple(p * x for x in rk) + tuple(d * x for x in rs) for rs, rk in zip(s, k)]
    return signature_by_real_elimination(tuple(top + bottom)) // 2


def _fraction_sign_at(f: IntPoly, x) -> int:
    if x in (float("-inf"), float("inf")):
        s = (f.lc > 0) - (f.lc < 0)
        return -s if x < 0 and int(f.degree) % 2 else s
    v = f.evaluate(Fraction(x))
    return (v > 0) - (v < 0)


def _fraction_variations(seq: list[IntPoly], x) -> int:
    signs = [s for s in (_fraction_sign_at(f, x) for f in seq) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _fraction_split_point(g: IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """The midpoint of (lo, hi), moved off a root of g by halved offsets."""
    mid, offset = (lo + hi) / 2, (hi - lo) / 4
    while _fraction_sign_at(g, mid) == 0:
        mid += offset
        offset /= 2
    return mid


def fraction_isolate_roots(f, a=float("-inf"), b=float("inf"), width=Fraction(1, 1 << 10)):
    """``isolate_roots`` with Fraction endpoints, a Fraction per sign and
    the whole Sturm sequence at every midpoint, as it ran before its
    endpoints became integer numerators."""
    seq = sturm_sequence(f)
    g = seq[0]
    bound = 2 + Fraction(max(abs(c) for c in g.coeffs), abs(g.lc))
    lo = Fraction(a) if a != float("-inf") else -bound
    hi = Fraction(b) if b != float("inf") else bound
    out = []
    stack = [(lo, hi, _fraction_variations(seq, lo), _fraction_variations(seq, hi))]
    while stack:
        l, h, vl, vh = stack.pop()
        c = vl - vh
        if c == 0:
            continue
        if c == 1 and h - l <= width:
            out.append(IsolatingInterval(l, h))
            continue
        mid = _fraction_split_point(g, l, h)
        vm = _fraction_variations(seq, mid)
        stack.append((l, mid, vl, vm))
        stack.append((mid, h, vm, vh))
    out.sort(key=lambda iv: iv.lo)
    return out


def fraction_refine_interval(f, iv: IsolatingInterval) -> IsolatingInterval:
    """One Fraction bisection step preserving the single contained root."""
    g = sturm_sequence(f)[0]
    mid = _fraction_split_point(g, iv.lo, iv.hi)
    sl = _fraction_sign_at(g, iv.lo)
    if sl != 0 and _fraction_sign_at(g, mid) == sl:
        return IsolatingInterval(mid, iv.hi)
    return IsolatingInterval(iv.lo, mid)


def fraction_root_gaps(f, ivs: list[IsolatingInterval], top: Fraction):
    """``root_gaps`` over :func:`fraction_refine_interval`."""
    ivs = list(ivs)
    gaps = []
    for j in range(len(ivs)):
        upper = ivs[j + 1].lo if j + 1 < len(ivs) else top
        while ivs[j].hi >= upper:
            ivs[j] = fraction_refine_interval(f, ivs[j])
            if j + 1 < len(ivs):
                ivs[j + 1] = fraction_refine_interval(f, ivs[j + 1])
                upper = ivs[j + 1].lo
        gaps.append((ivs[j].hi, upper))
    return gaps


# A Hermitian matrix H over Z[i] is kept as its upper triangle: two lists
# of rows, real and imaginary parts, row i holding H_ij for j >= i.


def _column(re, im, k: int) -> tuple[list[int], list[int]]:
    """H_ik for i != k, as real and imaginary parts; H_ik = conj(H_ki)
    for i > k."""
    return (
        [re[i][k - i] for i in range(k)] + re[k][1:],
        [im[i][k - i] for i in range(k)] + [-x for x in im[k][1:]],
    )


def _drop(rows: list[list[int]], k: int) -> list[list[int]]:
    """The triangle without row and column k."""
    return [row[: k - i] + row[k - i + 1 :] for i, row in enumerate(rows[:k])] + rows[k + 1 :]


def _times(b: tuple[int, int], u: tuple[list[int], list[int]]) -> tuple[list[int], list[int]]:
    """b u for a Gaussian integer b and a vector u, as real and imaginary parts."""
    br, bi = b
    return [br * x - bi * y for x, y in zip(*u)], [br * y + bi * x for x, y in zip(*u)]


def _outer_update(re, im, scale: int, a, c):
    """The triangle of scale H - a c^*, i.e. scale H_ij - a_i conj(c_j)."""
    (ar, ai), (cr, ci) = a, c
    new_re, new_im = [], []
    for x, (rr, ri) in enumerate(zip(re, im)):
        pr, pi, tr, ti = ar[x], ai[x], cr[x:], ci[x:]
        new_re.append([scale * v - pr * qr - pi * qi for v, qr, qi in zip(rr, tr, ti)])
        new_im.append([scale * v - pi * qr + pr * qi for v, qr, qi in zip(ri, tr, ti)])
    return new_re, new_im


def _pivot_diagonal(re, im, k: int):
    """|d| times the Schur complement of the real pivot d = H_kk:
    H_ij <- |d| H_ij - sign(d) H_ik H_kj."""
    d = re[k][0]
    u = _column(re, im, k)
    a = u if d > 0 else ([-x for x in u[0]], [-x for x in u[1]])
    return _outer_update(_drop(re, k), _drop(im, k), abs(d), a, u)


def _pivot_block(re, im, k: int, l: int):
    """|b|^2 times the Schur complement of the block [[0, b], [conj b, 0]],
    b = H_kl (k < l): H_ij <- |b|^2 H_ij - b H_ik H_lj - conj(b) H_il H_kj,
    where H_lj = conj(H_jl) and H_kj = conj(H_jk)."""
    br, bi = re[k][l - k], im[k][l - k]
    u = [c[: l - 1] + c[l:] for c in _column(re, im, k)]  # i != k, l
    v = [c[:k] + c[k + 1 :] for c in _column(re, im, l)]
    re, im = _drop(_drop(re, l), k), _drop(_drop(im, l), k)
    re, im = _outer_update(re, im, br * br + bi * bi, _times((br, bi), u), v)
    return _outer_update(re, im, 1, _times((br, -bi), v), u)


def _hermitian_elimination(re: list[list[int]], im: list[list[int]]) -> int:
    """Signature of a nonsingular Hermitian H = re + i im over Z[i], given
    as its upper triangle.

    Fraction-free congruence diagonalization: a nonzero (real) diagonal
    entry d contributes sign(d), and the rest becomes |d| times its Schur
    complement; when every diagonal entry is 0, a nonzero H_kl gives the
    block [[0, b], [conj b, 0]] of signature 0 (its determinant is
    -|b|^2), and the rest becomes |b|^2 times its Schur complement.  Both
    complements are Hermitian over Z[i] with the signature of the rest,
    and each is divided by the content of its entries."""
    sig = 0
    while re:
        size = len(re)
        k = next((k for k in range(size) if re[k][0]), None)
        if k is not None:
            sig += 1 if re[k][0] > 0 else -1
            re, im = _pivot_diagonal(re, im, k)
        else:
            off = next(
                ((k, l) for k in range(size) for l in range(k + 1, size)
                 if re[k][l - k] or im[k][l - k]),
                None,
            )
            if off is None:
                raise ValueError("matrix is singular; signature undefined")
            re, im = _pivot_block(re, im, *off)
        g = math.gcd(*(math.gcd(*row) for row in re + im))
        if g > 1:
            re = [[x // g for x in row] for row in re]
            im = [[x // g for x in row] for row in im]
    return sig


def _t_with_square_in(lo: Fraction, hi: Fraction | None) -> Fraction:
    """A rational t > 0 with lo < t^2 < hi (hi None for no upper bound),
    0 <= lo < hi, with the smallest power-of-two denominator."""
    d = 1
    while True:
        p = math.isqrt(math.floor(lo * d * d)) + 1  # least p with p^2 > lo d^2
        if hi is None or p * p < hi * d * d:
            return Fraction(p, d)
        d *= 2


def _hermitian_signature(s: Matrix, k: Matrix, t: Fraction) -> int:
    """Signature of the Hermitian form S + i t K (S symmetric, K skew):
    that of its positive multiple H = dS + i pK for t = p/d, an n x n
    matrix over Z[i], by :func:`_hermitian_elimination` (diagonal pivots,
    and the 2 x 2 block pivot when the remaining diagonal is all 0)."""
    p, d = t.numerator, t.denominator
    return _hermitian_elimination(
        [[d * x for x in row[i:]] for i, row in enumerate(s)],
        [[p * x for x in row[i:]] for i, row in enumerate(k)],
    )


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


def milnor_values_levine_tristram(s_rows, a_rows) -> tuple[int, ...]:
    """Milnor values of a Seifert pair (S, a) with squarefree charpoly, one
    per v-root interval in sorted order, as the jumps of the
    Levine-Tristram signature t -> sig(S + i t K), K = A - A^T, A = a^T S:
    the signature at t = 0, at one rational t between each two
    consecutive roots of Delta_A and at one above the last (where it is
    0), each by :func:`_hermitian_elimination` on the n x n Hermitian
    dS + i pK over Z[i]; each value is the drop across its root.  P is
    taken by :func:`sympy_charpoly`, so nothing comes from the form's
    record.  This is the route ``milnor_signatures`` took before it read
    eigenplane signs."""
    s, a = as_matrix(s_rows), as_matrix(a_rows)
    q = v_polynomial(sympy_charpoly(a))
    ivs = isolate_roots(q, float("-inf"), Fraction(-1, 4))
    a_form = mat_mul(transpose(a), s)
    k = tuple(tuple(x - y for x, y in zip(ra, rt)) for ra, rt in zip(a_form, transpose(a_form)))
    gaps = root_gaps(q, ivs, Fraction(-1, 4))

    def t_squared(lam: Fraction) -> Fraction:
        return 1 / (-4 * lam - 1)

    # one t in each gap; the last gap, above the last root, is unbounded in t
    bounds = [t_squared(hi) for _, hi in gaps[:-1]] + [None]
    samples = [Fraction(0)] + [_t_with_square_in(t_squared(lo), hi) for (lo, _), hi in zip(gaps, bounds)]
    sigmas = [_hermitian_signature(s, k, t) for t in samples]
    assert sigmas[-1] == 0, f"signature {sigmas[-1]} above the last root"
    return tuple(before - after for before, after in zip(sigmas, sigmas[1:]))
