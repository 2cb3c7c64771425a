"""Seifert forms and Seifert pairs over Z, with exact invariants.

A form is a square integer matrix A whose symmetrization S = A + A^T is
unimodular (and automatically even).  A pair is an even unimodular
symmetric S with an injective integer endomorphism a satisfying
S(ax, y) = S(x, (1-a)y).  Bilinear forms evaluate as x^T M y throughout;
the correspondence A <-> (S, a) is A = a^T S, a = S^(-1) A^T, and all
public identities are convention-free.

Milnor signatures are read off the Levine-Tristram signature function
t -> sig(S + i t K), K = A - A^T, which is constant between the
unit-circle roots of Delta_A and drops by the Milnor signature of the
root pair at each one.  Every evaluation is the exact signature of an
integer matrix at a rational t chosen between the isolated roots, so no
number field and no approximation is involved.  At t = p/d that matrix is
the n x n Hermitian dS + i pK over the Gaussian integers Z[i], and one
fraction-free congruence elimination of its upper triangle gives the
signature; ``signature_exact`` is the same elimination with no imaginary
part.

What the toolkit computes about one form is computed once, as a frozen
record of :func:`_form_facts`: S = A + A^T with det S, and on first use
det A, Delta_A (one pencil determinant), the companion pair (one pair
check) and P, read off Delta_A as ``delta_to_p`` of Delta_A normalised
to Delta(1) = (-1)^n (no second pencil determinant; see
:attr:`_FormFacts.p`).  ``form_to_pair``, ``alexander_of_form``,
``validate_form`` and ``unimodular_t`` read the record of A; the entry
points taking a pair read the record of its form a^T S.  The memo is
keyed on the form A as a tuple of integer rows, for at most
FORM_FACTS_MEMO = 64 entries, least recently used first out.  One
entry of a 12 x 12 benchmark form, every field computed, holds about
8 KB (tracemalloc), so a full memo holds about 0.5 MB.  Exceptions are
never memoized.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import KnotsigError, PolyParseError
from .polys import IntPoly, delta_to_p
from .realroots import IrrRFactor, _v_roots, root_gaps
from .zfactor import factor_z  # noqa: F401  unused; perfbench's tracer test patches seifert.factor_z

Matrix = tuple[tuple[int, ...], ...]

FORM_FACTS_MEMO = 64


# ---------------------------------------------------------------------------
# exact integer/rational matrix helpers


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    m = tuple(tuple(int(c) for c in row) for row in rows)
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("matrix must be square and nonempty")
    return m


def parse_matrix(text: str) -> Matrix:
    """Row-major bracketed integers, e.g. ``[[0,2],[-1,0]]``."""
    try:
        rows = json.loads(text)
        return as_matrix(rows)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise PolyParseError(f"bad matrix: {text!r}") from exc


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a)))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a
    )


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_det(a: Matrix) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Integer inverse of a matrix with determinant +-1, by fraction-free
    (Bareiss) Gauss-Jordan elimination on [A | I]: the divisions by the
    previous pivot are exact, and a last pivot d = +-1 leaves [dI | dA^-1]."""
    n = len(a)
    w = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if w[i][k]), None)
        if piv is None:
            raise ValueError("matrix has determinant 0, not +-1")
        w[k], w[piv] = w[piv], w[k]
        wk, d = w[k], w[k][k]
        for i in range(n):
            if i != k:
                f = w[i][k]
                w[i] = [(d * x - f * y) // prev for x, y in zip(w[i], wk)]
        prev = d
    if prev not in (1, -1):
        raise ValueError(f"matrix has determinant {mat_det(a)}, not +-1")
    return tuple(tuple(prev * x for x in row[n:]) for row in w)


def pencil_det(m0: Matrix, m1: Matrix) -> IntPoly:
    """det(m0 + X*m1) = f(X) from the values f(0..n) by Newton's formula
    n! f(X) = sum_k (n!/k!) D^k f(0) X(X-1)...(X-k+1) in integers."""
    n = len(m0)
    values = [
        mat_det(tuple(tuple(m0[i][j] + x * m1[i][j] for j in range(n)) for i in range(n)))
        for x in range(n + 1)
    ]
    acc, falling, weight = IntPoly.zero(), IntPoly.one(), math.factorial(n)
    for k in range(n + 1):  # falling = X(X-1)...(X-k+1), weight = n!/k!
        acc = acc + falling * (weight * values[0])
        values = [y - x for x, y in zip(values, values[1:])]
        falling = falling * IntPoly((-k, 1))
        weight //= k + 1
    scale = math.factorial(n)
    if any(c % scale for c in acc.coeffs):
        raise KnotsigError("internal error: interpolated determinant is not integral")
    return IntPoly(c // scale for c in acc.coeffs)


def charpoly(a: Matrix) -> IntPoly:
    """Monic characteristic polynomial det(X*I - a)."""
    return pencil_det(mat_neg(a), identity(len(a)))


# ---------------------------------------------------------------------------
# forms and pairs


@dataclass(frozen=True)
class Validation:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class SeifertPair:
    s: Matrix
    a: Matrix


@dataclass(frozen=True)
class MilnorAssignmentComputed:
    """The Milnor signature at each monic irreducible real quadratic
    factor of P, in the sorted order of the v-root intervals: the jump of
    the Levine-Tristram signature across the matching root of Delta_A.
    A zero value means the signature does not jump there and deserves
    attention.  ``kernel_dims`` is always all 2s (P is squarefree, so
    each such factor has a 2-dimensional kernel); reports still carry it."""

    factors: tuple[IrrRFactor, ...]
    values: tuple[int, ...]
    kernel_dims: tuple[int, ...]  # kept because perfbench/worker.py writes it
    total: int

    @property
    def has_zero_value(self) -> bool:
        return any(v == 0 for v in self.values)


def _pair_problems(s: Matrix, a: Matrix, det_s: int, det_a: int) -> list[str]:
    """What keeps two square matrices of one size, with the determinants
    given, from being a Seifert pair.  For a symmetric S the relation
    a^T S + S a = S is checked from one product, as S a = (a^T S)^T."""
    problems: list[str] = []
    symmetric = s == transpose(s)
    if not symmetric:
        problems.append("S is not symmetric")
    if any(s[i][i] % 2 for i in range(len(s))):
        problems.append("S has an odd diagonal entry, so it is not even")
    if det_s not in (1, -1):
        problems.append(f"S has determinant {det_s}, not +-1")
    if det_a == 0:
        problems.append("a has determinant 0, so it is not injective")
    at_s = mat_mul(transpose(a), s)
    if mat_add(at_s, transpose(at_s) if symmetric else mat_mul(s, a)) != s:
        problems.append("the relation S(ax, y) = S(x, (1-a)y) fails")
    return problems


@dataclass(frozen=True)
class _FormFacts:
    """What is known about one Seifert form A: S = A + A^T and det S = +-1,
    and, on first use, det A, Delta_A, the companion pair and P."""

    a: Matrix
    s: Matrix
    det_s: int

    @cached_property
    def det_a(self) -> int:
        return mat_det(self.a)

    @cached_property
    def delta(self) -> IntPoly:
        """Delta_A = det(X*A + A^T), by one pencil determinant."""
        return pencil_det(transpose(self.a), self.a)

    @cached_property
    def pair(self) -> SeifertPair:
        """S and the companion a = S^-1 A^T, checked as by
        :func:`validate_pair` with det a = det S * det A (det S = +-1)."""
        if self.det_a == 0:
            raise ValueError("degenerate form, no injective companion")
        comp = mat_mul(mat_inverse_unimodular(self.s), transpose(self.a))
        problems = _pair_problems(self.s, comp, self.det_s, self.det_s * self.det_a)
        if problems:
            raise KnotsigError(f"internal error: companion pair invalid: {tuple(problems)}")
        return SeifertPair(s=self.s, a=comp)

    @cached_property
    def p(self) -> IntPoly:
        """P = charpoly(a) of the companion, read off Delta_A.  With 2n the
        size of A and a = S^-1 A^T,
            det(X*I - a) = det S * det(X*S - A^T) = det S * det(X*A + (X-1)*A^T)
                         = det S * (X-1)^{2n} Delta_A(X/(X-1))
                         = det S * X^{2n} Delta_A(1 - 1/X),
        the last step by the palindromy X^{2n} Delta_A(1/X) = Delta_A(X).
        Delta_A(1) = det S, so (-1)^n det S Delta_A is Delta_A normalised to
        Delta(1) = (-1)^n, and P is its ``delta_to_p``.  The pair is taken
        first: det A != 0 gives Delta_A the full degree 2n."""
        self.pair  # raises unless det A != 0
        n = len(self.a) // 2
        return delta_to_p(self.delta if (-1) ** n * self.det_s == 1 else -self.delta)


@lru_cache(maxsize=FORM_FACTS_MEMO)
def _form_facts(a: Matrix) -> _FormFacts:
    """The facts of the form A, memoized per A; raises ValueError when
    det(A + A^T) is not +-1.  Exceptions are never memoized."""
    s = mat_add(a, transpose(a))
    det_s = mat_det(s)
    if det_s not in (1, -1):
        raise ValueError(f"symmetrization has determinant {det_s}, not +-1")
    return _FormFacts(a, s, det_s)


def _pair_facts(s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]) -> _FormFacts:
    """The facts of the form A = a^T S of a Seifert pair (S, a).  The pair
    is accepted when it is the companion pair of A, which holds for every
    valid pair (a^T S + S a = S gives A + A^T = S and S^-1 A^T = a) and
    only for one; any other input raises the problems of
    :func:`validate_pair`."""
    s, a = as_matrix(s_rows), as_matrix(a_rows)
    if len(s) == len(a):
        try:
            facts = _form_facts(mat_mul(transpose(a), s))
            if facts.pair == SeifertPair(s, a):
                return facts
        except ValueError:
            pass
    val = validate_pair(s, a)
    if val.ok:
        raise KnotsigError("internal error: a valid pair is not the companion pair of its form")
    raise ValueError("; ".join(val.problems))


def validate_form(a_rows: Sequence[Sequence[int]]) -> Validation:
    """A square integer matrix A is a Seifert form iff det(A + A^T) = +-1."""
    try:
        _form_facts(as_matrix(a_rows))
    except ValueError as exc:
        return Validation(False, (str(exc),))
    return Validation(True, ())


def validate_pair(s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]) -> Validation:
    """S must be symmetric, even, unimodular; a injective with
    S(ax, y) = S(x, (1-a)y), i.e. a^T S + S a = S."""
    try:
        s = as_matrix(s_rows)
        a = as_matrix(a_rows)
    except ValueError as exc:
        return Validation(False, (str(exc),))
    if len(s) != len(a):
        return Validation(False, ("S and a have different sizes",))
    problems = _pair_problems(s, a, mat_det(s), mat_det(a))
    return Validation(not problems, tuple(problems))


def form_to_pair(a_rows: Sequence[Sequence[int]]) -> SeifertPair:
    """S = A + A^T and the unique companion a with A(x,y) = S(ax,y),
    checked as by :func:`validate_pair`."""
    return _form_facts(as_matrix(a_rows)).pair


def pair_to_form(s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]) -> Matrix:
    """The form A(x,y) = S(ax,y), i.e. A = a^T S."""
    return _pair_facts(s_rows, a_rows).a


def alexander_of_form(a_rows: Sequence[Sequence[int]]) -> IntPoly:
    """det(X*A + A^T), exact."""
    return _form_facts(as_matrix(a_rows)).delta


def charpoly_of_pair(s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial of the endomorphism of a valid pair,
    read off Delta_A (see :attr:`_FormFacts.p`)."""
    return _pair_facts(s_rows, a_rows).p


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


def signature_exact(m_rows: Sequence[Sequence[int]]) -> int:
    """Signature of a nonsingular symmetric integer matrix: the Hermitian
    elimination of :func:`_hermitian_elimination` with imaginary part 0."""
    m = as_matrix(m_rows)
    if m != transpose(m):
        raise ValueError("signature needs a symmetric matrix")
    n = len(m)
    return _hermitian_elimination([list(row[i:]) for i, row in enumerate(m)],
                                  [[0] * (n - i) for i in range(n)])


def unimodular_t(a_rows: Sequence[Sequence[int]]) -> Matrix:
    """For a unimodular form A, the isometry t with A(tx,y) = -A(y,x);
    t preserves S = A + A^T and charpoly(t) = det(A) * Delta_A."""
    facts = _form_facts(as_matrix(a_rows))
    a, s, det_a = facts.a, facts.s, facts.det_a
    if det_a not in (1, -1):
        raise ValueError(f"form has determinant {det_a}, not +-1")
    # t^T A = -A^T  =>  t = -(A^(-1))^T A
    t = mat_neg(mat_mul(transpose(mat_inverse_unimodular(a)), a))
    if mat_mul(transpose(t), mat_mul(s, t)) != s:
        raise KnotsigError("internal error: t does not preserve the symmetrization")
    expected = det_a * facts.delta
    if charpoly(t) != expected:
        raise KnotsigError("internal error: charpoly(t) != det(A) * Delta_A")
    return t


# ---------------------------------------------------------------------------
# Milnor signatures of a concrete pair


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


def milnor_signatures(
    s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]
) -> MilnorAssignmentComputed:
    """Milnor signature of the pair at each monic irreducible real
    quadratic factor X^2 - X - lambda of the characteristic polynomial P
    (which must be squarefree), as the jump of the Levine-Tristram
    signature across the corresponding root of Delta_A.

    With A = a^T S and K = A - A^T, the Hermitian form S + i t K is a
    positive multiple of (1 + w) A + (1 + conj w) A^T at the unit-circle
    point w = (1 + ti)/(1 - ti), so it is singular exactly at the roots of
    Delta_A and its signature is constant between them.  Because
    t^2 = 1/(-4 lambda - 1) increases with lambda, the sorted v-root
    intervals give the roots in increasing t.  The signature is evaluated
    exactly at t = 0 (sig S), at one rational t between each two
    consecutive roots and at one above the last; each value is the drop
    across its root, so the values sum to sig S.

    The pair is accepted when it is the companion pair of its form
    A = a^T S, and P = charpoly(a) is read off Delta_A; both come from the
    memoized record of A (:func:`_form_facts`), so after ``form_to_pair``
    and ``alexander_of_form`` on A neither is computed again.  An input
    that is not a pair raises the problems of :func:`validate_pair`.

    Checks that can fail: the signature above the last root (sig S when
    there is none) is 0, since K is nonsingular (det K = +-Delta_A(-1),
    and P(1/2) != 0 for a monic integer P); and every drop is -2, 0 or 2."""
    facts = _pair_facts(s_rows, a_rows)
    s, a_form = facts.s, facts.a
    q, ivs = _v_roots(facts.p)  # P(1-X) = P(X) holds for every pair
    k = mat_sub(a_form, transpose(a_form))
    gaps = root_gaps(q, ivs, Fraction(-1, 4))

    def t_squared(lam: Fraction) -> Fraction:
        return 1 / (-4 * lam - 1)

    # one t in each gap; the last gap, above the last root, is unbounded in t
    bounds = [t_squared(hi) for _, hi in gaps[:-1]] + [None]
    samples = [_t_with_square_in(t_squared(lo), hi) for (lo, _), hi in zip(gaps, bounds)]
    sigmas = [signature_exact(s)] + [_hermitian_signature(s, k, t) for t in samples]
    if sigmas[-1] != 0:
        raise KnotsigError(
            f"internal error: signature {sigmas[-1]} above the last root, expected 0"
        )
    values = tuple(before - after for before, after in zip(sigmas, sigmas[1:]))
    if any(v not in (-2, 0, 2) for v in values):
        raise KnotsigError(f"internal error: Milnor values {values} outside -2, 0, 2")
    return MilnorAssignmentComputed(
        factors=tuple(IrrRFactor(iv) for iv in ivs), values=values,
        kernel_dims=(2,) * len(values), total=sum(values),
    )


# ---------------------------------------------------------------------------
# standard fixtures


def e8_gram() -> Matrix:
    """Gram matrix of the E8 root lattice (simply-laced Dynkin diagram:
    chain 1-3-4-5-6-7-8 with node 2 attached to node 4)."""
    edges = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    return tuple(
        tuple(
            2 if i == j else (-1 if (min(i, j), max(i, j)) in edges else 0)
            for j in range(8)
        )
        for i in range(8)
    )


def half_form(gram: Sequence[Sequence[int]]) -> Matrix:
    """Strict upper triangle plus half the (even) diagonal: a Seifert form
    whose symmetrization is the given even Gram matrix."""
    g = as_matrix(gram)
    n = len(g)
    if any(g[i][i] % 2 for i in range(n)):
        raise ValueError("gram matrix must be even")
    return tuple(
        tuple(g[i][i] // 2 if i == j else (g[i][j] if j > i else 0) for j in range(n))
        for i in range(n)
    )


def block_diag(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    am, bm = as_matrix(a), as_matrix(b)
    n, m = len(am), len(bm)
    out = []
    for i in range(n):
        out.append(tuple(am[i]) + (0,) * m)
    for i in range(m):
        out.append((0,) * n + tuple(bm[i]))
    return tuple(out)
