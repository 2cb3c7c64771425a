"""Seifert forms and Seifert pairs over Z, with exact invariants.

A form is a square integer matrix A whose symmetrization S = A + A^T is
unimodular (and automatically even).  A pair is an even unimodular
symmetric S with an injective integer endomorphism a satisfying
S(ax, y) = S(x, (1-a)y).  Bilinear forms evaluate as x^T M y throughout;
the correspondence A <-> (S, a) is A = a^T S, a = S^(-1) A^T, and all
public identities are convention-free.

Milnor signatures are eigenplane signs (Milnor, "On isometries of inner
product spaces", Invent. Math. 8, 1969).  For a pair (S, a) whose
P = det(X - a) = Q(X^2 - X) is squarefree, each real root lambda < -1/4
of the v-model Q has a real eigenplane ker(a^2 - a - lambda) on which S
is definite; the Milnor value there is twice its sign, so always +-2,
never 0 (proof at :func:`milnor_signatures`).  Each sign is read exactly
by one Sturm-Tarski query on two small integer polynomials, so no number
field and no approximation is involved.  It is also the drop of the
Levine-Tristram signature t -> sig(S + i t K), K = A - A^T, across the
matching root of Delta_A, which the tests evaluate as an independent
oracle.  ``signature_exact`` is one fraction-free congruence elimination
of a symmetric integer matrix.

What the toolkit computes about one form A is computed once, in its
record :class:`_FormFacts` (no pencil determinant), memoized per A by
:func:`_form_facts`: ``form_to_pair``, ``alexander_of_form``,
``validate_form`` and ``unimodular_t`` read the record of A, the entry
points taking a pair the record of its form a^T S.  A form of size 2n
costs det A, one product for its companion c = S^-1 A^T and n - 2
determinants of c, which with tr c^2 and det A give the v-model Q
(:attr:`_FormFacts.q`).  What depends on S = A + A^T alone is memoized
per lattice by :func:`_lattice_facts`, as every form on S is half(S) + K
for a skew K (see `memos`): det S, sig S and S^-1, which is checked
there by the one product S S^-1 = 1, so that no form on S needs a
product to check its companion (:attr:`_FormFacts.pair`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import memos
from .errors import KnotsigError, PolyParseError
from .polys import X2_MINUS_X, IntPoly, _integer, _mul_coeffs, _p_to_delta
from .realroots import IsolatingInterval, _v_roots, root_signs
from .zfactor import factor_z  # noqa: F401  unused; perfbench's tracer test patches seifert.factor_z

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# exact integer/rational matrix helpers


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    m = tuple(tuple(c if type(c) is int else _integer(c, "matrix entry") for c in row) for row in rows)
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("matrix must be square and nonempty")
    return m


def parse_matrix(text: str) -> Matrix:
    """Row-major bracketed integers, e.g. ``[[0,2],[-1,0]]``; a refusal says why."""
    try:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("expected a list of rows, each a list of integers")
        return as_matrix(rows)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep for json
        raise PolyParseError(f"bad matrix: {text!r}: {exc}") from exc


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a)))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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
    """det(m0 + X*m1), interpolated from its values at X = 0..n."""
    n = len(m0)
    values = [
        mat_det(tuple(tuple(m0[i][j] + x * m1[i][j] for j in range(n)) for i in range(n)))
        for x in range(n + 1)
    ]
    return _newton_interpolation(range(n + 1), values)


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
    factor X^2 - X - lambda of P, one per isolating interval of a v-root
    lambda < -1/4, in sorted order: twice the sign of S on the eigenplane
    ker(a^2 - a - lambda), which is the jump of the Levine-Tristram
    signature across the matching root of Delta_A.  Over C that eigenplane
    is spanned by S-isotropic eigenvectors of a, so S is definite on it and
    every value is +-2, never 0 (see :func:`milnor_signatures`).
    ``kernel_dims`` is always all 2s (P is squarefree, so each such factor
    has a 2-dimensional kernel); reports still carry it."""

    intervals: tuple[IsolatingInterval, ...]
    values: tuple[int, ...]
    kernel_dims: tuple[int, ...]  # kept because perfbench/worker.py writes it
    total: int


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


def _newton_interpolation(nodes: Sequence[int], values: Sequence[int]) -> IntPoly:
    """The integer polynomial of degree < len(nodes) through the points
    (nodes[k], values[k]), by Newton's divided differences in integers.
    Every divided difference of an integer polynomial at distinct integer
    nodes is an integer, so a remainder is an internal error."""
    diffs = list(values)  # diffs[j] becomes f[x_0, ..., x_j]
    for k in range(1, len(nodes)):
        for j in range(len(nodes) - 1, k - 1, -1):
            diffs[j], rem = divmod(diffs[j] - diffs[j - 1], nodes[j] - nodes[j - k])
            if rem:
                raise KnotsigError("internal error: a divided difference is not integral")
    acc = diffs[-1:]  # Horner: f = d_0 + (Y - x_0)(d_1 + (Y - x_1)(...)); [] if no node
    for d, x in zip(reversed(diffs[:-1]), reversed(nodes[:-1])):
        acc = _mul_coeffs(acc, (-x, 1))
        acc[0] += d
    return IntPoly(acc)


class _LatticeFacts:
    """What is known about one even unimodular lattice S = A + A^T, shared
    by every form on it: det S = +-1, and, on first use, S^-1 and sig S.
    S^-1 is checked here, once per lattice, by one product S S^-1 = 1;
    every form on S relies on that check (see :attr:`_FormFacts.pair`)."""

    def __init__(self, s: Matrix, det: int):
        self.s, self.det = s, det

    @cached_property
    def inverse(self) -> Matrix:
        """S^-1, with S S^-1 = 1 checked.  A failed check is an internal
        error, and a ``cached_property`` that raises stores nothing, so no
        wrong inverse is kept, nor any companion built from it."""
        inv = mat_inverse_unimodular(self.s)
        if mat_mul(self.s, inv) != identity(len(inv)):
            raise KnotsigError("internal error: lattice inverse invalid: S S^-1 = 1 fails")
        return inv

    @cached_property
    def signature(self) -> int:
        return signature_exact(self.s)


@memos.memo(memos.PER_INPUT)
def _lattice_facts(s: Matrix) -> _LatticeFacts:
    """The facts of the lattice S, memoized per S; raises ValueError when
    det S is not +-1."""
    det = mat_det(s)
    if det not in (1, -1):
        raise ValueError(f"symmetrization has determinant {det}, not +-1")
    return _LatticeFacts(s, det)


@dataclass(frozen=True)
class _FormFacts:
    """What is known about one Seifert form A of size 2n: the record of
    its lattice S = A + A^T (:func:`_lattice_facts`), with S, det S = +-1,
    S^-1 (checked once per lattice) and sig S, and, on first use, det A,
    the companion c = S^-1 A^T, the v-model Q of P = det(X - c) from
    tr c^2 and n - 2 determinants of c, P, Delta_A read off P and the
    companion pair."""

    a: Matrix
    lattice: _LatticeFacts

    @cached_property
    def det_a(self) -> int:
        return mat_det(self.a)

    @cached_property
    def companion(self) -> Matrix:
        """c = S^-1 A^T, integral since det S = +-1, also when det A = 0."""
        return mat_mul(self.lattice.inverse, transpose(self.a))

    @cached_property
    def q(self) -> IntPoly:
        """The v-model Q of P = det(X - c), P(X) = Q(X^2 - X), monic of
        degree n for A of size 2n.  P(1 - X) = P(X) because c^T S = A =
        S(1 - c) makes c^T conjugate to 1 - c.  Comparing the coefficients
        of X^(2n-1) and X^(2n-2) in P = X^(2n) - e_1 X^(2n-1) + e_2 X^(2n-2)
        - ... with (X^2 - X)^n + q_(n-1) (X^2 - X)^(n-1) + ... gives
        e_1 = tr c = n and e_2 = C(n, 2) + q_(n-1), and Newton's identity
        2 e_2 = e_1^2 - tr c^2 then gives q_(n-1) = (n - tr c^2)/2, read
        off c in O(n^2).  The rest R = Q - Y^n - q_(n-1) Y^(n-1), of degree
        at most n - 2, is interpolated at the n - 1 nodes k(k - 1),
        k = 1..n-1, from Q(k(k - 1)) = P(k) = det(k - c): P(1) =
        det(S^-1 A) = det S det A, and n - 2 determinants of the companion
        (none for n <= 2)."""
        c, n = self.companion, len(self.a) // 2
        top = (n - sum(c[i][j] * c[j][i] for i in range(2 * n) for j in range(2 * n))) // 2
        nodes = [k * (k - 1) for k in range(1, n)]
        values = [self.lattice.det * self.det_a] + [
            mat_det(tuple(tuple(k * (i == j) - x for j, x in enumerate(row)) for i, row in enumerate(c)))
            for k in range(2, n)
        ]
        rest = _newton_interpolation(nodes, [v - y**n - top * y**(n - 1) for y, v in zip(nodes, values)])
        return rest + IntPoly([0] * (n - 1) + [top, 1])

    @cached_property
    def p(self) -> IntPoly:
        """P = det(X - c) = Q(X^2 - X)."""
        return self.q.compose(X2_MINUS_X)

    @cached_property
    def delta(self) -> IntPoly:
        """Delta_A = det(X*A + A^T), read off P by `polys._p_to_delta`.
        With A = S(1 - c) and A^T = S c, for A of size 2n,
            det(X*A + A^T) = det S * det(X - (X - 1) c)
                           = det S * (X - 1)^{2n} P(X/(X - 1))
                           = det S * rev(P)(1 - X),
        since P(X/(X - 1)) = P(1/(1 - X)) by P(1 - X) = P(X), where rev(P)
        reverses the 2n + 1 coefficients of P.  Also when det A = 0.  And
        det S = (-1)^n, the sign that `_p_to_delta` takes: S is even and
        unimodular, so sig S = 0 (mod 8), and n - sig S / 2 = n (mod 2) of
        its 2n real eigenvalues are negative, none zero, which gives
        det S = +-1 the sign (-1)^n."""
        return _p_to_delta(self.p)

    @cached_property
    def pair(self) -> SeifertPair:
        """S and the companion c = S^-1 A^T, with no product of its own.
        That is no weaker than :func:`validate_pair`: S = A + A^T is
        symmetric and even by construction, det S = +-1 and S S^-1 = 1 are
        checked once per S (:class:`_LatticeFacts`), and det c =
        det S * det A != 0 is checked here.  S c = S (S^-1 A^T) =
        (S S^-1) A^T = A^T then holds by associativity, so c^T S = A and
        c^T S + S c = A + A^T = S, the relation that validate_pair tests;
        S c = A^T also pins c as A's companion, which the relation alone
        does not."""
        if self.det_a == 0:
            raise ValueError("degenerate form, no injective companion")
        return SeifertPair(s=self.lattice.s, a=self.companion)


@memos.memo(memos.PER_INPUT)
def _form_facts(a: Matrix) -> _FormFacts:
    """The facts of the form A, memoized per A; raises ValueError when
    det(A + A^T) is not +-1."""
    return _FormFacts(a, _lattice_facts(mat_add(a, transpose(a))))


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
    """det(X*A + A^T), exact.  It needs no sign flip to meet condition
    (2): Delta_A(1) = det S = (-1)^n for every nonsingular form of size
    2n, as proved at :attr:`_FormFacts.delta`."""
    return _form_facts(as_matrix(a_rows)).delta


def charpoly_of_pair(s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial of the endomorphism of a valid pair,
    read off Delta_A (see :attr:`_FormFacts.p`)."""
    return _pair_facts(s_rows, a_rows).p


def signature_exact(m_rows: Sequence[Sequence[int]]) -> int:
    """Signature of a nonsingular symmetric integer matrix, by
    fraction-free congruence diagonalization.  A nonzero diagonal pivot
    d = M_kk contributes sign(d), and the rest becomes
    M_ij <- |d| M_ij - sign(d) M_ik M_kj, a positive multiple of the Schur
    complement, divided by its content.  When the whole remaining diagonal
    is 0, adding row and column l to row and column k, for a nonzero M_kl,
    first makes M_kk = 2 M_kl: a congruence, which keeps the signature
    (Sylvester's law of inertia)."""
    m = as_matrix(m_rows)
    if m != transpose(m):
        raise ValueError("signature needs a symmetric matrix")
    sig = 0
    while m:
        size = len(m)
        k = next((k for k in range(size) if m[k][k]), None)
        if k is None:
            off = next(((k, l) for k in range(size) for l in range(k + 1, size) if m[k][l]), None)
            if off is None:
                raise ValueError("matrix is singular; signature undefined")
            k, l = off
            # the other rows' column k is not read below: M_ik = M_ki
            m = [*m[:k], [x + y for x, y in zip(m[k], m[l])], *m[k + 1 :]]
            m[k][k] = 2 * m[l][k]
        d = m[k][k]
        sig += 1 if d > 0 else -1
        u = m[k][:k] + m[k][k + 1 :]
        su = u if d > 0 else [-x for x in u]
        m = [[abs(d) * z - p * x for z, x in zip(row[:k] + row[k + 1 :], u)]
             for row, p in zip(m[:k] + m[k + 1 :], su)]
        g = math.gcd(*(math.gcd(*row) for row in m))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return sig


def unimodular_t(a_rows: Sequence[Sequence[int]]) -> Matrix:
    """For a unimodular form A, the isometry t = -A^-T A, the one with
    A(tx,y) = -A(y,x), i.e. t^T A = -A^T: that identity is checked, by one
    product, and it implies the rest.  Its transpose is A^T t = -A, so
    t^T A t = -A^T t = A and t^T A^T t = -t^T A = A^T: t preserves
    S = A + A^T.  And X - t = A^-T (X A^T + A), so det(X - t)
    = det(A)^-1 det(X A + A^T) = det(A) * Delta_A, as det(A) = +-1."""
    facts = _form_facts(as_matrix(a_rows))
    a, det_a = facts.a, facts.det_a
    if det_a not in (1, -1):
        raise ValueError(f"form has determinant {det_a}, not +-1")
    t = mat_neg(mat_mul(transpose(mat_inverse_unimodular(a)), a))
    if mat_mul(transpose(t), a) != mat_neg(transpose(a)):
        raise KnotsigError("internal error: t^T A != -A^T")
    return t


# ---------------------------------------------------------------------------
# Milnor signatures of a concrete pair


def _mat_vec(m: Matrix, v: list[int]) -> list[int]:
    return [sum(map(operator.mul, row, v)) for row in m]


def _eigenplane_signs(s: Matrix, a: Matrix, q: IntPoly, ivs: list[IsolatingInterval]) -> list[int]:
    """eps_lambda for the root lambda of Q in each interval of ``ivs``: the
    sign of S on ker(a^2 - a - lambda), read off the basis vectors in turn
    as in :func:`milnor_signatures`."""
    signs, d = [0] * len(ivs), len(q.coeffs) - 1
    for e in range(len(s)):
        todo = [j for j, sign in enumerate(signs) if not sign]
        if not todo:
            break
        w, moments = [int(i == e) for i in range(len(s))], []
        for j in range(d):  # w = b^j e, m_j = e^T S b^j e
            moments.append(sum(map(operator.mul, s[e], w)))
            if j < d - 1:
                aw = _mat_vec(a, w)
                w = [x - y for x, y in zip(_mat_vec(a, aw), aw)]
        r = IntPoly(sum(q.coeffs[k + 1 + j] * m for j, m in enumerate(moments[: d - k])) for k in range(d))
        for j, sign in zip(todo, root_signs(q, r, [ivs[j] for j in todo])):
            signs[j] = sign
    if not all(signs):
        raise KnotsigError("internal error: no basis vector projects onto an eigenplane")
    return signs


def milnor_signatures(
    s_rows: Sequence[Sequence[int]], a_rows: Sequence[Sequence[int]]
) -> MilnorAssignmentComputed:
    """Milnor signature of the pair at each monic irreducible real
    quadratic factor X^2 - X - lambda of the characteristic polynomial P
    (which must be squarefree): 2 eps_lambda, where eps_lambda is the
    sign of S on the eigenplane V_lambda = ker(b - lambda), b = a^2 - a.

    Why the sign is the Milnor value.  From a^T S = S(1 - a), b^T S = S b,
    so eigenspaces of b for different eigenvalues are S-orthogonal, and
    P = Q(X^2 - X) squarefree makes b semisimple with the roots of the
    v-model Q as eigenvalues.  For a real root lambda < -1/4 of Q, V_lambda
    is a real plane on which a has the eigenvalues z, conj z, the roots of
    X^2 - X - lambda.  For x in ker(a - z), S(ax, x) = S(x, (1 - a)x) gives
    (2z - 1) S(x, x) = 0 with z != 1/2, so x is S-isotropic: u = Re x and
    v = Im x have S(u, u) = S(v, v) and S(u, v) = 0.  S is nondegenerate on
    V_lambda, so there it is eps_lambda times a definite form.
    K = A - A^T = S(1 - 2a) acts on V_lambda with eigenvalues
    +-i sqrt(-1 - 4 lambda), so sig(S + i t K) drops by exactly
    2 eps_lambda at t^2 = 1/(-1 - 4 lambda): the Levine-Tristram jump.
    Every value is +-2 and never 0.

    Reading eps_lambda.  With Q_lambda(Y) = (Q(Y) - Q(lambda))/(Y - lambda),
    which vanishes at the other roots of Q, x = Q_lambda(b) e is
    Q'(lambda) times the V_lambda-component of a vector e, so
    S(x, x) = Q'(lambda) S(e, x) = Q'(lambda) r_e(lambda), where
    r_e(Y) = sum_{i=1..d} q_i sum_{j<i} m_j Y^(i-1-j) and the integer
    moments m_j = e^T S b^j e, j < d = deg Q, take d - 1 steps of
    b = a a - a on a vector.  By the Sturm-Tarski theorem the Sturm
    sequence of (Q, r_e) drops across lambda's isolating interval by
    sign(Q'(lambda) r_e(lambda)) = eps_lambda, and by 0 exactly when x = 0
    (:func:`root_signs`, one sequence for every interval).  The basis
    vectors e_0, e_1, ... are tried in turn, and each lambda is decided by
    the first with a nonzero drop; one exists, as the projection onto
    V_lambda is not 0.

    The pair is accepted when it is the companion pair of its form
    A = a^T S, and the v-model Q comes from the memoized record of A
    (:func:`_form_facts`), so after ``form_to_pair`` and
    ``alexander_of_form`` on A no determinant is taken again.  An input
    that is not a pair raises the problems of :func:`validate_pair`.

    Check that can fail: the values sum to sig S, since the other
    eigenspaces of b carry signature 0 (for real lambda > -1/4, two
    isotropic real eigenlines of a; for non-real lambda, V_lambda is
    Lagrangian for the Hermitian form on V_lambda + V_conj(lambda)).
    sig S is a lattice invariant, read off the lattice record that the
    form's record holds (:func:`_lattice_facts`), so it is taken once per
    lattice."""
    facts = _pair_facts(s_rows, a_rows)
    ivs = _v_roots(facts.q)
    values = tuple(2 * sign for sign in _eigenplane_signs(facts.lattice.s, facts.pair.a, facts.q, ivs))
    sig = facts.lattice.signature
    if sum(values) != sig:
        raise KnotsigError(f"internal error: Milnor values {values} do not sum to sig S = {sig}")
    return MilnorAssignmentComputed(
        intervals=tuple(ivs), values=values,
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
