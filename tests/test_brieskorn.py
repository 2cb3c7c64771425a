"""Brieskorn-Pham forms: Seifert matrices whose invariants are known in
closed form.

BP(a_0, a_1, a_2) = V_{a_0} (x) V_{a_1} (x) V_{a_2} (Kronecker product),
where V_a, (a - 1) x (a - 1) with 1 on the diagonal and -1 just above it,
is the Seifert form of the Milnor fibre of x^a; the product rule is
Sebastiani-Thom (Brieskorn, Invent. Math. 2, 1966; Milnor, "Singular
points of complex hypersurfaces", 1968).  With theta = j_0/a_0 + j_1/a_1 +
j_2/a_2 over 0 < j_i < a_i, the monodromy has the eigenvalues
exp(2 pi i theta), and the eigenvector of theta adds +1 to the signature
of A + A^T exactly when theta mod 2 > 1 (this sign convention makes
BP(2, 3, 5) the positive definite E8).  So, per tuple:

- Delta_A = +-prod over theta of (X - exp(2 pi i theta)), a product of
  cyclotomic polynomials;
- sig(A + A^T) = -sum over theta of e(theta), e = +1 if theta mod 2 < 1,
  else -1;
- the Milnor value at the root exp(2 pi i theta), 0 < frac theta < 1/2, is
  -2 e(theta), listed by frac theta ascending (the order of the v-roots).

The ten tuples are those with exponents in 2..12, Milnor number at most 48
and A + A^T unimodular.

Their block sums BP + BP' and BP + (-BP') over the 15 pairs of distinct
tuples with mu + mu' <= 48 realize sig S = sig BP +- sig BP' and their own
Milnor assignments, and unlike random forms they have unlinked factors.
No question about them may get NOT_ADMISSIBLE; every other answer class
is pinned, so a change that decides more of them moves the pins on
purpose.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import prod

import pytest
import sympy

from knotsig import (
    VERDICT_NOT_ADMISSIBLE,
    VERDICT_REALIZABLE,
    AnalysisRequest,
    IntPoly,
    alexander_of_form,
    analyze,
    analyze_tau,
    block_diag,
    form_to_pair,
    milnor_signatures,
    signature_exact,
)
from knotsig.seifert import mat_add, mat_det, transpose

TUPLES = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (2, 5, 9), (2, 5, 11), (2, 7, 9),
          (3, 4, 5), (3, 4, 7), (3, 5, 7))
TOTALS = dict(zip(TUPLES, (8, 8, 16, 16, 24, 24, 32, 16, 24, 32)))


def v_form(a: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(a - 1))
                 for i in range(a - 1))


def kron(x, y):
    return tuple(tuple(u * v for u in row_x for v in row_y) for row_x in x for row_y in y)


def brieskorn_pham(exponents) -> tuple[tuple[int, ...], ...]:
    return reduce(kron, map(v_form, exponents))


def thetas(exponents) -> list[Fraction]:
    return [sum(Fraction(j, a) for j, a in zip(js, exponents))
            for js in product(*(range(1, a) for a in exponents))]


def e(theta: Fraction) -> int:
    return 1 if theta % 2 < 1 else -1


def cyclotomic_product(fracs) -> IntPoly:
    """prod over the fractions r of X - exp(2 pi i r).  The multiset of r
    is Galois-stable, so each primitive d-th root of unity occurs equally
    often, and the product is Phi_d to the power (count of denominator d)
    / phi(d), over d."""
    x = sympy.Symbol("x")
    out = IntPoly.one()
    for d, count in Counter(r.denominator for r in fracs).items():
        power, rest = divmod(count, int(sympy.totient(d)))
        assert rest == 0
        phi_d = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
        out = out * IntPoly(int(c) for c in reversed(phi_d)) ** power
    return out


@pytest.fixture(scope="module", params=TUPLES, ids=lambda t: "BP" + ",".join(map(str, t)))
def case(request):
    exponents = request.param
    a = brieskorn_pham(exponents)
    assert len(a) == prod(k - 1 for k in exponents) <= 48
    assert abs(mat_det(mat_add(a, transpose(a)))) == 1
    return exponents, a, thetas(exponents)


def test_alexander_polynomial(case):
    _, a, ths = case
    expected = cyclotomic_product([t % 1 for t in ths])
    assert alexander_of_form(a) in (expected, -expected)


def test_signature(case):
    exponents, a, ths = case
    sig = signature_exact(mat_add(a, transpose(a)))
    assert sig == -sum(map(e, ths)) == TOTALS[exponents]


def test_milnor_signatures(case):
    exponents, a, ths = case
    pair = form_to_pair(a)
    mil = milnor_signatures(pair.s, pair.a)
    expected = tuple(-2 * e(t) for t in sorted((t for t in ths if t % 1 < Fraction(1, 2)),
                                               key=lambda t: t % 1))
    assert mil.values == expected
    assert mil.total == TOTALS[exponents]


def checked_delta(a) -> IntPoly:
    """Delta_A, asserted to meet Delta(1) = (-1)^n with no sign flip."""
    delta = alexander_of_form(a)
    assert delta.evaluate(1) == (-1) ** (len(a) // 2)
    return delta


def test_analyze_at_the_total_is_realizable(case):
    exponents, a, _ = case
    rep = analyze(AnalysisRequest(delta=checked_delta(a), m=7, signature=TOTALS[exponents]))
    assert rep.verdict == VERDICT_REALIZABLE


@pytest.fixture(scope="module")
def block_sum_answers() -> Counter:
    """The answer class of each question about the 30 block sums, at m = 7:
    (Delta_A, sig S), and (Delta_A, tau(A)) once milnor_signatures gives tau."""
    counts = Counter()
    mu = {t: prod(k - 1 for k in t) for t in TUPLES}
    pairs = [(x, y) for x, y in combinations(TUPLES, 2) if mu[x] + mu[y] <= 48]
    assert len(pairs) == 15
    for x, y in pairs:
        for sign in (1, -1):
            second = tuple(tuple(sign * v for v in row) for row in brieskorn_pham(y))
            a = block_diag(brieskorn_pham(x), second)
            sig = TOTALS[x] + sign * TOTALS[y]
            assert signature_exact(mat_add(a, transpose(a))) == sig
            delta = checked_delta(a)
            report = analyze(AnalysisRequest(delta=delta, m=7, signature=sig))
            counts[f"s: {report.verdict}" + (f" ({report.reason})" if report.reason else "")] += 1
            pair = form_to_pair(a)
            try:
                tau = milnor_signatures(pair.s, pair.a).values
            except ValueError as exc:
                counts[f"tau refused: {exc}"] += 1
                continue
            report = analyze_tau(AnalysisRequest(delta=delta, m=7, tau=tau))
            counts[f"tau: {report.verdict}"] += 1
    return counts


def test_no_block_sum_is_refuted(block_sum_answers):
    assert not {name for name in block_sum_answers if VERDICT_NOT_ADMISSIBLE in name}


def test_block_sum_answers_are_pinned(block_sum_answers):
    """24 of the 30 forms have a squarefree P and are undecided at s and
    at tau; the other 6 are out of scope."""
    assert block_sum_answers == {
        "s: OBSTRUCTION_UNKNOWN": 24,
        "tau: OBSTRUCTION_UNKNOWN": 24,
        "s: OUT_OF_SCOPE (the companion polynomial P is not squarefree)": 6,
        "tau refused: P must be squarefree": 6,
    }
