"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact; the only tolerances live inside the floating-point oracles, which
guard and skip numerically ambiguous random cases.
"""

from __future__ import annotations

import random
from functools import wraps

from knotsig import (
    AnalysisRequest,
    IntPoly,
    alexander_of_form,
    analyze,
    block_diag,
    charpoly_of_pair,
    delta_to_p,
    enumerate_sign_tuples,
    expected_count,
    factor_z,
    form_to_pair,
    is_squarefree_q,
    milnor_signatures,
    obstruction_group,
    pair_to_form,
    parse_poly,
    pi_set,
    resultant,
    rho_delta,
    rho_p,
    signature_exact,
    standing_assumptions,
    sturm_count,
    symmetric_check,
    unimodular_t,
    validate_form,
    validate_pair,
)
from knotsig.modp import PolyModP, symmetric_common_factor
from knotsig.seifert import charpoly, e8_gram, half_form, mat_add, mat_det, mat_mul, transpose

from conftest import make_delta_a
from reference import (
    brute_force_symmetric_common_factor,
    count_real_roots_float,
    squarefree_by_rat_gcd,
    sylvester_resultant,
)
from test_seifert import A2, random_conjugates

DELTA1 = parse_poly("x^4 - x^2 + 1")
DELTA2 = parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")
F1 = parse_poly("x^4 - 2*x^3 + 5*x^2 - 4*x + 1")
F2 = parse_poly("x^4 - 2*x^3 + 11*x^2 - 10*x + 3")
G1 = parse_poly("x^6 - 3*x^5 - x^4 + 5*x^3 - x^2 - 3*x + 1")
G2 = DELTA1


def criterion(label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return deco


@criterion("criterion 1 (transform fixtures)")
def test_c1_transforms():
    assert delta_to_p(DELTA1) == F1
    assert delta_to_p(DELTA2) == F2


@criterion("criterion 2 (factorization)")
def test_c2_factorization():
    fz = factor_z(F1 * F2)
    assert fz.content == 1
    assert fz.factors == ((F1, 1), (F2, 1))
    for q, _ in fz.factors:
        assert symmetric_check(q) and is_squarefree_q(q)
    for a in range(11):
        fa = factor_z(make_delta_a(a))
        assert len(fa.factors) == 1 and fa.factors[0] == (make_delta_a(a), 1)


@criterion("criterion 3 (obstruction groups)")
def test_c3_obstruction_groups():
    group, table = obstruction_group(standing_assumptions(F1 * F2))
    assert table[0].primes == (2,) and group.rank == 0

    h1, h2 = delta_to_p(G1), delta_to_p(G2)
    group2, table2 = obstruction_group(standing_assumptions(h1 * h2))
    assert all(e.primes == () for e in table2) and group2.rank == 1

    pa, pb = delta_to_p(make_delta_a(0)), delta_to_p(make_delta_a(2))
    assert pi_set(pa, pb).primes == (2,)
    group3, _ = obstruction_group(standing_assumptions(pa * pb))
    assert group3.rank == 0


@criterion("criterion 4 (rho values and cross-check)")
def test_c4_rho():
    assert rho_delta(DELTA1 * DELTA2) == 8
    assert rho_delta(G1 * G2) == 8
    for a in range(6):
        assert rho_delta(make_delta_a(a)) == 4
    corpus = [DELTA1, DELTA2, DELTA1 * DELTA2, G1 * G2] + [make_delta_a(a) for a in range(6)]
    for delta in corpus:
        assert rho_p(delta_to_p(delta)) == rho_delta(delta)
    rng = random.Random(2024)
    done = 0
    while done < 100:
        n = rng.randrange(1, 6)
        half = [rng.randint(-9, 9) for _ in range(n)]
        delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
        if delta.degree != 2 * n or delta.evaluate(1) == 0 or delta.evaluate(-1) == 0:
            continue
        if not is_squarefree_q(delta):
            continue
        assert rho_p(delta_to_p(delta)) == rho_delta(delta)
        done += 1


@criterion("criterion 5 (verdicts)")
def test_c5_verdicts():
    rep = analyze(AnalysisRequest(delta=DELTA1 * DELTA2, m=7, signature=8))
    assert rep.verdict == "REALIZABLE"
    for s in (8, -8):
        rep2 = analyze(AnalysisRequest(delta=G1 * G2, m=7, signature=s))
        assert rep2.verdict == "OBSTRUCTION_UNKNOWN" and rep2.group["rank"] == 1
    rep3 = analyze(AnalysisRequest(delta=DELTA1 * DELTA2, m=3, signature=8))
    assert rep3.verdict == "NOT_ADMISSIBLE" and "16" in rep3.reason
    rep4 = analyze(AnalysisRequest(delta=DELTA1 * DELTA2, m=3, signature=16))
    assert rep4.verdict == "NOT_ADMISSIBLE" and "rho" in rep4.reason
    assert rep4.rho == 8


@criterion("criterion 6 (Seifert identities)")
def test_c6_seifert_identities():
    e8h = half_form(e8_gram())
    fixtures = [A2, e8h, block_diag(e8h, e8h)]
    conjugates = (
        random_conjugates(A2, 16, seed=101)
        + random_conjugates(e8h, 17, seed=102)
        + random_conjugates(block_diag(e8h, e8h), 17, seed=103)
    )
    assert len(conjugates) == 50
    for mat in fixtures + conjugates:
        assert validate_form(mat).ok
        pair = form_to_pair(mat)
        assert validate_pair(pair.s, pair.a).ok
        assert pair_to_form(pair.s, pair.a) == mat
        delta = alexander_of_form(mat)
        assert charpoly_of_pair(pair.s, pair.a) == delta_to_p(delta)
        assert delta.coeffs == tuple(reversed(delta.coeffs))
        if mat_det(mat) in (1, -1):
            t = unimodular_t(mat)
            s = mat_add(mat, transpose(mat))
            assert mat_mul(transpose(t), mat_mul(s, t)) == s
            assert charpoly(t) == mat_det(mat) * delta


@criterion("criterion 7 (Milnor reconciliation)")
def test_c7_milnor_reconciliation():
    e8h = half_form(e8_gram())
    certified = 0
    for mat in (A2, e8h):
        pair = form_to_pair(mat)
        ms = milnor_signatures(pair.s, pair.a)
        assert ms.total == signature_exact(pair.s)
        assert all(v in (-2, 0, 2) for v in ms.values)
        assert all(d == 2 for d in ms.kernel_dims)
        certified += 1
    pair_e8 = form_to_pair(e8h)
    assert milnor_signatures(pair_e8.s, pair_e8.a).total == 8
    # the doubled form has a squared characteristic polynomial: must refuse
    double = form_to_pair(block_diag(e8h, e8h))
    try:
        milnor_signatures(double.s, double.a)
    except ValueError:
        pass
    else:
        raise AssertionError("non-squarefree characteristic polynomial must be rejected")
    assert certified == 2


@criterion("criterion 8 (oracle equivalences)")
def test_c8_oracles():
    # symmetric common factor vs exhaustive enumeration, p <= 7, deg <= 4
    rng = random.Random(888)
    agree = 0
    for p in (2, 3, 5, 7):
        for _ in range(40):
            f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
            g = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
            got, _ = symmetric_common_factor(f, g)
            assert got == brute_force_symmetric_common_factor(f, g)
            agree += 1
    assert agree == 160
    # Ex 5.1 pair at p = 2 included explicitly
    ok, _ = symmetric_common_factor(PolyModP.from_int_poly(F1, 2), PolyModP.from_int_poly(F2, 2))
    assert ok and brute_force_symmetric_common_factor(
        PolyModP.from_int_poly(F1, 2), PolyModP.from_int_poly(F2, 2)
    )

    # Sturm counts vs companion-matrix eigenvalues, 200 cases
    checked = 0
    while checked < 200:
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(2, 10))])
        if f.is_zero or f.degree < 1:
            continue
        if not squarefree_by_rat_gcd(f):
            continue
        a, b = sorted(rng.sample(range(-12, 13), 2))
        if f.evaluate(a) == 0 or f.evaluate(b) == 0:
            continue
        want = count_real_roots_float(f, a, b)
        if want is None:
            continue
        assert sturm_count(f, a, b) == want
        checked += 1

    # resultant vs Sylvester determinant, 100 cases, deg <= 6, coeffs in [-9, 9]
    checked = 0
    while checked < 100:
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))])
        if f.is_zero or g.is_zero:
            continue
        assert resultant(f, g) == sylvester_resultant(f, g)
        checked += 1

    # enumeration counts vs the binomial formula, exhaustive rho <= 12
    for rho in range(0, 13, 2):
        for s in range(-rho - 4, rho + 5):
            assert len(enumerate_sign_tuples(rho // 2, s)) == expected_count(rho, s)


@criterion("criterion 9 (Milnor family combinatorics)")
def test_c9_mil_combinatorics():
    p = delta_to_p(DELTA1 * DELTA2)
    assert rho_p(p) == 8
    assert len(enumerate_sign_tuples(rho_p(p) // 2, 0)) == 6
    assert len(enumerate_sign_tuples(rho_p(p) // 2, 8)) == 1
    for rho in range(0, 13, 2):
        for s in range(-rho - 4, rho + 5):
            assert (expected_count(rho, s) > 0) == (len(enumerate_sign_tuples(rho // 2, s)) > 0)
