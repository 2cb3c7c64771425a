"""Factorization over Z: fixtures, properties, and certificates."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knotsig import (
    BudgetExceededError,
    IntPoly,
    delta_to_p,
    factor_z,
    intfactor,
    memos,
    modp,
    parse_poly,
    standing_assumptions,
    symmetric_check,
    zfactor,
)
from knotsig.cli import main
from knotsig.modp import (PolyModP, _distinct_degree, _equal_degree_factors, _monic, _powmod, _reduced,
                          factor_mod_p)
from knotsig.polys import v_polynomial
from knotsig.realroots import v_root_count
from knotsig.zfactor import CERTIFICATE_PRIMES, certified_squarefree
from conftest import IN_SCOPE_A, clear_facts_memos, make_delta_a
from reference import hensel_lift_by_sympy, is_irreducible_bruteforce, sympy_factors


def direct(f: IntPoly, trace: list[str] | None = None):
    """The direct Zassenhaus route on f itself, which factor_z takes for
    every f that is not fixed by X -> 1-X (or has f(1/2) = 0)."""
    return zfactor._factor(f, trace)


N_CERT = math.prod(CERTIFICATE_PRIMES)


class TestFactorZ:
    def test_example_product(self, f1, f2):
        for fz in (factor_z(f1 * f2), direct(f1 * f2)):
            assert fz.content == 1
            assert fz.factors == ((f1, 1), (f2, 1))

    def test_x4_minus_1(self):
        fz = factor_z(parse_poly("x^4 - 1"))
        assert fz.factors == (
            (parse_poly("x - 1"), 1),
            (parse_poly("x + 1"), 1),
            (parse_poly("x^2 + 1"), 1),
        )

    @pytest.mark.parametrize("a", range(11))
    def test_delta_a_irreducible(self, a):
        fz = factor_z(make_delta_a(a))
        assert len(fz.factors) == 1 and fz.factors[0] == (make_delta_a(a), 1)

    def test_multiplicities(self, f1):
        fz = factor_z(f1 * f1 * parse_poly("x - 1"))
        assert fz.factors == ((parse_poly("x - 1"), 1), (f1, 2))

    def test_content_and_sign(self):
        fz = factor_z(parse_poly("-6*x^2 + 6"))
        assert fz.content == -6
        assert fz.factors == ((parse_poly("x - 1"), 1), (parse_poly("x + 1"), 1))

    def test_non_monic(self, delta2):
        fz = factor_z(delta2)
        assert len(fz.factors) == 1 and fz.factors[0] == (delta2, 1)
        fz2 = factor_z(parse_poly("6*x^2 + 5*x + 1"))
        assert fz2.factors == ((parse_poly("2*x + 1"), 1), (parse_poly("3*x + 1"), 1))

    def test_constant(self):
        fz = factor_z(parse_poly("7"))
        assert fz.content == 7 and fz.factors == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_z(IntPoly.zero())

    def test_seed_independent(self, monkeypatch, f1, f2, g1):
        """Both routes give one factor set whatever stream the randomized
        subroutines draw, from cold memos."""
        corpus = [f1 * f2, g1, make_delta_a(0) * make_delta_a(2), parse_poly("x^6 - 1")]
        for poly in corpus:
            results = set()
            for stream in range(5):
                for module in (modp, intfactor):
                    monkeypatch.setattr(module, "Random", lambda _, s=stream: random.Random(s))
                for route in (factor_z, direct):
                    clear_facts_memos()
                    results.add(route(poly).factors)
            assert len(results) == 1

    def test_random_remultiplication(self):
        rng = random.Random(59)
        for _ in range(120):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 9))]
            f = IntPoly(coeffs)
            if f.is_zero:
                continue
            fz = factor_z(f)
            assert fz.product() == f

    def test_small_factors_certified_irreducible(self, f1, f2):
        corpus = [f1 * f2, parse_poly("x^4 - 1"), parse_poly("6*x^4 + 5*x^2 + 1")]
        for poly in corpus:
            for q, _ in factor_z(poly).factors + direct(poly).factors:
                if 1 <= q.degree <= 4:
                    assert is_irreducible_bruteforce(q), q

    def test_degree_pattern_certificate(self, f1, f2):
        """Each reported factor either is irreducible mod some small prime,
        or the recombination trace records how it was assembled."""
        trace: list[str] = []
        fz = direct(f1 * f2, trace=trace)
        for q, _ in fz.factors:
            witnessed = False
            for p in (5, 7, 11, 13, 17):
                qp = PolyModP.from_int_poly(q, p)
                if qp.degree != q.degree:
                    continue
                fac = factor_mod_p(qp)
                if len(fac.factors) == 1 and fac.factors[0][1] == 1:
                    witnessed = True
                    break
            assert witnessed or any("accepted subset" in line for line in trace)

    def test_modular_factor_cap(self):
        # product of 18 distinct linear factors: more than 16 modular factors
        poly = IntPoly.one()
        for r in range(-8, 10):
            poly = poly * IntPoly((-r, 1))
        with pytest.raises(BudgetExceededError, match="18 modular factors of a degree-18 "):
            factor_z(poly.compose(IntPoly((1, 1))))  # roots -9..8: not fixed by X -> 1-X
        # the roots r, 1 - r pair up, so Q has 9 modular factors and the cap holds
        assert factor_z(poly).factors == tuple((IntPoly((-r, 1)), 1) for r in range(9, -9, -1))


@pytest.mark.parametrize("f, factors", [
    (IntPoly((0, -N_CERT, 1)), ((IntPoly((-N_CERT, 1)), 1), (IntPoly((0, 1)), 1))),
    (IntPoly((-1, 0, N_CERT)), ((IntPoly((-1, 0, N_CERT)), 1),)),
], ids=["x^2 - N*x", "N*x^2 - 1"])
def test_squarefree_without_a_certificate_goes_through_the_gcd(f, factors, calls):
    """With N the product of CERTIFICATE_PRIMES, every certificate prime
    divides the discriminant of X^2 - N X or the leading coefficient of
    N X^2 - 1: Yun's gcd_z finds each squarefree and returns it whole."""
    assert not certified_squarefree(f)
    counts = calls("zfactor._yun", "polys.gcd_z")
    assert factor_z(f).factors == factors
    assert counts["zfactor._yun"] == 1 and counts["polys.gcd_z"] >= 1


class TestNonMonic:
    """The monic model l^(d-1) g(X/l) of a non-monic g has leading
    coefficient exactly 1; building it must not leave the integers."""

    def test_49x2_minus_1(self):
        fz = factor_z(IntPoly([-1, 0, 49]))
        assert fz.factors == ((IntPoly([-1, 7]), 1), (IntPoly([1, 7]), 1))

    def test_2916x2_minus_1(self):
        fz = factor_z(IntPoly([-1, 0, 2916]))
        assert fz.factors == ((IntPoly([-1, 54]), 1), (IntPoly([1, 54]), 1))

    def test_product_not_reported_irreducible(self):
        f = IntPoly([1, 1, 49]) * IntPoly([1, -1, 1])
        assert f == IntPoly([1, 0, 49, -48, 49])
        assert factor_z(f).factors == ((IntPoly([1, -1, 1]), 1), (IntPoly([1, 1, 49]), 1))

    def test_against_sympy_up_to_lc_200(self):
        for lc in range(1, 201):
            corpus = [
                IntPoly([-1, 0, lc]),
                IntPoly([1, 1, lc]) * IntPoly([1, -1, 1]),
                IntPoly([-lc, 1, 0, lc]) * IntPoly([2, 1, lc]),
            ]
            for f in corpus:
                fz = factor_z(f)
                assert fz.product() == f
                assert sorted((q.coeffs, e) for q, e in fz.factors) == sympy_factors(f), (lc, f)


class TestManyModularFactors:
    """Irreducible inputs that split into many factors at their prime, so
    recombination tries every subset up to half their number."""

    def test_irreducible_with_15_factors_mod_5(self):
        """The product of the 15 monic irreducibles of degree <= 2 mod 5,
        plus 5h: 5 is its first good prime, where it has 15 factors."""
        f = IntPoly([-15, 14, 0, -5, 10, 15, -10, 5, -15, -5, -15, -15, -15, 10, 5, -15,
                     0, 10, -10, 0, 10, -15, 5, -10, 15, 1])
        assert next(zfactor._good_primes(f)) == 5
        assert len(factor_mod_p(PolyModP.from_int_poly(f, 5)).factors) == 15
        assert sympy_factors(f) == [(f.coeffs, 1)]
        assert factor_z(f).factors == ((f, 1),)

    @pytest.mark.parametrize("n", [3, 4])
    def test_swinnerton_dyer(self, n):
        import sympy
        from sympy.polys.specialpolys import swinnerton_dyer_poly

        x = sympy.Symbol("x")
        f = IntPoly(int(c) for c in reversed(sympy.Poly(swinnerton_dyer_poly(n, x), x).all_coeffs()))
        assert f.degree == 2**n
        assert sympy_factors(f) == [(f.coeffs, 1)]
        assert factor_z(f).factors == ((f, 1),)


class TestStandingAssumptions:
    def test_example_set(self, f1, f2):
        sa = standing_assumptions(f1 * f2)
        assert sa.all_symmetric and sa.squarefree
        assert set(sa.factors) == {f1, f2}

    def test_square_not_squarefree(self, f1):
        assert not standing_assumptions(f1 * f1).squarefree

    def test_asymmetric_factor_detected(self):
        sa = standing_assumptions(parse_poly("x^2 - x - 2"))
        assert not sa.all_symmetric
        assert sa.squarefree

    def test_non_monic_p_fails(self, f1):
        sa = standing_assumptions(2 * f1)
        assert not sa.all_symmetric

    def test_flags_consistent(self, f1, f2):
        sa = standing_assumptions(f1 * f2)
        if sa.all_symmetric and sa.squarefree:
            assert len(set(sa.factors)) == len(sa.factors)
            for q in sa.factors:
                assert q.is_monic and symmetric_check(q)


def delta_a_product_p(a_values) -> IntPoly:
    delta = IntPoly.one()
    for a in a_values:
        delta = delta * make_delta_a(a)
    return delta_to_p(delta)


def direct_route(P: IntPoly):
    """Content, factors and flags from factoring P itself, by the direct route."""
    fz = direct(P)
    return fz.content, fz.factors, tuple(symmetric_check(q) for q, _ in fz.factors)


V = IntPoly((0, -1, 1))  # X^2 - X


class TestVModelRoute:
    """factor_z factors a symmetric P(X) = Q(X^2 - X) through Q and keeps a
    lift q(X^2 - X) whole only when a mod-p certificate proves it
    irreducible; sympy is the oracle."""

    # the two factor_heavy products (corpus seed 0) that P's 18 modular
    # factors at p = 13 pushed over the cap
    HEAVY_REFUSED = ((-5, 0, 1, 2, 9, 10), (-6, -5, 0, 3, 6, 10))

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_delta_a_products_against_sympy(self, k):
        P = delta_a_product_p(range(k))
        sa = standing_assumptions(P)
        assert sorted((q.coeffs, e) for q, e in sa.factorization.factors) == sympy_factors(P)
        assert sa.all_symmetric and sa.squarefree and len(sa.factors) == k

    def test_k10_still_refused(self):
        """Q of the k = 10 product has 17 modular factors at p = 13 (P has
        24): the cap, not a work budget, still refuses it."""
        with pytest.raises(BudgetExceededError, match="17 modular factors of a degree-30 "
                           "polynomial at p = 13 exceed the recombination cap of 16"):
            standing_assumptions(delta_a_product_p(range(10)))

    @pytest.mark.parametrize("a_values", HEAVY_REFUSED)
    def test_factor_heavy_refusals_answered(self, a_values):
        P = delta_a_product_p(a_values)
        with pytest.raises(BudgetExceededError, match="18 modular factors of a degree-36 "):
            direct(P)
        sa = standing_assumptions(P)
        assert sorted((q.coeffs, e) for q, e in sa.factorization.factors) == sympy_factors(P)
        assert sa.all_symmetric and len(sa.factors) == 6

    @pytest.mark.parametrize("a_values", HEAVY_REFUSED + ((0, 1, 2, 3, 4, 5, 6, 7, 8),
                                                          (-1, 2, 5), (-3, -2, 4)))
    def test_q_prime_is_p_prime(self, a_values):
        """Q's first prime is P's first good prime, and Q has at most P's
        modular factors there, so the cap never counts more for Q."""
        P = delta_a_product_p(a_values)
        Q = v_polynomial(P)
        p = next(zfactor._good_primes(P))
        assert next(zfactor._good_primes(Q, lift=True)) == p
        count = [len(_equal_degree_factors(_distinct_degree(PolyModP.from_int_poly(f, p).coeffs, p), p))
                 for f in (Q, P)]
        assert count[0] <= count[1]

    def test_split_lift_not_certified(self):
        """X^2 - X - 2 = (X - 2)(X + 1) is the lift of Y - 2."""
        assert zfactor._lift_facts(IntPoly((-2, 1))) == (parse_poly("x^2 - x - 2"), False, 0)
        sa = standing_assumptions(parse_poly("x^2 - x - 2"))
        assert sa.factors == (parse_poly("x - 2"), parse_poly("x + 1"))
        assert sa.symmetric == (False, False)

    @pytest.mark.parametrize("a", [-1, -3])
    def test_nonsymmetric_delta_a_pairs(self, a):
        """P of Delta_-1 and Delta_-3 is a split lift h(X) h(1-X)."""
        P = delta_to_p(make_delta_a(a))
        (q, _), = factor_z(v_polynomial(P)).factors
        assert zfactor._lift_facts(q) == (P, False, 0)
        sa = standing_assumptions(P)
        assert (sa.factorization.content, sa.factorization.factors, sa.symmetric) == direct_route(P)
        assert len(sa.factors) == 2 and sa.symmetric == (False, False)

    def test_quarter_root_lifts_to_a_square(self, f1):
        """4Y + 1 lifts to (2X - 1)^2, which is not squarefree."""
        P = parse_poly("4*x^2 - 4*x + 1") * f1 * 3
        sa = standing_assumptions(P)
        assert sa.factorization.content == 3
        assert sa.factorization.factors == ((parse_poly("2*x - 1"), 2), (f1, 1))
        assert not sa.squarefree and sa.symmetric == (False, True)

    def test_half_degree_only(self, monkeypatch, calls):
        """On a symmetric P whose lifts are certified, Zassenhaus only ever
        sees polynomials of at most half P's degree: the degree-2n route
        does not come back."""
        P = delta_a_product_p((0, 2, 4, 5, 7, 9))
        degrees: list[int] = []
        original = zfactor._factor_squarefree

        def recording(g, *args):
            degrees.append(int(g.degree))
            return original(g, *args)

        monkeypatch.setattr(zfactor, "_factor_squarefree", recording)
        counts = calls("zfactor.factor_z")
        sa = standing_assumptions(P)
        assert sa.all_symmetric and len(sa.factors) == 6
        assert counts["zfactor.factor_z"] == 1
        assert degrees and max(degrees) <= P.degree // 2


@st.composite
def symmetric_products(draw):
    """A symmetric P: a content times lifts q(X^2 - X) and split pairs
    h(X) h(1-X), some of them squared."""
    coeffs = st.integers(-6, 6)
    content = draw(st.sampled_from((1, 1, 2, 3, -1, -2)))
    P = IntPoly((content,))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("lift", "lift", "pair")))
        body = draw(st.lists(coeffs, min_size=1, max_size=3 if kind == "lift" else 2))
        lead = draw(st.integers(1, 3))
        block = IntPoly(body + [lead])
        if kind == "lift":
            block = block.compose(V)
        else:
            block = block * block.compose(IntPoly((1, -1)))
        P = P * block ** draw(st.sampled_from((1, 1, 1, 2)))
    return P


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_products())
def test_v_model_route_matches_direct_route_and_sympy(P):
    sa = standing_assumptions(P)
    fz = sa.factorization
    assert (fz.content, fz.factors, sa.symmetric) == direct_route(P)
    assert sorted((q.coeffs, e) for q, e in fz.factors) == sympy_factors(P)
    for q, _ in factor_z(v_polynomial(P)).factors:
        if q != IntPoly((1, 4)):  # 4Y + 1 lifts to a square
            lifted, certified, _ = zfactor._lift_facts(q)
            if certified:
                assert direct(lifted).factors == ((lifted, 1),)


@st.composite
def real_place_v_models(draw):
    """q of degree 1 to 6, kept when irreducible with a real root below
    -1/4."""
    body = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=6))
    q = IntPoly(body + [draw(st.integers(1, 3))])
    assume(sympy_factors(q) == [(q.coeffs, 1)] and v_root_count(q) > 0)
    return q


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(real_place_v_models())
def test_real_place_certifies_the_lift_without_a_prime(q):
    """An irreducible q with a real root below -1/4 lifts to an irreducible
    q(X^2 - X) (proof at `_lift_facts`), certified before any prime is
    drawn, with rho twice its count of those roots; sympy agrees."""
    clear_facts_memos()
    drawn = []
    original = zfactor._good_primes

    def counting(*args, **kwargs):
        drawn.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zfactor, "_good_primes", counting)
        lifted, certified, rho = zfactor._lift_facts(q)
    assert drawn == []
    assert certified and rho == 2 * v_root_count(q)
    assert lifted == q.compose(V)
    assert sympy_factors(lifted) == [(lifted.coeffs, 1)]


class TestLiftCertificate:
    # the v-model of the fifth request of a 24-request seifert_forms run of
    # perfbench/workloads.py, seed 1 and corpus seed 1001
    HELD_OUT = IntPoly((54, 373, 683, 148, 1))

    def test_euler_blind_spot_is_certified_by_its_real_roots(self, calls):
        """Q = Y^4 + 148Y^3 + 683Y^2 + 373Y + 54 has four real roots below
        -1/4, yet 1 + 4y is a square modulo every factor of Q mod each of
        the first LIFT_PRIMES good primes, so the Euler test alone leaves
        the lift to be factored directly.  The real roots certify it, and
        factor_z gives the same single factor."""
        q = self.HELD_OUT
        assert v_root_count(q) == 4
        primes = list(itertools.islice(zfactor._good_primes(q, lift=True), zfactor.LIFT_PRIMES))
        assert len(primes) == zfactor.LIFT_PRIMES
        for p in primes:
            qp = _monic(_reduced(q.coeffs, p), p)
            assert all(_powmod([1, 4], (p**k - 1) // 2, block, p) == [1]
                       for block, k in _distinct_degree(qp, p))
        counts = calls("zfactor._good_primes")
        lifted, certified, rho = zfactor._lift_facts(q)
        assert (certified, rho) == (True, 8)
        assert counts == {}
        assert lifted == q.compose(V)
        trace: list[str] = []
        fz = factor_z(lifted, trace=trace)
        assert (fz.content, fz.factors) == (1, ((lifted, 1),))
        assert sympy_factors(lifted) == [(lifted.coeffs, 1)]
        # only Q's own factorization runs: the degree-8 lift is not factored
        assert [line for line in trace if line.startswith("prime ")] == [
            "prime 3: modular degrees [1, 3]"]

    @pytest.mark.parametrize("q, want", [
        (IntPoly((-1, -7, -12, 1)), ((IntPoly((-1, 4, -5, 1)), 1), (IntPoly((1, -3, 2, 1)), 1))),
        (IntPoly((-2, 1)), ((IntPoly((-2, 1)), 1), (IntPoly((1, 1)), 1))),
    ])
    def test_rho_zero_factor_takes_the_modular_path(self, q, want, calls):
        """A q with no real root below -1/4 draws its primes; these lifts
        split, as h(X) h(1 - X), into 3 + 3 and 1 + 1."""
        assert v_root_count(q) == 0
        counts = calls("zfactor._good_primes")
        assert zfactor._lift_facts(q) == (q.compose(V), False, 0)
        assert counts["zfactor._good_primes"] == 1
        fz = factor_z(q.compose(V))
        assert (fz.content, fz.factors) == (1, want)
        assert sorted((h.coeffs, e) for h, e in want) == sympy_factors(q.compose(V))


class TestLiftRecord:
    """The record of a v-model factor (`zfactor._lift_facts`) at the edges
    of the v-model route: Y, whose lift X^2 - X loses degree under
    `_p_to_delta`; a split lift; a root below -1/4 (rho > 0, non-monic
    too); and lifts that only a prime certifies, one of them the two
    factors of the reducible 5Y^3 + 2Y - 7 = (Y - 1)(5Y^2 + 5Y + 7)."""

    QS = {"Y": (0, 1), "Y - 2": (-2, 1), "2Y + 1": (1, 2), "4Y + 5": (5, 4),
          "Y^2 + Y + 1": (1, 1, 1), "5Y^3 + 2Y - 7": (-7, 2, 0, 5)}

    @pytest.mark.parametrize("q", QS.values(), ids=QS.keys())
    def test_factor_z_of_the_lift_matches_sympy(self, q):
        lift = IntPoly(q).compose(V)
        fz = factor_z(lift)
        assert fz.content == 1
        assert sorted((h.coeffs, e) for h, e in fz.factors) == sympy_factors(lift)

    @pytest.mark.parametrize("q", QS.values(), ids=QS.keys())
    def test_record_of_each_factor(self, q):
        """For each irreducible factor r of q: the record's lift is
        r(X^2 - X); its rho, counted on the trace model of Delta_f, is
        twice r's count of real roots below -1/4 (by the v-model, an
        independent route); and it is certified exactly when rho > 0 or,
        at one of the first LIFT_PRIMES primes good for the lift,
        r(X^2 - X) has fewer than twice r's irreducible factors mod p
        (sympy over GF(p)), so that some factor of r mod p lifts whole."""
        for r, _ in factor_z(IntPoly(q)).factors:
            lift, certified, rho = zfactor._lift_facts(r)
            assert lift == r.compose(V)
            assert rho == 2 * v_root_count(r)
            primes = itertools.islice(zfactor._good_primes(r, lift=True), zfactor.LIFT_PRIMES)
            by_prime = any(factor_count_mod_p(lift, p) < 2 * factor_count_mod_p(r, p) for p in primes)
            assert certified == (rho > 0 or by_prime)

    def test_each_kind_of_record_occurs(self):
        kinds = {zfactor._lift_facts(r)[1:] for q in self.QS.values()
                 for r, _ in factor_z(IntPoly(q)).factors}
        assert sorted(kinds) == [(False, 0), (True, 0), (True, 2)]

    @pytest.mark.parametrize("poly, lines", [
        ("x^2 - x", ["x - 1", "x"]),
        ("2*x^2 - 2*x + 1", ["2*x^2 - 2*x + 1"]),
    ])
    def test_factor_through_the_cli(self, capsys, poly, lines):
        """The lift of Y, which the record does not count on Delta_f, and
        the non-monic lift of 2Y + 1, which rho certifies."""
        assert main(["factor", "--poly", poly]) == 0
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == (lines, "")


def factor_count_mod_p(f: IntPoly, p: int) -> int:
    """The number of distinct irreducible factors of f mod p, by sympy."""
    import sympy

    return len(sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"), modulus=p).factor_list()[1])


class TestNoFractionDivision:
    def test_delta_a_product_k6(self):
        """The direct route recombines the lifted factors of P by integer
        trial division."""
        parts = [delta_to_p(make_delta_a(a)) for a in (0, 2, 4, 5, 7, 9)]
        f = IntPoly.one()
        for q in parts:
            f = f * q
        trace: list[str] = []
        fz = direct(f, trace=trace)
        assert fz.factors == tuple(sorted(((q, 1) for q in parts), key=lambda fe: fe[0].coeffs))
        assert sum(line.startswith("accepted subset") for line in trace) >= 2


class TestHenselLift:
    """Linear factors lift as roots by Newton steps, the others by the
    split tree against the cofactor the roots leave, whose last round
    skips the Bezout cofactors; the lifted factors are sympy's multifactor
    Hensel lift (tests/reference.py), in the input order."""

    @staticmethod
    def setup_lift(k: int):
        G = IntPoly.one()
        for a in range(k):
            G = G * delta_to_p(make_delta_a(a))
        p = next(zfactor._good_primes(G))
        modular = [list(q.coeffs) for q, _ in factor_mod_p(PolyModP.from_int_poly(G, p)).factors]
        return G, modular, p, 2 * zfactor._mignotte_bound(G) + 1

    @staticmethod
    def checked_lift(F, modular, p, target):
        """The lift, checked against sympy's, for its product mod the
        modulus and for its reduction mod p."""
        from knotsig.modp import _mul

        leaves, m = zfactor._hensel_lift(F, modular, p, target)
        assert leaves == hensel_lift_by_sympy(F.coeffs, modular, p, m)
        prod = [1]
        for leaf in leaves:
            prod = _mul(prod, leaf, m)
        assert prod == [c % m for c in F.coeffs]
        assert [_reduced(leaf, p) for leaf in leaves] == modular
        return leaves, m

    @pytest.mark.parametrize("k", [6, 7])
    def test_leaves_unchanged(self, k):
        G, modular, p, target = self.setup_lift(k)
        leaves, _ = self.checked_lift(G, modular, p, target)
        assert len(leaves) == len(modular) >= 2 * k

    def test_only_the_last_round_skips(self, monkeypatch):
        G, modular, p, target = self.setup_lift(6)
        flags: list[tuple[int, bool]] = []
        original = zfactor._hensel_step

        def recording(f, g, h, s, t, m, last=False):
            flags.append((m, last))
            return original(f, g, h, s, t, m, last)

        monkeypatch.setattr(zfactor, "_hensel_step", recording)
        _, modulus = zfactor._hensel_lift(G, modular, p, target)
        final = max(m for m, _ in flags)
        assert final * final == modulus and final < target <= modulus
        assert all(last == (m == final) for m, last in flags)
        # one split per node of the tree over the nonlinear factors
        assert sum(last for _, last in flags) == sum(len(q) > 2 for q in modular) - 1

    def test_every_factor_linear(self, calls):
        """Roots alone: no split tree, no Bezout cofactors, no division."""
        F = product(IntPoly([-r, 1]) for r in (3, -7, 11, 0, 25))
        p = 13
        modular = [[-r % p, 1] for r in (3, -7, 11, 0, 25)]
        counts = calls("zfactor._hensel_step", "modp._xgcd", "modp._divrem")
        leaves, m = self.checked_lift(F, modular, p, 2 * zfactor._mignotte_bound(F) + 1)
        assert m > p and leaves == [[-r % m, 1] for r in (3, -7, 11, 0, 25)]
        assert counts == {}

    def test_one_nonlinear_factor_is_the_cofactor(self, calls):
        """X^2 + 1 is irreducible mod 7; it is F / ((X - 1)(X + 2)) mod the
        final modulus, found by one division, with no _xgcd.  The input
        order stays."""
        F = product(IntPoly(c) for c in ([-1, 1], [1, 0, 1], [2, 1]))
        modular = [[6, 1], [1, 0, 1], [2, 1]]
        counts = calls("zfactor._hensel_step", "modp._xgcd", "modp._divrem")
        leaves, m = self.checked_lift(F, modular, 7, 2 * zfactor._mignotte_bound(F) + 1)
        assert leaves == [[m - 1, 1], [1, 0, 1], [2, 1]]
        assert counts == {"modp._divrem": 1}

    def test_no_linear_factor(self, calls):
        """With no root to lift, the split tree runs over every factor
        against F itself: one split per inner node, each on every round."""
        G, modular, p, target = self.setup_lift(3)
        assert all(len(q) > 2 for q in modular) and len(modular) == 6
        counts = calls("zfactor._hensel_step")
        _, m = self.checked_lift(G, modular, p, target)
        rounds = round(math.log2(math.log(m, p)))
        assert counts["zfactor._hensel_step"] == (len(modular) - 1) * rounds

    @pytest.mark.parametrize("k", [3, 6])
    def test_target_within_p_takes_no_step(self, calls, k):
        G, modular, p, _ = self.setup_lift(k)
        counts = calls("zfactor._hensel_step")
        leaves, m = self.checked_lift(G, modular, p, p)
        assert m == p and leaves == modular and not counts


@st.composite
def monic_products(draw):
    """2-16 monic integer factors of degree 1-3 and a prime at which they
    stay pairwise coprime."""
    from knotsig.modp import _gcd

    p = draw(st.sampled_from((1009, 10007)))
    factors = [draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)) + [1]
               for d in draw(st.lists(st.integers(1, 3), min_size=2, max_size=16))]
    assume(all(len(_gcd([c % p for c in f], [c % p for c in g], p)) == 1
               for f, g in itertools.combinations(factors, 2)))
    return factors, p


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(monic_products())
def test_hensel_lift_of_a_monic_product(case):
    """Past twice the Mignotte bound the lift of F's factors mod p is F's
    factors over Z, as sympy lifts them."""
    factors, p = case
    F = product(IntPoly(f) for f in factors)
    modular = [[c % p for c in f] for f in factors]
    leaves, m = zfactor._hensel_lift(F, modular, p, 2 * zfactor._mignotte_bound(F) + 1)
    assert leaves == [[c % m for c in f] for f in factors]
    assert leaves == hensel_lift_by_sympy(F.coeffs, modular, p, m)


def scanned_primes(g: IntPoly, lift: bool):
    """The odd primes at which `_squarefree_mod` passes and, with ``lift``,
    g(-1/4) != 0 mod p: one gcd mod p and one Horner pass per candidate."""
    dg = g.derivative().coeffs
    for p in itertools.count(3, 2):
        if (intfactor.is_probable_prime(p) and zfactor._squarefree_mod(g, dg, p)
                and (not lift or modp._rem(g.coeffs, [pow(4, -1, p), 1], p))):
            yield p


class TestGoodPrimes:
    def test_the_discriminant_gives_the_scanned_primes(self):
        """On seeded squarefree g of degree 1-9, some with lc divisible by
        small primes and some of degree divisible by their first primes,
        the first six primes agree with a gcd mod p per candidate, with
        and without ``lift``."""
        from knotsig.polys import gcd_z
        from knotsig.realroots import _sign_hom

        rng = random.Random(51)
        seen = 0
        while seen < 300:
            d = rng.randint(1, 9)
            lc = rng.choice((1, 1, -1, 2, 3, 5, 6, 9, 15, 21, 35))
            g = IntPoly([rng.randint(-12, 12) for _ in range(d)] + [lc])
            if g.degree != d or gcd_z(g, g.derivative()).degree > 0:
                continue
            seen += 1
            for lift in (False, True) if _sign_hom(g, -1, 4) else (False,):
                new = list(itertools.islice(zfactor._good_primes(g, lift), 6))
                assert new == list(itertools.islice(scanned_primes(g, lift), 6)), (g, lift)

    def test_a_prime_dividing_the_degree(self):
        """X^3 - X + 1 mod 3 has derivative -1: squarefree, and 3 is its
        first good prime; X^3 + 2 mod 3 is (X + 2)^3, with derivative 0."""
        assert next(zfactor._good_primes(IntPoly([1, -1, 0, 1]))) == 3
        assert next(zfactor._good_primes(IntPoly([2, 0, 0, 1]))) == 5 == next(
            scanned_primes(IntPoly([2, 0, 0, 1]), False))


class TestModularWork:
    """Where the modular arithmetic of one factorization goes, counted by
    monkeypatching instead of timing anything."""

    @staticmethod
    def delta_a_product_p() -> IntPoly:
        f = IntPoly.one()
        for a in (0, 2, 4, 5, 7, 9):
            f = f * delta_to_p(make_delta_a(a))
        return f

    def test_one_full_modular_factorization_per_squarefree_part(self, monkeypatch):
        """One distinct-degree pass per squarefree part over Z, equal-degree
        splitting only for the parts that reach recombination, and no
        modular squarefree split: the good prime already certified the part
        squarefree mod p.  X^2 + 1 is irreducible at its prime 3, so its
        one modular factor is counted and never split."""
        from knotsig import modp, zfactor

        calls = {"distinct_degree": 0, "equal_degree": 0, "parts": 0, "modular_split": 0}
        originals = {name: getattr(zfactor, name) for name in
                     ("_distinct_degree", "_equal_degree_factors", "_factor_squarefree")}
        split_original = modp._squarefree_parts

        def counting_distinct(f, p):
            calls["distinct_degree"] += 1
            return originals["_distinct_degree"](f, p)

        def counting_equal(blocks, p):
            calls["equal_degree"] += 1
            return originals["_equal_degree_factors"](blocks, p)

        def counting_parts(g, *args):
            calls["parts"] += g.degree >= 2
            return originals["_factor_squarefree"](g, *args)

        def counting_split(f, p):
            calls["modular_split"] += 1
            return split_original(f, p)

        monkeypatch.setattr(zfactor, "_distinct_degree", counting_distinct)
        monkeypatch.setattr(zfactor, "_equal_degree_factors", counting_equal)
        monkeypatch.setattr(zfactor, "_factor_squarefree", counting_parts)
        monkeypatch.setattr(modp, "_squarefree_parts", counting_split)
        P = self.delta_a_product_p()
        for f, parts in ((P, 1), (P * parse_poly("x^2 + 1") ** 2, 2)):
            calls.update(distinct_degree=0, equal_degree=0, parts=0, modular_split=0)
            direct(f)
            assert calls["parts"] == parts
            assert calls["distinct_degree"] == calls["parts"]
            assert calls["equal_degree"] == 1
            assert calls["modular_split"] == 0

    def test_first_prime_factors_are_factor_mod_p_s(self, monkeypatch):
        """The first prime's factors, taken without the modular squarefree
        split, are those of factor_mod_p drawing the same stream."""
        from knotsig import zfactor

        G = self.delta_a_product_p()
        p = next(zfactor._good_primes(G))
        gp = PolyModP.from_int_poly(G, p)
        for seed in (0, 1, 7):
            monkeypatch.setattr(modp, "Random", lambda _, s=seed: random.Random(s))
            direct = _equal_degree_factors(_distinct_degree(gp.coeffs, p), p)
            assert [PolyModP(p, q) for q in direct] == [q for q, _ in factor_mod_p(gp).factors]

    def test_one_prime_per_squarefree_part(self, monkeypatch):
        """Each squarefree part draws exactly one prime from _good_primes."""
        from knotsig import zfactor

        drawn: list[int] = []
        original = zfactor._good_primes

        def counting(g, lift=False):
            for p in original(g, lift):
                drawn.append(p)
                yield p

        monkeypatch.setattr(zfactor, "_good_primes", counting)
        P = self.delta_a_product_p()
        for f, parts in ((P, 1), (P * parse_poly("x^2 + 1") ** 2, 2)):
            drawn.clear()
            direct(f)
            assert len(drawn) == parts

    def test_recombination_trial_divisions(self, monkeypatch):
        """One pass over subset sizes that goes on past each accepted
        subset: 75 trial divisions on the k = 6 product, against 151 when
        the enumeration restarted at each accepted factor and 191 when it
        also restarted from size 1 and pruned by auxiliary primes."""
        from knotsig import zfactor

        calls = [0]
        original = zfactor.divides

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(zfactor, "divides", counting)
        direct(self.delta_a_product_p())
        assert calls[0] == 75

    def test_no_poly_mod_p_arithmetic_in_lifting_or_patterns(self, monkeypatch, calls):
        """PolyModP is a value without arithmetic; factor_z builds none, on
        the direct route or the v-model route (lifting, the good primes,
        the distinct-degree pass and Yun's certificate run on lists); and
        factor_mod_p builds one per factor it returns and none for its work."""
        from knotsig import modp

        removed = ("zero", "one", "x", "is_zero", "lc", "is_monic", "coeff", "_check",
                   "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "divrem",
                   "__floordiv__", "__mod__", "monic", "evaluate", "derivative")
        assert [name for name in removed if hasattr(PolyModP, name)] == []
        assert repr(PolyModP(3, (1, 2))) == "PolyModP(p=3, coeffs=(1, 2))"
        assert not hasattr(modp, "_wrap") and not hasattr(modp.FactorizationModP, "product")

        built = [0]
        init_original = PolyModP.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init_original(self, *args, **kwargs)

        monkeypatch.setattr(PolyModP, "__init__", counting_init)
        lifts = calls("zfactor._hensel_lift")
        P = self.delta_a_product_p()
        direct(P)
        assert lifts["zfactor._hensel_lift"] == 1
        trace: list[str] = []
        factor_z(P, trace=trace)
        assert trace[0].startswith("through the v-model") and lifts["zfactor._hensel_lift"] == 2
        assert built[0] == 0
        fp = PolyModP.from_int_poly(P, 13)
        built[0] = 0
        fac = factor_mod_p(fp)
        assert built[0] == len(fac.factors) > 1


@st.composite
def taught_products(draw):
    """Delta_a factors and random factors (up to degree 3, some
    non-monic), a product of them in shuffled order, and earlier
    products of some of them that teach the memo of known factors."""
    deltas = [make_delta_a(a) for a in draw(st.lists(st.sampled_from(IN_SCOPE_A),
                                                     min_size=1, max_size=3))]
    extras = [IntPoly(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3)) + [lead])
              for lead in draw(st.lists(st.integers(1, 3), max_size=3))]
    pieces = draw(st.permutations(deltas + extras))
    teachers = draw(st.lists(st.lists(st.sampled_from(pieces), min_size=1, max_size=3),
                             max_size=3))
    return pieces, deltas, teachers


def product(polys) -> IntPoly:
    out = IntPoly.one()
    for f in polys:
        out = out * f
    return out


def answers(pieces, deltas):
    """What factor_z and analyze answer on the products, a refusal's message
    included: the factors of the product f (the direct route, unless f is
    symmetric) and of its lift f(X^2 - X) (the v-model route), and the
    report of Delta = prod Delta_a."""
    from knotsig import AnalysisRequest, analyze

    def outcome(call, *args):
        try:
            return call(*args)
        except BudgetExceededError as exc:
            return str(exc)

    f = product(pieces)
    return (outcome(factor_z, f), outcome(factor_z, f.compose(V)),
            outcome(lambda d: analyze(AnalysisRequest(delta=d, m=7, signature=8)).to_dict(),
                    product(deltas)))


class TestKnownFactors:
    """The memo of irreducible factors proven by earlier requests changes
    the work, never an answer or a refusal."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(taught_products())
    def test_warm_memo_answers_as_cold(self, case):
        pieces, deltas, teachers = case
        clear_facts_memos()
        cold = answers(pieces, deltas)
        for taught in teachers:
            answers(taught, [q for q in taught if q in deltas] or deltas)
        assert answers(pieces, deltas) == cold
        assert answers(pieces, deltas) == cold  # the memo now knows every factor

    def test_refusal_does_not_depend_on_the_memo(self):
        """The 18 linear factors of test_modular_factor_cap's refused input,
        all memoized by factoring small products of them, change neither
        the refusal nor its message."""
        linears = [IntPoly((-r, 1)) for r in range(-9, 9)]
        f = product(linears)
        with pytest.raises(BudgetExceededError) as cold:
            factor_z(f)
        for i in range(0, 18, 3):
            assert {q for q, _ in factor_z(product(linears[i:i + 3])).factors} == set(linears[i:i + 3])
        assert all(q in zfactor._known_factors.entries for q in linears)
        with pytest.raises(BudgetExceededError) as warm:
            factor_z(f)
        assert str(warm.value) == str(cold.value)
        assert str(cold.value).startswith("18 modular factors of a degree-18 ")

    def test_a_full_hit_skips_the_lift(self, calls):
        P = delta_a_product_p((0, 2, 4, 5, 7, 9))
        expected = factor_z(P)
        counts = calls("zfactor._hensel_lift", "zfactor._equal_degree_factors")
        for sub in ((0, 2, 4, 5, 7, 9), (9, 4, 0), (5, 7)):
            fz = factor_z(delta_a_product_p(sub))
            assert {q for q, _ in fz.factors} <= {q for q, _ in expected.factors}
        assert counts["zfactor._hensel_lift"] == 0
        assert counts["zfactor._equal_degree_factors"] == 0

    @pytest.mark.parametrize("unknown", [IntPoly((1, 1, 49)) * IntPoly((-1, 0, 4)),
                                         IntPoly((-1, 0, 4)) * IntPoly((1, 3))])
    def test_a_partial_hit_lifts_only_the_cofactor(self, monkeypatch, unknown):
        """Known factors leave a non-monic cofactor, lifted alone in the
        coordinates of the whole part's model; the second cofactor has
        three modular factors in one distinct-degree block."""
        known = IntPoly((1, -1, 1)) * IntPoly((2, 0, 3))
        factor_z(known)
        degrees: list[int] = []
        original = zfactor._hensel_lift

        def recording(G, modular, p, target):
            degrees.append(int(G.degree))
            return original(G, modular, p, target)

        monkeypatch.setattr(zfactor, "_hensel_lift", recording)
        fz = factor_z(known * unknown)
        assert fz.product() == known * unknown
        assert sorted((q.coeffs, e) for q, e in fz.factors) == sympy_factors(known * unknown)
        assert degrees == [int(unknown.degree)]

    @pytest.mark.parametrize("route", ["direct", "v-model"])
    def test_a_full_hit_does_no_modular_work(self, calls, route):
        """A product of degree <= 16 whose factors earlier requests proved
        irreducible is answered from the memo: no Yun certificate, no
        prime and no distinct-degree pass.  On the v-model route the
        part is Q, of degree 9."""
        pieces = ([IntPoly((3, 0, 1)), IntPoly((-1, -1, 0, 1)), IntPoly((5, 2, 0, 0, 2))]
                  if route == "direct" else [make_delta_a(a) for a in (0, 2, 4)])
        build = product if route == "direct" else (lambda ds: delta_to_p(product(ds)))
        factor_z(build(pieces[:2]))
        factor_z(build(pieces[2:]))
        counts = calls("zfactor.certified_squarefree", "modp._distinct_degree", "zfactor._good_primes")
        fz = factor_z(build(pieces))
        assert fz.product() == build(pieces)
        assert counts == {}
        clear_facts_memos()
        assert factor_z(build(pieces)) == fz

    def test_a_squared_known_factor_goes_through_yun(self, calls):
        """q^2 r with q and r known: the known divisors q, r fall short of
        the degree, so Yun splits the part and q keeps multiplicity 2."""
        q, r = IntPoly((1, 0, 1)), IntPoly((-1, -1, 0, 1))
        factor_z(q * r)
        counts = calls("zfactor._yun", "zfactor.certified_squarefree")
        fz = factor_z(q * q * r)
        assert fz.factors == ((q, 2), (r, 1))
        assert counts["zfactor._yun"] == 1 and counts["zfactor.certified_squarefree"] >= 1

    @pytest.mark.parametrize("case", ["miss", "partial hit", "squared known factor", "v-model miss"])
    def test_one_memo_scan_per_factorization(self, monkeypatch, case):
        """Each `_factor` call scans the memo once, and its squarefree parts
        get their known divisors from that scan: a miss of degree <= 16, a
        partial hit, and q^2 r t with q and r known, whose Yun part r t
        would scan again."""
        q, r = IntPoly((1, 0, 1)), IntPoly((-1, -1, 0, 1))
        s, t = IntPoly((5, 2, 0, 0, 2)), IntPoly((3, 0, 1))
        factor_z(q * r)
        f, expected = {
            "miss": (s * t, ((t, 1), (s, 1))),
            "partial hit": (q * s * t, ((q, 1), (t, 1), (s, 1))),
            "squared known factor": (q * q * r * t, ((q, 2), (t, 1), (r, 1))),
            "v-model miss": (delta_a_product_p((0, 2)), None),
        }[case]
        scans, factorizations = [0], [0]
        scan_original, factor_original = zfactor._KnownFactors.__call__, zfactor._factor

        def counting_scan(self, g):
            scans[0] += 1
            return scan_original(self, g)

        def counting_factor(*args, **kwargs):
            factorizations[0] += 1
            return factor_original(*args, **kwargs)

        monkeypatch.setattr(zfactor._KnownFactors, "__call__", counting_scan)
        monkeypatch.setattr(zfactor, "_factor", counting_factor)
        fz = factor_z(f)
        assert fz.product() == f
        if expected is not None:
            assert fz.factors == expected
        assert scans[0] == factorizations[0] == 1

    def test_sixteen_linear_factors_warm_and_cold(self, calls):
        """At the cap's degree, 16 distinct linear factors (and their lift
        through X^2 - X) factor the same from the memo as from the modular
        route, which reaches exactly 16 modular factors."""
        f = product(IntPoly((-r, 1)) for r in range(-8, 8))
        lifted = f.compose(V)
        cold = (factor_z(f), factor_z(lifted))
        assert len(cold[0].factors) == 16 and len(cold[1].factors) == 19  # r = 0, 2, 6 split
        counts = calls("modp._distinct_degree")
        assert (factor_z(f), factor_z(lifted)) == cold
        assert counts == {}

    def test_a_false_candidate_falls_back_to_divides(self):
        """c = X^2 - 16X + 7 passes the memo's tests for g = (X^2 + 1)(X^2 + 3)
        (c(16) = 7 divides g(16) = 257 * 7 * 37) and with X^2 + 1 fills
        g's degree, but the two do not multiply to g: each entry is then
        tried by `divides`, and g factors as it does cold."""
        a, b, c = IntPoly((1, 0, 1)), IntPoly((3, 0, 1)), IntPoly((7, -16, 1))
        g = a * b
        cold = factor_z(g)
        clear_facts_memos()
        assert factor_z(a * c).factors == ((a, 1), (c, 1))
        assert zfactor._known_factors(g) == [a]
        trace: list[str] = []
        assert factor_z(g, trace=trace) == cold
        assert "1 known factors, cofactor of degree 2" in trace

    @pytest.mark.parametrize("route", ["direct", "v-model"])
    def test_a_full_hit_runs_no_divides(self, calls, route):
        """An all-known part of degree <= 16 is answered by one product of
        its memo entries: no `divides`, also not to choose the route, which
        the sign of 4^d Q(-1/4) decides."""
        pieces = ([IntPoly((3, 0, 1)), IntPoly((-1, -1, 0, 1)), IntPoly((5, 2, 0, 0, 2))]
                  if route == "direct" else [make_delta_a(a) for a in (0, 2, 4)])
        build = product if route == "direct" else (lambda ds: delta_to_p(product(ds)))
        cold = factor_z(build(pieces))
        counts = calls("polys.divides")
        assert factor_z(build(pieces)) == cold
        assert counts == {}

    @staticmethod
    def check_known_part_above_the_cap_degree(calls, f, taught, k):
        """f, with a part of degree 18 whose k factors the requests
        ``taught`` memoize: the cap is counted from the memo before the
        known factors answer, with the prime and the trace line of a cold
        run, and no Yun or division runs.  Every request, a repeat too,
        runs one distinct-degree pass per factor at that prime: the memo
        keeps no modular degrees."""
        cold: list[str] = []
        expected = factor_z(f, trace=cold)
        prime_line = [line for line in cold if line.startswith("prime ")][0]
        clear_facts_memos()
        for g in taught:
            factor_z(g)
        counts = calls("modp._distinct_degree", "zfactor._yun", "polys.exact_div")
        for _ in range(2):
            counts.clear()
            trace: list[str] = []
            assert factor_z(f, trace=trace) == expected
            assert trace[-2:] == [prime_line, f"{k} known factors, cofactor of degree 0"]
            assert counts == {"modp._distinct_degree": k}

    def test_a_known_part_above_the_cap_degree_meets_the_cap_first(self, calls):
        """Delta_0 Delta_2 Delta_4, of degree 18 on the direct route."""
        deltas = [make_delta_a(a) for a in (0, 2, 4)]
        self.check_known_part_above_the_cap_degree(calls, product(deltas), deltas, 3)

    def test_a_known_v_model_part_above_the_cap_degree_meets_the_cap_first(self, calls):
        """The degree-18 v-model Q of the P of test_a_full_hit_skips_the_lift."""
        taught = [delta_a_product_p(a_values) for a_values in ((0, 2, 4), (5, 7, 9))]
        self.check_known_part_above_the_cap_degree(
            calls, delta_a_product_p((0, 2, 4, 5, 7, 9)), taught, 6)

    @pytest.mark.parametrize("f, route, parts", [
        (delta_to_p(make_delta_a(0) ** 2 * make_delta_a(2)), "v-model",
         [("x^3 - 4*x - 1", 1, "prime 3: modular degrees [3]"),
          ("x^3 - 8*x^2 - 6*x - 1", 2, "prime 3: modular degrees [3]")]),
        (IntPoly((1, 0, 1)) ** 2 * IntPoly((3, 1)), "direct",
         [("x + 3", 1, None), ("x^2 + 1", 2, "prime 3: modular degrees [2]")]),
        (IntPoly((1, 1, 1)) ** 2 * IntPoly((5, -1, 0, 1)), "direct",
         [("x^3 - x + 5", 1, "prime 3: modular degrees [3]"),
          ("x^2 + x + 1", 2, "prime 5: modular degrees [2]")]),
    ], ids=["P of Delta_0^2 Delta_2", "(x^2 + 1)^2 (x + 3)", "(x^2 + x + 1)^2 (x^3 - x + 5)"])
    def test_a_known_squarefree_part_draws_no_prime(self, calls, f, route, parts):
        """Each squarefree part of a non-squarefree f, once its factor is
        known, is answered from the memo with no prime, as a whole input
        would be: the degree-1 part x + 3 too.  The cold trace and the
        factor set do not change."""
        cold: list[str] = []
        expected = factor_z(f, trace=cold)
        head = cold[:1] if route == "v-model" else []
        assert cold == head + [line for part, mult, prime in parts
                               for line in (f"squarefree part of multiplicity {mult}: {part}", prime)
                               if line is not None]
        counts = calls("zfactor._good_primes")
        warm: list[str] = []
        assert factor_z(f, trace=warm) == expected
        assert warm == head + [line for part, mult, _ in parts
                               for line in (f"squarefree part of multiplicity {mult}: {part}",
                                            "1 known factors, cofactor of degree 0")]
        assert counts == {}

    def test_cap_refusal_after_every_factor_is_known(self):
        """The degree-30 product the cap refuses stays refused, with its
        message, once each of its 8 irreducible factors is memoized."""
        deltas = [make_delta_a(a) for a in (8, 7, 6, -6)]
        smalls = [IntPoly((0, 1, 1)), IntPoly((1, 0, 1)), IntPoly((1, 1, 1))]
        f = product(deltas + smalls)
        with pytest.raises(BudgetExceededError) as cold:
            factor_z(f)
        for taught in (deltas[:2], deltas[2:], smalls):
            factor_z(product(taught))
        assert all(q in zfactor._known_factors.entries
                   for q in deltas + [IntPoly((0, 1)), IntPoly((1, 1))] + smalls[1:])
        with pytest.raises(BudgetExceededError) as warm:
            factor_z(f)
        assert str(warm.value) == str(cold.value) == (
            "17 modular factors of a degree-30 polynomial at p = 17 exceed the recombination"
            " cap of 16")

    def test_cap_refusal_with_half_the_factors_known(self):
        """The same product with 4 of its 8 factors memoized: the count
        adds their degrees at p = 17 to the cofactor's own distinct-degree
        pass, and the refusal and its message are those of a cold run."""
        deltas = [make_delta_a(a) for a in (8, 7, 6, -6)]
        smalls = [IntPoly((0, 1, 1)), IntPoly((1, 0, 1)), IntPoly((1, 1, 1))]
        f = product(deltas + smalls)
        with pytest.raises(BudgetExceededError) as cold:
            factor_z(f)
        clear_facts_memos()
        factor_z(product(deltas[:2]))
        factor_z(smalls[0])
        known = deltas[:2] + [IntPoly((0, 1)), IntPoly((1, 1))]
        assert set(zfactor._known_factors.entries) == set(known)
        with pytest.raises(BudgetExceededError) as warm:
            factor_z(f)
        assert str(warm.value) == str(cold.value) == (
            "17 modular factors of a degree-30 polynomial at p = 17 exceed the recombination"
            " cap of 16")

    def test_bound(self):
        """Learning memos.PER_FACTOR + 1 factors leaves the bound, the least
        recently used one out."""
        memo, bound = zfactor._known_factors, memos.PER_FACTOR
        for r in range(bound + 1):
            factor_z(IntPoly((-r, 1)))
            if r == 1:
                assert memo(IntPoly((0, -1, 1))) == [IntPoly((0, 1)), IntPoly((-1, 1))]
                assert memo(IntPoly((0, 1))) == [IntPoly((0, 1))]  # X is now the most recent
        assert len(memo.entries) == bound
        assert IntPoly((-1, 1)) not in memo.entries and IntPoly((0, 1)) in memo.entries
