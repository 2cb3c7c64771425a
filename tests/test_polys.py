"""Ring operations, parsing, the Delta <-> P transforms, and resultants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from knotsig import (
    IntPoly,
    PolyParseError,
    alexander_check,
    delta_to_p,
    is_squarefree_q,
    p_to_delta,
    parse_poly,
    poly_text,
    resultant,
    symmetric_check,
    trace_polynomial,
    v_polynomial,
)
from knotsig.modp import PolyModP, gcd_mod_p
from knotsig.polys import CERTIFICATE_PRIMES, certified_squarefree, divides, exact_div, gcd_z
from conftest import make_delta_a
from oracles import (
    RatPoly,
    delta_to_p_by_expansion,
    divides_by_divrem,
    divrem,
    exact_div_by_divrem,
    p_to_delta_by_expansion,
    rat_gcd,
    squarefree_by_rat_gcd,
    sylvester_resultant,
    v_polynomial_by_peeling,
)


def P(text: str) -> IntPoly:
    return parse_poly(text)


def R(text: str) -> RatPoly:
    return RatPoly(parse_poly(text).coeffs)


class TestArithmetic:
    def test_add(self):
        assert P("x + 1") + P("x - 1") == P("2*x")

    def test_mul(self):
        assert P("x - 1") * P("x + 1") == P("x^2 - 1")

    def test_add_zero_identity(self):
        p = P("x^3 - 2*x + 4")
        assert p + IntPoly.zero() == p

    def test_neg_sub(self):
        p = P("x^2 - 3")
        assert p - p == IntPoly.zero()
        assert -(-p) == p

    def test_degree_conventions(self):
        assert IntPoly.zero().degree == float("-inf")
        assert IntPoly((5,)).degree == 0
        assert P("x^3").degree == 3

    def test_evaluate(self):
        assert P("x^4 - x^2 + 1").evaluate(1) == 1
        assert P("3*x^4 - 2*x^3 - x^2 - 2*x + 3").evaluate(-1) == 9
        assert P("7*x^5 - 3*x + 11").evaluate(0) == 11
        assert P("x^2 - 2").evaluate(Fraction(1, 2)) == Fraction(-7, 4)


class TestDivrem:
    """The oracles' rational long division."""

    def test_exact(self):
        q, r = divrem(R("x^2 - 1"), R("x - 1"))
        assert q == R("x + 1") and r.is_zero

    def test_self(self):
        q, r = divrem(R("x^2"), R("x^2"))
        assert q == R("1") and r.is_zero

    def test_remainder_remultiplies(self):
        a, b = R("x^3"), R("x^2 - 1")
        q, r = divrem(a, b)
        assert q == R("x") and r == R("x")
        assert b * q + r == a

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divrem(R("x"), RatPoly.zero())

    def test_random_remultiplication(self):
        rng = random.Random(11)
        for _ in range(100):
            a = RatPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))])
            b = RatPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 6))])
            if b.is_zero:
                continue
            q, r = divrem(a, b)
            assert b * q + r == a
            assert r.is_zero or r.degree < b.degree


def _random_poly(rng: random.Random, max_len: int, bound: int = 9) -> IntPoly:
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randrange(0, max_len + 1))])


def _division_pairs(seed: int, count: int):
    """(g, f) pairs mixing true products g*h (a fifth of them scaled by a
    constant), g*h plus a small perturbation, unrelated f and f = 0; g is
    often non-monic, has g(0) = 0 or a negative leading coefficient, and
    may outrank f."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _random_poly(rng, 5)
        if g.is_zero:
            continue
        if rng.random() < 0.3:
            g = g * IntPoly.x()
        kind = rng.randrange(4)
        if kind == 0:
            f = g * _random_poly(rng, 5)
            if rng.random() < 0.2:
                f = f * rng.choice((2, 3, -5))
        elif kind == 1:
            f = g * _random_poly(rng, 5) + rng.choice((-1, 1, 2)) * IntPoly.x() ** rng.randrange(0, 6)
        elif kind == 2:
            f = _random_poly(rng, 8)
        else:
            f = IntPoly.zero()
        out.append((g, f))
    return out


class TestIntegerDivision:
    """``divides`` and ``exact_div`` divide in integers; the rational
    long division they replaced is the oracle."""

    def test_against_divrem_oracle(self):
        seen = {"hit": 0, "miss": 0, "non_monic_hit": 0, "g0_zero_hit": 0,
                "negative_lc": 0, "g_outranks_f": 0, "f_zero": 0}
        for g, f in _division_pairs(71, 1500):
            expected = exact_div_by_divrem(f, g)
            assert divides(g, f) == divides_by_divrem(g, f) == (expected is not None), (g, f)
            if expected is None:
                with pytest.raises(ValueError, match="not exact"):
                    exact_div(f, g)
            else:
                assert exact_div(f, g) == expected
            hit = expected is not None
            seen["hit" if hit else "miss"] += 1
            seen["non_monic_hit"] += hit and abs(g.lc) > 1
            seen["g0_zero_hit"] += hit and g.coeff(0) == 0 and not f.is_zero
            seen["negative_lc"] += g.lc < 0
            seen["g_outranks_f"] += g.degree > f.degree and not f.is_zero
            seen["f_zero"] += f.is_zero
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize(
        "g,f,quotient",
        [
            ("2*x + 1", "2*x^2 - 5*x - 3", "x - 3"),
            ("-x + 2", "-x^2 + 4", "x + 2"),
            ("x^2 - 3*x", "x^4 - 3*x^3 + x^2 - 3*x", "x^2 + 1"),
            ("3", "6*x^2 - 3", "2*x^2 - 1"),
            ("x + 1", "0", "0"),
        ],
    )
    def test_exact_cases(self, g, f, quotient):
        assert divides(P(g), P(f))
        assert exact_div(P(f), P(g)) == P(quotient)

    @pytest.mark.parametrize(
        "g,f",
        [
            ("2*x", "x"),                         # lc(g) does not divide lc(f)
            ("x + 3", "x^2 + 1"),                 # g(0) does not divide f(0)
            ("x + 1", "x^2 + 3*x + 1"),           # pre-checks pass, remainder -1
            ("2*x + 1", "2*x^3 + x^2 + x + 1"),   # pre-checks pass, quotient x^2 + 1/2 + ...
            ("x^3 + 1", "x + 1"),                 # deg g > deg f
            ("3", "6*x^2 - 2"),                   # constant g
            ("0", "x"),
        ],
    )
    def test_inexact_cases(self, g, f):
        assert not divides(P(g), P(f))
        assert divides_by_divrem(P(g), P(f)) is False

    def test_zero_divisor(self):
        assert divides(IntPoly.zero(), IntPoly.zero())
        with pytest.raises(ZeroDivisionError):
            exact_div(P("x"), IntPoly.zero())

    def test_wrong_candidate_with_hensel_sized_constant(self):
        # the shape of a rejected Zassenhaus candidate: right degree and
        # leading coefficient, constant term a residue near the modulus
        f = delta_to_p(make_delta_a(0)) * delta_to_p(make_delta_a(2))
        modulus = 3 ** 40
        g = delta_to_p(make_delta_a(2)) + IntPoly((modulus // 2 + 17,))
        assert not divides(g, f) and not divides_by_divrem(g, f)
        assert divides(delta_to_p(make_delta_a(2)), f)


class TestParsing:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x^4 - 2*x^3 + 5*x^2 - 4*x + 1", (1, -4, 5, -2, 1)),
            ("1,-4,5,-2,1", (1, -4, 5, -2, 1)),
            ("-x", (0, -1)),
            ("7", (7,)),
            ("3x^2 + x", (0, 1, 3)),
            ("0", ()),
        ],
    )
    def test_accepts(self, text, coeffs):
        assert parse_poly(text) == IntPoly(coeffs)

    @pytest.mark.parametrize("text", ["", "x^", "2**x", "x^4 + quux", "1,2,oops"])
    def test_rejects(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text)

    def test_text_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            p = IntPoly([rng.randint(-20, 20) for _ in range(rng.randrange(1, 9))])
            assert parse_poly(poly_text(p)) == p


class TestAlexanderCheck:
    def test_product_fixture_passes(self, delta1, delta2):
        rep = alexander_check(delta1 * delta2)
        assert rep.all_pass
        assert rep.n == 4
        assert rep.delta_minus_one == 9 and rep.square_root_witness == 3

    def test_fails_condition_two(self):
        rep = alexander_check(P("x^2 - x + 1"))
        assert rep.cond_reciprocal and not rep.cond_at_one

    def test_non_monic_passes(self):
        rep = alexander_check(P("2*x^2 - 5*x + 2"))
        assert rep.all_pass
        assert rep.delta_minus_one == 9

    def test_odd_degree_fails_reciprocity_without_raising(self):
        rep = alexander_check(P("x^3 + 1"))
        assert not rep.degree_even and not rep.cond_reciprocal

    def test_negative_value_at_minus_one_fails(self):
        rep = alexander_check(P("-1,1,-1"))
        assert rep.delta_minus_one < 0 and not rep.cond_at_minus_one

    def test_zero_poly_raises(self):
        with pytest.raises(ValueError):
            alexander_check(IntPoly.zero())


class TestTransforms:
    def test_paper_pair_one(self, delta1, f1):
        assert delta_to_p(delta1) == f1

    def test_paper_pair_two(self, delta2, f2):
        assert delta_to_p(delta2) == f2

    def test_hand_expansion(self):
        assert delta_to_p(P("2*x^2 - 5*x + 2")) == P("x^2 - x - 2")

    def test_inverse_fixture(self, delta1, f1):
        assert p_to_delta(f1) == delta1

    def test_inverse_hand(self):
        assert p_to_delta(P("x^2 - x - 2")) == P("2*x^2 - 5*x + 2")

    def test_round_trip_random_reciprocal(self):
        rng = random.Random(23)
        done = 0
        while done < 100:
            n = rng.randrange(1, 5)
            half = [rng.randint(-9, 9) for _ in range(n)]
            delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
            if delta.degree != 2 * n or delta.evaluate(1) == 0 or delta.evaluate(0) == 0:
                continue
            assert p_to_delta(delta_to_p(delta)) == delta
            assert symmetric_check(delta_to_p(delta))
            done += 1

    def test_monic_iff_condition_two(self, delta1):
        assert delta_to_p(delta1).is_monic
        bad = P("x^2 + x + 1")  # value 3 at 1, not (-1)^1
        assert not delta_to_p(bad).is_monic

    def test_p_values_at_zero_and_one(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randrange(1, 5)
            half = [rng.randint(-9, 9) for _ in range(n)]
            delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
            if delta.degree != 2 * n:
                continue
            p = delta_to_p(delta)
            want = (-1) ** n * delta.evaluate(0)
            assert p.evaluate(0) == want and p.evaluate(1) == want

    def test_multiplicative(self, delta1, delta2):
        assert delta_to_p(delta1 * delta2) == delta_to_p(delta1) * delta_to_p(delta2)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            delta_to_p(P("x^3 + 1"))

    def test_against_expansion_oracles(self):
        """Reversal and X -> 1-X against the term-by-term expansions, on
        even-degree inputs (reciprocal or not, some vanishing at 0 or 1)
        and on the symmetric images of the reciprocal ones, of lower
        degree when Delta(1) = 0."""
        rng = random.Random(37)
        for _ in range(400):
            n = rng.randrange(0, 13)
            coeffs = [rng.randint(-9, 9) if rng.random() < 0.8 else 0 for _ in range(2 * n + 1)]
            coeffs[-1] = coeffs[-1] or 1
            delta = IntPoly(coeffs)
            assert delta_to_p(delta) == delta_to_p_by_expansion(delta)
            recip = IntPoly(coeffs[: n + 1] + coeffs[:n][::-1])
            if recip.degree == 2 * n and recip.evaluate(0) != 0:
                p = delta_to_p(recip)
                assert p_to_delta(p) == p_to_delta_by_expansion(p)
                if recip.evaluate(1) != 0:  # else P drops degree
                    assert p_to_delta(p) == recip

    def test_p_to_delta_requires_symmetry(self):
        with pytest.raises(ValueError):
            p_to_delta(P("x^2 + 1"))

    def test_p_to_delta_requires_nonzero_constant(self):
        # x^2 - x is symmetric but vanishes at 0
        with pytest.raises(ValueError):
            p_to_delta(P("x^2 - x"))


class TestSymmetryAndSquarefree:
    def test_symmetric_examples(self, f1):
        assert symmetric_check(f1)
        assert symmetric_check(P("x^2 - x + 1"))
        assert not symmetric_check(P("x^2"))

    def test_squarefree(self, f1):
        assert is_squarefree_q(f1)
        sq = P("x^2 + x + 1")
        assert not is_squarefree_q(sq * sq)
        assert not is_squarefree_q(P("x^2"))


@pytest.fixture
def gcd_z_calls(monkeypatch) -> list[int]:
    """Counts the calls of ``gcd_z`` that ``is_squarefree_q`` makes; read
    element 0."""
    from knotsig import polys

    calls = [0]
    original = polys.gcd_z

    def counting(f, g):
        calls[0] += 1
        return original(f, g)

    monkeypatch.setattr(polys, "gcd_z", counting)
    return calls


class TestSquarefreeCertificate:
    """``is_squarefree_q`` answers by a mod-p certificate when one of
    CERTIFICATE_PRIMES gives one, else by the integer ``gcd_z``; the
    rational gcd is the oracle."""

    def test_against_rat_gcd_oracle(self):
        rng = random.Random(73)
        squarefree = 0
        for _ in range(600):
            f = _random_poly(rng, 7, 20)
            if f.is_zero:
                continue
            if rng.random() < 0.35:
                h = _random_poly(rng, 3, 20)
                if h.degree >= 1:
                    f = f * h * h
            expected = squarefree_by_rat_gcd(f)
            assert is_squarefree_q(f) == expected, f
            squarefree += expected
        assert 100 <= squarefree <= 500

    def test_primes_are_distinct_primes(self):
        import sympy

        assert len(set(CERTIFICATE_PRIMES)) == len(CERTIFICATE_PRIMES)
        assert all(sympy.isprime(p) for p in CERTIFICATE_PRIMES)

    def test_fallback_when_every_prime_divides_the_discriminant(self, ratpoly_calls, gcd_z_calls):
        # disc(X (X - n)) = n^2 with n the product of all certificate primes
        n = math.prod(CERTIFICATE_PRIMES)
        f = IntPoly((0, -n, 1))
        for p in CERTIFICATE_PRIMES:
            fp = PolyModP(p, f.coeffs)
            assert gcd_mod_p(fp, fp.derivative()).degree == 1
        assert not certified_squarefree(f)
        assert is_squarefree_q(f)
        assert gcd_z_calls[0] == 1
        assert not any(ratpoly_calls.values())

    def test_fallback_when_every_prime_divides_the_leading_coefficient(self):
        f = IntPoly((-1, 0, math.prod(CERTIFICATE_PRIMES)))
        assert not certified_squarefree(f)
        assert is_squarefree_q(f)
        # one prime dividing lc(f) is skipped; the next certifies
        assert certified_squarefree(IntPoly((-1, 0, CERTIFICATE_PRIMES[0])))

    @pytest.mark.parametrize(
        "f",
        [
            P("3*x^2 - 7") ** 2 * P("5*x + 2"),
            P("x^3"),
            P("x - 1") ** 2 * P("x + 1"),
            P("2*x + 1") ** 2 * P("x^4 - x + 9"),
        ],
        ids=str,
    )
    def test_not_squarefree(self, f, ratpoly_calls, gcd_z_calls):
        assert not certified_squarefree(f)
        assert not is_squarefree_q(f)
        assert gcd_z_calls[0] == 1
        assert not any(ratpoly_calls.values())


class TestNoFractionDivision:
    """Integer questions take no rational arithmetic: these count RatPoly
    calls instead of timing anything."""

    def test_divides_and_exact_div(self, ratpoly_calls):
        for g, f in _division_pairs(79, 300):
            if divides(g, f):
                exact_div(f, g)
        assert not any(ratpoly_calls.values())

    def test_certified_squarefree_input(self, ratpoly_calls):
        p_poly = IntPoly.one()
        for a in (0, 2, 4, 5, 7, 9):
            p_poly = p_poly * delta_to_p(make_delta_a(a))
        assert is_squarefree_q(p_poly)
        assert not any(ratpoly_calls.values())


class TestGcdZ:
    """``gcd_z`` by the integer primitive pseudo-remainder sequence
    against the monic rational gcd."""

    @staticmethod
    def pairs(seed: int, count: int):
        rng = random.Random(seed)
        for i in range(count):
            f = _random_poly(rng, 6, 9)
            g = _random_poly(rng, 6, 9)
            h = IntPoly([rng.randint(-5, 5) for _ in range(rng.randrange(1, 3))] + [rng.randint(1, 5)])
            if i % 3 == 0:
                f, g = f * h, g * h
            elif i % 3 == 1:
                f, g = f * h * h, g * h * h * rng.choice((1, 2, -3))
            yield f, g

    def test_against_rat_gcd(self):
        common = 0
        for f, g in self.pairs(83, 400):
            got = gcd_z(f, g)
            if f.is_zero or g.is_zero:
                other = g if f.is_zero else f
                assert got == (other if other.lc >= 0 else -other)
                continue
            assert got.lc > 0
            want = rat_gcd(RatPoly(f.coeffs), RatPoly(g.coeffs))
            assert RatPoly(got.coeffs).monic() == want, (f, g)
            assert got.content() == math.gcd(f.content(), g.content())
            assert divides(got, f) and divides(got, g)
            common += got.degree >= 1
        assert common >= 180

    def test_common_square_factor(self):
        h = P("2*x^2 - 3*x + 5")
        f, g = h * h * P("x - 4"), h * h * h * P("3*x + 1")
        assert gcd_z(f, g) == h * h
        assert gcd_z(f, f.derivative()) == h

    def test_no_rational_arithmetic(self, ratpoly_calls):
        for f, g in self.pairs(89, 150):
            gcd_z(f, g)
        assert not any(ratpoly_calls.values())


class TestVPolynomial:
    def test_linear_image(self):
        assert v_polynomial(P("x^2 - x - 2")) == P("x - 2")

    def test_plus_one(self):
        assert v_polynomial(P("x^2 - x + 1")) == P("x + 1")

    def test_reconstruction(self, f1):
        q = v_polynomial(f1)
        assert q.compose(P("x^2 - x")) == f1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            v_polynomial(P("x^2 + 1"))

    @pytest.mark.parametrize("text", ["0", "x", "x^3 - x", "x^4 - x^3 + 1", "x^2 - x + x^5"])
    def test_rejected_inputs(self, text):
        with pytest.raises(ValueError, match="P\\(1-X\\) = P\\(X\\)"):
            v_polynomial(P(text))

    def test_against_peeling_oracle(self):
        """Division by X^2 - X accepts exactly the symmetric P and returns
        the peeled Q: images Q(X^2 - X) of random Q, and those images
        moved by a random term (almost never symmetric)."""
        rng = random.Random(41)
        v = P("x^2 - x")
        for _ in range(300):
            q = IntPoly([rng.randint(-20, 20) for _ in range(rng.randrange(1, 12))])
            if q.is_zero:
                continue
            p = q.compose(v)
            assert v_polynomial(p) == v_polynomial_by_peeling(p) == q
            moved = p + rng.choice([-1, 1]) * IntPoly.x() ** rng.randrange(0, 2 * int(q.degree) + 3)
            if moved.is_zero:
                continue
            want = v_polynomial_by_peeling(moved)
            if want is None:
                with pytest.raises(ValueError):
                    v_polynomial(moved)
            else:
                assert v_polynomial(moved) == want


class TestTracePolynomial:
    def test_degree_one(self):
        assert trace_polynomial(P("x^2 + 1")) == P("x")

    def test_quartic(self, delta1):
        assert trace_polynomial(delta1) == P("x^2 - 3")

    def test_non_monic(self):
        assert trace_polynomial(P("2*x^2 - 5*x + 2")) == P("2*x - 5")

    def test_laurent_identity_on_randoms(self):
        # Delta(X) = X^n * D(X + 1/X): check via X^n * D expanded symbolically
        rng = random.Random(31)
        done = 0
        while done < 50:
            n = rng.randrange(1, 5)
            half = [rng.randint(-9, 9) for _ in range(n)]
            delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
            if delta.degree != 2 * n:
                continue
            d = trace_polynomial(delta)
            # X^n * D(X + 1/X) = sum d_k X^(n-k) (X^2+1)^k, all times X^k/X^k
            acc = IntPoly.zero()
            for k, c in enumerate(d.coeffs):
                acc = acc + c * (P("x^2 + 1") ** k * IntPoly.x() ** (n - k))
            assert acc == delta
            done += 1

    def test_non_reciprocal_rejected(self):
        with pytest.raises(ValueError):
            trace_polynomial(P("x^2 + x + 2"))


class TestResultant:
    def test_linear(self):
        assert resultant(P("x - 1"), P("x + 1")) == 2

    def test_self_is_zero(self, f1):
        assert resultant(f1, f1) == 0

    def test_example_pair_support(self, f1, f2):
        r = resultant(f1, f2)
        assert r != 0 and r % 2 == 0
        assert r == sylvester_resultant(f1, f2)

    def test_swap_sign(self):
        rng = random.Random(37)
        for _ in range(50):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(2, 7))])
            g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(2, 7))])
            if f.is_zero or g.is_zero:
                continue
            sign = (-1) ** (int(f.degree) * int(g.degree))
            assert resultant(f, g) == sign * resultant(g, f)

    def test_against_sylvester_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))])
            g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))])
            if f.is_zero or g.is_zero:
                continue
            assert resultant(f, g) == sylvester_resultant(f, g), (f.coeffs, g.coeffs)
            checked += 1

    def test_common_factor_gives_zero(self):
        f = P("x - 2") * P("x^2 + 1")
        g = P("x - 2") * P("x + 5")
        assert resultant(f, g) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant(IntPoly.zero(), P("x"))
