"""Arithmetic and factorization over F_p, and the symmetric-common-factor
decision procedure with its brute-force oracle."""

from __future__ import annotations

import itertools
import random

import pytest

from knotsig import (
    FactorizationModP,
    IntPoly,
    PolyModP,
    delta_to_p,
    factor_mod_p,
    gcd_mod_p,
    involution_image,
    is_symmetric_mod_p,
    symmetric_common_factor,
)
from knotsig import modp, zfactor
from knotsig.modp import degree_pattern
from knotsig.polys import parse_poly
from conftest import make_delta_a
from oracles import (
    brute_force_symmetric_common_factor,
    pm_divrem_by_steps,
    pm_gcd_by_steps,
    pm_mul_by_steps,
    pm_pow_mod_by_steps,
)

PRIMES = (2, 3, 5, 7, 1073741789)
Z_MOD_M = 3**40


def mod(text: str, p: int) -> PolyModP:
    return PolyModP.from_int_poly(parse_poly(text), p)


class TestGcd:
    def test_self(self):
        q = mod("x^2 + x + 1", 2)
        assert gcd_mod_p(q, q) == q

    def test_example_pair(self, f1, f2):
        a = PolyModP.from_int_poly(f1, 2)
        b = PolyModP.from_int_poly(f2, 2)
        expected = mod("x^2 + x + 1", 2)
        assert gcd_mod_p(a, b) == expected * expected

    def test_coprime(self):
        assert gcd_mod_p(mod("x", 2), mod("x + 1", 2)) == PolyModP.one(2)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            gcd_mod_p(mod("x", 2), mod("x", 3))


class TestFactor:
    def test_square_of_quadratic(self):
        fac = factor_mod_p(mod("x^4 + x^2 + 1", 2))
        assert fac.factors == ((mod("x^2 + x + 1", 2), 2),)

    def test_x2_plus_1_mod2(self):
        fac = factor_mod_p(mod("x^2 + 1", 2))
        assert fac.factors == ((mod("x + 1", 2), 2),)

    def test_x2_plus_1_mod5(self):
        fac = factor_mod_p(mod("x^2 + 1", 5))
        assert fac.factors == ((mod("x + 2", 5), 1), (mod("x + 3", 5), 1))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_product_identity_random(self, p):
        rng = random.Random(100 + p)
        for _ in range(500):
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 10))]
            f = PolyModP(p, coeffs)
            if f.is_zero:
                continue
            fac = factor_mod_p(f, seed=7)
            assert fac.product(p) == f
            for q, _ in fac.factors:
                assert q.is_monic and q.degree >= 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_mod_p(PolyModP.zero(5))

    def test_deterministic(self):
        f = mod("x^8 + 3*x^5 + x + 2", 7)
        assert factor_mod_p(f, seed=1) == factor_mod_p(f, seed=1)


class TestInvolution:
    def test_mod2_fixed_quadratic(self):
        q = mod("x^2 + x + 1", 2)
        assert involution_image(q) == q

    def test_linear(self):
        # image of X is the monic normalization of 1 - X
        for p in (3, 5, 7):
            assert involution_image(PolyModP.x(p)) == PolyModP(p, (p - 1, 1))

    def test_constant(self):
        assert involution_image(PolyModP.one(7)) == PolyModP.one(7)

    def test_involution_property(self):
        rng = random.Random(19)
        for p in (2, 3, 5, 7):
            for _ in range(100):
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [1]
                h = PolyModP(p, coeffs)
                assert involution_image(involution_image(h)) == h

    def test_symmetric_iff_even_degree_fixed_point(self):
        # monic symmetric polynomials of degree >= 1 are exactly the even-degree
        # fixed points of the involution
        import itertools

        for p in (2, 3, 5):
            for deg in range(1, 5):
                for tail in itertools.product(range(p), repeat=deg):
                    h = PolyModP(p, tail + (1,))
                    if is_symmetric_mod_p(h):
                        assert int(h.degree) % 2 == 0
                        assert involution_image(h) == h
                    elif involution_image(h) == h and deg % 2 == 0:
                        raise AssertionError(f"even-degree fixed point not symmetric: {h}")


class TestSymmetricCommonFactor:
    def test_example_pair_at_two(self, f1, f2):
        a = PolyModP.from_int_poly(f1, 2)
        b = PolyModP.from_int_poly(f2, 2)
        ok, witness = symmetric_common_factor(a, b)
        assert ok and witness == mod("x^2 + x + 1", 2)

    def test_coprime_false(self):
        ok, witness = symmetric_common_factor(mod("x", 2), mod("x + 1", 2))
        assert not ok and witness is None

    def test_fixed_point_needs_multiplicity_two(self):
        half = mod("x + 2", 5)  # X - 3 = X - 1/2 mod 5
        assert involution_image(half) == half
        ok, _ = symmetric_common_factor(half, half)
        assert not ok
        sq = half * half
        ok2, witness = symmetric_common_factor(sq, sq)
        assert ok2 and witness == sq

    def test_witness_properties(self):
        rng = random.Random(43)
        for p in (2, 3, 5, 7):
            for _ in range(150):
                f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1])
                g = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1])
                ok, witness = symmetric_common_factor(f, g, seed=3)
                ok_rev, _ = symmetric_common_factor(g, f, seed=3)
                assert ok == ok_rev
                if ok:
                    d = gcd_mod_p(f, g)
                    assert witness is not None and witness.degree >= 1
                    assert is_symmetric_mod_p(witness.monic())
                    assert (d % witness.monic()).is_zero

    def test_against_brute_force_oracle(self):
        rng = random.Random(47)
        agreements = 0
        for p in (2, 3, 5, 7):
            for _ in range(60):
                f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                g = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                got, _ = symmetric_common_factor(f, g, seed=1)
                want = brute_force_symmetric_common_factor(f, g, max_deg=4)
                assert got == want, (p, f, g)
                agreements += 1
        assert agreements == 240


class TestEdgeContracts:
    """Behaviour at the edges of the arithmetic, pinned independently of
    how the kernels compute."""

    def test_pow_mod_exponent_zero(self):
        f = mod("x^3 + 2*x + 1", 5)
        assert modp._powmod(f.coeffs, 0, mod("x^2 + 1", 5).coeffs, 5) == [1]
        assert modp._powmod((), 0, mod("x^2 + 1", 5).coeffs, 5) == [1]

    def test_pow_mod_constant_modulus(self):
        f = mod("x^3 + 2*x + 1", 5)
        const = (3,)
        assert modp._powmod(f.coeffs, 0, const, 5) == [1]
        assert modp._powmod(f.coeffs, 1, const, 5) == []
        assert modp._powmod(f.coeffs, 7, const, 5) == []

    def test_divrem_lower_degree(self):
        a, b = mod("x^2 + 3", 7), mod("x^4 + x + 1", 7)
        q, r = a.divrem(b)
        assert q == PolyModP.zero(7) and r == a
        q, r = PolyModP.zero(7).divrem(b)
        assert q.is_zero and r.is_zero

    def test_divrem_by_constant(self):
        q, r = mod("3*x^2 + 1", 7).divrem(PolyModP(7, (2,)))
        assert q == PolyModP(7, (4, 0, 5)) and r.is_zero

    def test_zero_divisor(self):
        a, zero = mod("x^2 + 1", 5), PolyModP.zero(5)
        with pytest.raises(ZeroDivisionError):
            a.divrem(zero)
        with pytest.raises(ZeroDivisionError):
            a % zero
        with pytest.raises(ZeroDivisionError):
            a // zero
        with pytest.raises(ZeroDivisionError):
            modp._powmod(a.coeffs, 3, zero.coeffs, 5)

    def test_modulus_mismatch(self):
        a, b = mod("x + 1", 5), mod("x + 1", 7)
        for op in (
            lambda: a * b,
            lambda: a + b,
            lambda: a - b,
            lambda: a.divrem(b),
            lambda: gcd_mod_p(a, b),
        ):
            with pytest.raises(ValueError):
                op()

    def test_hensel_division_needs_a_monic_divisor(self):
        from knotsig import zfactor

        with pytest.raises(ValueError):
            zfactor._pm_divrem_monic((1, 2, 3), (1, 2), 9)
        with pytest.raises(ValueError):
            zfactor._pm_divrem_monic((1, 2, 3), (), 9)
        q, r = zfactor._pm_divrem_monic((8, 0, 1), (1, 1), 9)
        assert tuple(q) == (8, 1) and tuple(r) == ()


def random_coeffs(rng: random.Random, m: int, max_deg: int = 72, monic: bool = False) -> list[int]:
    coeffs = [rng.randrange(m) for _ in range(rng.randrange(0, max_deg + 1))]
    if monic:
        coeffs.append(1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def assert_canonical(r: PolyModP) -> None:
    """A kernel-built result is what the public constructor would build."""
    canonical = PolyModP(r.p, r.coeffs)
    assert r == canonical and hash(r) == hash(canonical)


class TestListKernels:
    """The unreduced-accumulation kernels against arithmetic that reduces
    at every inner step, over F_p and over Z/3^40."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_mul_divrem_gcd_over_f_p(self, p):
        rng = random.Random(500 + p)
        for _ in range(80):
            a = PolyModP(p, random_coeffs(rng, p))
            b = PolyModP(p, random_coeffs(rng, p))
            prod = a * b
            assert prod.coeffs == pm_mul_by_steps(a.coeffs, b.coeffs, p)
            assert_canonical(prod)
            if not b.is_zero:
                q, r = a.divrem(b)
                assert (q.coeffs, r.coeffs) == pm_divrem_by_steps(a.coeffs, b.coeffs, p)
                assert_canonical(q)
                assert_canonical(r)
                assert (a % b).coeffs == r.coeffs and (a // b).coeffs == q.coeffs
                assert q * b + r == a
            g = gcd_mod_p(a, b)
            assert g.coeffs == pm_gcd_by_steps(a.coeffs, b.coeffs, p)
            assert_canonical(g)
            for r in (a + b, a - b, -a):
                assert_canonical(r)
            assert (a - b) + b == a

    @pytest.mark.parametrize("p", PRIMES)
    def test_pow_mod_over_f_p(self, p):
        rng = random.Random(600 + p)
        for _ in range(12):
            a = PolyModP(p, random_coeffs(rng, p))
            f = PolyModP(p, random_coeffs(rng, p, max_deg=40))
            if f.is_zero:
                continue
            e = rng.randrange(0, 1 << rng.randrange(1, 24))
            r = modp._wrap(p, modp._powmod(a.coeffs, e, f.coeffs, p))
            assert r.coeffs == pm_pow_mod_by_steps(a.coeffs, e, f.coeffs, p)
            assert_canonical(r)

    @pytest.mark.parametrize("p", PRIMES)
    def test_xgcd_over_f_p(self, p):
        rng = random.Random(700 + p)
        for _ in range(40):
            a = random_coeffs(rng, p, max_deg=40)
            b = random_coeffs(rng, p, max_deg=40)
            if not b:
                continue
            d, u = modp._xgcd(a, b, p)
            assert tuple(d) == pm_gcd_by_steps(a, b, p)
            diff = modp._sub(modp._mul(u, a, p), d, p)
            assert modp._rem(diff, b, p) == []

    def test_over_z_mod_m_with_monic_divisors(self):
        m = Z_MOD_M
        rng = random.Random(800)
        for _ in range(150):
            a = random_coeffs(rng, m)
            b = random_coeffs(rng, m)
            f = random_coeffs(rng, m, max_deg=40, monic=True)
            assert tuple(modp._mul(a, b, m)) == pm_mul_by_steps(a, b, m)
            q, r = zfactor._pm_divrem_monic(a, f, m)
            assert (tuple(q), tuple(r)) == pm_divrem_by_steps(a, f, m)
            assert tuple(modp._rem(a, f, m)) == tuple(r)
            total = [(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)]
            diff = [(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)]
            assert modp._add(a, b, m) == modp._trim(total)
            assert modp._sub(a, b, m) == modp._trim(diff)
        for _ in range(30):  # leading coefficients that are zero divisors
            a = random_coeffs(rng, m, max_deg=30) + [3**20 * rng.randrange(1, 3**20)]
            b = random_coeffs(rng, m, max_deg=30) + [3**20 * rng.randrange(1, 3**20)]
            assert tuple(modp._mul(a, b, m)) == pm_mul_by_steps(a, b, m)
            assert len(modp._mul(a, b, m)) < len(a) + len(b) - 1
        for _ in range(10):
            a = random_coeffs(rng, m)
            f = random_coeffs(rng, m, max_deg=20, monic=True)
            e = rng.randrange(1 << 12)
            assert tuple(modp._powmod(a, e, f, m)) == pm_pow_mod_by_steps(a, e, f, m)

    def test_divrem_takes_unreduced_dividends(self):
        rng = random.Random(900)
        for m in PRIMES + (Z_MOD_M,):
            for _ in range(30):
                a = [rng.randrange(-m * m, m * m) for _ in range(rng.randrange(1, 60))]
                f = random_coeffs(rng, m, max_deg=30, monic=True)
                reduced = modp._trim([c % m for c in a])
                assert modp._divrem(a, f, m) == modp._divrem(reduced, f, m)
                assert tuple(modp._divrem(a, f, m)[1]) == pm_divrem_by_steps(reduced, f, m)[1]


def sympy_factor_mod_p(f: PolyModP) -> FactorizationModP:
    """``sympy`` factorization over F_p, in factor_mod_p's normal form."""
    import sympy

    x = sympy.Symbol("x")
    unit, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=f.p).factor_list()
    out = [(PolyModP(f.p, [int(c) for c in reversed(q.all_coeffs())]), e) for q, e in factors]
    out.sort(key=lambda fe: (int(fe[0].degree), fe[0].coeffs))
    return FactorizationModP(unit=int(unit) % f.p, factors=tuple(out))


class TestFactorAgainstSympy:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1073741789])
    def test_degrees_20_to_40(self, p):
        rng = random.Random(1000 + p)
        cases = 3 if p > 1000 else 8
        for _ in range(cases):
            deg = rng.randrange(20, 41)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            if rng.random() < 0.3:  # a repeated factor
                sq = PolyModP(p, [rng.randrange(p) for _ in range(3)] + [1])
                f = PolyModP(p, coeffs[: deg - 6] + [1]) * sq * sq
            else:
                f = PolyModP(p, coeffs)
            fac = factor_mod_p(f, seed=5)
            assert fac == sympy_factor_mod_p(f), (p, f)
            for q, _ in fac.factors:
                assert_canonical(q)


def delta_a_product_p(k: int = 6) -> IntPoly:
    f = IntPoly.one()
    for a in (0, 2, 4, 5, 7, 9)[:k]:
        f = f * delta_to_p(make_delta_a(a))
    return f


class TestDegreePattern:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1073741789])
    def test_matches_factor_mod_p_on_squarefree_inputs(self, p):
        rng = random.Random(1100 + p)
        checked = 0
        while checked < (5 if p > 1000 else 25):
            f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 40))] + [1])
            if gcd_mod_p(f, f.derivative()).degree != 0:
                continue
            want = [int(q.degree) for q, e in factor_mod_p(f, seed=2).factors for _ in range(e)]
            assert degree_pattern(f) == want, (p, f)
            checked += 1

    def test_non_monic_input(self):
        f = mod("3*x^3 + 2*x + 1", 7) * mod("x^2 + 1", 7)
        assert gcd_mod_p(f, f.derivative()).degree == 0 and not f.is_monic
        want = [int(q.degree) for q, _ in factor_mod_p(f).factors]
        assert degree_pattern(f) == want

    def test_delta_a_product_auxiliary_primes(self):
        P = delta_a_product_p()
        for p in itertools.islice(zfactor._good_primes(P), 4):
            fp = PolyModP.from_int_poly(P, p)
            want = [int(q.degree) for q, e in factor_mod_p(fp).factors for _ in range(e)]
            assert degree_pattern(fp) == want
            assert sum(want) == 36
