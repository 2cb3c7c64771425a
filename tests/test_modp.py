"""Arithmetic and factorization over F_p, and the symmetric-common-factor
decision procedure with its brute-force oracle."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotsig import (
    FactorizationModP,
    PolyModP,
    factor_mod_p,
    symmetric_common_factor,
)
from knotsig import modp
from knotsig.polys import _at_one_minus_x, parse_poly
from reference import (
    at_one_minus_x_mod_p_by_horner,
    brute_force_symmetric_common_factor,
    pm_divrem_by_steps,
    pm_gcd_by_steps,
    pm_mul_by_steps,
    pm_pow_mod_by_steps,
    pm_product_by_steps,
    symmetric_mod_p_by_sympy,
)

PRIMES = (2, 3, 5, 7, 1073741789)
Z_MOD_M = 3**40


def mod(text: str, p: int) -> PolyModP:
    return PolyModP.from_int_poly(parse_poly(text), p)


def gcd(a: PolyModP, b: PolyModP) -> PolyModP:
    """The monic gcd of two values mod p, by `modp._gcd` on their coefficients."""
    return PolyModP(a.p, modp._gcd(a.coeffs, b.coeffs, a.p))


class TestGcd:
    def test_self(self):
        q = mod("x^2 + x + 1", 2)
        assert gcd(q, q) == q

    def test_example_pair(self, f1, f2):
        a = PolyModP.from_int_poly(f1, 2)
        b = PolyModP.from_int_poly(f2, 2)
        expected = mod("x^2 + x + 1", 2).coeffs
        assert gcd(a, b) == PolyModP(2, modp._mul(expected, expected, 2))

    def test_coprime(self):
        assert gcd(mod("x", 2), mod("x + 1", 2)) == PolyModP(2, (1,))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus mismatch: 2 vs 3"):
            modp._modulus(mod("x", 2), mod("x", 3))


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
            if not f.coeffs:
                continue
            fac = factor_mod_p(f)
            factors = [(q.coeffs, e) for q, e in fac.factors]
            assert pm_product_by_steps(fac.unit, factors, p) == f.coeffs
            for q, _ in fac.factors:
                assert q.coeffs[-1] == 1 and q.degree >= 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_mod_p(PolyModP(5))

    def test_deterministic(self):
        f = mod("x^8 + 3*x^5 + x + 2", 7)
        assert factor_mod_p(f) == factor_mod_p(f)


def image(h: PolyModP) -> PolyModP:
    """The monic normalization of h(1-X) that `symmetric_common_factor`
    pairs factors by (`modp._image`)."""
    return PolyModP(h.p, modp._image(h.coeffs, h.p))


class TestInvolution:
    def test_mod2_fixed_quadratic(self):
        q = mod("x^2 + x + 1", 2)
        assert image(q) == q

    def test_linear(self):
        # image of X is the monic normalization of 1 - X
        for p in (3, 5, 7):
            assert image(PolyModP(p, (0, 1))) == PolyModP(p, (p - 1, 1))

    def test_constant(self):
        assert image(PolyModP(7, (1,))) == PolyModP(7, (1,))

    def test_involution_property(self):
        rng = random.Random(19)
        for p in (2, 3, 5, 7):
            for _ in range(100):
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 7))] + [1]
                h = PolyModP(p, coeffs)
                assert image(image(h)) == h

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(PRIMES), st.lists(st.integers(-10**12, 10**12), max_size=40))
    def test_reflection_matches_horner(self, p, coeffs):
        """h(1 - X) reduced from the shift over Z equals Horner's rule over
        F_p, reducing at every step, and so does the involution built on
        it; the sympy symmetry oracle agrees with Horner's rule."""
        h = PolyModP(p, coeffs)
        horner = at_one_minus_x_mod_p_by_horner(h)
        assert tuple(modp._reduced(_at_one_minus_x(h.coeffs), p)) == horner
        assert image(h).coeffs == tuple(modp._monic(horner, p))
        assert symmetric_mod_p_by_sympy(h) == (horner == h.coeffs)

    def test_symmetric_iff_even_degree_fixed_point(self):
        # monic symmetric polynomials of degree >= 1 are exactly the even-degree
        # fixed points of the involution
        import itertools

        for p in (2, 3, 5):
            for deg in range(1, 5):
                for tail in itertools.product(range(p), repeat=deg):
                    h = PolyModP(p, tail + (1,))
                    if symmetric_mod_p_by_sympy(h):
                        assert int(h.degree) % 2 == 0
                        assert image(h) == h
                    elif image(h) == h and deg % 2 == 0:
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
        assert image(half) == half
        ok, _ = symmetric_common_factor(half, half)
        assert not ok
        sq = PolyModP(5, modp._mul(half.coeffs, half.coeffs, 5))
        ok2, witness = symmetric_common_factor(sq, sq)
        assert ok2 and witness == sq

    def test_witness_properties(self):
        rng = random.Random(43)
        for p in (2, 3, 5, 7):
            for _ in range(150):
                f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1])
                g = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1])
                ok, witness = symmetric_common_factor(f, g)
                ok_rev, _ = symmetric_common_factor(g, f)
                assert ok == ok_rev
                if ok:
                    d = gcd(f, g)
                    assert witness is not None and witness.degree >= 1
                    monic = modp._monic(witness.coeffs, p)
                    assert symmetric_mod_p_by_sympy(PolyModP(p, monic))
                    assert not modp._divrem(d.coeffs, monic, p)[1]

    def test_against_brute_force_oracle(self):
        rng = random.Random(47)
        agreements = 0
        for p in (2, 3, 5, 7):
            for _ in range(60):
                f = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                g = PolyModP(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                got, _ = symmetric_common_factor(f, g)
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
        q, r = modp._divrem(a.coeffs, b.coeffs, 7)
        assert q == [] and tuple(r) == a.coeffs
        q, r = modp._divrem((), b.coeffs, 7)
        assert q == [] and r == []

    def test_divrem_by_constant(self):
        q, r = modp._divrem(mod("3*x^2 + 1", 7).coeffs, PolyModP(7, (2,)).coeffs, 7)
        assert q == [4, 0, 5] and r == []

    def test_zero_divisor(self):
        a, zero = mod("x^2 + 1", 5), PolyModP(5)
        with pytest.raises(ZeroDivisionError):
            modp._divrem(a.coeffs, zero.coeffs, 5)
        with pytest.raises(ZeroDivisionError):
            modp._rem(a.coeffs, zero.coeffs, 5)
        with pytest.raises(ZeroDivisionError):
            modp._powmod(a.coeffs, 3, zero.coeffs, 5)

    def test_modulus_mismatch(self):
        a, b = mod("x + 1", 5), mod("x + 1", 7)
        with pytest.raises(ValueError, match="modulus mismatch: 5 vs 7"):
            symmetric_common_factor(a, b)

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_a_modulus_that_is_not_prime_is_refused_by_name(self, m):
        """The public entry points name the modulus instead of failing on an
        inverse mod m; 1 is refused already by `PolyModP`."""
        with pytest.raises(ValueError, match=f"modulus {m} is not a prime"):
            factor_mod_p(PolyModP(m, (1, 2, 1)))
        with pytest.raises(ValueError, match=f"modulus {m} is not a prime"):
            symmetric_common_factor(PolyModP(m, (1, 2, 1)), PolyModP(m, (1, 1)))

    def test_prime_beyond_a_machine_word(self):
        p = 9223372036854775907  # > 2^63, prime
        a, b = mod("x^2 - 3*x + 2", p), mod("x^2 - 4*x + 3", p)
        assert gcd(a, b) == mod("x - 1", p)
        assert modp._divrem(modp._mul(a.coeffs, b.coeffs, p), b.coeffs, p) == (list(a.coeffs), [])


def random_coeffs(rng: random.Random, m: int, max_deg: int = 72, monic: bool = False) -> list[int]:
    coeffs = [rng.randrange(m) for _ in range(rng.randrange(0, max_deg + 1))]
    if monic:
        coeffs.append(1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def assert_canonical(r: PolyModP | list[int], p: int) -> None:
    """A kernel's list or a public function's value is reduced and
    trimmed: it equals the value the public constructor builds from its
    coefficients, with the same hash."""
    coeffs = r.coeffs if isinstance(r, PolyModP) else tuple(r)
    canonical = PolyModP(p, coeffs)
    assert canonical.coeffs == coeffs
    if isinstance(r, PolyModP):
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
            prod = modp._mul(a.coeffs, b.coeffs, p)
            assert tuple(prod) == pm_mul_by_steps(a.coeffs, b.coeffs, p)
            assert_canonical(prod, p)
            if b.coeffs:
                q, r = modp._divrem(a.coeffs, b.coeffs, p)
                assert (tuple(q), tuple(r)) == pm_divrem_by_steps(a.coeffs, b.coeffs, p)
                assert_canonical(q, p)
                assert_canonical(r, p)
                assert modp._rem(a.coeffs, b.coeffs, p) == r
                assert modp._add(modp._mul(q, b.coeffs, p), r, p) == list(a.coeffs)
            g = gcd(a, b)
            assert g.coeffs == pm_gcd_by_steps(a.coeffs, b.coeffs, p)
            assert_canonical(g, p)
            for r in (modp._add(a.coeffs, b.coeffs, p), modp._sub(a.coeffs, b.coeffs, p),
                      modp._sub((), a.coeffs, p)):
                assert_canonical(r, p)
            assert modp._add(modp._sub(a.coeffs, b.coeffs, p), b.coeffs, p) == list(a.coeffs)

    @pytest.mark.parametrize("p", PRIMES)
    def test_pow_mod_over_f_p(self, p):
        rng = random.Random(600 + p)
        for _ in range(12):
            a = PolyModP(p, random_coeffs(rng, p))
            f = PolyModP(p, random_coeffs(rng, p, max_deg=40))
            if not f.coeffs:
                continue
            e = rng.randrange(0, 1 << rng.randrange(1, 24))
            r = modp._powmod(a.coeffs, e, f.coeffs, p)
            assert tuple(r) == pm_pow_mod_by_steps(a.coeffs, e, f.coeffs, p)
            assert_canonical(r, p)

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
        assert modp._divrem((8, 0, 1), (1, 1), 9) == ([8, 1], [])  # x^2 - 1 = (x + 1)(x - 1)
        m = Z_MOD_M
        rng = random.Random(800)
        for _ in range(150):
            a = random_coeffs(rng, m)
            b = random_coeffs(rng, m)
            f = random_coeffs(rng, m, max_deg=40, monic=True)
            assert tuple(modp._mul(a, b, m)) == pm_mul_by_steps(a, b, m)
            q, r = modp._divrem(a, f, m)
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
                sq = PolyModP(p, [rng.randrange(p) for _ in range(3)] + [1]).coeffs
                base = PolyModP(p, coeffs[: deg - 6] + [1]).coeffs
                f = PolyModP(p, modp._mul(modp._mul(base, sq, p), sq, p))
            else:
                f = PolyModP(p, coeffs)
            fac = factor_mod_p(f)
            assert fac == sympy_factor_mod_p(f), (p, f)
            for q, _ in fac.factors:
                assert_canonical(q, p)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.sampled_from((2, 3, 5)), st.data())
    def test_pth_powers(self, p, data):
        """f = a * b^p * c^(p^2) with c nonconstant: the squarefree split
        takes the p-th root of a part twice, and every factor of c comes
        back with multiplicity at least p^2."""
        def poly(deg: int) -> list[int]:
            tail = st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)
            return data.draw(tail) + [1]

        a, b, c = poly(3), poly(3), poly(2 if p == 5 else 3)
        f = a
        for q, e in ((b, p), (c, p * p)):
            for _ in range(e):
                f = modp._mul(f, q, p)
        fac = factor_mod_p(PolyModP(p, f))
        assert fac == sympy_factor_mod_p(PolyModP(p, f))
        assert max(e for _, e in fac.factors) >= p * p


def split_both_ways(monkeypatch, f, p):
    """(`_distinct_degree`, `_equal_degree_factors`) of f at p, by the root
    scan where `_SCAN_BELOW` allows it and again by splitting alone."""
    out = []
    for bound in (modp._SCAN_BELOW, 0):
        monkeypatch.setattr(modp, "_SCAN_BELOW", bound)
        blocks = modp._distinct_degree(f, p)
        out.append(([(list(b), d) for b, d in blocks], modp._equal_degree_factors(blocks, p)))
    return out


def squarefree(f, p) -> bool:
    return modp._squarefree_parts(f, p) == [(f, 1)]


class TestRootScan:
    """Below `modp._SCAN_BELOW` small pieces are factored by their roots;
    the factors are those of distinct-degree passes and random splitting,
    which the tests reach by setting the bound to 0."""

    def test_every_small_squarefree_polynomial(self, monkeypatch):
        cases = 0
        for p in (2, 3, 5, 7):
            for n in (1, 2, 3):
                for low in itertools.product(range(p), repeat=n):
                    f = list(low) + [1]
                    if squarefree(f, p):
                        scan, split = split_both_ways(monkeypatch, f, p)
                        assert scan == split, (p, f)
                        cases += 1
        # monic squarefree polynomials over F_q: q of degree 1, q^n - q^(n-1) of degree n >= 2
        assert cases == sum(p if n == 1 else p**n - p ** (n - 1)
                            for p in (2, 3, 5, 7) for n in (1, 2, 3))

    @pytest.mark.parametrize("p", [241, 251, 257, 263])
    def test_random_cubics_around_the_bound(self, monkeypatch, p):
        """Seeded f of degree 1 to 3 at primes just below and above the
        bound: the same blocks and factors either way, and above the bound
        no root is scanned for."""
        rng = random.Random(p)
        if p > modp._SCAN_BELOW:
            monkeypatch.setattr(modp, "_roots", None)
        shapes = []
        for _ in range(60):
            f = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            if squarefree(f, p):
                scan, split = split_both_ways(monkeypatch, f, p)
                assert scan == split, (p, f)
                shapes.append(tuple(d for _, d in scan[0]))
        assert {(3,), (1,), (1, 2), (2,)} <= set(shapes)

    @pytest.mark.parametrize("p", [11, 23, 31, 127, 251])
    def test_linear_blocks(self, monkeypatch, p):
        rng = random.Random(300 + p)
        for k in range(2, 10):
            for _ in range(3):
                roots = rng.sample(range(p), k)
                block = [1]
                for r in roots:
                    block = modp._mul(block, [-r % p, 1], p)
                want = sorted([-r % p, 1] for r in roots)
                monkeypatch.setattr(modp, "_SCAN_BELOW", 0)
                assert modp._equal_degree_factors([(block, 1)], p) == want
                monkeypatch.undo()
                assert modp._distinct_degree(block, p) == [(block, 1)]
                assert modp._equal_degree_factors([(block, 1)], p) == want

    def test_no_random_stream_without_a_split(self, monkeypatch):
        """`Random(0)` is built only for a block of degree >= 2 that needs
        splitting: not for linear blocks below the bound, nor for blocks
        that are one irreducible factor."""
        monkeypatch.setattr(modp, "Random", None)
        p = 7
        # X^2 + 1 and X^3 + 2: -1 is no square mod 7, -2 no cube
        quadratic, cubic = [1, 0, 1], [2, 0, 0, 1]
        assert modp._roots(quadratic, p) == modp._roots(cubic, p) == []
        linear = modp._mul([1, 1], [5, 1], p)
        blocks = [(linear, 1), (quadratic, 2), (cubic, 3)]
        assert modp._equal_degree_factors(blocks, p) == [[1, 1], [5, 1], quadratic, cubic]
        one_root = modp._mul([1, 1], quadratic, p)
        assert modp._distinct_degree(one_root, p) == [([1, 1], 1), (quadratic, 2)]
