"""Prime sets, linkage, and the obstruction group on the worked families."""

from __future__ import annotations

import itertools
import random

import pytest

from knotsig import (
    BudgetExceededError,
    IntPoly,
    delta_to_p,
    factor_z,
    obstruction_group,
    pi_set,
    resultant,
    standing_assumptions,
    v_polynomial,
)
from knotsig.modp import PolyModP, _gcd, _image, _reduced, _rem, symmetric_common_factor
from knotsig.polys import parse_poly
from conftest import IN_SCOPE_A, make_delta_a
from reference import pair_facts_on_lifts, symmetric_mod_p_by_sympy


class TestPiSet:
    def test_budget_message_keeps_the_inner_one(self, monkeypatch):
        """The refusal names the resultant and keeps the rho budget's own
        message (its value and the iterations spent)."""
        from knotsig import intfactor

        n = 1_000_003 * 999_983
        f, g = parse_poly("x^2 - x"), parse_poly(f"x^2 - x - {n}")
        monkeypatch.setattr(intfactor, "RHO_BUDGET", 1)
        with pytest.raises(BudgetExceededError, match=(
            rf"resultant {n * n} resisted factorization: rho iteration budget of 1 "
            rf"exhausted after \d+ iterations while factoring {n}$"
        )):
            pi_set(f, g)
        monkeypatch.undo()
        assert pi_set(f, g).primes == (999_983, 1_000_003)

    def test_example_pair(self, f1, f2):
        """f1 = f2 = (X^2 + X + 1)^2 mod 2: the witness is that gcd, and
        its least symmetric divisor is X^2 + X + 1."""
        entry = pi_set(f1, f2)
        assert entry.primes == (2,)
        assert entry.witnesses == ((2, PolyModP(2, (1, 0, 1, 0, 1))),)
        w = entry.witnesses[0][1]
        assert symmetric_common_factor(w, w) == (True, PolyModP(2, (1, 1, 1)))

    def test_transformed_pair_empty(self, g1, delta1):
        h1, h2 = delta_to_p(g1), delta_to_p(delta1)
        assert pi_set(h1, h2).primes == ()

    def test_unit_resultant_skips_search(self, g1, delta1):
        h1, h2 = delta_to_p(g1), delta_to_p(delta1)
        assert abs(resultant(h1, h2)) == 1

    def test_symmetry(self, f1, f2):
        a = pi_set(f1, f2)
        b = pi_set(f2, f1)
        assert a.primes == b.primes

    def test_primes_divide_resultant(self, f1, f2):
        entry = pi_set(f1, f2)
        res = resultant(f1, f2)
        for p in entry.primes:
            assert res % p == 0

    def test_witnesses_are_symmetric_divisors(self, f1, f2):
        entry = pi_set(f1, f2)
        from knotsig.modp import _divrem, _monic

        for p, w in entry.witnesses:
            monic = _monic(w.coeffs, p)
            assert symmetric_mod_p_by_sympy(PolyModP(p, monic))
            d = _gcd(_reduced(f1.coeffs, p), _reduced(f2.coeffs, p), p)
            assert not _divrem(d, monic, p)[1]

    def test_brute_scan_matches_candidates(self, f1, f2):
        """Scanning all p < 200 directly finds no primes outside the
        resultant-support candidates."""
        from knotsig.intfactor import is_probable_prime
        from knotsig.modp import symmetric_common_factor

        entry = pi_set(f1, f2)
        found = []
        for p in range(2, 200):
            if not is_probable_prime(p):
                continue
            ok, _ = symmetric_common_factor(
                PolyModP.from_int_poly(f1, p), PolyModP.from_int_poly(f2, p)
            )
            if ok:
                found.append(p)
        assert tuple(found) == entry.primes

    def test_a_failed_witness_search_is_an_internal_error(self, monkeypatch, delta1, delta2):
        """Every prime of the support of Res(F, G) has a symmetric common
        factor; a constant gcd D of the v-models mod p, which has none,
        raises an internal error (CLI exit 4) where D is made instead of
        reporting a smaller prime table."""
        from knotsig import AnalysisRequest, KnotsigError, analyze, obstruction

        monkeypatch.setattr(obstruction, "_gcd", lambda a, b, p: [1])
        with pytest.raises(KnotsigError, match="^internal error: no symmetric common factor mod 2 ") as info:
            analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
        assert info.type is KnotsigError

    def test_equal_factors_rejected(self, f1):
        with pytest.raises(ValueError, match="distinct"):
            pi_set(f1, f1)

    def test_asymmetric_rejected(self, f1):
        with pytest.raises(ValueError, match="1-X"):
            pi_set(f1, parse_poly("x^2 + 1"))

    def test_non_monic_rejected(self, f1):
        with pytest.raises(ValueError, match="monic"):
            pi_set(f1, parse_poly("2*x^2 - 2*x + 1"))


class TestHalfDegreeRoute:
    """The prime table reads a pair f = F(X^2 - X), g = G(X^2 - X) off the
    v-models: Res(f, g) = Res(F, G)^2, and gcd(f, g) mod p = D(X^2 - X)
    mod p for D = gcd(F, G) mod p, which is the prime's witness, and
    `symmetric_common_factor` reads a divisor off it that X -> 1-X fixes
    exactly (as perfbench's oracle checks a witness).  Checked against the
    route on the factors themselves (`reference.pair_facts_on_lifts`), at
    every p dividing the resultant, over every pair of the factors of P for
    Delta1, Delta2 and the 17 in-scope Delta_a: 219 pair primes, 155 of
    them of the 136 pairs of Delta_a."""

    def test_resultant_gcds_and_entries_match_the_lifts(self, delta1, delta2):
        v = IntPoly((0, -1, 1))  # X^2 - X
        deltas = [delta1, delta2] + [make_delta_a(a) for a in IN_SCOPE_A]
        factors = [q for delta in deltas for q, _ in factor_z(delta_to_p(delta)).factors]
        cases = delta_a_cases = 0
        for (i, f), (_, g) in itertools.combinations(enumerate(factors), 2):
            F, G = v_polynomial(f), v_polynomial(g)
            res, gcds = pair_facts_on_lifts(f, g)
            assert res == resultant(F, G) ** 2
            for p, d in gcds.items():
                D = _gcd(_reduced(F.coeffs, p), _reduced(G.coeffs, p), p)
                assert d == PolyModP(p, IntPoly(D).compose(v).coeffs)
                ok, h = symmetric_common_factor(d, d)
                assert ok and h.degree >= 1 and not _rem(d.coeffs, h.coeffs, p), (f, g, p)
                assert symmetric_mod_p_by_sympy(h), (f, g, p)
                cases += 1
                delta_a_cases += i >= 2
            entry = pi_set(f, g)
            assert entry.primes == tuple(gcds)
            assert entry.witnesses == tuple(gcds.items())
        assert (len(factors), cases, delta_a_cases) == (19, 219, 155)


class TestWitnessIsThePairGcd:
    """Each prime's witness is gcd(f, g) mod p itself, and nothing is lost:
    `symmetric_common_factor(w, w)` reads the least symmetric divisor off
    it."""

    def test_delta_0_delta_2_at_2(self):
        """D = Y^3 + 1 = (Y + 1)(Y^2 + Y + 1) mod 2: the witness is
        D(X^2 - X), and its least symmetric divisor is X^2 + X + 1."""
        from knotsig import AnalysisRequest, analyze, report_render

        rep = analyze(AnalysisRequest(delta=make_delta_a(0) * make_delta_a(2), m=7, signature=8))
        assert [entry["witnesses"] for entry in rep.pi_table] == [[[2, [1, 0, 0, 1, 1, 1, 1]]]]
        assert "    witness mod 2: x^6 + x^5 + x^4 + x^3 + 1" in report_render(rep).splitlines()
        w = PolyModP(2, (1, 0, 0, 1, 1, 1, 1))
        assert symmetric_common_factor(w, w) == (True, PolyModP(2, (1, 1, 1)))


class TestObstructionGroup:
    def test_example_linked(self, f1, f2):
        group, table = obstruction_group(standing_assumptions(f1 * f2))
        assert group.rank == 0
        assert group.components == ((0, 1),)
        assert len(table) == 1 and table[0].primes == (2,)

    def test_example_split(self, g1, delta1):
        p_poly = delta_to_p(g1) * delta_to_p(delta1)
        group, table = obstruction_group(standing_assumptions(p_poly))
        assert group.rank == 1
        assert group.components == ((0,), (1,))
        assert all(entry.primes == () for entry in table)

    def test_delta_a_family(self):
        pa, pb = delta_to_p(make_delta_a(0)), delta_to_p(make_delta_a(2))
        entry = pi_set(pa, pb)
        assert entry.primes == (2,)
        group, _ = obstruction_group(standing_assumptions(pa * pb))
        assert group.rank == 0

    def test_single_factor_trivial(self, f1):
        group, table = obstruction_group(standing_assumptions(f1))
        assert group.rank == 0 and table == []

    def test_rank_formula(self, f1, f2, g1, delta1):
        # four pairwise-unlinked-or-linked factors: components partition indices
        p_poly = f1 * f2 * delta_to_p(g1)
        group, table = obstruction_group(standing_assumptions(p_poly))
        assert group.rank == len(group.components) - 1
        covered = sorted(i for comp in group.components for i in comp)
        assert covered == [0, 1, 2]

    def test_assumption_flags_enforced(self, f1):
        with pytest.raises(ValueError, match="squarefree"):
            obstruction_group(standing_assumptions(f1 * f1))
        with pytest.raises(ValueError, match="symmetric"):
            obstruction_group(standing_assumptions(parse_poly("x^2 - x - 2")))


class TestHalfDegreeWitness:
    """The witness at a pair prime is the lift d = D(X^2 - X) of the gcd D
    of the v-models mod p.  Every candidate passes: d is fixed by
    X -> 1-X, and `symmetric_common_factor(d, d)` finds a symmetric
    divisor of it."""

    # every monic D of degree 1 to top over F_p: 1,050 of them, among them
    # non-squarefree ones, and for odd p multiples of Y + 1/4
    FIELDS = ((2, 5), (3, 4), (5, 3), (7, 3), (11, 2), (13, 2))

    @staticmethod
    def monic(p: int, top: int):
        for n in range(1, top + 1):
            for low in itertools.product(range(p), repeat=n):
                yield PolyModP(p, low + (1,))

    @staticmethod
    def assert_symmetric_with_a_symmetric_divisor(d: PolyModP) -> PolyModP:
        assert _image(d.coeffs, d.p) == d.coeffs, d
        ok, w = symmetric_common_factor(d, d)
        assert ok and _image(w.coeffs, d.p) == w.coeffs, d
        assert w.degree >= 1 and not _rem(d.coeffs, w.coeffs, d.p), d
        return w

    @pytest.mark.parametrize("stream", [None, 7])
    def test_witness_equals_the_one_of_the_lift(self, monkeypatch, stream):
        """Every monic D over the small fields; also with the equal-degree
        splits of `modp` drawing another stream."""
        from knotsig import modp

        if stream is not None:
            monkeypatch.setattr(modp, "Random", lambda _: random.Random(stream))
        v = IntPoly((0, -1, 1))  # X^2 - X
        cases = 0
        for p, top in self.FIELDS:
            for D in self.monic(p, top):
                self.assert_symmetric_with_a_symmetric_divisor(
                    PolyModP(p, IntPoly(D.coeffs).compose(v).coeffs))
                cases += 1
        assert cases == 1050

    @pytest.mark.parametrize("p", [241, 251, 257, 263])
    def test_witness_paths_around_the_scan_bound(self, monkeypatch, p):
        """D of degree 1 to 5 built from a few roots, among them repeated
        ones and -1/4, and a random monic quadratic.  Each lift is fixed
        and has a symmetric divisor, and below the bound, where factoring
        mod p reads small pieces off their roots, the divisor found equals
        the one found by splitting."""
        from knotsig import modp

        v = IntPoly((0, -1, 1))  # X^2 - X
        rng = random.Random(p)
        pool = [(-pow(4, -1, p)) % p, rng.randrange(p), rng.randrange(p)]
        degrees = set()
        for _ in range(40):
            D = [1]
            for r in rng.choices(pool, k=rng.randint(0, 3)):
                D = modp._mul(D, [-r % p, 1], p)
            if len(D) == 1 or rng.random() < 0.3:
                D = modp._mul(D, [rng.randrange(p), rng.randrange(p), 1], p)
            D = PolyModP(p, D)
            degrees.add(D.degree)
            d = PolyModP(p, IntPoly(D.coeffs).compose(v).coeffs)
            w = self.assert_symmetric_with_a_symmetric_divisor(d)
            if p < modp._SCAN_BELOW:
                monkeypatch.setattr(modp, "_SCAN_BELOW", 0)
                assert symmetric_common_factor(d, d) == (True, w), D
                monkeypatch.undo()
        assert {1, 2, 3} <= degrees and max(degrees) > 3
