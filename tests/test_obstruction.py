"""Prime sets, linkage, and the obstruction group on the worked families."""

from __future__ import annotations

import itertools
import math
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
from knotsig.modp import PolyModP, _gcd, _reduced, factor_mod_p, symmetric_common_factor
from knotsig.obstruction import _symmetric_witness
from knotsig.polys import parse_poly
from conftest import IN_SCOPE_A, clear_facts_memos, make_delta_a
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
        entry = pi_set(f1, f2)
        assert entry.primes == (2,)
        assert entry.witnesses[0][0] == 2
        assert entry.witnesses[0][1] == PolyModP(2, (1, 1, 1))

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
    mod p for D = gcd(F, G) mod p.  Checked against the route on the
    factors themselves (`reference.pair_facts_on_lifts`), at every p dividing
    the resultant, over every pair of the factors of P for Delta1, Delta2
    and the 17 in-scope Delta_a."""

    def test_resultant_gcds_and_entries_match_the_lifts(self, delta1, delta2):
        v = IntPoly((0, -1, 1))  # X^2 - X
        deltas = [delta1, delta2] + [make_delta_a(a) for a in IN_SCOPE_A]
        factors = [q for delta in deltas for q, _ in factor_z(delta_to_p(delta)).factors]
        cases = 0
        for f, g in itertools.combinations(factors, 2):
            F, G = v_polynomial(f), v_polynomial(g)
            res, gcds = pair_facts_on_lifts(f, g)
            assert res == resultant(F, G) ** 2
            primes, witnesses = [], []
            for p, d in gcds.items():
                D = _gcd(_reduced(F.coeffs, p), _reduced(G.coeffs, p), p)
                assert d == PolyModP(p, IntPoly(D).compose(v).coeffs)
                ok, w = symmetric_common_factor(d, d)
                if ok:
                    primes.append(p)
                    witnesses.append((p, w))
                cases += 1
            entry = pi_set(f, g)
            assert (entry.primes, entry.witnesses) == (tuple(primes), tuple(witnesses))
        assert (len(factors), cases) == (19, 219)


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


class TestWitnessMemo:
    """A witness depends on the prime and the gcd of the pair's v-models mod
    p alone, so it is computed once per such gcd, whichever pair shares
    it."""

    def test_one_factorization_per_gcd_mod_p(self):
        """The factors of P from Delta_a, a in {0, 2, ..., 10}, are
        congruent mod 2, so their 15 pairs share one gcd mod 2; the 19
        (pair, prime) entries have 5 distinct gcds mod p."""
        factors = (delta_to_p(make_delta_a(a)) for a in range(0, 12, 2))
        fs = standing_assumptions(math.prod(factors, start=IntPoly.one()))
        group, table = obstruction_group(fs)
        assert group.rank == 0
        assert sum(len(entry.primes) for entry in table) == 19
        assert _symmetric_witness.cache_info().misses == 5

    def test_one_entry_per_gcd_mod_p(self, f1, f2):
        """f1 and f2 share one gcd mod 2: three calls leave one entry."""
        entries = [pi_set(f1, f2) for _ in range(3)]
        assert entries[0] == entries[1] == entries[2]
        assert entries[0].primes == (2,)
        assert _symmetric_witness.cache_info()[:2] == (0, 1)


class TestHalfDegreeWitness:
    """The witness of a gcd D of v-models mod p is read off the factors of
    D, at half degree, and equals `symmetric_common_factor(d, d)` for the
    lift d = D(X^2 - X)."""

    # every monic D of degree 1 to top over F_p: 1,050 of them, among them
    # non-squarefree ones, and for odd p multiples of Y + 1/4
    FIELDS = ((2, 5), (3, 4), (5, 3), (7, 3), (11, 2), (13, 2))

    @staticmethod
    def monic(p: int, top: int):
        for n in range(1, top + 1):
            for low in itertools.product(range(p), repeat=n):
                yield PolyModP(p, low + (1,))

    @pytest.mark.parametrize("stream", [None, 7])
    def test_witness_equals_the_one_of_the_lift(self, monkeypatch, stream):
        """Also with the equal-degree splits of `modp` drawing another
        stream: a tie broken by factoring the lifts (181 of the cases) takes
        the smallest factor, whichever one a split finds first."""
        from knotsig import modp

        if stream is not None:
            monkeypatch.setattr(modp, "Random", lambda _: random.Random(stream))
        v = IntPoly((0, -1, 1))  # X^2 - X
        cases = 0
        for p, top in self.FIELDS:
            for D in self.monic(p, top):
                d = PolyModP(p, IntPoly(D.coeffs).compose(v).coeffs)
                assert (True, _symmetric_witness(D)) == symmetric_common_factor(d, d), D
                cases += 1
        assert cases == 1050

    def test_an_irreducible_gcd_is_factored_at_its_degree(self, monkeypatch):
        """For an irreducible D no factoring routine of `modp` sees a
        polynomial of degree above deg D, and below `modp._SCAN_BELOW` one
        of degree at most 3 is read off its roots, with no distinct-degree
        pass, no equal-degree split and no `_powmod`."""
        from knotsig import modp

        seen: list[int] = []
        powers: list[int] = []
        for name in ("_distinct_degree", "_equal_degree_split"):
            def recording(f, *args, _original=getattr(modp, name)):
                seen.append(len(f) - 1)
                return _original(f, *args)

            monkeypatch.setattr(modp, name, recording)

        def counting_powmod(*args, _original=modp._powmod):
            powers.append(1)
            return _original(*args)

        monkeypatch.setattr(modp, "_powmod", counting_powmod)
        irreducible = 0
        for p, top in self.FIELDS:
            assert p < modp._SCAN_BELOW
            for D in self.monic(p, top):
                if modp.factor_mod_p(D).factors != ((D, 1),):
                    continue
                seen.clear()
                powers.clear()
                _symmetric_witness(D)
                if D.degree <= 3:
                    assert not seen and not powers, D
                else:
                    assert seen and max(seen) <= D.degree, D
                irreducible += 1
        assert irreducible == 398

    def test_the_factors_read_off_the_roots(self):
        """Every monic D of degree 1 to 3 over the small fields, repeated
        factors among them: its distinct monic irreducible factors, each
        once, as `modp._irreducible_factors` reads them off the roots."""
        from knotsig.modp import _irreducible_factors

        cases = 0
        for p, _ in self.FIELDS:
            for D in self.monic(p, 3):
                want = sorted(q.coeffs for q, _ in factor_mod_p(D).factors)
                assert sorted(tuple(h) for h in _irreducible_factors(D.coeffs, p)) == want, D
                cases += 1
        assert cases == sum(p + p**2 + p**3 for p, _ in self.FIELDS)

    @pytest.mark.parametrize("p", [241, 251, 257, 263])
    def test_witness_paths_around_the_scan_bound(self, monkeypatch, p):
        """D of degree 1 to 5 built from a few roots, among them repeated
        ones and -1/4, and a random monic quadratic: below the bound those
        of degree at most 3 are read off their roots, above it every D is
        split.  Both equal the witness of the lift, and below the bound the
        root reading equals the split."""
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
            want = symmetric_common_factor(d, d)
            assert (True, _symmetric_witness(D)) == want, D
            if p < modp._SCAN_BELOW:
                monkeypatch.setattr(modp, "_SCAN_BELOW", 0)
                clear_facts_memos()
                assert (True, _symmetric_witness(D)) == want, D
                monkeypatch.undo()
        assert {1, 2, 3} <= degrees and max(degrees) > 3
