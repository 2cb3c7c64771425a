"""Prime sets, linkage, and the obstruction group on the worked families."""

from __future__ import annotations

import itertools
import math

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
from knotsig.modp import PolyModP, _gcd, _reduced, is_symmetric_mod_p, symmetric_common_factor
from knotsig.obstruction import _symmetric_witness
from knotsig.polys import parse_poly
from conftest import IN_SCOPE_A, make_delta_a
from oracles import pair_facts_on_lifts


class TestPiSet:
    def test_budget_message_keeps_the_inner_one(self):
        """The refusal names the resultant and keeps the rho budget's own
        message (its value and the iterations spent)."""
        n = 1_000_003 * 999_983
        f, g = parse_poly("x^2 - x"), parse_poly(f"x^2 - x - {n}")
        with pytest.raises(BudgetExceededError, match=(
            rf"resultant {n * n} resisted factorization: rho iteration budget of 1 "
            rf"exhausted after \d+ iterations while factoring {n}$"
        )):
            pi_set(f, g, max_rho_iterations=1)
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
        from knotsig.modp import _divrem, _monic, gcd_mod_p

        for p, w in entry.witnesses:
            monic = _monic(w.coeffs, p)
            assert is_symmetric_mod_p(PolyModP(p, monic))
            d = gcd_mod_p(PolyModP.from_int_poly(f1, p), PolyModP.from_int_poly(f2, p))
            assert not _divrem(d.coeffs, monic, p)[1]

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
    factors themselves (`oracles.pair_facts_on_lifts`), at every p dividing
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
    """A witness depends on the prime and the gcd mod p of the pair alone,
    so it is computed once per (gcd mod p, seed), whichever pair shares
    that gcd."""

    def test_one_factorization_per_gcd_mod_p(self, calls):
        """The factors of P from Delta_a, a in {0, 2, ..., 10}, are
        congruent mod 2, so their 15 pairs share one gcd mod 2; the 19
        (pair, prime) entries have 5 distinct gcds mod p."""
        factors = (delta_to_p(make_delta_a(a)) for a in range(0, 12, 2))
        fs = standing_assumptions(math.prod(factors, start=IntPoly.one()))
        counts = calls("modp.factor_mod_p")
        group, table = obstruction_group(fs)
        assert group.rank == 0
        assert sum(len(entry.primes) for entry in table) == 19
        assert counts["modp.factor_mod_p"] == 5

    def test_memo_key_includes_the_seed(self, calls, f1, f2):
        counts = calls("modp.factor_mod_p")
        entries = [pi_set(f1, f2, seed=seed) for seed in (0, 1, 0)]
        assert entries[0] == entries[1] == entries[2]
        assert counts["modp.factor_mod_p"] == 2
        assert _symmetric_witness.cache_info()[:2] == (0, 2)
