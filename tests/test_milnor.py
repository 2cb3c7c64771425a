"""Milnor assignment enumeration and its closed-form count."""

from __future__ import annotations

from math import comb

import pytest

from knotsig import (
    delta_to_p,
    enumerate_sign_tuples,
    expected_count,
    parse_poly,
    rho_p,
)
from knotsig.milnor import first_assignment


class TestEnumeration:
    def test_forced_all_plus(self):
        assert enumerate_sign_tuples(4, 8) == [(2, 2, 2, 2)]

    def test_six_ways_to_zero(self):
        tuples = enumerate_sign_tuples(4, 0)
        assert len(tuples) == 6
        assert all(sum(t) == 0 for t in tuples)
        assert len(set(tuples)) == 6

    def test_overshoot_empty(self):
        assert enumerate_sign_tuples(2, 8) == []

    def test_parity_empty(self):
        assert enumerate_sign_tuples(4, 2) == []
        assert enumerate_sign_tuples(3, 0) == []

    def test_counts_match_binomial_exhaustively(self):
        for k in range(0, 7):  # rho = 2k up to 12
            for s in range(-2 * k - 4, 2 * k + 5):
                tuples = enumerate_sign_tuples(k, s)
                assert len(tuples) == expected_count(2 * k, s)
                for t in tuples:
                    assert sum(t) == s and all(v in (-2, 2) for v in t)
                if (s + 2 * k) % 4 == 0 and abs(s) <= 2 * k:
                    assert len(tuples) == comb(k, (s + 2 * k) // 4)

    def test_deterministic_first_element(self):
        tuples = enumerate_sign_tuples(4, 0)
        assert tuples[0] == (2, 2, -2, -2)

    def test_first_assignment_is_the_first_tuple(self):
        """The witness a REALIZABLE report lists is the family's first
        member, for every nonempty family with k <= 10."""
        checked = 0
        for k in range(11):
            for s in range(-2 * k, 2 * k + 1):
                tuples = enumerate_sign_tuples(k, s)
                if tuples:
                    assert first_assignment(k, s) == list(tuples[0])
                    checked += 1
        assert checked == sum(k + 1 for k in range(11))


class TestNonempty:
    """The family is nonempty iff |s| <= rho and s = rho (mod 4)."""

    @pytest.mark.parametrize(
        "rho,s,expect",
        [(8, 8, True), (8, 2, False), (6, 0, False), (8, 0, True), (0, 0, True), (4, -4, True)],
    )
    def test_cases(self, rho, s, expect):
        assert (expected_count(rho, s) > 0) is expect

    def test_oracle_equivalence_exhaustive(self):
        for rho in range(0, 13, 2):
            for s in range(-rho - 4, rho + 5):
                assert (expected_count(rho, s) > 0) == (len(enumerate_sign_tuples(rho // 2, s)) > 0)


class TestMilEnum:
    """The family of a P and a target s: ``enumerate_sign_tuples`` on the
    rho_p(P)/2 unit-circle factors of P."""

    def test_on_example_product(self, delta1, delta2):
        p = delta_to_p(delta1 * delta2)
        k = rho_p(p) // 2
        assert 2 * k == 8 and len(enumerate_sign_tuples(k, 0)) == 6
        fam8 = enumerate_sign_tuples(k, 8)
        assert len(fam8) == 1 and fam8[0] == (2, 2, 2, 2)
        assert len(enumerate_sign_tuples(k, 4)) == 4
        assert enumerate_sign_tuples(k, 2) == []
        assert enumerate_sign_tuples(k, 10) == []

    def test_assignments_resum(self, delta1):
        k = rho_p(delta_to_p(delta1)) // 2
        for s in (-4, 0, 4):
            for t in enumerate_sign_tuples(k, s):
                assert sum(t) == s

    def test_no_factors(self):
        k = rho_p(parse_poly("x^2 - x - 2")) // 2
        fam = enumerate_sign_tuples(k, 0)
        assert 2 * k == 0 and len(fam) == 1
        assert fam[0] == ()
