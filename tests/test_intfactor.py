"""Integer factorization: trial division + Pollard rho from a fixed seed."""

from __future__ import annotations

import math
import random

import pytest

from knotsig import BudgetExceededError, integer_factor, intfactor, is_probable_prime
from reference import trial_division


def test_small_examples():
    assert integer_factor(12) == [2, 2, 3]
    assert integer_factor(1) == []
    assert integer_factor(-1) == []
    assert integer_factor(-30) == [2, 3, 5]


def test_zero_rejected():
    with pytest.raises(ValueError):
        integer_factor(0)


def test_product_identity_random():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fac = integer_factor(n)
        assert math.prod(fac) == n
        assert all(is_probable_prime(p) for p in fac)


def test_matches_trial_division():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(2, 10**7)
        assert integer_factor(n) == sorted(trial_division(n))


def test_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert integer_factor(p * q) == [p, q]


def test_example_resultant_support(f1, f2):
    from knotsig import resultant

    res = resultant(f1, f2)
    fac = integer_factor(res)
    assert 2 in fac
    assert fac == sorted(trial_division(res))


def test_deterministic_for_fixed_seed():
    n = 1_000_003 * 999_983 * 4
    assert integer_factor(n) == integer_factor(n)


def test_budget_raises(monkeypatch):
    # two large primes with an unusably small rho budget
    p = 2**61 - 1
    q = 2**89 - 1
    monkeypatch.setattr(intfactor, "RHO_BUDGET", 5)
    with pytest.raises(BudgetExceededError, match=r"rho iteration budget of 5 exhausted after "
                       rf"\d+ iterations while factoring {p * q}$"):
        integer_factor(p * q)


def test_square_cofactor_needs_no_rho(monkeypatch):
    """A resultant of two symmetric factors is a square: a square of a
    prime beyond trial division is split by its integer square root,
    before any rho iteration, and so is the square of a semiprime."""
    n = 1_000_003 * 999_983
    assert integer_factor(4 * n * n) == [2, 2, 999_983, 999_983, 1_000_003, 1_000_003]
    monkeypatch.setattr(intfactor, "RHO_BUDGET", 0)
    p = 35_184_372_088_891
    assert integer_factor(p * p) == [p, p]


def test_no_prime_is_reported_beyond_the_miller_rabin_bound(monkeypatch):
    """Below MR_EXACT_BOUND the 13-base test is exact; the bound itself is
    a strong pseudoprime to all 13 bases, and integer_factor refuses it,
    alone or as the square root of a square cofactor."""
    from knotsig.intfactor import MR_EXACT_BOUND

    n = MR_EXACT_BOUND
    assert n == 1_287_836_182_261 * 2_575_672_364_521
    assert is_probable_prime(n)
    for m in (n, n * n, 6 * n * n):
        with pytest.raises(BudgetExceededError, match=f"primality of {n} is not certified"):
            integer_factor(m)
    p = 3_317_044_064_679_887_385_961_813  # the largest prime below the bound
    monkeypatch.setattr(intfactor, "RHO_BUDGET", 0)
    assert integer_factor(4 * p * p) == [2, 2, p, p]


def test_trial_division_that_stops_early_needs_no_miller_rabin(monkeypatch):
    """Trial division that stops at p^2 > n leaves 1 or a prime: the
    factorizations of 1..20,000, all below TRIAL_LIMIT^2, equal unbounded
    trial division, with no Random built and no Miller-Rabin test run."""

    def refuse(*args):
        raise AssertionError("not needed below TRIAL_LIMIT^2")

    monkeypatch.setattr(intfactor, "Random", refuse)
    monkeypatch.setattr(intfactor, "is_probable_prime", refuse)
    for n in range(1, 20_001):
        assert integer_factor(n) == trial_division(n)
