"""Integer factorization: trial division, then Brent-cycle Pollard rho.

Deterministic for a fixed seed; inputs are desk-scale resultants, so the
rho stage carries an iteration budget that raises instead of stalling.
Before rho, a composite cofactor that is a perfect square m = r^2
(`math.isqrt`) is replaced by r twice: rho would otherwise have to split
a square p^2 of a large prime p, which it finds only after about p^(1/2)
iterations.

Primality is Miller-Rabin on the first 13 primes as bases, which is
exact below `MR_EXACT_BOUND` = 3317044064679887385961981, the least
composite that passes all 13 (1287836182261 * 2575672364521).  A
cofactor that passes them at or above that bound is not certified:
`integer_factor` refuses it with `BudgetExceededError` rather than
report a composite as a prime.
"""

from __future__ import annotations

import math
import random

from .errors import BudgetExceededError

TRIAL_LIMIT = 10_000

# Deterministic Miller-Rabin witness set, exact for n < MR_EXACT_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set: exact for n < MR_EXACT_BOUND,
    a probable-prime test at or above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _spend(budget: list[int], steps: int, n: int) -> None:
    """Count ``steps`` rho iterations against ``budget`` = [spent, limit]."""
    budget[0] += steps
    if budget[0] > budget[1]:
        raise BudgetExceededError(
            f"rho iteration budget of {budget[1]} exhausted after {budget[0]} iterations"
            f" while factoring {n}"
        )


def _brent_rho(n: int, rng: random.Random, budget: list[int]) -> int:
    """A nontrivial factor of odd composite n, or raises on budget."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                _spend(budget, min(m, r - k), n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                _spend(budget, 1, n)
        if g != n:
            return g
        # cycle degenerated; retry with new parameters


def integer_factor(
    n: int, seed: int = 0, max_rho_iterations: int = 1_000_000
) -> list[int]:
    """Sorted prime factorization of ``|n|`` (with multiplicity).

    ``integer_factor(1)`` and ``integer_factor(-1)`` return ``[]``.
    Raises :class:`BudgetExceededError` when the rho stage exceeds its
    iteration budget, or when a cofactor passes Miller-Rabin at or above
    ``MR_EXACT_BOUND``, where passing does not prove it prime.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    primes: list[int] = []
    for p in range(2, TRIAL_LIMIT + 1):
        if p * p > n:
            break
        while n % p == 0:
            primes.append(p)
            n //= p
    if n == 1:
        return primes
    rng = random.Random(seed)
    budget = [0, max_rho_iterations]
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            if m >= MR_EXACT_BOUND:
                raise BudgetExceededError(
                    f"primality of {m} is not certified: Miller-Rabin is exact"
                    f" only below {MR_EXACT_BOUND}"
                )
            primes.append(m)
            continue
        r = math.isqrt(m)
        d = r if r * r == m else _brent_rho(m, rng, budget)
        stack.append(d)
        stack.append(m // d)
    primes.sort()
    return primes
