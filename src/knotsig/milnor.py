"""Enumeration of Milnor signature assignments.

An assignment gives each unit-circle quadratic factor of P a value in
{-2, +2}, indexed by the sorted order of the v-root intervals; the family
for a target total s collects the assignments summing to s.  With
k = rho(P)/2 factors the family is nonempty iff |s| <= 2k and
s = 2k (mod 4), and then has C(k, (s + 2k)/4) members.
"""

from __future__ import annotations

import itertools
from math import comb


def enumerate_sign_tuples(k: int, s: int) -> list[tuple[int, ...]]:
    """All tuples in {-2,+2}^k summing to s, ordered by the positions of
    the +2 entries (so the all-plus-first pattern comes first)."""
    if k < 0:
        raise ValueError("need k >= 0 factors")
    if (s + 2 * k) % 4 != 0:
        return []
    n_plus = (s + 2 * k) // 4
    if not 0 <= n_plus <= k:
        return []
    out = []
    for plus_positions in itertools.combinations(range(k), n_plus):
        row = [-2] * k
        for i in plus_positions:
            row[i] = 2
        out.append(tuple(row))
    return out


def expected_count(rho: int, s: int) -> int:
    """Closed form C(k, (s+2k)/4) with k = rho/2, else 0."""
    k = rho // 2
    if (s + 2 * k) % 4 != 0:
        return 0
    n_plus = (s + 2 * k) // 4
    if not 0 <= n_plus <= k:
        return 0
    return comb(k, n_plus)


def mil_nonempty(rho: int, s: int) -> bool:
    """True iff |s| <= rho and s = rho (mod 4)."""
    if rho < 0 or rho % 2 != 0:
        raise ValueError("rho must be an even nonnegative integer")
    return abs(s) <= rho and (s - rho) % 4 == 0

