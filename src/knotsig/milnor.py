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


def _plus_count(k: int, s: int) -> int | None:
    """The number n+ = (s + 2k)/4 of +2 entries of any tuple in {-2,+2}^k
    summing to s, or None when no such tuple exists (s + 2k not divisible
    by 4, or n+ outside 0..k): the one rule the functions below share."""
    n_plus, rem = divmod(s + 2 * k, 4)
    return n_plus if rem == 0 and 0 <= n_plus <= k else None


def enumerate_sign_tuples(k: int, s: int) -> list[tuple[int, ...]]:
    """All tuples in {-2,+2}^k summing to s, ordered by the positions of
    the +2 entries (so the all-plus-first pattern comes first)."""
    if k < 0:
        raise ValueError("need k >= 0 factors")
    n_plus = _plus_count(k, s)
    if n_plus is None:
        return []
    out = []
    for plus_positions in itertools.combinations(range(k), n_plus):
        row = [-2] * k
        for i in plus_positions:
            row[i] = 2
        out.append(tuple(row))
    return out


def first_assignment(k: int, s: int) -> list[int]:
    """``enumerate_sign_tuples(k, s)[0]`` as a list, without enumerating:
    the +2 entries first.  The family must be nonempty, as it is past
    the gates of `pipeline.analyze` (proof there)."""
    n_plus = _plus_count(k, s)
    return [2] * n_plus + [-2] * (k - n_plus)


def expected_count(rho: int, s: int) -> int:
    """Closed form C(k, (s+2k)/4) with k = rho/2, else 0."""
    k = rho // 2
    n_plus = _plus_count(k, s)
    return 0 if n_plus is None else comb(k, n_plus)
