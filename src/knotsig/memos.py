"""The process-wide memos of the package and their one policy.

A memo is keyed on mathematical input alone (a polynomial, a polynomial
mod p or an integer matrix), evicts the least recently used entry first
past its bound and never memoizes an exception: a budget that runs out,
or a check that fails, raises again on every request.  No answer depends
on what a memo holds.  PER_INPUT bounds the memos keyed on a whole input,
PER_FACTOR = 16 * PER_INPUT those keyed on a part of one: PER_INPUT
entries of the largest benchmark Delta (6 factors, 15 pairs) hold 384
factors and 960 pairs, so 16 parts per input leave room for both.
The size of one entry (tracemalloc):

    memo                            key                    bound       entry
    pipeline._delta_facts           Delta                  PER_INPUT   15 KB, degree 36 with its table
    seifert._form_facts             form A                 PER_INPUT   8 KB, 12 x 12, every field
    seifert._lattice_facts          lattice S = A + A^T    PER_INPUT   4 / 3 / 7 KB, E8 / +H / +H+H
    zfactor._known_factors          irreducible factor     PER_FACTOR  350 B, degree 6, q and |q(16)|
    zfactor._lift_facts             v-model factor q       PER_FACTOR  380 B, degree 3, lift and rho
    obstruction._pair_primes        v-models (F, G)        PER_FACTOR  570 B, models not counted
    obstruction._symmetric_witness  gcd D of F, G mod p    PER_FACTOR  510 B, D included

So full memos hold about 1 MB of Delta facts and 0.5 MB of form facts.
"""

from functools import lru_cache

PER_INPUT = 64
PER_FACTOR = 16 * PER_INPUT
MEMOS: list = []


def register(obj):
    """Enter ``obj``, which has a ``cache_clear`` method, in MEMOS."""
    MEMOS.append(obj)
    return obj


def memo(bound: int):
    """Decorator: ``lru_cache(maxsize=bound)``, registered."""
    return lambda fn: register(lru_cache(maxsize=bound)(fn))


def clear() -> None:
    for obj in MEMOS:
        obj.cache_clear()
