"""Per-pair prime sets, the linkage graph on the factor set, and the
obstruction group.

For distinct monic symmetric irreducible factors f, g of P, the candidate
primes are exactly the prime support of Res(f, g) (a common factor mod p of
two monic integer polynomials forces p to divide the resultant); each
candidate is then tested for a symmetric common factor mod p.  Linking
factors whose prime set is nonempty partitions the factor set; the
obstruction group is elementary abelian of rank (components - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .intfactor import integer_factor
from .modp import PolyModP, symmetric_common_factor
from .polys import IntPoly, resultant, symmetric_check
from .zfactor import SymmetricFactorSet

PI_RHO_BUDGET = 1_000_000


@dataclass(frozen=True)
class PiEntry:
    """Primes where the two factors share a symmetric factor mod p, with
    one witness polynomial per prime."""

    pair: tuple[int, int]
    primes: tuple[int, ...]
    witnesses: tuple[tuple[int, PolyModP], ...]


@dataclass(frozen=True)
class ObstructionGroup:
    """Partition of the factor indices into linked components; the group is
    (Z/2)^rank with rank = len(components) - 1."""

    components: tuple[tuple[int, ...], ...]
    rank: int


# no caller in knotsig; kept because perfbench/tracing.py traces it
def pi_set(
    f: IntPoly,
    g: IntPoly,
    seed: int = 0,
    indices: tuple[int, int] = (0, 1),
    max_rho_iterations: int = PI_RHO_BUDGET,
) -> PiEntry:
    """All primes p such that f mod p and g mod p have a common factor h
    with h(1-X) = h(X) and deg h >= 1."""
    if f == g:
        raise ValueError("the prime set is defined for distinct factors")
    for q in (f, g):
        if not q.is_monic:
            raise ValueError(f"factor {q} is not monic")
        if not symmetric_check(q):
            raise ValueError(f"factor {q} is not fixed by X -> 1-X")
    return _pi_entry(f, g, seed, indices, max_rho_iterations)


def _pi_entry(
    f: IntPoly,
    g: IntPoly,
    seed: int,
    indices: tuple[int, int],
    max_rho_iterations: int = PI_RHO_BUDGET,
) -> PiEntry:
    """The prime set of two distinct monic factors, each fixed by
    X -> 1-X, which the caller has checked."""
    res = resultant(f, g)
    if abs(res) == 1:
        return PiEntry(pair=indices, primes=(), witnesses=())
    try:
        support = sorted(set(integer_factor(res, seed, max_rho_iterations)))
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"candidate prime set incomplete: resultant {res} resisted factorization: {exc}"
        ) from exc
    primes: list[int] = []
    witnesses: list[tuple[int, PolyModP]] = []
    for p in support:
        ok, w = symmetric_common_factor(
            PolyModP.from_int_poly(f, p), PolyModP.from_int_poly(g, p), seed
        )
        if ok:
            primes.append(p)
            witnesses.append((p, w))
    return PiEntry(pair=indices, primes=tuple(primes), witnesses=tuple(witnesses))


def obstruction_group(
    factor_set: SymmetricFactorSet, seed: int = 0
) -> tuple[ObstructionGroup, list[PiEntry]]:
    """Compute every pairwise prime set, link factors with nonempty sets,
    and return the component partition with the group rank."""
    if not factor_set.squarefree:
        raise ValueError("obstruction group needs a squarefree P")
    if not factor_set.all_symmetric:
        raise ValueError("obstruction group needs all factors monic and symmetric")
    factors = factor_set.factors
    k = len(factors)
    table: list[PiEntry] = []
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            entry = _pi_entry(factors[i], factors[j], seed, (i, j))
            table.append(entry)
            if entry.primes:
                parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(k):
        classes.setdefault(find(i), []).append(i)
    components = tuple(sorted(tuple(sorted(c)) for c in classes.values()))
    rank = max(len(components) - 1, 0)
    return ObstructionGroup(components=components, rank=rank), table
