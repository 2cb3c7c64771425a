"""Per-pair prime sets, the linkage graph on the factor set, and the
obstruction group.

For distinct monic symmetric irreducible factors f, g of P, the candidate
primes are exactly the prime support of Res(f, g) (a common factor mod p of
two monic integer polynomials forces p to divide the resultant); each
candidate is then tested for a symmetric common factor mod p.  Linking
factors whose prime set is nonempty partitions the factor set; the
obstruction group is elementary abelian of rank (components - 1).

Every candidate passes the test.  Write f = F(X^2 - X), g = G(X^2 - X),
F and G the monic v-models.  Over F_p a Bezout identity for D = gcd(F, G)
in F_p[V], V = X^2 - X, gives d = gcd(f, g) = D(X^2 - X) mod p; g is
G(theta) at both roots of X^2 - X - theta, so Res(f, g) = Res(F, G)^2.
So at a candidate p, deg D >= 1 and d, fixed by X -> 1-X, is itself a
symmetric common factor of degree >= 2, and it is the prime's witness.  A
candidate that fails (deg D < 1) is an internal error, never a smaller
prime set.

A pair's primes and witnesses depend on the two factors alone, not on the
Delta they came from, so :func:`_pair_primes` memoizes them per (F, G),
and its callers attach the request's indices (see `memos`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, KnotsigError
from .intfactor import integer_factor
from .memos import PER_FACTOR, memo
from .modp import PolyModP, _gcd, _reduced
from .polys import IntPoly, resultant
from .zfactor import SymmetricFactorSet, v_model


@dataclass(frozen=True)
class PiEntry:
    """Primes where the two factors share a symmetric factor mod p, with
    one witness per prime: the pair's gcd mod p (module docstring)."""

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
def pi_set(f: IntPoly, g: IntPoly) -> PiEntry:
    """All primes p such that f mod p and g mod p have a common factor h
    with h(1-X) = h(X) and deg h >= 1, as the entry of the pair (0, 1)."""
    if f == g:
        raise ValueError("the prime set is defined for distinct factors")
    models = []
    for q in (f, g):
        if not q.is_monic:
            raise ValueError(f"factor {q} is not monic")
        models.append(v_model(q))
        if models[-1] is None:
            raise ValueError(f"factor {q} is not fixed by X -> 1-X")
    return PiEntry((0, 1), *_pair_primes(*models))


@memo(PER_FACTOR)
def _pair_primes(F: IntPoly, G: IntPoly) -> tuple[tuple[int, ...], tuple[tuple[int, PolyModP], ...]]:
    """The prime set of two distinct monic factors f = F(X^2 - X),
    g = G(X^2 - X), read off their v-models F, G at half degree, and at
    each prime p the witness gcd(f, g) = D(X^2 - X) mod p, the lift of
    D = gcd(F, G) mod p (module docstring); memoized."""
    res = resultant(F, G)
    if abs(res) == 1:
        return (), ()
    try:
        support = sorted(set(integer_factor(res)))
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"candidate prime set incomplete: resultant {res * res} resisted factorization: {exc}"
        ) from exc
    witnesses: list[tuple[int, PolyModP]] = []
    for p in support:
        D = _gcd(_reduced(F.coeffs, p), _reduced(G.coeffs, p), p)
        if len(D) < 2:
            raise KnotsigError(f"internal error: no symmetric common factor mod {p} | Res(f, g)")
        # d = D(X^2 - X) by Horner, d <- d * (X^2 - X) + c, on plain lists:
        # 2 us per cubic D against 6 by IntPoly.compose, which the median
        # factor_heavy request, with about 8 primes, would feel
        d = [D[-1]]
        for c in D[-2::-1]:
            d = [c, -d[0], *[d[i - 1] - d[i] for i in range(1, len(d))], d[-1]]
        witnesses.append((p, PolyModP(p, d)))
    return tuple(support), tuple(witnesses)


def obstruction_group(factor_set: SymmetricFactorSet) -> tuple[ObstructionGroup, list[PiEntry]]:
    """Compute every pairwise prime set, link factors with nonempty sets,
    and return the component partition with the group rank."""
    if not factor_set.squarefree:
        raise ValueError("obstruction group needs a squarefree P")
    if not factor_set.all_symmetric:
        raise ValueError("obstruction group needs all factors monic and symmetric")
    models = factor_set.models
    k = len(models)
    table: list[PiEntry] = []
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            entry = PiEntry((i, j), *_pair_primes(models[i], models[j]))
            table.append(entry)
            if entry.primes:
                parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(k):
        classes.setdefault(find(i), []).append(i)
    components = tuple(sorted(tuple(sorted(c)) for c in classes.values()))
    rank = max(len(components) - 1, 0)
    return ObstructionGroup(components=components, rank=rank), table
