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
symmetric common factor of degree >= 2.  Resultant and gcd are taken at
half degree; the real work is the witness, which depends on (p, d) alone.

A pair's primes and witnesses depend on the two factors alone, not on the
Delta they came from, so :func:`_pair_primes` memoizes them per process,
keyed on (F, G, seed, max_rho_iterations), for at most
`zfactor.FACTOR_FACTS_MEMO` = 1024 entries, least recently used first
out; its callers attach the request's indices.  One entry of a
benchmark pair holds about 570 B (tracemalloc, the models themselves
not counted).  Distinct pairs share d: the factors of P from Delta_a
and Delta_b are congruent mod p whenever p | a - b.  So
:func:`_symmetric_witness` memoizes the witness keyed on (d, seed), for
at most `zfactor.FACTOR_FACTS_MEMO` entries, about 560 B each
(tracemalloc, d included).  Exceptions are never memoized: a rho budget
that runs out raises again on every request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError
from .intfactor import integer_factor
from .modp import PolyModP, _gcd, _reduced, symmetric_common_factor
from .polys import IntPoly, resultant
from .zfactor import _V, FACTOR_FACTS_MEMO, SymmetricFactorSet, v_model

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
    models = []
    for q in (f, g):
        if not q.is_monic:
            raise ValueError(f"factor {q} is not monic")
        models.append(v_model(q))
        if models[-1] is None:
            raise ValueError(f"factor {q} is not fixed by X -> 1-X")
    return PiEntry(indices, *_pair_primes(*models, seed, max_rho_iterations))


@lru_cache(maxsize=FACTOR_FACTS_MEMO)
def _pair_primes(
    F: IntPoly, G: IntPoly, seed: int, max_rho_iterations: int
) -> tuple[tuple[int, ...], tuple[tuple[int, PolyModP], ...]]:
    """The prime set of two distinct monic factors f = F(X^2 - X),
    g = G(X^2 - X), read off their v-models F, G at half degree (module
    docstring), and one witness per prime; memoized."""
    res = resultant(F, G)
    if abs(res) == 1:
        return (), ()
    try:
        support = sorted(set(integer_factor(res, seed, max_rho_iterations)))
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"candidate prime set incomplete: resultant {res * res} resisted factorization: {exc}"
        ) from exc
    primes: list[int] = []
    witnesses: list[tuple[int, PolyModP]] = []
    for p in support:
        D = _gcd(_reduced(F.coeffs, p), _reduced(G.coeffs, p), p)
        ok, w = _symmetric_witness(PolyModP(p, IntPoly(D).compose(_V).coeffs), seed)
        if ok:
            primes.append(p)
            witnesses.append((p, w))
    return tuple(primes), tuple(witnesses)


@lru_cache(maxsize=FACTOR_FACTS_MEMO)
def _symmetric_witness(d: PolyModP, seed: int) -> tuple[bool, PolyModP | None]:
    """The decision and witness of `modp.symmetric_common_factor` for a
    pair whose monic gcd mod p is d, which is all they depend on
    (gcd(d, d) = d); memoized."""
    return symmetric_common_factor(d, d, seed)


def obstruction_group(
    factor_set: SymmetricFactorSet, seed: int = 0
) -> tuple[ObstructionGroup, list[PiEntry]]:
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
            entry = PiEntry((i, j), *_pair_primes(models[i], models[j], seed, PI_RHO_BUDGET))
            table.append(entry)
            if entry.primes:
                parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(k):
        classes.setdefault(find(i), []).append(i)
    components = tuple(sorted(tuple(sorted(c)) for c in classes.values()))
    rank = max(len(components) - 1, 0)
    return ObstructionGroup(components=components, rank=rank), table
