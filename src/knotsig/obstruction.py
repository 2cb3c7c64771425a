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
symmetric common factor of degree >= 2.  A candidate that fails (deg D < 1)
is an internal error, never a smaller prime set.

The witness is taken at half degree too, from the distinct monic
irreducible factors h of D mod p (`modp._irreducible_factors`), and
equals the one that `modp.symmetric_common_factor(d, d)` finds: the
expansion of the first irreducible factor of d, by (degree,
coefficients), that qualifies.
Distinct h have coprime lifts h(X^2 - X), so the irreducible factors of d
are exactly those of the lifts, and every one of them qualifies: one that
X -> 1-X does not fix has its image in d, as d is fixed; a fixed one has
even degree (its roots pair off as r, 1 - r), except X - 1/2, which
enters d squared.  So the witness is the expansion of d's smallest
factor, and that expansion is the lift of the h it divides.  For h other
than Y + 1/4, the roots of the lift are the two roots x, 1 - x of
X^2 - X = y for each root y of h, and they differ.  So the lift either
splits, when X^2 - X - y has a root in F_p[y]/h (`modp._lifts_split`),
into h(X^2 - X) = q q~ with q != q~ of degree deg h (a power of
Frobenius taking x to 1 - x fixes y, so fixes x, and x = 1/2 would make
h = Y + 1/4), or is irreducible; Y + 1/4 (p odd) lifts to (X - 1/2)^2.
Its smallest factor thus has degree deg h, 2 deg h or 1, and the witness
is the lift of an h that reaches the least such degree.  A tie between
several such h is broken by the smallest irreducible factor of each lift
(`modp._irreducible_factors`), by (degree, coefficients), and only a tie
factors a lift.  With one h, the common case (D = F mod p whenever
p | a - b for the factors of P from Delta_a and Delta_b), the witness is
h(X^2 - X) at once.

A pair's primes and witnesses depend on the two factors alone, not on the
Delta they came from, so :func:`_pair_primes` memoizes them per (F, G),
and its callers attach the request's indices; distinct pairs share D, so
:func:`_symmetric_witness` memoizes the witness per D (see `memos`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, KnotsigError
from .intfactor import integer_factor
from .memos import PER_FACTOR, memo
from .modp import PolyModP, _gcd, _irreducible_factors, _lifts_split, _reduced
from .polys import X2_MINUS_X, IntPoly, resultant
from .zfactor import SymmetricFactorSet, v_model


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
    g = G(X^2 - X), read off their v-models F, G at half degree (module
    docstring), and one witness per prime; memoized."""
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
        witnesses.append((p, _symmetric_witness(PolyModP(p, D))))
    return tuple(support), tuple(witnesses)


@memo(PER_FACTOR)
def _symmetric_witness(D: PolyModP) -> PolyModP:
    """The witness of `modp.symmetric_common_factor(d, d)` for
    d = D(X^2 - X), D a pair's monic gcd of v-models mod p, nonconstant
    by the time it is called (:func:`_pair_primes` checks it): the lift of
    the irreducible factor h of D whose lift has the smallest factor
    (module docstring); memoized."""
    p = D.p
    hs = _irreducible_factors(D.coeffs, p)
    if len(hs) > 1:
        degrees = [_least_degree(h, p) for h in hs]
        m = min(degrees)
        hs = [h for h, k in zip(hs, degrees) if k == m]
        if len(hs) > 1:
            hs = [min(hs, key=lambda h: min((len(g), g) for g in _irreducible_factors(_lift(h, p), p)))]
    return PolyModP(p, _lift(hs[0], p))


def _lift(h: list[int], p: int) -> list[int]:
    """h(X^2 - X) mod p."""
    return _reduced(IntPoly(h).compose(X2_MINUS_X).coeffs, p)


def _is_quarter(h: list[int], p: int) -> bool:
    """Whether h is Y + 1/4, which lifts to (X - 1/2)^2; never for p = 2."""
    return len(h) == 2 and 4 * h[0] % p == 1


def _least_degree(h: list[int], p: int) -> int:
    """The degree of the smallest irreducible factor of h(X^2 - X) mod p,
    for h monic irreducible."""
    k = len(h) - 1
    if _is_quarter(h, p):
        return 1
    return k if _lifts_split(h, k, p) else 2 * k


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
