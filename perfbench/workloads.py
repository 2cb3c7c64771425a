"""Seeded input generators for the three benchmark workloads.

Every operation is a JSON-ready dict, and ``operations(workload, seed,
count)`` gives the same list for the same arguments, so each of a run's
fresh worker interpreters rebuilds exactly the same requests.  Nothing
here imports knotsig: the program sees only the generated inputs.

Operation kinds:
  ``analyze``      {"delta": [...], "m": m, "s": s}
  ``analyze_tau``  {"delta": [...], "m": m, "tau": [...]}
  ``seifert``      {"form": [[...]], "lattice": name, "signature": sig}

Each operation also carries an ``input`` tag naming how it was built
(``well_formed``, ``squared``, ``perturbed``, ``nonsymmetric``, ``form``),
which the oracles and the tests read and the program never sees.
"""

from __future__ import annotations

import random

# Ascending coefficient lists.  DELTA1 and DELTA2 are worked examples of
# the test suite; delta_a(a) is the family of sextics
# 1 - aX - X^2 + (2a-1)X^3 - X^4 - aX^5 + X^6.  The suite's third example
# G1 is delta_a(3), so it is not listed again.
DELTA1 = (1, 0, -1, 0, 1)
DELTA2 = (3, -2, -1, -2, 3)


def delta_a(a: int) -> tuple[int, ...]:
    return (1, -a, -1, 2 * a - 1, -1, -a, 1)


# Delta_{-1} and Delta_{-3} satisfy the Alexander conditions, but their
# companion P has irreducible factors not fixed by X -> 1-X.
NONSYMMETRIC_A = (-1, -3)
IN_SCOPE_A = tuple(a for a in range(-8, 11) if a not in NONSYMMETRIC_A)

# Unit-circle root count of each in-scope base factor; rho is additive
# over a squarefree product.  The benchmark tests check this table
# against an exact sympy root count.
BASE_FACTORS: dict[str, tuple[int, ...]] = {
    "delta1": DELTA1,
    "delta2": DELTA2,
    **{f"delta_a({a})": delta_a(a) for a in IN_SCOPE_A},
}
BASE_RHO: dict[str, int] = {
    "delta1": 4,
    "delta2": 4,
    **{f"delta_a({a})": (4 if a >= 0 else 0) for a in IN_SCOPE_A},
}


def poly_mul(f, g) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return tuple(out)


def product(polys) -> tuple[int, ...]:
    acc: tuple[int, ...] = (1,)
    for f in polys:
        acc = poly_mul(acc, f)
    return acc


# Every workload sends a fixed corpus of requests, built from CORPUS_SEED;
# --seed sets the order of the requests and, in sweep_small, the
# assignments tau.  Within one size the cost of a request varies by a
# factor of two to three (in sweep_small and factor_heavy it follows how
# P splits modulo the first good prime, in factor_heavy also the target
# s), and the re-multiplication crash hits a few per cent of the Seifert
# forms, each crash taking up to 4 s.  With the few dozen requests a run
# can afford, fresh inputs for every seed made the run-to-run spread
# mostly a matter of which inputs were drawn (10-50 %).  Another corpus
# seed gives requests not seen while the benchmark was tuned.
CORPUS_SEED = 0

# ---------------------------------------------------------------------------
# sweep_small: a user sweeping targets over a few small Alexander polynomials

SWEEP_SIGNATURES = (-12, -8, -4, 0, 4, 8, 12)
SWEEP_M = (3, 7)
SWEEP_TAU_PER_DELTA = 2
SWEEP_MALFORMED_KINDS = ("squared", "perturbed", "nonsymmetric")
# A cycle is five Deltas: well-formed products of 1, 2, 2 and 3 factors,
# then one malformed Delta of the next kind in SWEEP_MALFORMED_KINDS.
# Two-factor Deltas come twice, so that the median request lies inside
# their cost class, not in the gap between two classes.
SWEEP_FACTOR_COUNTS = (1, 2, 2, 3)
SWEEP_DELTAS_PER_CYCLE = len(SWEEP_FACTOR_COUNTS) + 1
SWEEP_OPS_PER_DELTA = len(SWEEP_M) * len(SWEEP_SIGNATURES) + SWEEP_TAU_PER_DELTA


class _Deck:
    """Deals items from successive seeded shuffles of a fixed set, so that
    every item appears about equally often in any stretch of a run."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.cards = tuple(items), rng, []

    def deal(self, k: int) -> list:
        """k distinct items."""
        while len(self.cards) < k:
            fresh = list(self.items)
            self.rng.shuffle(fresh)
            self.cards += [c for c in fresh if c not in self.cards[:k]]
        out, self.cards = self.cards[:k], self.cards[k:]
        return out


def _sweep_delta(rng: random.Random, deck: _Deck, index: int) -> tuple[str, tuple[int, ...], int | None]:
    """The index-th Delta of the sweep: (input tag, coefficients, rho or
    None when malformed)."""
    cycle, slot = divmod(index, SWEEP_DELTAS_PER_CYCLE)
    if slot < len(SWEEP_FACTOR_COUNTS):
        kind, count = "well_formed", SWEEP_FACTOR_COUNTS[slot]
    else:
        kind, count = SWEEP_MALFORMED_KINDS[cycle % len(SWEEP_MALFORMED_KINDS)], rng.randint(1, 3)
    if kind == "nonsymmetric":
        picked = deck.deal(count - 1)
        chosen = [delta_a(rng.choice(NONSYMMETRIC_A))] + [BASE_FACTORS[n] for n in picked]
    elif kind == "squared":
        picked = deck.deal(max(count - 1, 1))
        chosen = [BASE_FACTORS[picked[0]]] * 2 + [BASE_FACTORS[n] for n in picked[1:]]
    else:
        picked = deck.deal(count)
        chosen = [BASE_FACTORS[n] for n in picked]
    delta = product(chosen)
    if kind == "perturbed":
        # keep the palindrome but move Delta(1) off (-1)^n
        deg = len(delta) - 1
        i = rng.randrange(deg // 2)
        bump = rng.choice((-1, 1))
        coeffs = list(delta)
        coeffs[i] += bump
        coeffs[deg - i] += bump
        delta = tuple(coeffs)
    rho = sum(BASE_RHO[n] for n in picked) if kind == "well_formed" else None
    return kind, delta, rho


def sweep_small(seed: int, count: int, corpus_seed: int = CORPUS_SEED) -> list[dict]:
    """Small requests, grouped by Delta: every pair of m and s in the
    sweep, then a few explicit assignments tau.  The Deltas come from
    ``corpus_seed``; ``seed`` sets their order and the assignments."""
    corpus_rng = random.Random(f"sweep_small:corpus:{corpus_seed}")
    deck = _Deck(sorted(BASE_FACTORS), corpus_rng)
    n_deltas = -(-count // SWEEP_OPS_PER_DELTA)
    deltas = [_sweep_delta(corpus_rng, deck, index) for index in range(n_deltas)]
    rng = random.Random(f"sweep_small:{seed}")
    rng.shuffle(deltas)
    out = []
    for kind, delta, rho in deltas:
        for m in SWEEP_M:
            for s in SWEEP_SIGNATURES:
                out.append({"kind": "analyze", "input": kind, "delta": list(delta), "m": m, "s": s})
        k = (rho or 0) // 2
        for _ in range(SWEEP_TAU_PER_DELTA):
            tau = [rng.choice((-2, 2)) for _ in range(k)]
            out.append({"kind": "analyze_tau", "input": kind, "delta": list(delta), "m": 7, "tau": tau})
    return out[:count]


# ---------------------------------------------------------------------------
# factor_heavy: distinct products of 4-6 in-scope sextics, each analyzed once

# One cycle; k = 5 comes twice, so that half of the requests share one
# size and the median latency does not sit in the gap between two sizes.
HEAVY_K = (4, 5, 6, 5)
HEAVY_SIGNATURES = (-16, -8, 0, 8, 16)


def heavy_requests(corpus_seed: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """The first ``count`` (a values, s) pairs: k cycling through HEAVY_K,
    the a values dealt from a deck of the in-scope set (so every a appears
    about equally often), each product new, s drawn from
    HEAVY_SIGNATURES."""
    rng = random.Random(f"factor_heavy:products:{corpus_seed}")
    deck = _Deck(IN_SCOPE_A, rng)
    out: list[tuple[tuple[int, ...], int]] = []
    for index in range(count):
        k = HEAVY_K[index % len(HEAVY_K)]
        chosen = tuple(sorted(deck.deal(k)))
        while any(chosen == a for a, _ in out):
            chosen = tuple(sorted(deck.deal(k)))
        out.append((chosen, rng.choice(HEAVY_SIGNATURES)))
    return out


def factor_heavy(seed: int, count: int, corpus_seed: int = CORPUS_SEED) -> list[dict]:
    """Products of k = 4, 5, 6 distinct Delta_a, each analyzed once with
    m = 7, in a seeded order."""
    requests = heavy_requests(corpus_seed, count)
    random.Random(f"factor_heavy:{seed}").shuffle(requests)
    return [{"kind": "analyze", "input": "well_formed", "delta": list(product(delta_a(a) for a in chosen)),
             "m": 7, "s": s, "a_values": list(chosen)}
            for chosen, s in requests]


# ---------------------------------------------------------------------------
# seifert_forms: the toolkit path on seeded Seifert forms


def e8_gram() -> tuple[tuple[int, ...], ...]:
    edges = {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    return tuple(
        tuple(2 if i == j else (-1 if (min(i, j), max(i, j)) in edges else 0) for j in range(8))
        for i in range(8)
    )


HYPERBOLIC = ((0, 1), (1, 0))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, c in enumerate(row):
                out[off + i][off + j] = c
        off += len(b)
    return tuple(tuple(row) for row in out)


# name -> (Gram matrix S, signature of S)
LATTICES = {
    "E8": (e8_gram(), 8),
    "E8+H": (block_diag(e8_gram(), HYPERBOLIC), 8),
    "E8+H+H": (block_diag(e8_gram(), HYPERBOLIC, HYPERBOLIC), 8),
}
# One cycle; E8+H comes twice, for the same reason as in HEAVY_K.
SEIFERT_CYCLE = ("E8", "E8+H", "E8+H+H", "E8+H")
SKEW_ENTRIES = (-2, -1, 1, 2)
SKEW_DENSITY = 0.25


def half_form(gram) -> list[list[int]]:
    n = len(gram)
    return [[gram[i][i] // 2 if i == j else (gram[i][j] if j > i else 0) for j in range(n)]
            for i in range(n)]


def int_det(rows) -> int:
    """Fraction-free Bareiss determinant."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def seifert_forms(seed: int, count: int, corpus_seed: int = CORPUS_SEED) -> list[dict]:
    """Forms A = half_form(S) + K, with S cycling through SEIFERT_CYCLE and
    K skew with a quarter of its entries above the diagonal set to +-1 or
    +-2, drawn from ``corpus_seed``, in an order set by ``seed``.
    A + A^T = S for every K; a draw with det A = 0 (no injective
    companion) is drawn again."""
    corpus_rng = random.Random(f"seifert_forms:{corpus_seed}")
    out = []
    for index in range(count):
        name = SEIFERT_CYCLE[index % len(SEIFERT_CYCLE)]
        gram, sig = LATTICES[name]
        n = len(gram)
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while True:
            form = half_form(gram)
            for i, j in corpus_rng.sample(slots, round(SKEW_DENSITY * len(slots))):
                c = corpus_rng.choice(SKEW_ENTRIES)
                form[i][j] += c
                form[j][i] -= c
            if int_det(form) != 0:
                break
        out.append({"kind": "seifert", "input": "form", "form": form, "lattice": name, "signature": sig})
    random.Random(f"seifert_forms:order:{seed}").shuffle(out)
    return out


WORKLOADS = ("sweep_small", "factor_heavy", "seifert_forms")

# Requests per cycle of each workload: every cycle has the same mix of
# input kinds and sizes, and a run is a whole number of cycles.
CYCLE_OPS = {
    "sweep_small": SWEEP_DELTAS_PER_CYCLE * SWEEP_OPS_PER_DELTA,
    "factor_heavy": len(HEAVY_K),
    "seifert_forms": len(SEIFERT_CYCLE),
}


def operations(workload: str, seed: int, count: int, corpus_seed: int = CORPUS_SEED) -> list[dict]:
    """The first ``count`` requests of a workload for a seed."""
    if workload == "sweep_small":
        return sweep_small(seed, count, corpus_seed)
    if workload == "factor_heavy":
        return factor_heavy(seed, count, corpus_seed)
    if workload == "seifert_forms":
        return seifert_forms(seed, count, corpus_seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
