"""The full-degree oracle of `factor_z`.

At run time `factor_z` checks the factor set of a symmetric P by one
product at half degree: content * prod q^e = Q for its v-model Q (proof at
`zfactor.factor_z`).  Here the product at full degree is taken instead, on
every factor set of the corpora below: it must be P, each lift kept whole
must be its v-model composed with X^2 - X, and a factorization with every
memo warm must equal the cold one, v-models included.

Corpora: products of k <= 6 distinct in-scope Delta_a (each one with
k <= 2, a seeded sample of each larger k), a copy of the 20 products of
perfbench's `factor_heavy` corpus (corpus seed 0), the companions of the
ten Brieskorn-Pham forms, and drawn symmetric products with split lifts,
contents and multiplicities.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings

from knotsig import IntPoly, alexander_of_form, delta_to_p, factor_z, memos
from knotsig.zfactor import FactorizationZ
from conftest import IN_SCOPE_A, make_delta_a
from test_brieskorn import TUPLES, brieskorn_pham
from test_zfactor import V, symmetric_products

# the a values of perfbench's factor_heavy requests at corpus seed 0
FACTOR_HEAVY = (
    (-8, -7, -2, 7), (1, 2, 4, 8, 9), (-6, -5, 0, 3, 6, 10), (-7, -4, 2, 5, 8),
    (-6, -2, 4, 6), (-8, 1, 3, 7, 10), (-5, 0, 1, 2, 9, 10), (-7, -6, -4, 3, 7),
    (-2, 5, 6, 8), (-8, -5, 0, 4, 9), (-7, -4, 3, 5, 6, 7), (-6, -2, 1, 2, 8),
    (-5, 1, 2, 10), (-7, -2, 7, 8, 9), (-8, -4, 3, 4, 5, 6), (-6, 0, 1, 7, 10),
    (-4, -2, 4, 6), (-5, 2, 3, 5, 9), (-8, -7, -6, 4, 5, 8), (-2, 1, 3, 7, 9),
)
SAMPLE_PER_K = 60


def delta_a_p(a_values) -> IntPoly:
    return delta_to_p(reduce(lambda x, y: x * y, (make_delta_a(a) for a in a_values)))


def brieskorn_p(exponents) -> IntPoly:
    delta = alexander_of_form(brieskorn_pham(exponents))
    if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
        delta = -delta
    return delta_to_p(delta)


def check_full_degree(P: IntPoly, fz: FactorizationZ) -> None:
    assert fz.product() == P
    factors = dict(fz.factors)
    for lifted, q in fz.models.items():
        assert lifted in factors and q.compose(V) == lifted


def check_cold_and_warm(polys: list[IntPoly]) -> None:
    """Each P factored with every memo empty, then all of them in turn
    twice with the memos kept: the second pass finds every factor known."""
    cold = []
    for P in polys:
        memos.clear()
        cold.append(factor_z(P))
        check_full_degree(P, cold[-1])
    for _ in range(2):
        for P, expected in zip(polys, cold):
            warm = factor_z(P)
            check_full_degree(P, warm)
            assert warm == expected and warm.models == expected.models


@pytest.mark.parametrize("k", range(1, 7))
def test_delta_a_products(k):
    combos = list(itertools.combinations(IN_SCOPE_A, k))
    if len(combos) > SAMPLE_PER_K * 3:
        combos = random.Random(k).sample(combos, SAMPLE_PER_K)
    check_cold_and_warm([delta_a_p(c) for c in combos])


def test_factor_heavy_corpus():
    polys = [delta_a_p(a_values) for a_values in FACTOR_HEAVY]
    assert sorted(int(P.degree) for P in polys) == [24] * 5 + [30] * 10 + [36] * 5
    check_cold_and_warm(polys)


def test_brieskorn_pham_forms():
    polys = [brieskorn_p(exponents) for exponents in TUPLES]
    check_cold_and_warm(polys)
    assert all(factor_z(P).models for P in polys)  # every lift certified


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_products())
def test_drawn_symmetric_products(P):
    check_cold_and_warm([P])
