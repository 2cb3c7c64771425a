"""The full-degree oracle of `factor_z`.

At run time `factor_z` checks the factor set of a symmetric P by one
product at half degree: content * prod q^e = Q for its v-model Q (proof at
`zfactor.factor_z`).  Here the product at full degree is taken instead, on
every factor set of the corpora below: it must be P, each lift kept whole
must be its v-model composed with X^2 - X, and a factorization with every
memo warm must equal the cold one, v-models included.

`pipeline._delta_facts` takes no product at all: the factors f of P map
back to factors Delta_f = (-1)^(deg f / 2) rev(f)(1 - X) of Delta by a
multiplicative map (proof there).  Here, for every in-scope Delta the
corpora come from and for every Delta of the census (ROADMAP "Terms"),
the Delta_f must multiply to Delta, each must have the rho of its f, and
these rho must sum to rho(Delta) by the trace model of Delta.

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

from knotsig import IntPoly, alexander_check, alexander_of_form, delta_to_p, factor_z, memos
from knotsig.pipeline import _delta_facts
from knotsig.polys import _p_to_delta
from knotsig.realroots import rho_delta
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


def product(polys) -> IntPoly:
    return reduce(lambda x, y: x * y, polys, IntPoly.one())


def delta_a(a_values) -> IntPoly:
    return product(make_delta_a(a) for a in a_values)


def delta_a_p(a_values) -> IntPoly:
    return delta_to_p(delta_a(a_values))


def brieskorn_delta(exponents) -> IntPoly:
    delta = alexander_of_form(brieskorn_pham(exponents))
    if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
        delta = -delta
    return delta


def brieskorn_p(exponents) -> IntPoly:
    return delta_to_p(brieskorn_delta(exponents))


def census() -> list[IntPoly]:
    """Every palindromic Delta of degree 2n <= 8 with 0 < c_0 and |c_i| <= 4
    for i < n, c_n fixed by Delta(1) = (-1)^n, that passes
    `alexander_check`."""
    out = []
    for n in range(1, 5):
        for head in itertools.product(range(1, 5), *[range(-4, 5)] * (n - 1)):
            delta = IntPoly(head + ((-1) ** n - 2 * sum(head),) + head[::-1])
            rep = alexander_check(delta)
            if rep.cond_reciprocal and rep.cond_at_one and rep.cond_at_minus_one:
                out.append(delta)
    return out


def check_maps_back(delta: IntPoly) -> bool:
    """For an in-scope Delta, the product and the rho that
    `pipeline._delta_facts` does not take (see the module docstring);
    False, with nothing checked, for one out of scope."""
    facts = _delta_facts(delta)
    if facts.reason is not None:
        return False
    mapped = [_p_to_delta(f) for f in facts.factor_set.factors]
    assert product(mapped) == delta
    rhos = [rho_delta(d) for d in mapped]
    assert rhos == list(facts.rhos)
    assert sum(rhos) == rho_delta(delta)
    return True


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
    assert all(check_maps_back(delta_a(c)) for c in combos)


def test_factor_heavy_corpus():
    polys = [delta_a_p(a_values) for a_values in FACTOR_HEAVY]
    assert sorted(int(P.degree) for P in polys) == [24] * 5 + [30] * 10 + [36] * 5
    check_cold_and_warm(polys)
    assert all(check_maps_back(delta_a(a_values)) for a_values in FACTOR_HEAVY)


def test_brieskorn_pham_forms():
    polys = [brieskorn_p(exponents) for exponents in TUPLES]
    check_cold_and_warm(polys)
    assert all(factor_z(P).models for P in polys)  # every lift certified
    assert all(check_maps_back(brieskorn_delta(exponents)) for exponents in TUPLES)


def test_census():
    deltas = census()
    assert len(deltas) == 792
    assert sum(check_maps_back(delta) for delta in deltas) == 748


def test_factors_of_p_must_map_back_to_delta(delta1, delta2):
    """The factors of the P of Delta1 Delta2 map back to Delta1 and Delta2
    themselves: Delta_f(1) = (-1)^(deg f / 2) lc(f) fixes the sign."""
    delta = delta1 * delta2
    assert check_maps_back(delta)
    mapped = {_p_to_delta(f) for f in _delta_facts(delta).factor_set.factors}
    assert mapped == {delta1, delta2}


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_products())
def test_drawn_symmetric_products(P):
    check_cold_and_warm([P])
