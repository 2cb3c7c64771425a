"""Shared fixtures: the worked example polynomials and matrices."""

from __future__ import annotations

import importlib
import sys
from collections import Counter

import pytest

from knotsig import IntPoly, delta_to_p, e8_gram, half_form, parse_poly
from knotsig.obstruction import _pair_primes, _symmetric_witness
from knotsig.pipeline import _delta_facts
from knotsig.realroots import _v_chain
from knotsig.seifert import _form_facts, _lattice_facts
from knotsig.zfactor import _known_factors, _lift_certified

# Every memo of the package; test_pipeline.py checks that none is missing.
FACTS_MEMOS = (
    _delta_facts, _form_facts, _known_factors, _lattice_facts, _lift_certified, _pair_primes,
    _symmetric_witness, _v_chain,
)


def clear_facts_memos() -> None:
    for memo in FACTS_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_facts_memos():
    """Every test starts and ends with empty memos of Delta facts, of
    factor and factor-pair facts, of witnesses per gcd of two v-models
    mod p, of known irreducible factors, of Seifert form facts, of
    Seifert lattice facts and of v-model Sturm sequences, so counted and
    monkeypatched stages run in the test that checks them."""
    clear_facts_memos()
    yield
    clear_facts_memos()


@pytest.fixture(scope="session")
def delta1() -> IntPoly:
    return parse_poly("x^4 - x^2 + 1")


@pytest.fixture(scope="session")
def delta2() -> IntPoly:
    return parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")


@pytest.fixture(scope="session")
def f1() -> IntPoly:
    return parse_poly("x^4 - 2*x^3 + 5*x^2 - 4*x + 1")


@pytest.fixture(scope="session")
def f2() -> IntPoly:
    return parse_poly("x^4 - 2*x^3 + 11*x^2 - 10*x + 3")


@pytest.fixture(scope="session")
def g1() -> IntPoly:
    # sextic whose product with delta1 bounds signatures away from +-8
    return parse_poly("x^6 - 3*x^5 - x^4 + 5*x^3 - x^2 - 3*x + 1")


def make_delta_a(a: int) -> IntPoly:
    return IntPoly([1, -a, -1, 2 * a - 1, -1, -a, 1])


# the 17 Delta_a in scope of perfbench's workloads: -8 <= a <= 10, a != -1, -3
IN_SCOPE_A = tuple(a for a in range(-8, 11) if a not in (-1, -3))


@pytest.fixture
def calls(monkeypatch):
    """``calls("polys.is_squarefree_q", ...)`` starts counting the named
    knotsig functions and returns the Counter, keyed by those names; call
    it once per test.

    Like perfbench's tracer, it replaces every attribute of every loaded
    knotsig module that holds the function with a counting wrapper;
    callers look the names up at call time, so the count sees calls from
    other modules and from the defining module's own functions alike."""
    counts: Counter[str] = Counter()

    def track(*names: str) -> Counter[str]:
        modules = [m for n, m in list(sys.modules.items()) if m and n.split(".")[0] == "knotsig"]
        for name in names:
            layer, _, attr = name.partition(".")
            original = getattr(importlib.import_module(f"knotsig.{layer}"), attr)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counting)
        return counts

    return track


@pytest.fixture(scope="session")
def e8():
    return e8_gram()


@pytest.fixture(scope="session")
def e8_half(e8):
    return half_form(e8)
