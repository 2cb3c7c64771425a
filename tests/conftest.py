"""Shared fixtures: the worked example polynomials and matrices."""

from __future__ import annotations

import pytest

from knotsig import IntPoly, RatPoly, delta_to_p, e8_gram, half_form, parse_poly


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


@pytest.fixture
def divrem_calls(monkeypatch) -> list[int]:
    """Counts calls of RatPoly.divrem, the rational long division behind
    ``%``, ``//`` and ``rat_gcd``, during the test; read element 0."""
    calls = [0]
    original = RatPoly.divrem

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(RatPoly, "divrem", counting)
    return calls


@pytest.fixture(scope="session")
def e8():
    return e8_gram()


@pytest.fixture(scope="session")
def e8_half(e8):
    return half_form(e8)
