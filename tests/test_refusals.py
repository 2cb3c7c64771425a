"""Documented refusals and outputs that no other test reaches, each with
its message: the CLI's one-of options, content and isometry outputs, the
entry points' target checks, and the input guards of the public helpers."""

from __future__ import annotations

import ast
import json
from fractions import Fraction

import pytest

from knotsig import (
    AnalysisRequest,
    IntPoly,
    PolyModP,
    analyze,
    analyze_tau,
    e8_gram,
    enumerate_sign_tuples,
    factor_z,
    half_form,
    is_probable_prime,
    is_squarefree_q,
    parse_poly,
    signature_exact,
    sturm_count,
    symmetric_common_factor,
)
from knotsig.realroots import IsolatingInterval, sign_at_root
from knotsig.seifert import mat_mul, transpose
from test_cli import run


class TestCli:
    @pytest.mark.parametrize("argv", [
        ("rho",),
        ("rho", "--delta", "x^2 - x + 1", "--p", "x^2 - x + 1"),
    ])
    def test_rho_needs_exactly_one_polynomial(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: rho needs exactly one of --delta or --p\n")

    def test_factor_prints_a_content_other_than_one(self, capsys):
        code, out, _ = run(capsys, "factor", "--poly", "6,4")
        assert (code, out) == (0, "content: 2\n2*x + 3\n")

    def test_seifert_isometry_of_e8(self, capsys):
        """The isometry t of the unimodular E8 form A, with t^T A = -A^T."""
        a = [list(r) for r in half_form(e8_gram())]
        code, out, _ = run(capsys, "seifert", "--matrix", json.dumps(a), "--op", "isometry")
        assert code == 0 and out.startswith("t = ") and out.count("\n") == 1
        t = ast.literal_eval(out[len("t = "):])
        assert out == (
            "t = [[-1, 0, 1, 0, 0, 0, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0], [-1, 0, 0, 1, 0, 0, 0, 0],"
            " [-1, -1, 0, 1, 1, 0, 0, 0], [-1, -1, 0, 1, 0, 1, 0, 0], [-1, -1, 0, 1, 0, 0, 1, 0],"
            " [-1, -1, 0, 1, 0, 0, 0, 1], [-1, -1, 0, 1, 0, 0, 0, 0]]\n"
        )
        minus_a_t = tuple(tuple(-x for x in row) for row in transpose(a))
        assert mat_mul(transpose(t), a) == minus_a_t


class TestEntryPoints:
    @pytest.mark.parametrize("target", [{}, {"signature": 0, "tau": (2, -2)}])
    def test_a_request_has_exactly_one_target(self, delta1, target):
        with pytest.raises(ValueError, match="^provide exactly one of a signature or an assignment tau$"):
            AnalysisRequest(delta=delta1, m=7, **target)

    def test_each_entry_point_refuses_the_other_target(self, delta1):
        with pytest.raises(ValueError, match="^analyze needs a target signature; use analyze_tau for assignments$"):
            analyze(AnalysisRequest(delta=delta1, m=7, tau=(2, -2)))
        with pytest.raises(ValueError, match="^analyze_tau needs an assignment tau$"):
            analyze_tau(AnalysisRequest(delta=delta1, m=7, signature=0))


class TestGuards:
    def test_negative_factor_count(self):
        with pytest.raises(ValueError, match="^need k >= 0 factors$"):
            enumerate_sign_tuples(-1, 0)

    @pytest.mark.parametrize("n", [1, 0, -7])
    def test_no_prime_below_two(self, n):
        assert is_probable_prime(n) is False

    def test_symmetric_common_factor_of_zero(self):
        with pytest.raises(ValueError, match="^symmetric_common_factor needs nonzero polynomials$"):
            symmetric_common_factor(PolyModP(5, ()), PolyModP(5, (1, 1)))

    def test_int_poly(self):
        with pytest.raises(ValueError, match="^negative power of a polynomial$"):
            IntPoly((1, 1)) ** -1
        assert repr(IntPoly((3, 0, -1))) == "IntPoly([3, 0, -1])"
        with pytest.raises(ValueError, match="^squarefreeness of the zero polynomial is undefined$"):
            is_squarefree_q(IntPoly(()))

    def test_sturm_count_and_sign_at_root(self):
        with pytest.raises(ValueError, match="^zero polynomial has no root count$"):
            sturm_count(IntPoly(()), 0, 1)
        with pytest.raises(ValueError, match="^empty interval: need a < b$"):
            sturm_count(parse_poly("x^2 - 2"), 1, 1)
        iv = IsolatingInterval(Fraction(1), Fraction(2))
        with pytest.raises(ValueError, match="^expression is identically zero$"):
            sign_at_root(IntPoly(()), parse_poly("x^2 - 2"), iv)

    def test_seifert_matrices(self):
        with pytest.raises(ValueError, match="^signature needs a symmetric matrix$"):
            signature_exact([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="^gram matrix must be even$"):
            half_form([[1, 0], [0, 2]])

    def test_trace_names_a_repeated_squarefree_part(self):
        """(x^2 + 1)^2 (x + 3): each part of Yun's decomposition is named
        with its multiplicity."""
        trace: list[str] = []
        fz = factor_z(parse_poly("x^2 + 1") ** 2 * parse_poly("x + 3"), trace=trace)
        assert fz.factors == ((parse_poly("x + 3"), 1), (parse_poly("x^2 + 1"), 2))
        assert trace[:2] == ["squarefree part of multiplicity 1: x + 3",
                             "squarefree part of multiplicity 2: x^2 + 1"]
