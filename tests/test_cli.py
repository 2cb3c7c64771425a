"""CLI surface: flags, outputs, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import knotsig
from knotsig import IntPoly, delta_to_p, expected_count, parse_poly, poly_text
from knotsig.cli import MILNOR_COUNT_CAP, main
from knotsig.polys import MAX_PARSE_DEGREE
from conftest import make_delta_a, run_with_closed_stdout
from reference import sympy_factors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_realizable_text(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--delta", "x^4 - x^2 + 1",
            "--m", "7",
            "--signature", "0",
        )
        assert code == 0
        assert "REALIZABLE" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--delta", "1,0,-1,0,1",
            "--m", "7",
            "--signature", "0",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {
            "conditions", "p", "factors", "rho", "pi_table", "group",
            "mil", "verdict", "witnesses", "epsilon_status", "tool_version",
        }
        assert "seed" not in data
        assert data["verdict"] == "REALIZABLE"

    def test_tau(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--delta", "x^4 - x^2 + 1",
            "--m", "7",
            "--tau", "2,-2",
        )
        assert code == 0
        assert "REALIZABLE" in out

    def test_tau_value_other_than_two_exit_two(self, capsys):
        code, out, err = run(capsys, "analyze", "--delta", "x^4 - x^2 + 1", "--m", "7",
                             "--tau", "2,3")
        assert (code, out, err) == (2, "", "error: tau values must be -2 or +2\n")

    def test_tau_not_a_list_of_integers_exit_two(self, capsys):
        code, out, err = run(capsys, "analyze", "--delta", "x^4 - x^2 + 1", "--m", "7",
                             "--tau", "2,x")
        assert (code, out, err) == (2, "", "error: bad tau list: '2,x'\n")

    @pytest.mark.parametrize("tau", ["2,,-2", ",2,-2", "2,-2,"])
    def test_tau_with_an_empty_entry_exit_two(self, capsys, tau):
        code, out, err = run(capsys, "analyze", "--delta", "x^4 - x^2 + 1", "--m", "7",
                             "--tau", tau)
        assert (code, out, err) == (2, "", f"error: bad tau list: {tau!r}\n")

    @pytest.mark.parametrize("delta, tau", [
        ("x^4 - x^2 + 1", "2 -2"),
        ("x^4 - x^2 + 1", "2, -2"),
        ("1", ""),
    ])
    def test_tau_separators(self, capsys, delta, tau):
        """Blanks, or a comma and blanks, separate the entries as a comma
        does (``test_tau``); "" is the empty assignment, which Delta = 1
        (rho = 0) realizes."""
        code, out, _ = run(capsys, "analyze", "--delta", delta, "--m", "7", "--tau", tau)
        assert code == 0 and out.startswith("verdict: REALIZABLE\n")

    def test_not_admissible_still_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--delta", "x^4 - x^2 + 1", "--m", "7", "--signature", "3"
        )
        assert code == 0
        assert "NOT_ADMISSIBLE" in out

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--delta", "x^4 + wisdom", "--m", "7", "--signature", "0"
        )
        assert code == 2
        assert "error" in err

    def test_bad_m_exit_two(self, capsys):
        code, _, _ = run(
            capsys, "analyze", "--delta", "x^4 - x^2 + 1", "--m", "6", "--signature", "0"
        )
        assert code == 2

    def test_seed_flag(self, capsys):
        """No answer depends on a random stream, so there is no --seed."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--delta", "x^4 - x^2 + 1", "--m", "7", "--signature", "0",
                  "--seed", "11"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 11" in capsys.readouterr().err

    def test_signature_and_tau_together_exit_two(self, capsys):
        # --signature was once silently dropped in favour of --tau
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--delta", "1,-3,5,-3,1", "--m", "7", "--signature", "4",
                  "--tau", "2,2"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_neither_signature_nor_tau_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--delta", "1,-3,5,-3,1", "--m", "7"])
        assert exc.value.code == 2
        assert "--signature" in capsys.readouterr().err


class TestSubcommands:
    def test_transform_both_ways(self, capsys):
        code, out, _ = run(capsys, "transform", "--delta", "x^4 - x^2 + 1")
        assert code == 0 and out.strip() == "x^4 - 2*x^3 + 5*x^2 - 4*x + 1"
        code, out, _ = run(capsys, "transform", "--p", "x^4 - 2*x^3 + 5*x^2 - 4*x + 1")
        assert code == 0 and out.strip() == "x^4 - x^2 + 1"

    def test_transform_requires_one(self, capsys):
        """``transform`` and ``rho`` share the check, and each refuses both
        or neither of --delta and --p in its own words."""
        for command in ("transform", "rho"):
            for given in (("--delta", "x^2+1", "--p", "x^2+1"), ()):
                code, out, err = run(capsys, command, *given)
                assert (code, out, err) == (2, "", f"error: {command} needs exactly one of --delta or --p\n")

    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", "--delta", "x^4 - x^2 + 1")
        assert code == 0 and "all conditions:     True" in out

    def test_rho(self, capsys):
        code, out, _ = run(capsys, "rho", "--delta", "3*x^4 - 2*x^3 - x^2 - 2*x + 3")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "rho", "--p", "x^4 - 2*x^3 + 5*x^2 - 4*x + 1")
        assert code == 0 and out.strip() == "4"

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "--poly", "x^4 - 1")
        assert code == 0
        assert out.splitlines() == ["x - 1", "x + 1", "x^2 + 1"]

    def test_group(self, capsys):
        code, out, _ = run(
            capsys, "group", "--delta",
            "3*x^8 - 2*x^7 - 4*x^6 + 7*x^4 - 4*x^2 - 2*x + 3",
        )
        # delta1 * delta2
        assert code == 0
        assert "group rank: 0" in out and "primes(0,1) = {2}" in out

    def test_group_conditions_fail(self, capsys):
        # Delta(1) = 1, not (-1)^1
        code, out, _ = run(capsys, "group", "--delta", "1,-1,1")
        assert code == 0
        assert out == "conditions on Delta fail; the obstruction group is not defined\n"

    def test_group_standing_assumptions_fail(self, capsys):
        # (x^2 - x + 1)^2 meets the conditions, but P is a square
        code, out, _ = run(capsys, "group", "--delta", "1,-2,3,-2,1")
        assert code == 0
        assert out == "standing assumptions fail (P must be a squarefree product of symmetric factors)\n"

    def test_milnor(self, capsys):
        code, out, _ = run(capsys, "milnor", "--delta", "x^4 - x^2 + 1", "--signature", "0")
        assert code == 0
        lines = out.splitlines()
        assert "2 assignment(s)" in lines[0]

    def test_milnor_counts_rho_once(self, capsys, calls):
        counts = calls("realroots.rho_delta")
        code, out, _ = run(capsys, "milnor", "--delta", "x^4 - x^2 + 1", "--signature", "0")
        assert code == 0 and counts == {"realroots.rho_delta": 1}
        assert out == "rho = 4, target s = 0: 2 assignment(s)\n+2 -2\n-2 +2\n"
        code, out, _ = run(capsys, "milnor", "--delta", "x^4 - x^2 + 1", "--signature", "2")
        assert code == 0 and out == "rho = 4, target s = 2: 0 assignment(s)\n"

    def test_milnor_caps_the_count_not_rho(self, capsys, calls):
        """The cap bounds the output: every rho <= 40 lists in full, and
        Phi_61 (rho = 60) is refused at s = 0, with C(30, 15) assignments,
        before any is built, but lists its one assignment at s = 60."""
        assert MILNOR_COUNT_CAP == math.comb(20, 10) == expected_count(40, 0)
        phi61 = ",".join(["1"] * 61)
        counts = calls("milnor.enumerate_sign_tuples")
        start = time.perf_counter()
        code, out, err = run(capsys, "milnor", "--delta", phi61, "--signature", "0")
        assert time.perf_counter() - start < 1 and counts == {}
        assert code == 3 and out == "" and err == (
            "error: 155117520 assignments exceed the enumeration cap of 184756\n"
        )
        code, out, _ = run(capsys, "milnor", "--delta", phi61, "--signature", "60")
        assert code == 0 and out == "rho = 60, target s = 60: 1 assignment(s)\n" + "+2 " * 29 + "+2\n"

    @pytest.mark.parametrize("delta", ["x^2-2*x+1", "x^4-3*x^3+4*x^2-3*x+1"])
    def test_milnor_refuses_a_root_at_one(self, capsys, delta):
        """(x - 1)^2 and (x - 1)^2 (x^2 - x + 1): X -> 1/(1 - X) sends the
        root at X = 1 to infinity, so P loses it; rho is taken from Delta,
        which refuses it as ``rho --delta`` does."""
        code, out, err = run(capsys, "milnor", "--delta", delta, "--signature", "0")
        assert (code, out, err) == (2, "", "error: rho excludes roots at X = 1 or X = -1\n")

    def test_milnor_takes_rho_as_rho_delta_does(self, capsys):
        """On every palindromic Delta of degree 2, 4 or 6 with c_0 in
        {+-1, +-2} and the other coefficients in [-2, 2], ``milnor`` prints
        rho = r exactly when ``rho --delta`` prints r, and refuses with its
        exit code and message when it refuses; 54 of the 620 have
        Delta(1) = 0."""
        deltas = [
            head + head[-2::-1]
            for half in (1, 2, 3)
            for c0 in (-2, -1, 1, 2)
            for head in ((c0, *mid) for mid in product(range(-2, 3), repeat=half))
        ]
        assert len(deltas) == 620 and sum(sum(d) == 0 for d in deltas) == 54
        for d in deltas:
            text = ",".join(map(str, d))
            code, out, err = run(capsys, "rho", "--delta", text)
            got = run(capsys, "milnor", "--delta", text, "--signature", "0")
            if code == 0:
                assert got[0] == 0 and got[1].startswith(f"rho = {out.strip()}, "), text
            else:
                assert got == (code, "", err), text

    @pytest.mark.parametrize("delta", ["x^2-2*x+1", "x^4-3*x^3+4*x^2-3*x+1"])
    def test_transform_refuses_a_root_at_one(self, capsys, delta):
        """(x - 1)^2 and (x - 1)^2 (x^2 - x + 1): X -> 1/(1 - X) sends the
        root at X = 1 to infinity, so P drops degree and ``transform --p``
        would not give Delta back."""
        code, out, err = run(capsys, "transform", "--delta", delta)
        assert (code, out, err) == (
            2, "", "error: transform excludes a root at X = 1, which X -> 1/(1 - X) sends to infinity\n")

    def test_transform_round_trips_every_delta_it_answers(self, capsys):
        """On the palindromic Delta of test_milnor_takes_rho_as_rho_delta_does,
        ``transform --delta`` then ``transform --p`` gives back each of the
        566 with Delta(1) != 0, and ``transform --delta`` refuses the 54
        with Delta(1) = 0."""
        deltas = [
            head + head[-2::-1]
            for half in (1, 2, 3)
            for c0 in (-2, -1, 1, 2)
            for head in ((c0, *mid) for mid in product(range(-2, 3), repeat=half))
        ]
        answered = 0
        for d in deltas:
            code, out, _ = run(capsys, "transform", "--delta", ",".join(map(str, d)))
            assert code == (0 if sum(d) else 2), d
            if code == 0:
                assert run(capsys, "transform", "--p", out.strip()) == (0, f"{IntPoly(d)}\n", ""), d
                answered += 1
        assert (len(deltas), answered) == (620, 566)

    def test_rho_refuses_non_squarefree_p(self, capsys):
        code, out, err = run(capsys, "rho", "--p", "1,-4,4")
        assert code == 2 and out == "" and err == "error: P must be squarefree\n"

    def test_seifert_ops(self, capsys):
        code, out, _ = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "validate")
        assert code == 0 and "valid" in out
        code, out, _ = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "alexander")
        assert code == 0 and out.strip() == "2*x^2 - 5*x + 2"
        code, out, _ = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "signature")
        assert code == 0 and out.strip() == "0"
        code, out, _ = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "to-pair")
        assert code == 0 and "a = [[2, 0], [0, -1]]" in out
        code, out, _ = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "milnor")
        assert code == 0 and "total: 0" in out

    def test_seifert_signature_refuses_a_non_form(self, capsys):
        """sig S is read off the form's lattice record, which refuses a
        symmetrization that is not unimodular, as the other ops do."""
        code, out, err = run(capsys, "seifert", "--matrix", "[[1,1],[0,1]]", "--op", "signature")
        assert code == 2 and out == "" and err == "error: symmetrization has determinant 3, not +-1\n"

    def test_seifert_signature_of_e8(self, capsys, e8_half):
        matrix = json.dumps([list(row) for row in e8_half])
        code, out, err = run(capsys, "seifert", "--matrix", matrix, "--op", "signature")
        assert (code, out, err) == (0, "8\n", "")

    def test_seifert_isometry_requires_unimodular(self, capsys):
        code, _, err = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "isometry")
        assert code == 2 and "determinant" in err

    @pytest.mark.parametrize("op, expected", [
        ("validate", "valid Seifert form\n"),
        ("alexander", "2*x^2 - 5*x + 2\n"),
        ("signature", "0\n"),
        ("to-pair", "S = [[0, 1], [1, 0]]\na = [[2, 0], [0, -1]]\n"),
        ("milnor", "total: 0\n"),
    ])
    def test_seifert_ops_of_a2_in_full(self, capsys, op, expected):
        """A2 = [[0,2],[-1,0]]: every op's whole stdout; ``isometry`` refuses
        it (det A = 2), see the next test."""
        assert run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", op) == (0, expected, "")

    def test_seifert_isometry_refuses_a2_in_full(self, capsys):
        code, out, err = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "isometry")
        assert (code, out, err) == (2, "", "error: form has determinant 2, not +-1\n")

    @pytest.mark.parametrize("op, expected", [
        ("validate", "valid Seifert form\n"),
        ("alexander", "x^8 + x^7 - x^5 - x^4 - x^3 + x + 1\n"),
        ("signature", "8\n"),
        ("to-pair",
         "S = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0, 0],"
         " [0, -1, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],"
         " [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]\n"
         "a = [[-3, -5, -3, 2, 2, 2, 2, 2], [-5, -7, -5, 3, 3, 3, 3, 3], [-7, -10, -6, 4, 4, 4, 4, 4],"
         " [-10, -15, -10, 6, 6, 6, 6, 6], [-8, -12, -8, 4, 5, 5, 5, 5], [-6, -9, -6, 3, 3, 4, 4, 4],"
         " [-4, -6, -4, 2, 2, 2, 3, 3], [-2, -3, -2, 1, 1, 1, 1, 2]]\n"),
        ("milnor",
         "v-root in (-749783/32768, -2999021/131072): +2\n"
         "v-root in (-73283/131072, -18293/32768): +2\n"
         "v-root in (-39317/131072, -19603/65536): +2\n"
         "v-root in (-17161/65536, -34211/131072): +2\n"
         "total: 8\n"),
        ("isometry",
         "t = [[-1, 0, 1, 0, 0, 0, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0], [-1, 0, 0, 1, 0, 0, 0, 0],"
         " [-1, -1, 0, 1, 1, 0, 0, 0], [-1, -1, 0, 1, 0, 1, 0, 0], [-1, -1, 0, 1, 0, 0, 1, 0],"
         " [-1, -1, 0, 1, 0, 0, 0, 1], [-1, -1, 0, 1, 0, 0, 0, 0]]\n"),
    ])
    def test_seifert_ops_of_e8_half_in_full(self, capsys, e8_half, op, expected):
        """E8's half form has det 1, so ``isometry`` prints t as well."""
        matrix = json.dumps([list(row) for row in e8_half])
        assert run(capsys, "seifert", "--matrix", matrix, "--op", op) == (0, expected, "")

    def test_seifert_bad_matrix(self, capsys):
        """A refusal is one line that names what is wrong, never a traceback."""
        for matrix, reason in (
            ("[[1,2],[3]]", "matrix must be square and nonempty"),
            ("[[1,2],[3,4]", "Expecting ',' delimiter: line 1 column 13 (char 12)"),
            ("[1,2]", "expected a list of rows, each a list of integers"),
            ("[" * 100_000, "maximum recursion depth exceeded"),
        ):
            code, out, err = run(capsys, "seifert", "--matrix", matrix, "--op", "validate")
            assert code == 2 and out == ""
            assert err.startswith(f"error: bad matrix: {matrix!r}: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize("matrix, op", [
        ("[[true,1],[0,false]]", "validate"),
        ("[[0.9,1.7],[0,0.2]]", "to-pair"),
    ])
    def test_seifert_non_integer_entries_refused(self, capsys, matrix, op):
        """Bools and floats are refused, not read as the ints they truncate to."""
        code, out, err = run(capsys, "seifert", "--matrix", matrix, "--op", op)
        entry = {"validate": "True", "to-pair": "0.9"}[op]
        expected = f"error: bad matrix: {matrix!r}: matrix entry {entry} is not an integer\n"
        assert code == 2 and out == "" and err == expected


def test_e8_milnor_through_cli(capsys):
    rows = [
        [1, 0, -1, 0, 0, 0, 0, 0],
        [0, 1, 0, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0],
        [0, 0, 0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 0, 0, 1, -1],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    code, out, _ = run(capsys, "seifert", "--matrix", json.dumps(rows), "--op", "milnor")
    assert code == 0
    assert "total: 8" in out


class TestLeadingMinus:
    """Values beginning with '-' are taken as values, not as options."""

    def test_factor_poly(self, capsys):
        code, out, _ = run(capsys, "factor", "--poly", "-1,0,49")
        assert code == 0 and out.splitlines() == ["7*x - 1", "7*x + 1"]

    def test_delta_and_p(self, capsys):
        code, out, _ = run(capsys, "rho", "--delta", "-1,0,1,0,-1")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "transform", "--p", "-1,4,-5,2,-1")
        assert code == 0 and out.strip() == "-x^4 + x^2 - 1"
        code, out, _ = run(capsys, "analyze", "--delta", "-x^4 + x^2 - 1", "--m", "7",
                           "--signature", "0")
        assert code == 0 and "Delta(1) = -1" in out

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "analyze", "--delta", "1,0,-1,0,1", "--m", "7", "--tau", "-2,2")
        assert code == 0 and "REALIZABLE" in out

    def test_missing_value_still_an_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--poly"])
        assert exc.value.code == 2


def test_non_monic_factor_through_cli(capsys):
    # (49x^2 + x + 1)(x^2 - x + 1): the monic model once lost its leading term
    code, out, _ = run(capsys, "factor", "--poly=1,0,49,-48,49")
    assert code == 0 and out.splitlines() == ["x^2 - x + 1", "49*x^2 + x + 1"]


@pytest.mark.parametrize("a_values", [(-5, 0, 1, 2, 9, 10), (-6, -5, 0, 3, 6, 10), tuple(range(9))],
                         ids=["heavy0", "heavy1", "k9"])
def test_factor_through_the_v_model(capsys, a_values):
    """P of Delta_a products whose 18 or 22 modular factors at the first
    prime are over the cap; their half-degree v-models are not."""
    delta = IntPoly.one()
    for a in a_values:
        delta = delta * make_delta_a(a)
    p = delta_to_p(delta)
    code, out, _ = run(capsys, "factor", "--poly", ",".join(map(str, p.coeffs)))
    expected = sorted(sympy_factors(p), key=lambda fe: (len(fe[0]), fe[0]))
    assert code == 0
    assert out.splitlines() == [poly_text(IntPoly(c)) for c, e in expected if e == 1]
    assert len(expected) == len(a_values)


def _q_pair_delta(a: int) -> str:
    """Delta = q_a q_{9a+2} with q_a = aX^2 - (2a+1)X + a, as CLI text.
    P has the two factors X^2 - X - c for c = a and 9a + 2, whose
    resultant is (8a + 2)^2 = 4 (4a + 1)^2; Delta(-1) = 9 (4a + 1)^2."""

    def q(c: int) -> IntPoly:
        return IntPoly((c, -(2 * c + 1), c))

    return ",".join(map(str, (q(a) * q(9 * a + 2)).coeffs))


@pytest.mark.parametrize("a", [-8796093022223, -2305843009213693977,
                               (3317044064679887385961813 - 1) // 4])
def test_square_resultant_of_a_large_prime(capsys, a):
    """The resultant is 4 p^2 with p = |4a + 1| prime: the second p
    exceeds 2^63, the third is the largest prime p = 1 mod 4 below the
    bound where Miller-Rabin on the first 13 primes is exact."""
    import sympy

    p = abs(4 * a + 1)
    code, out, _ = run(capsys, "analyze", "--delta", _q_pair_delta(a),
                       "--m", "7", "--signature", "0", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "REALIZABLE"
    assert [entry["primes"] for entry in report["pi_table"]] == [[2, p]]
    assert sympy.isprime(p)


def test_square_resultant_of_a_strong_pseudoprime_is_refused(capsys):
    """With 4a + 1 = 1287836182261 * 2575672364521, the least composite
    that passes Miller-Rabin on the first 13 primes, the resultant's
    square root cannot be certified prime: a refusal, not a Pi entry."""
    n = 3317044064679887385961981
    code, out, err = run(capsys, "analyze", "--delta", _q_pair_delta((n - 1) // 4),
                         "--m", "7", "--signature", "0")
    assert code == 3 and out == ""
    assert f"primality of {n} is not certified" in err


def test_internal_error_exit_four(capsys, monkeypatch):
    from knotsig import KnotsigError, cli

    def broken(*args, **kwargs):
        raise KnotsigError("internal error: first line\nsecond line")

    monkeypatch.setattr(cli, "factor_z", broken)
    code, out, err = run(capsys, "factor", "--poly", "x^2 - 1")
    assert code == 4 and out == ""
    assert err == "error: internal error: first line second line\n"


def test_a_refusal_after_the_facts_leaves_stdout_empty(capsys, monkeypatch):
    """``group`` on an in-scope Delta computes its obstruction group
    before it yields a line, so a budget that runs out there leaves
    stdout empty, as every refusal does."""
    from knotsig import BudgetExceededError, pipeline

    def refused(*args, **kwargs):
        raise BudgetExceededError("obstruction budget exhausted")

    monkeypatch.setattr(pipeline, "obstruction_group", refused)
    delta = poly_text(make_delta_a(0) * make_delta_a(2))
    code, out, err = run(capsys, "group", "--delta", delta)
    assert (code, out, err) == (3, "", "error: obstruction budget exhausted\n")


def _module_env() -> dict[str, str]:
    """This process's environment with the directory of the imported
    ``knotsig`` first on PYTHONPATH, so that a child's
    ``python -m knotsig.cli`` runs the same package."""
    src = str(Path(knotsig.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_module_entry_point_prints_the_version():
    """``python -m knotsig.cli`` runs ``main`` and exits with its code."""
    done = subprocess.run([sys.executable, "-m", "knotsig.cli", "--version"], capture_output=True,
                          text=True, env=_module_env())
    assert (done.returncode, done.stdout, done.stderr) == (0, "knotsig 0.1.0\n", "")


@pytest.mark.parametrize("power", [MAX_PARSE_DEGREE + 1, 10**11])
def test_an_exponent_above_the_degree_bound_exit_two(capsys, power):
    """The bound is checked before a coefficient list is built."""
    code, out, err = run(capsys, "analyze", "--delta", f"x^{power}-1", "--m", "7", "--signature", "0")
    assert (code, out) == (2, "")
    assert err == (f"error: exponent {power} in 'x^{power}-1' exceeds the degree bound"
                   f" of {MAX_PARSE_DEGREE}\n")


def test_the_degree_bound_itself_parses():
    assert parse_poly(f"x^{MAX_PARSE_DEGREE} - 1").degree == MAX_PARSE_DEGREE


@pytest.mark.parametrize("argv", [
    ("analyze", "--delta", "x^4-x^2+1", "--m", "7", "--signature", "0"),
    ("milnor", "--delta", "1," * 40 + "1", "--signature", "0"),  # Phi_41: 184,756 lines
])
def test_a_closed_stdout_exits_141_silently(argv):
    """As ``knotsig ... | head`` does once head has read its lines: the
    documented exit code, and nothing on stderr."""
    assert run_with_closed_stdout(sys.executable, "-m", "knotsig.cli", *argv, env=_module_env()) == (141, "")


def test_a_stdout_closed_partway_through_the_listing_exits_141_silently():
    """As ``knotsig milnor ... | head -3`` does: the reader takes the header
    and two of Phi_41's 184,756 assignments, then goes."""
    argv = ("milnor", "--delta", "1," * 40 + "1", "--signature", "0")
    child = subprocess.Popen([sys.executable, "-m", "knotsig.cli", *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=_module_env())
    lines = [child.stdout.readline() for _ in range(3)]
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, "")
    assert lines == ["rho = 40, target s = 0: 184756 assignment(s)\n",
                     " ".join(["+2"] * 10 + ["-2"] * 10) + "\n",
                     " ".join(["+2"] * 9 + ["-2", "+2"] + ["-2"] * 9) + "\n"]


def _peak_rss_mb(*argv: str) -> float:
    """The peak RSS of a child that runs ``main(argv)`` with stdout to
    /dev/null, as the child reads it itself: the high-water mark of its
    own address space (VmHWM).  Neither RUSAGE_CHILDREN here (the largest
    of every earlier child) nor the child's RUSAGE_SELF serves: Linux keeps
    in a process's ru_maxrss the peak of the image it was forked from, so
    each child would read at least this test process's size."""
    code = ("import sys\nfrom knotsig.cli import main\ncode = main(sys.argv[1:])\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')).split()[1],"
            " file=sys.stderr)\nsys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=_module_env(), check=True)
    return int(done.stderr) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
def test_the_milnor_listing_is_written_as_it_is_formatted():
    """Phi_41 at s = 0 lists 184,756 assignments.  Its tuples take about
    38 MB over the one-line answer at s = 40; joining the lines into one
    string before writing them took about 70."""
    phi41 = "1," * 40 + "1"
    one_line = _peak_rss_mb("milnor", "--delta", phi41, "--signature", "40")
    listing = _peak_rss_mb("milnor", "--delta", phi41, "--signature", "0")
    assert listing - one_line < 54
