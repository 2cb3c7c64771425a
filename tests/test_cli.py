"""CLI surface: flags, outputs, exit codes."""

from __future__ import annotations

import json
import math
import time

import pytest

from knotsig import IntPoly, delta_to_p, expected_count, poly_text
from knotsig.cli import MILNOR_COUNT_CAP, main
from conftest import make_delta_a
from oracles import sympy_factors


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
            "mil", "verdict", "witnesses", "epsilon_status", "tool_version", "seed",
        }
        assert data["verdict"] == "REALIZABLE"
        assert data["seed"] == 0

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
        code, out, _ = run(
            capsys,
            "analyze",
            "--delta", "x^4 - x^2 + 1",
            "--m", "7",
            "--signature", "0",
            "--seed", "11",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 11

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
        code, _, _ = run(capsys, "transform", "--delta", "x^2+1", "--p", "x^2+1")
        assert code == 2

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
        counts = calls("realroots.rho_p")
        code, out, _ = run(capsys, "milnor", "--delta", "x^4 - x^2 + 1", "--signature", "0")
        assert code == 0 and counts == {"realroots.rho_p": 1}
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

    def test_seifert_isometry_requires_unimodular(self, capsys):
        code, _, err = run(capsys, "seifert", "--matrix", "[[0,2],[-1,0]]", "--op", "isometry")
        assert code == 2 and "determinant" in err

    def test_seifert_bad_matrix(self, capsys):
        code, _, _ = run(capsys, "seifert", "--matrix", "[[1,2],[3]]", "--op", "validate")
        assert code == 2


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
