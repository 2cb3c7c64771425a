"""CLI surface: flags, outputs, exit codes."""

from __future__ import annotations

import json

import pytest

from knotsig.cli import main


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


def test_internal_error_exit_four(capsys, monkeypatch):
    from knotsig import KnotsigError, cli

    def broken(*args, **kwargs):
        raise KnotsigError("internal error: first line\nsecond line")

    monkeypatch.setattr(cli, "factor_z", broken)
    code, out, err = run(capsys, "factor", "--poly", "x^2 - 1")
    assert code == 4 and out == ""
    assert err == "error: internal error: first line second line\n"
