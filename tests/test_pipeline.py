"""End-to-end verdicts, report invariants, and rendering."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import random
import re

import pytest

from knotsig import (
    AnalysisRequest,
    ConditionReport,
    IntPoly,
    TOOL_VERSION,
    VERDICT_NOT_ADMISSIBLE,
    VERDICT_OBSTRUCTION_UNKNOWN,
    VERDICT_OUT_OF_SCOPE,
    VERDICT_REALIZABLE,
    alexander_check,
    alexander_of_form,
    analyze,
    analyze_tau,
    block_diag,
    delta_to_p,
    e8_gram,
    expected_count,
    factor_z,
    half_form,
    memos,
    parse_poly,
    report_from_json,
    report_render,
    rho_delta,
    rho_p,
    symmetric_check,
)
from knotsig.pipeline import _delta_facts
from knotsig.zfactor import _KnownFactors
from conftest import IN_SCOPE_A, clear_facts_memos, make_delta_a
from reference import delta_factor_rhos, indecomposable_by_delta_factors


class TestVerdicts:
    def test_realizable_product(self, delta1, delta2):
        rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
        assert rep.verdict == VERDICT_REALIZABLE
        assert rep.rho == 8
        assert rep.group["rank"] == 0
        assert rep.pi_table[0]["primes"] == [2]
        assert rep.witnesses["tau"] == [2, 2, 2, 2]
        assert rep.epsilon_status == "trivially zero"

    def test_obstruction_unknown(self, g1, delta1):
        for s in (8, -8):
            rep = analyze(AnalysisRequest(delta=g1 * delta1, m=7, signature=s))
            assert rep.verdict == VERDICT_OBSTRUCTION_UNKNOWN
            assert rep.rho == 8
            assert rep.group["rank"] == 1
            assert rep.epsilon_status == "requires external evaluation"

    def test_delta_a_product_realizable(self):
        rep = analyze(AnalysisRequest(delta=make_delta_a(0) * make_delta_a(2), m=7, signature=8))
        assert rep.verdict == VERDICT_REALIZABLE

    def test_mod16_gate(self, delta1, delta2):
        rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=3, signature=8))
        assert rep.verdict == VERDICT_NOT_ADMISSIBLE
        assert "16" in rep.reason

    def test_rho_bound_gate(self, delta1, delta2):
        rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=3, signature=16))
        assert rep.verdict == VERDICT_NOT_ADMISSIBLE
        assert "rho" in rep.reason

    def test_mod8_gate(self, delta1, delta2):
        rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=4))
        assert rep.verdict == VERDICT_NOT_ADMISSIBLE
        assert "8" in rep.reason

    def test_signature_zero_realizable(self, delta1):
        rep = analyze(AnalysisRequest(delta=delta1, m=7, signature=0))
        assert rep.verdict == VERDICT_REALIZABLE

    def test_signature_zero_never_gated(self, delta1, delta2, g1):
        # s = 0 always clears the admissibility gates on the corpus
        for delta in (delta1, delta2, delta1 * delta2, g1 * delta1):
            for m in (3, 7, 11):
                rep = analyze(AnalysisRequest(delta=delta, m=m, signature=0))
                assert rep.verdict in (VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN)

    def test_out_of_scope_conditions(self):
        rep = analyze(AnalysisRequest(delta=parse_poly("x^2 - x + 1"), m=7, signature=0))
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        assert "Delta(1)" in rep.reason

    def test_out_of_scope_asymmetric_factor(self):
        rep = analyze(AnalysisRequest(delta=parse_poly("2*x^2 - 5*x + 2"), m=7, signature=0))
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        assert "1-X" in rep.reason

    def test_out_of_scope_not_squarefree(self, delta1):
        rep = analyze(AnalysisRequest(delta=delta1 * delta1, m=7, signature=0))
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        assert "squarefree" in rep.reason

    def test_indecomposability_note(self, delta1, delta2):
        rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
        assert any("indecomposable" in note for note in rep.notes)
        rep0 = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=0))
        assert not any("indecomposable" in note for note in rep0.notes)

    def test_no_indecomposability_note_when_two_factors_carry_s(self):
        """Delta_0 Delta_2 Delta_4 at s = 8: each factor has rho 4 < 8, but
        Delta_0 Delta_2 at 8 and Delta_4 at 0 are both REALIZABLE, so a
        connected sum of those two knots may realize it.  No note."""
        d0, d2, d4 = (make_delta_a(a) for a in (0, 2, 4))
        rep = analyze(AnalysisRequest(delta=d0 * d2 * d4, m=7, signature=8))
        assert rep.verdict == VERDICT_REALIZABLE
        assert not any("indecomposable" in note for note in rep.notes)
        for delta, s in ((d0 * d2, 8), (d4, 0)):
            assert analyze(AnalysisRequest(delta=delta, m=7, signature=s)).verdict == VERDICT_REALIZABLE

    def test_m_validation(self, delta1):
        with pytest.raises(ValueError, match="m = 5"):
            AnalysisRequest(delta=delta1, m=5, signature=0)
        with pytest.raises(ValueError, match="m = 2"):
            AnalysisRequest(delta=delta1, m=2, signature=0)

    @pytest.mark.parametrize("fields, name", [
        ({"signature": 0.0}, "signature"),
        ({"signature": True}, "signature"),
        ({"signature": "8"}, "signature"),
        ({"tau": (2.0, -2.0)}, "tau value"),
        ({"m": 7.0, "signature": 0}, "knot dimension m"),
        ({"m": True, "signature": 0}, "knot dimension m"),
    ], ids=str)
    def test_non_integers_rejected(self, delta1, fields, name):
        """m, s and tau take what `seifert.as_matrix` takes: no float, bool
        or string reaches the analysis or its report."""
        with pytest.raises(ValueError, match=f"^{name} .+ is not an integer$"):
            AnalysisRequest(delta=delta1, **{"m": 7, **fields})

    @pytest.mark.parametrize("fields, message", [
        ({"delta": [1, 0, -1, 0, 1], "signature": 0}, r"^delta \[1, 0, -1, 0, 1\] is not an IntPoly$"),
        ({"delta": "x^4-x^2+1", "signature": 0}, r"^delta 'x\^4-x\^2\+1' is not an IntPoly$"),
        ({"tau": 5}, r"^tau 5 is not a sequence$"),
    ], ids=str)
    def test_malformed_fields_rejected(self, delta1, fields, message):
        """A Delta that is not an `IntPoly` or a tau that is not a sequence
        is refused with a ValueError that names the field, not left to
        fail as a bare Python error inside the analysis."""
        with pytest.raises(ValueError, match=message):
            AnalysisRequest(**{"delta": delta1, "m": 7, **fields})

    def test_integer_types_stored_as_int(self, delta1, delta2):
        import numpy as np

        req = AnalysisRequest(delta=delta1 * delta2, m=np.int64(7), signature=np.int64(8))
        tau_req = AnalysisRequest(delta=delta1 * delta2, m=7, tau=[np.int8(2)] * 4)
        assert (type(req.m), type(req.signature)) == (int, int) and tau_req.tau == (2, 2, 2, 2)
        assert all(type(v) is int for v in tau_req.tau)
        assert json.loads(report_render(analyze(req), "json"))["s"] == 8


class TestTauPath:
    def test_all_plus_realizable(self, delta1, delta2):
        rep = analyze_tau(AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2, 2, 2)))
        assert rep.verdict == VERDICT_REALIZABLE
        assert rep.witnesses["tau"] == [2, 2, 2, 2]
        assert rep.s == 8

    def test_obstructed(self, g1, delta1):
        rep = analyze_tau(AnalysisRequest(delta=g1 * delta1, m=7, tau=(2, 2, 2, 2)))
        assert rep.verdict == VERDICT_OBSTRUCTION_UNKNOWN

    def test_sum_gate(self, delta1, delta2):
        rep = analyze_tau(AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2, 2, -2)))
        assert rep.verdict == VERDICT_NOT_ADMISSIBLE  # sums to 4

    def test_domain_mismatch(self, delta1, delta2):
        with pytest.raises(ValueError, match="4 unit-circle factors"):
            analyze_tau(AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2)))

    def test_bad_values_rejected(self, delta1):
        with pytest.raises(ValueError, match="-2 or"):
            AnalysisRequest(delta=delta1, m=7, tau=(1, 2))


def scribble(tree) -> None:
    """Change every dict and list in a JSON tree, at every depth."""
    items = list(tree.values()) if isinstance(tree, dict) else list(tree)
    for item in items:
        if isinstance(item, (dict, list)):
            scribble(item)
    if isinstance(tree, dict):
        tree["scribbled"] = True
    elif isinstance(tree, list):
        tree.append("scribbled")


class TestReports:
    def test_json_round_trip(self, delta1, delta2, g1):
        for req in (
            AnalysisRequest(delta=delta1 * delta2, m=7, signature=8),
            AnalysisRequest(delta=g1 * delta1, m=7, signature=8),
            AnalysisRequest(delta=delta1 * delta2, m=3, signature=8),
            AnalysisRequest(delta=parse_poly("x^2 - x + 1"), m=7, signature=0),
        ):
            rep = analyze(req)
            assert report_from_json(report_render(rep, "json")) == rep

    def test_json_of_another_format_refused(self, delta1, delta2):
        """A report with a key this version does not know (the ``seed`` of
        earlier reports), or without a required one, is refused by name."""
        data = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)).to_dict()
        version = re.escape(TOOL_VERSION)
        with pytest.raises(ValueError, match=rf"^not a knotsig {version} report: unknown keys \['seed'\], "
                           r"missing keys \[\]$"):
            report_from_json(json.dumps({**data, "seed": 0}))
        del data["verdict"]
        with pytest.raises(ValueError, match=r"unknown keys \[\], missing keys \['verdict'\]$"):
            report_from_json(json.dumps(data))
        with pytest.raises(ValueError, match=rf"^a knotsig {version} report is a JSON object, not list$"):
            report_from_json("[]")

    def test_to_dict_equals_asdict(self, delta1, delta2, g1):
        """``to_dict`` gives what ``dataclasses.asdict`` gives, with the same
        keys, order, types and JSON, on every verdict, with and without the
        listed assignments.  It hands out the report's own fields rather
        than copies, and scribbling on them cannot reach the memo."""
        big = make_delta_a(0) * make_delta_a(1) * make_delta_a(2) * make_delta_a(3) * make_delta_a(4)
        reqs = [
            AnalysisRequest(delta=delta1 * delta2, m=7, signature=8),
            AnalysisRequest(delta=g1 * delta1, m=7, signature=8),
            AnalysisRequest(delta=delta1 * delta2, m=3, signature=8),
            AnalysisRequest(delta=parse_poly("x^2 - x + 1"), m=7, signature=0),
            AnalysisRequest(delta=big, m=7, signature=0),
            AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2, 2, 2)),
        ]

        def run(req):
            return analyze(req) if req.tau is None else analyze_tau(req)

        reports = [run(req) for req in reqs]
        assert {rep.verdict for rep in reports} == {
            VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN, VERDICT_NOT_ADMISSIBLE, VERDICT_OUT_OF_SCOPE,
        }
        assert "assignments" in reports[0].mil and "assignments" not in reports[4].mil
        for req, rep in zip(reqs, reports):
            want, got = dataclasses.asdict(rep), rep.to_dict()
            assert got == want and repr(got) == repr(want)
            assert json.dumps(got) == json.dumps(want)
            assert all(got[f.name] is getattr(rep, f.name) for f in dataclasses.fields(rep))
            before = report_render(rep, "json")
            scribble(got)
            assert report_render(run(req), "json") == before, req

    def test_text_contains_verdict_and_rank(self, delta1, delta2):
        text = report_render(analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)), "text")
        assert "REALIZABLE" in text and "rank 0" in text
        assert "witness" in text

    def test_out_of_scope_names_assumption(self):
        text = report_render(
            analyze(AnalysisRequest(delta=parse_poly("2*x^2 - 5*x + 2"), m=7, signature=0)), "text"
        )
        assert "OUT_OF_SCOPE" in text
        assert "not fixed by X -> 1-X" in text

    def test_unknown_format(self, delta1):
        rep = analyze(AnalysisRequest(delta=delta1, m=7, signature=0))
        with pytest.raises(ValueError, match="unknown format"):
            report_render(rep, "yaml")

    def test_deterministic_across_runs(self, delta1, delta2):
        """Equal reports with a warm memo and with cleared ones; the
        random streams are varied in test_golden_reports.py."""
        req = AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)
        a, b = analyze(req), analyze(req)
        clear_facts_memos()
        assert a == b == analyze(req)

    def test_reports_self_certifying(self, delta1, delta2, g1):
        """REALIZABLE implies the gates re-derivable from the report."""
        for delta in (delta1 * delta2, g1 * delta1, make_delta_a(0) * make_delta_a(2)):
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            if rep.verdict == VERDICT_REALIZABLE:
                assert expected_count(rep.rho, rep.s) > 0
                assert rep.group["rank"] == 0
                assert rep.s % 8 == 0 and abs(rep.s) <= rep.rho


def _seifert_deltas(count: int, seed: int) -> list[IntPoly]:
    """Alexander polynomials of forms A = half_form(S) + K for random skew
    K, S in {E8, E8+H}, and of each one's block sum with half_form(E8)
    (whose Delta is the cyclotomic Phi_30), sign-normalised so that
    Delta(1) = (-1)^n."""
    lattices = (e8_gram(), block_diag(e8_gram(), ((0, 1), (1, 0))))
    rng = random.Random(seed)
    forms = []
    for i in range(count):
        a = [list(row) for row in half_form(lattices[i % len(lattices)])]
        for r in range(len(a)):
            for c in range(r + 1, len(a)):
                k = rng.choice((0, 0, 1, -1))
                a[r][c] += k
                a[c][r] -= k
        forms.append(a)
    out = []
    for a in forms + [block_diag(a, half_form(e8_gram())) for a in forms]:
        delta = alexander_of_form(a)
        assert delta.evaluate(1) == (-1) ** (len(a) // 2)
        out.append(delta)
    return out


class TestDeltaSideOracle:
    """The pipeline reads the rho of each factor off the factors of P; the
    Delta-side oracle factors Delta again.  Both routes must agree, on the
    per-factor counts and on the indecomposability note."""

    def _check(self, delta: IntPoly, m: int, s: int) -> str:
        rep = analyze(AnalysisRequest(delta=delta, m=m, signature=s))
        if rep.rho is None:
            return rep.verdict
        p_rhos = sorted(rho_p(IntPoly(f["coeffs"])) for f in rep.factors["factors"])
        assert delta_factor_rhos(delta) == p_rhos
        assert sum(p_rhos) == rep.rho
        if rep.verdict == VERDICT_REALIZABLE:
            has_note = any("indecomposable" in note for note in rep.notes)
            assert has_note == indecomposable_by_delta_factors(delta, s, 16 if m == 3 else 8)
        return rep.verdict

    def test_delta_a_products(self):
        rng = random.Random(5)
        verdicts = set()
        for _ in range(12):
            k = rng.randint(1, 3)
            a_values = rng.sample([a for a in range(-6, 8) if a not in (-1, -3)], k)
            delta = IntPoly((1,))
            for a in a_values:
                delta = delta * make_delta_a(a)
            for m, s in ((7, 0), (7, 8), (7, -8), (3, 16)):
                verdicts.add(self._check(delta, m, s))
        assert VERDICT_REALIZABLE in verdicts

    def test_note_suppressed_by_a_large_factor(self, delta2):
        phi15 = parse_poly("x^8 - x^7 + x^5 - x^4 + x^3 - x + 1")  # rho 8
        assert self._check(phi15 * delta2, 7, 8) == VERDICT_REALIZABLE
        assert not indecomposable_by_delta_factors(phi15 * delta2, 8, 8)

    def test_seifert_form_deltas(self):
        verdicts = []
        for delta in _seifert_deltas(4, seed=3):
            for m, s in ((7, 8), (3, 16)):
                verdicts.append(self._check(delta, m, s))
        assert verdicts.count(VERDICT_REALIZABLE) >= 8


def sweep() -> list[IntPoly]:
    """Every product of 2 or 3 distinct in-scope Delta_a (816 of them)."""
    bases = [make_delta_a(a) for a in IN_SCOPE_A]
    return [functools.reduce(lambda x, y: x * y, combo)
            for k in (2, 3) for combo in itertools.combinations(bases, k)]


def test_rho_of_delta_is_the_sum_over_its_factors():
    """The whole-Delta recount the pipeline no longer runs, as an oracle:
    rho_delta(Delta) by the trace model of Delta equals the reported rho,
    the sum over the factors of Delta, for every Delta of the sweep."""
    deltas = sweep()
    assert len(deltas) == 816
    for delta in deltas:
        assert rho_delta(delta) == analyze(AnalysisRequest(delta=delta, m=7, signature=0)).rho


def test_every_signature_past_the_gates_has_an_assignment():
    """The precondition of `milnor.first_assignment` in `analyze` (proof
    there): rho = 0 (mod 4) for every in-scope Delta of the census (748 of
    792) and of the sweep (816), so expected_count(rho, s) >= 1 for every s
    with 8 | s and |s| <= rho, the multiples of 16 among them."""
    from test_full_degree_oracle import census

    in_scope = 0
    for delta in census() + sweep():
        facts = _delta_facts(delta)
        if facts.reason is not None:
            continue
        rho = sum(facts.rhos)
        assert rho % 4 == 0, delta
        for s in range(-(rho // 8) * 8, rho + 1, 8):
            assert expected_count(rho, s) >= 1, (delta, s)
        in_scope += 1
    assert in_scope == 748 + 816


def test_conditions_send_p_through_its_v_model():
    """For reciprocal Delta of degree 2n with Delta(1) = (-1)^n, the
    companion P = delta_to_p(Delta) is fixed by X -> 1-X and monic, and
    2^2n P(1/2) = (-1)^n Delta(-1) is odd, so factor_z takes P through its
    v-model (the proof is in pipeline._delta_facts)."""
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(1, 7)
        half = [rng.choice((-1, 1)) * rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - 1)]
        delta = IntPoly(half + [(-1) ** n - 2 * sum(half)] + half[::-1])
        rep = alexander_check(delta)
        assert rep.degree_even and rep.reciprocal and rep.value_at_one
        p = delta_to_p(delta)
        assert symmetric_check(p)
        assert p.lc == 1
        at_half = sum(c << (2 * n - i) for i, c in enumerate(p.coeffs))  # 2^2n P(1/2)
        assert at_half == (-1) ** n * delta.evaluate(-1) and at_half % 2 == 1
        trace: list[str] = []
        assert factor_z(p, trace=trace).product() == p
        assert trace[0].startswith("through the v-model Q = ")


@pytest.mark.parametrize("text, failing", [
    ("x^4 - x^2 + 1", None),
    ("x^3 + x^2 + x + 1", "degree_even"),
    ("x^4 - x^3 + 1", "reciprocal"),
    ("x^4 + x^2 + 1", "value_at_one"),
    ("x^2 - 3*x + 1", "square_at_minus_one"),
])
def test_report_conditions_are_the_condition_report(text, failing):
    """A report's ``conditions`` are alexander_check's ConditionReport,
    field by field under the same names and in the same order, for a
    Delta in scope and for one failing each condition first."""
    delta = parse_poly(text)
    conditions = analyze(AnalysisRequest(delta=delta, m=7, signature=0)).conditions
    assert list(conditions) == [f.name for f in dataclasses.fields(ConditionReport)]
    assert conditions == dict(vars(alexander_check(delta)))
    checks = ("degree_even", "reciprocal", "value_at_one", "square_at_minus_one")
    assert next((name for name in checks if not conditions[name]), None) == failing


class TestOneCheckPerFact:
    """Squarefreeness is read off the Sturm sequences and the models, and
    the conditions on Delta are checked once per request (counted)."""

    DELTA = make_delta_a(0) * make_delta_a(1) * make_delta_a(2) * make_delta_a(3)

    def test_analyze(self, calls):
        counts = calls("polys.is_squarefree_q", "polys.alexander_check")
        rep = analyze(AnalysisRequest(delta=self.DELTA, m=7, signature=0))
        assert rep.verdict == VERDICT_REALIZABLE and rep.rho == 16
        assert counts == {"polys.alexander_check": 1}

    def test_analyze_tau(self, calls):
        counts = calls("polys.is_squarefree_q", "polys.alexander_check")
        rep = analyze_tau(AnalysisRequest(delta=self.DELTA, m=7, tau=(2, -2) * 4))
        assert rep.verdict == VERDICT_REALIZABLE
        assert counts == {"polys.alexander_check": 1}

    def test_one_v_model_per_factor(self, calls):
        """A Delta-facts miss derives one v-model, P's, and that is its
        symmetry test: each factor of P is a certified lift q(X^2 - X),
        whose v-model q `factor_z` hands on for the prime table to read,
        and rho is taken from each factor's Delta_f; no `symmetric_check`
        runs."""
        counts = calls("polys.symmetric_check", "polys.v_polynomial")
        rep = analyze(AnalysisRequest(delta=self.DELTA, m=7, signature=0))
        assert rep.verdict == VERDICT_REALIZABLE and len(rep.pi_table) == 6
        assert len(rep.factors["factors"]) == 4
        assert counts == {"polys.v_polynomial": 1}


def _mutate_all(value) -> None:
    """Change every list and dict reachable from ``value`` in place."""
    children = value.values() if isinstance(value, dict) else value
    for child in list(children):
        if isinstance(child, (list, dict)):
            _mutate_all(child)
    if isinstance(value, dict):
        value.clear()
        value["mutated"] = True
    else:
        value.clear()
        value.append("mutated")


class TestDeltaFactsMemo:
    """The facts of a Delta are computed once per Delta and kept in a
    bounded memo; reports are built fresh from them."""

    @staticmethod
    def requests(delta1, delta2, g1) -> list[AnalysisRequest]:
        reqs = []
        deltas = (
            delta1 * delta2,
            g1 * delta1,
            make_delta_a(0) * make_delta_a(2),
            delta1 * delta1,  # P not squarefree
            parse_poly("2*x^2 - 5*x + 2"),  # asymmetric factor
            parse_poly("x^2 - x + 1"),  # conditions fail
        )
        for delta in deltas:
            for m, s in ((7, 8), (3, 8), (7, 0), (11, -8)):
                reqs.append(AnalysisRequest(delta=delta, m=m, signature=s))
            reqs.append(AnalysisRequest(delta=delta, m=7, tau=(2, 2, 2, 2)))
        return reqs

    @staticmethod
    def run(req: AnalysisRequest) -> str:
        try:
            rep = analyze(req) if req.tau is None else analyze_tau(req)
        except ValueError as exc:  # a tau of the wrong length
            return f"ValueError: {exc}"
        return report_render(rep, "json")

    def test_never_answers_for_another_delta(self, delta1, delta2, g1):
        from knotsig.pipeline import _delta_facts

        reqs = self.requests(delta1, delta2, g1)
        random.Random(3).shuffle(reqs)
        warm = [self.run(req) for req in reqs]
        assert _delta_facts.cache_info().currsize == 6  # one entry per Delta
        assert _delta_facts.cache_info().hits == len(reqs) - 6
        for req, text in zip(reqs, warm):
            _delta_facts.cache_clear()
            assert self.run(req) == text, req

    def test_mutating_a_report_cannot_reach_the_memo(self, delta1, delta2, g1):
        for req in self.requests(delta1, delta2, g1):
            if req.tau is not None and "ValueError" in self.run(req):
                continue
            first = analyze(req) if req.tau is None else analyze_tau(req)
            before = report_render(first, "json")
            for value in vars(first).values():
                if isinstance(value, (list, dict)):
                    _mutate_all(value)
            assert self.run(req) == before, req

    def test_bounded(self):
        from knotsig.pipeline import _delta_facts

        bound = memos.PER_INPUT
        assert _delta_facts.cache_info().maxsize == bound
        for a in range(bound + 1):
            analyze(AnalysisRequest(delta=make_delta_a(a), m=7, signature=0))
            assert _delta_facts.cache_info().currsize == min(a + 1, bound)
        assert _delta_facts.cache_info().misses == bound + 1

    def test_budget_refusal_is_not_memoized(self, monkeypatch, calls, delta1, delta2):
        from knotsig import BudgetExceededError, zfactor

        counts = calls("zfactor.standing_assumptions")
        req = AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)
        monkeypatch.setattr(zfactor, "MAX_MODULAR_FACTORS", 1)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="recombination cap of 1"):
                analyze(req)
        assert counts["zfactor.standing_assumptions"] == 2
        monkeypatch.setattr(zfactor, "MAX_MODULAR_FACTORS", 16)
        assert analyze(req).verdict == VERDICT_REALIZABLE

    def test_obstruction_refusal_is_not_memoized(self, monkeypatch, calls, delta1, delta2):
        from knotsig import BudgetExceededError, obstruction

        counts = calls("zfactor.standing_assumptions", "obstruction.obstruction_group")
        req = AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)

        def exhausted(n):
            raise BudgetExceededError(f"rho budget spent on {n}")

        real = obstruction.integer_factor
        monkeypatch.setattr(obstruction, "integer_factor", exhausted)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="candidate prime set incomplete"):
                analyze(req)
        monkeypatch.setattr(obstruction, "integer_factor", real)
        assert analyze(req).verdict == VERDICT_REALIZABLE
        assert counts == {"zfactor.standing_assumptions": 1, "obstruction.obstruction_group": 3}

    def test_analyze_then_tau_factors_once(self, calls, delta1, delta2):
        counts = calls("zfactor.standing_assumptions", "obstruction.obstruction_group", "realroots.rho_delta")
        delta = delta1 * delta2
        assert analyze(AnalysisRequest(delta=delta, m=7, signature=8)).verdict == VERDICT_REALIZABLE
        rep = analyze_tau(AnalysisRequest(delta=delta, m=7, tau=(2, 2, -2, -2)))
        assert rep.verdict == VERDICT_REALIZABLE
        # one rho(Delta_f) per factor of P, computed with the Delta facts
        assert len(rep.factors["factors"]) == 2
        assert counts == {
            "zfactor.standing_assumptions": 1,
            "obstruction.obstruction_group": 1,
            "realroots.rho_delta": 2,
        }

    def test_not_admissible_skips_the_obstruction_group(self, calls, delta1, delta2):
        counts = calls("zfactor.standing_assumptions", "obstruction.obstruction_group")
        for s in (4, 16, 24):
            rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=s))
            assert rep.verdict == VERDICT_NOT_ADMISSIBLE
        assert counts == {"zfactor.standing_assumptions": 1}


class TestFactorFactsMemo:
    """The facts of one factor of P (its record: lift, certificate and rho)
    and of one factor pair (its primes and witnesses) are computed once per
    process, whichever Delta they came from; reports are unchanged."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_match_reports_from_empty_memos(self, seed):
        from knotsig.obstruction import _pair_primes
        from knotsig.zfactor import _lift_facts

        rng = random.Random(seed)
        a_values = (-5, -2, 0, 1, 2, 3, 6, 9, 10)
        reqs = []
        for k in (2, 3, 3, 4, 4, 5):
            delta = IntPoly.one()
            for a in rng.sample(a_values, k):
                delta = delta * make_delta_a(a)
            for m, s in ((7, 8), (11, 0), (7, -16)):
                reqs.append(AnalysisRequest(delta=delta, m=m, signature=s))
        rng.shuffle(reqs)
        warm = [TestDeltaFactsMemo.run(req) for req in reqs]
        for memo in (_pair_primes, _lift_facts):
            assert memo.cache_info().hits > 0
        for req, text in zip(reqs, warm):
            clear_facts_memos()
            assert TestDeltaFactsMemo.run(req) == text, req

    def test_shared_factors_and_pairs_are_computed_once(self, calls):
        from knotsig.obstruction import _pair_primes
        from knotsig.zfactor import _lift_facts

        counts = calls("polys.resultant")
        d0, d1, d2, d3 = (make_delta_a(a) for a in range(4))
        for delta in (d0 * d1 * d2, d0 * d1 * d3):
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            assert rep.verdict in (VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN)
        # three pairs, then the two pairs with Delta_3's factor
        assert counts == {"polys.resultant": 5}
        assert _pair_primes.cache_info()[:2] == (1, 5)
        # one record per new v-model, read by factor_z and again for rho:
        # 3 + 3 reads of the first Delta, 3 + 3 of the second
        assert _lift_facts.cache_info()[:2] == (8, 4)

    def test_one_sturm_sequence_per_new_factor(self, monkeypatch):
        """A Delta-facts miss builds one Sturm sequence per new factor f of
        P: that of the trace model of f's Delta_f, for its rho, in the
        record of f's v-model, which also certifies the lift with it.  A
        Delta whose factors are all known builds none."""
        from knotsig import realroots
        from knotsig.polys import p_to_delta, trace_polynomial
        from knotsig.zfactor import _lift_facts

        built = []
        original = realroots.sturm_sequence

        def recording(f, g=None):
            built.append(f)
            return original(f, g)

        monkeypatch.setattr(realroots, "sturm_sequence", recording)
        d0, d1, d2, d3 = (make_delta_a(a) for a in range(4))
        seen = set()
        for delta in (d0 * d1 * d2, d0 * d1 * d3, d0 * d3):
            built.clear()
            misses = _lift_facts.cache_info().misses
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            fs = [IntPoly(f["coeffs"]) for f in rep.factors["factors"]]
            new = [f for f in fs if f not in seen]
            seen.update(fs)
            expected = [trace_polynomial(p_to_delta(f)) for f in new]
            assert sorted(built, key=str) == sorted(expected, key=str)
            assert _lift_facts.cache_info().misses == misses + len(new)
        assert not built  # d0 * d3: both factors known
        assert len(seen) == 4 and _lift_facts.cache_info().misses == 4

    def test_pair_refusal_is_raised_again(self, monkeypatch):
        from knotsig import BudgetExceededError, obstruction

        spent = []

        def exhausted(n):
            spent.append(n)
            raise BudgetExceededError(f"rho budget spent on {n}")

        d0, d1, d2 = (make_delta_a(a) for a in range(3))
        reqs = [AnalysisRequest(delta=delta, m=7, signature=8) for delta in (d0 * d2, d0 * d1 * d2)]
        monkeypatch.setattr(obstruction, "integer_factor", exhausted)
        for req in reqs:
            with pytest.raises(BudgetExceededError, match="candidate prime set incomplete"):
                analyze(req)
        # the pair of Delta_0's and Delta_2's factors, whose v-models have
        # resultant -8 (the factors' is 64 = (-8)^2), both times; the other
        # pairs have resultant +-1
        assert spent == [-8, -8]
        monkeypatch.undo()
        tables = [[entry["primes"] for entry in analyze(req).pi_table] for req in reqs]
        assert tables == [[[2]], [[], [2], []]]

    def test_bounded(self):
        """Every memo of `memos.MEMOS`, filled from empty with one new key
        at a time, holds at most its bound: PER_INPUT for a whole input,
        PER_FACTOR for a part of one."""
        from knotsig.obstruction import _pair_primes
        from knotsig.pipeline import _delta_facts
        from knotsig.seifert import _form_facts, _lattice_facts
        from knotsig.zfactor import _known_factors, _lift_facts

        v = IntPoly((0, -1, 1))  # X^2 - X
        fills = (
            (_delta_facts, memos.PER_INPUT, lambda c: _delta_facts(IntPoly((c, 1)))),
            (_form_facts, memos.PER_INPUT, lambda c: _form_facts(((0, c), (1 - c, 0)))),
            (_lattice_facts, memos.PER_INPUT, lambda c: _lattice_facts(((0, 1), (1, 2 * c)))),
            (_known_factors, memos.PER_FACTOR, lambda c: _known_factors.learn([IntPoly((-c, 1))])),
            (_lift_facts, memos.PER_FACTOR, lambda c: _lift_facts(IntPoly((-c, 1)))),
            (_pair_primes, memos.PER_FACTOR, lambda c: _pair_primes(v, v - IntPoly((c,)))),
        )
        assert sorted(map(id, memos.MEMOS)) == sorted(id(memo) for memo, _, _ in fills)
        for memo, bound, call in fills:
            memos.clear()
            for c in range(1, bound + 2):
                call(c)
                assert memo_size(memo) == min(c, bound)


def memo_size(memo) -> int:
    return len(memo.entries) if isinstance(memo, _KnownFactors) else memo.cache_info().currsize


def test_the_fixture_clears_every_memo(delta1, delta2, e8_half):
    """Every module-level memo of knotsig (an object with ``cache_clear``,
    classes aside) is registered in `memos.MEMOS`, which the autouse
    fixture of conftest.py empties with `memos.clear`."""
    import pkgutil

    import knotsig
    from knotsig import alexander_of_form

    found = {}
    for info in pkgutil.iter_modules(knotsig.__path__):
        module = importlib.import_module(f"knotsig.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and not isinstance(value, type):
                found.setdefault(id(value), (f"{info.name}.{name}", value))
    assert [n for n, memo in found.values() if all(memo is not m for m in memos.MEMOS)] == []
    assert len(found) == len(memos.MEMOS)
    analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
    alexander_of_form(e8_half)
    assert all(memo_size(memo) > 0 for memo in memos.MEMOS)
    memos.clear()
    assert all(memo_size(memo) == 0 for memo in memos.MEMOS)


def test_every_memo_is_keyed_on_mathematical_objects():
    """Every parameter of every memo is annotated as a polynomial or a
    matrix, so no memo is keyed on a knob (a seed, a budget) that changes
    no answer.  The ``lru_cache`` memos are read through ``__wrapped__``,
    ``zfactor._known_factors`` through its ``__call__`` without ``self``."""
    keys = {}
    for memo in memos.MEMOS:
        fn = memo.__wrapped__ if hasattr(memo, "__wrapped__") else type(memo).__call__
        params = [p for p in inspect.signature(fn).parameters.values() if p.name != "self"]
        keys[fn.__qualname__] = [p.annotation for p in params]
    assert len(keys) == len(memos.MEMOS)
    bad = {name: ann for name, ann in keys.items()
           if not ann or any(a not in ("IntPoly", "PolyModP", "Matrix") for a in ann)}
    assert bad == {}
