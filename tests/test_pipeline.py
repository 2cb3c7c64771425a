"""End-to-end verdicts, report invariants, and rendering."""

from __future__ import annotations

import dataclasses
import importlib
import json
import random

import pytest

from knotsig import (
    AnalysisRequest,
    IntPoly,
    KnotsigError,
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
    factor_z,
    half_form,
    mil_nonempty,
    parse_poly,
    report_from_json,
    report_render,
    rho_p,
    symmetric_check,
)
from conftest import FACTS_MEMOS, clear_facts_memos, make_delta_a
from oracles import delta_factor_rhos, indecomposable_by_delta_factors


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

    def test_m_validation(self, delta1):
        with pytest.raises(ValueError, match="m = 5"):
            AnalysisRequest(delta=delta1, m=5, signature=0)
        with pytest.raises(ValueError, match="m = 2"):
            AnalysisRequest(delta=delta1, m=2, signature=0)


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

    def test_to_dict_equals_asdict(self, delta1, delta2, g1):
        """``to_dict`` gives what ``dataclasses.asdict`` gives, with the same
        keys, order, types and JSON, on every verdict, with and without the
        listed assignments; the dict it returns is the caller's own."""
        big = make_delta_a(0) * make_delta_a(1) * make_delta_a(2) * make_delta_a(3) * make_delta_a(4)
        reports = [
            analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8)),
            analyze(AnalysisRequest(delta=g1 * delta1, m=7, signature=8)),
            analyze(AnalysisRequest(delta=delta1 * delta2, m=3, signature=8)),
            analyze(AnalysisRequest(delta=parse_poly("x^2 - x + 1"), m=7, signature=0)),
            analyze(AnalysisRequest(delta=big, m=7, signature=0)),
            analyze_tau(AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2, 2, 2))),
        ]
        assert {rep.verdict for rep in reports} == {
            VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN, VERDICT_NOT_ADMISSIBLE, VERDICT_OUT_OF_SCOPE,
        }
        assert "assignments" in reports[0].mil and "assignments" not in reports[4].mil
        for rep in reports:
            want, got = dataclasses.asdict(rep), rep.to_dict()
            assert got == want and repr(got) == repr(want)
            assert json.dumps(got) == json.dumps(want)
            before = dataclasses.asdict(rep)
            scribble(got)
            assert got != want and dataclasses.asdict(rep) == before

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

    def test_deterministic_across_runs_and_seeds(self, delta1, delta2):
        a = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8, seed=0))
        b = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8, seed=0))
        assert a == b
        c = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8, seed=9))
        assert c.verdict == a.verdict and c.group == a.group and c.rho == a.rho

    def test_reports_self_certifying(self, delta1, delta2, g1):
        """REALIZABLE implies the gates re-derivable from the report."""
        for delta in (delta1 * delta2, g1 * delta1, make_delta_a(0) * make_delta_a(2)):
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            if rep.verdict == VERDICT_REALIZABLE:
                assert mil_nonempty(rep.rho, rep.s)
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
        if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
            delta = -delta
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


def test_rho_cross_check_raises(monkeypatch, delta1, delta2):
    """rho(Delta) is recomputed on its own and must equal the sum of the
    per-factor rho of P."""
    import knotsig.pipeline

    real = knotsig.pipeline.rho_delta
    monkeypatch.setattr(knotsig.pipeline, "rho_delta", lambda d: real(d) + 2)
    with pytest.raises(KnotsigError, match="disagree"):
        analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
    with pytest.raises(KnotsigError, match="disagree"):
        analyze_tau(AnalysisRequest(delta=delta1 * delta2, m=7, tau=(2, 2, 2, 2)))


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
        assert rep.degree_even and rep.cond_reciprocal and rep.cond_at_one
        p = delta_to_p(delta)
        assert symmetric_check(p)
        assert p.lc == 1
        at_half = sum(c << (2 * n - i) for i, c in enumerate(p.coeffs))  # 2^2n P(1/2)
        assert at_half == (-1) ** n * delta.evaluate(-1) and at_half % 2 == 1
        trace: list[str] = []
        assert factor_z(p, trace=trace).product() == p
        assert trace[0].startswith("through the v-model Q = ")


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
        """A Delta-facts miss derives each factor's v-model once, and that
        is its symmetry test: once for P's route and once per factor of P,
        which rho and the prime table read; no `symmetric_check` runs."""
        counts = calls("polys.symmetric_check", "polys.v_polynomial")
        rep = analyze(AnalysisRequest(delta=self.DELTA, m=7, signature=0))
        assert rep.verdict == VERDICT_REALIZABLE and len(rep.pi_table) == 6
        assert counts == {"polys.v_polynomial": 1 + len(rep.factors["factors"])} == {
            "polys.v_polynomial": 5
        }


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
    """The facts of a Delta are computed once per (Delta, seed) and kept
    in a bounded memo; reports are built fresh from them."""

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
        for seed in (0, 1):
            for delta in deltas:
                for m, s in ((7, 8), (3, 8), (7, 0), (11, -8)):
                    reqs.append(AnalysisRequest(delta=delta, m=m, signature=s, seed=seed))
                reqs.append(AnalysisRequest(delta=delta, m=7, tau=(2, 2, 2, 2), seed=seed))
        return reqs

    @staticmethod
    def run(req: AnalysisRequest) -> str:
        try:
            rep = analyze(req) if req.tau is None else analyze_tau(req)
        except ValueError as exc:  # a tau of the wrong length
            return f"ValueError: {exc}"
        return report_render(rep, "json")

    def test_never_answers_for_another_delta_or_seed(self, delta1, delta2, g1):
        from knotsig.pipeline import _delta_facts

        reqs = self.requests(delta1, delta2, g1)
        random.Random(3).shuffle(reqs)
        warm = [self.run(req) for req in reqs]
        assert _delta_facts.cache_info().currsize == 12  # 6 Deltas x 2 seeds
        assert _delta_facts.cache_info().hits == len(reqs) - 12
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

    def test_bounded(self, delta1):
        from knotsig.pipeline import DELTA_FACTS_MEMO, _delta_facts

        assert _delta_facts.cache_info().maxsize == DELTA_FACTS_MEMO
        for seed in range(DELTA_FACTS_MEMO + 1):
            analyze(AnalysisRequest(delta=delta1, m=7, signature=0, seed=seed))
            assert _delta_facts.cache_info().currsize == min(seed + 1, DELTA_FACTS_MEMO)
        assert _delta_facts.cache_info().misses == DELTA_FACTS_MEMO + 1

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

        def exhausted(n, seed, budget):
            raise BudgetExceededError(f"rho budget {budget} spent on {n}")

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
        assert counts == {
            "zfactor.standing_assumptions": 1,
            "obstruction.obstruction_group": 1,
            "realroots.rho_delta": 1,
        }

    def test_not_admissible_skips_the_obstruction_group(self, calls, delta1, delta2):
        counts = calls("zfactor.standing_assumptions", "obstruction.obstruction_group")
        for s in (4, 16, 24):
            rep = analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=s))
            assert rep.verdict == VERDICT_NOT_ADMISSIBLE
        assert counts == {"zfactor.standing_assumptions": 1}


class TestFactorFactsMemo:
    """The facts of one factor of P (its lift certificate and its rho), of
    one factor pair (its primes and witnesses) and of one gcd mod p (its
    witness) are computed once per process, whichever Delta they came
    from; reports are unchanged."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_match_reports_from_empty_memos(self, seed):
        from knotsig.obstruction import _pair_primes, _symmetric_witness
        from knotsig.realroots import _v_chain
        from knotsig.zfactor import _lift_certified

        rng = random.Random(seed)
        a_values = (-5, -2, 0, 1, 2, 3, 6, 9, 10)
        reqs = []
        for k in (2, 3, 3, 4, 4, 5):
            delta = IntPoly.one()
            for a in rng.sample(a_values, k):
                delta = delta * make_delta_a(a)
            for m, s in ((7, 8), (11, 0), (7, -16)):
                reqs.append(AnalysisRequest(delta=delta, m=m, signature=s, seed=seed))
        rng.shuffle(reqs)
        warm = [TestDeltaFactsMemo.run(req) for req in reqs]
        for memo in (_pair_primes, _v_chain, _lift_certified, _symmetric_witness):
            assert memo.cache_info().hits > 0
        for req, text in zip(reqs, warm):
            clear_facts_memos()
            assert TestDeltaFactsMemo.run(req) == text, req

    def test_shared_factors_and_pairs_are_computed_once(self, calls):
        from knotsig.obstruction import _pair_primes
        from knotsig.realroots import _v_chain
        from knotsig.zfactor import _lift_certified

        counts = calls("polys.resultant")
        d0, d1, d2, d3 = (make_delta_a(a) for a in range(4))
        for delta in (d0 * d1 * d2, d0 * d1 * d3):
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            assert rep.verdict in (VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN)
        # three pairs, then the two pairs with Delta_3's factor
        assert counts == {"polys.resultant": 5}
        assert _pair_primes.cache_info()[:2] == (1, 5)
        # one Sturm sequence and root count per new v-model; the 6 rhos are hits
        assert _v_chain.cache_info()[:2] == (6, 4)
        assert _lift_certified.cache_info()[:2] == (2, 4)

    def test_one_sturm_sequence_per_new_factor(self, monkeypatch):
        """A Delta-facts miss builds the Sturm sequence of each new factor's
        v-model once: the lift certificate counts its roots below -1/4, and
        the rho of every factor reads that count from the same memo.  The
        trace model D of the rho(Delta) cross-check builds its own, outside
        that memo."""
        from knotsig import realroots
        from knotsig.polys import trace_polynomial, v_polynomial

        built = []
        original = realroots.sturm_sequence

        def recording(f, g=None):
            built.append(f)
            return original(f, g)

        monkeypatch.setattr(realroots, "sturm_sequence", recording)
        d0, d1, d2, d3 = (make_delta_a(a) for a in range(4))
        seen = set()
        for delta in (d0 * d1 * d2, d0 * d1 * d3):
            built.clear()
            hits, misses = realroots._v_chain.cache_info()[:2]
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            qs = [v_polynomial(IntPoly(f["coeffs"])) for f in rep.factors["factors"]]
            new = [q for q in qs if q not in seen]
            seen.update(qs)
            assert sorted(built, key=str) == sorted(new + [trace_polynomial(delta)], key=str)
            # the certificate misses on each new model, every rho hits
            assert realroots._v_chain.cache_info()[:2] == (hits + len(qs), misses + len(new))
        assert len(seen) == 4 and realroots._v_chain.cache_info()[:2] == (6, 4)

    def test_pair_refusal_is_raised_again(self, monkeypatch):
        from knotsig import BudgetExceededError, obstruction

        spent = []

        def exhausted(n, seed, budget):
            spent.append(n)
            raise BudgetExceededError(f"rho budget {budget} spent on {n}")

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
        from knotsig.modp import PolyModP
        from knotsig.obstruction import PI_RHO_BUDGET, _pair_primes, _symmetric_witness
        from knotsig.zfactor import FACTOR_FACTS_MEMO, _lift_certified

        v = IntPoly((0, -1, 1))  # X^2 - X
        fills = (  # the witnesses first: filling the pair memo computes some
            (_symmetric_witness, lambda c: _symmetric_witness(PolyModP(1_000_003, (c, 1)), 0)),
            (_lift_certified, lambda c: _lift_certified(IntPoly((-c, 1)))),
            (_pair_primes, lambda c: _pair_primes(v, v - IntPoly((c,)), 0, PI_RHO_BUDGET)),
        )
        for memo, call in fills:
            assert memo.cache_info().maxsize == FACTOR_FACTS_MEMO
            for c in range(1, FACTOR_FACTS_MEMO + 2):
                call(c)
                assert memo.cache_info().currsize == min(c, FACTOR_FACTS_MEMO)
            assert memo.cache_info().misses == FACTOR_FACTS_MEMO + 1


def test_the_fixture_clears_every_memo(delta1, delta2, e8_half):
    """Every module-level memo of knotsig (a callable with ``cache_clear``)
    is one the autouse fixture of conftest.py empties."""
    import pkgutil

    import knotsig
    from knotsig import alexander_of_form

    found = {}
    for info in pkgutil.iter_modules(knotsig.__path__):
        module = importlib.import_module(f"knotsig.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_clear"):
                found.setdefault(id(value), (f"{info.name}.{name}", value))
    assert [n for n, memo in found.values() if all(memo is not m for m in FACTS_MEMOS)] == []
    analyze(AnalysisRequest(delta=delta1 * delta2, m=7, signature=8))
    alexander_of_form(e8_half)
    assert all(memo.cache_info().currsize > 0 for _, memo in found.values())
    clear_facts_memos()
    assert all(memo.cache_info().currsize == 0 for _, memo in found.values())
