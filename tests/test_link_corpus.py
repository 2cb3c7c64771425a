"""The link corpus, tests/data/link_forms.json, drawn by
scripts/link_corpus.py: self-realizing Seifert forms A = half_form(S) + K
on S of E8, E8 + H and E8 + H + H whose P has two or more symmetric
irreducible factors (kind ``links``), or a factor not fixed by X -> 1-X
(kind ``nonsymmetric``).

A + A^T = S, so each form realizes sig S = 8 and its own Milnor assignment
tau(A), and the true answer to both questions, at m = 7, is REALIZABLE.
With two or more symmetric factors whose own tau sums need not be
divisible by 8, the answer can depend on how the factors are linked,
which no other pinned corpus tests.  So no question may get
NOT_ADMISSIBLE, and every answer class is pinned: a change that decides
these questions by link kinds moves the pins on purpose.  The file keeps
every hit of its draw; never filter or re-seed it to hide a failure.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from knotsig import (
    VERDICT_NOT_ADMISSIBLE,
    AnalysisRequest,
    alexander_of_form,
    analyze,
    analyze_tau,
    form_to_pair,
    milnor_signatures,
)
from knotsig.seifert import mat_add, mat_det, transpose
from reference import pencil_det_by_lagrange, signature_by_real_elimination

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent / "scripts" / "link_corpus.py"
REDRAWN = 2_000


@pytest.fixture(scope="module")
def link_corpus():
    spec = importlib.util.spec_from_file_location("link_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus() -> dict:
    data = json.loads((HERE / "data" / "link_forms.json").read_text())
    for hit in data["hits"]:
        hit["form"] = tuple(map(tuple, hit["form"]))
    return data


def test_the_file_is_the_full_draw(corpus, link_corpus):
    assert (corpus["seed"], corpus["forms"], corpus["m"], corpus["signature"]) == (
        link_corpus.SEED, link_corpus.FORMS, link_corpus.M, link_corpus.SIGNATURE)
    assert Counter(hit["kind"] for hit in corpus["hits"]) == {"links": 101, "nonsymmetric": 59}
    assert corpus["draws"] == 40_301


def test_each_form_is_a_seifert_form_on_its_lattice(corpus, link_corpus):
    """A is nonsingular, and A + A^T is the lattice's Gram matrix: even,
    unimodular and of the stated signature (by the real elimination of
    tests/reference.py)."""
    grams = dict(link_corpus.LATTICES)
    for hit in corpus["hits"]:
        a = hit["form"]
        s = mat_add(a, transpose(a))
        assert mat_det(a) != 0
        assert s == grams[hit["lattice"]]
        assert all(s[i][i] % 2 == 0 for i in range(len(s))) and mat_det(s) in (1, -1)
        assert signature_by_real_elimination(s) == corpus["signature"]


def test_alexander_polynomial_and_tau(corpus):
    """Delta_A is the pencil determinant det(X A + A^T) by Lagrange
    interpolation, and tau(A) is the stored one, summing to sig S."""
    for hit in corpus["hits"]:
        a = hit["form"]
        assert alexander_of_form(a) == pencil_det_by_lagrange(transpose(a), a)
        if hit["kind"] == "links":
            pair = form_to_pair(a)
            tau = milnor_signatures(pair.s, pair.a).values
            assert list(tau) == hit["tau"] and sum(tau) == corpus["signature"]


@pytest.fixture(scope="module")
def answers(corpus, link_corpus) -> Counter:
    counts = Counter()
    for hit in corpus["hits"]:
        delta, kind = alexander_of_form(hit["form"]), hit["kind"]
        report = analyze(AnalysisRequest(delta=delta, m=corpus["m"], signature=corpus["signature"]))
        counts[f"{kind} s: {report.verdict}"] += 1
        if kind == "links":
            report = analyze_tau(AnalysisRequest(delta=delta, m=corpus["m"], tau=tuple(hit["tau"])))
            counts[f"{kind} tau: {report.verdict}"] += 1
    return counts


def test_no_question_is_refuted(answers):
    assert not {name for name in answers if name.endswith(VERDICT_NOT_ADMISSIBLE)}


def test_answer_classes_are_pinned(answers):
    """Today every form with two or more symmetric factors reads
    REALIZABLE at s and at tau, whatever links its factors."""
    assert answers == {
        "links s: REALIZABLE": 101,
        "links tau: REALIZABLE": 101,
        "nonsymmetric s: OUT_OF_SCOPE": 59,
    }


def test_the_script_redraws_the_file(corpus, link_corpus):
    """The first REDRAWN forms, drawn again, give the file's first hits."""
    draws, hits = link_corpus.hits(REDRAWN)
    for hit in hits:
        hit["form"] = tuple(map(tuple, hit["form"]))
    assert hits == [hit for hit in corpus["hits"] if hit["draw"] <= draws]
    assert len(hits) > 0
