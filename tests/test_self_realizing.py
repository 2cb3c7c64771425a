"""Self-realizing Seifert forms: any A with A + A^T = S even unimodular
realizes sig S, so its own invariants must pass every gate.

Forms are A = half_form(S) + K for a random integer skew K (which leaves
A + A^T = S unchanged), with S in {E8, E8+H, E8+(-E8), H, H+H, H+H+H}.
E8+(-E8) has signature 0 and mixed Milnor values such as (-2, 2).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knotsig import (
    VERDICT_NOT_ADMISSIBLE,
    VERDICT_OBSTRUCTION_UNKNOWN,
    VERDICT_OUT_OF_SCOPE,
    VERDICT_REALIZABLE,
    AnalysisRequest,
    alexander_of_form,
    analyze,
    analyze_tau,
    block_diag,
    charpoly_of_pair,
    e8_gram,
    factor_z,
    form_to_pair,
    half_form,
    is_squarefree_q,
    milnor_signatures,
)
from knotsig.seifert import mat_det
from reference import signature_float, sympy_factors

H = ((0, 1), (1, 0))
LATTICES = {
    "E8": e8_gram(),
    "E8+H": block_diag(e8_gram(), H),
    "E8+(-E8)": block_diag(e8_gram(), tuple(tuple(-x for x in row) for row in e8_gram())),
    "H": H,
    "H+H": block_diag(H, H),
    "H+H+H": block_diag(block_diag(H, H), H),
}


@st.composite
def self_realizing_forms(draw):
    name = draw(st.sampled_from(sorted(LATTICES)))
    gram = LATTICES[name]
    n = len(gram)
    base = half_form(gram)
    steps = draw(
        st.lists(
            st.sampled_from((0, 0, 0, 1, -1, 2, -2)),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    a = [list(row) for row in base]
    it = iter(steps)
    for i in range(n):
        for j in range(i + 1, n):
            c = next(it)
            a[i][j] += c
            a[j][i] -= c
    assume(mat_det(a) != 0)
    return gram, tuple(tuple(row) for row in a)


@settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(self_realizing_forms())
def test_self_realizing_form(case):
    gram, a = case
    sig = signature_float([list(row) for row in gram])
    delta = alexander_of_form(a)
    assert delta.evaluate(1) == (-1) ** (len(a) // 2)
    fz = factor_z(delta)
    assert sorted((q.coeffs, e) for q, e in fz.factors) == sympy_factors(delta)

    pair = form_to_pair(a)
    if not is_squarefree_q(charpoly_of_pair(pair.s, pair.a)):
        with pytest.raises(ValueError, match="squarefree"):
            milnor_signatures(pair.s, pair.a)
        return
    ms = milnor_signatures(pair.s, pair.a)
    assert ms.total == sig

    report = analyze(AnalysisRequest(delta=delta, m=7, signature=sig))
    assert report.verdict != VERDICT_NOT_ADMISSIBLE, report.reason
    if report.verdict == VERDICT_OUT_OF_SCOPE:
        return
    assert report.rho == 2 * len(ms.values)
    assert all(v in (-2, 2) for v in ms.values)
    tau_report = analyze_tau(AnalysisRequest(delta=delta, m=7, tau=ms.values))
    assert tau_report.verdict in (VERDICT_REALIZABLE, VERDICT_OBSTRUCTION_UNKNOWN)
