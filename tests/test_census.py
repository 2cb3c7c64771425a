"""The verdict counts of the census and the sweep (ROADMAP "Terms").

A change that is not meant to move an answer keeps these counts; one
that moves answers on purpose re-pins them and says why.

- The census: every Delta of `test_full_degree_oracle.census` (792) at
  m = 7 and every s with 8 | s and |s| <= 8n, for Delta of degree 2n:
  6,892 requests.
- The sweep: every product of `test_pipeline.sweep` (816) at m = 7 and
  s in {0, +-8, +-16}: 4,080 requests.
"""

from __future__ import annotations

from collections import Counter

from knotsig import AnalysisRequest, analyze
from test_full_degree_oracle import census
from test_pipeline import sweep


def test_census_verdicts_by_degree():
    by_degree: dict[int, Counter[str]] = {}
    for delta in census():
        n = delta.degree // 2
        counts = by_degree.setdefault(2 * n, Counter())
        for s in range(-8 * n, 8 * n + 1, 8):
            counts[analyze(AnalysisRequest(delta=delta, m=7, signature=s)).verdict] += 1
    assert by_degree == {
        2: Counter(OUT_OF_SCOPE=3),
        4: Counter(REALIZABLE=7, NOT_ADMISSIBLE=28, OUT_OF_SCOPE=5),
        6: Counter(REALIZABLE=84, NOT_ADMISSIBLE=504, OUT_OF_SCOPE=105),
        8: Counter(REALIZABLE=1_087, NOT_ADMISSIBLE=4_826, OUT_OF_SCOPE=243),
    }
    assert sum(by_degree.values(), Counter()) == Counter(
        REALIZABLE=1_178, NOT_ADMISSIBLE=5_358, OUT_OF_SCOPE=356
    )


def test_sweep_verdicts():
    counts = Counter(
        analyze(AnalysisRequest(delta=delta, m=7, signature=s)).verdict
        for delta in sweep()
        for s in (0, 8, -8, 16, -16)
    )
    assert counts == Counter(REALIZABLE=1_852, NOT_ADMISSIBLE=2_164, OBSTRUCTION_UNKNOWN=64)
