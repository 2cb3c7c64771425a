"""The Seifert-form toolkit on E8: from a concrete integer matrix to its
Alexander polynomial, its Milnor signatures and the verdict on them.

A Seifert form is an integer matrix A with S = A + A^T unimodular.  Its
companion c = S^-1 A^T is an integer matrix, P = det(X - c) is fixed by
X -> 1-X, and Delta_A = det(X*A + A^T) is read off P.  Each unit-circle
root pair of P has a real eigenplane ker(c^2 - c - lambda) on which S is
definite; its Milnor signature is twice that sign, and the signatures sum
to the signature of S.  The half form of E8 realizes signature 8 with
Alexander polynomial Delta_A, so the analysis must find s = 8 realizable.
"""

from knotsig import (
    AnalysisRequest,
    alexander_of_form,
    analyze,
    analyze_tau,
    charpoly_of_pair,
    e8_gram,
    form_to_pair,
    half_form,
    milnor_signatures,
    poly_text,
    signature_exact,
    v_polynomial,
    validate_form,
)

a = half_form(e8_gram())
print("A = half form of E8 (strict upper triangle plus half the diagonal):")
for row in a:
    print(" " + "".join(f"{x:4d}" for x in row))
val = validate_form(a)
print(f"validate: {'valid Seifert form' if val.ok else '; '.join(val.problems)}")

delta = alexander_of_form(a)
print(f"\nDelta_A = det(X*A + A^T) = {poly_text(delta)}")

pair = form_to_pair(a)
print("\ncompanion c = S^-1 A^T:")
for row in pair.a:
    print(" " + "".join(f"{x:4d}" for x in row))
p = charpoly_of_pair(pair.s, pair.a)
print(f"P = det(X - c) = {poly_text(p)}")
print(f"v-model Q (P(X) = Q(X^2 - X)) = {poly_text(v_polynomial(p))}")

ms = milnor_signatures(pair.s, pair.a)
sig = signature_exact(pair.s)
print("\nMilnor signature per unit-circle factor X^2 - X - lambda, by v-root interval:")
for iv, value in zip(ms.intervals, ms.values):
    print(f"  lambda in ({iv.lo}, {iv.hi}): {value:+d}")
print(f"total {ms.total} = sig S = {sig}")

report = analyze(AnalysisRequest(delta=delta, m=7, signature=sig))
print(f"\nanalyze(Delta_A, m = 7, s = {sig}): {report.verdict}, rho = {report.rho}")
tau_report = analyze_tau(AnalysisRequest(delta=delta, m=7, tau=ms.values))
tau = ", ".join(f"{v:+d}" for v in ms.values)
print(f"analyze_tau(Delta_A, m = 7, tau = ({tau})): {tau_report.verdict}")
