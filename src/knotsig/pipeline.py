"""Decision pipeline: from (Delta, m, target) to a realizability verdict.

The verdict taxonomy is deliberately four-valued.  OUT_OF_SCOPE means the
input violates a structural assumption (conditions on Delta, or the
companion polynomial is not a squarefree product of symmetric factors).
NOT_ADMISSIBLE means an arithmetic gate fails: the signature must be
divisible by 8 (by 16 when m = 3) and bounded by rho.  A signature that
passes both is reached by some Milnor assignment, as rho = 0 (mod 4) for
every Delta in scope (proof at :func:`analyze`).  When the gates pass, a
trivial obstruction group means REALIZABLE; a nonzero group means the
answer depends on an evaluation this tool does not perform, reported as
OBSTRUCTION_UNKNOWN rather than guessed.

The facts about Delta do not depend on the target, so
:func:`_delta_facts` memoizes them per Delta (see `memos`) as a frozen
:class:`DeltaFacts`: the conditions (and the OUT_OF_SCOPE reason, if
any), P, its factor set (by :func:`zfactor.factor_z`, which always takes
P through its half-degree v-model), the rho of each factor of P, read
from the record of its v-model (`zfactor._lift_facts`), which counted it
once on its factor Delta_f of Delta, and, on first use, the prime table
and the obstruction group.  The checks per target are the gates on m and
s (or tau): divisibility by 8 or 16, and |s| <= rho.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Any, Sequence

from .memos import PER_INPUT, memo
from .milnor import enumerate_sign_tuples, expected_count, first_assignment
from .polys import ConditionReport, IntPoly, _integer, alexander_check, delta_to_p, poly_text
from .obstruction import ObstructionGroup, PiEntry, obstruction_group
from .zfactor import SymmetricFactorSet, _lift_facts, standing_assumptions
from .zfactor import factor_z  # noqa: F401  unused; perfbench's tracer test patches pipeline.factor_z
from .version import TOOL_VERSION

VERDICT_REALIZABLE = "REALIZABLE"
VERDICT_NOT_ADMISSIBLE = "NOT_ADMISSIBLE"
VERDICT_OBSTRUCTION_UNKNOWN = "OBSTRUCTION_UNKNOWN"
VERDICT_OUT_OF_SCOPE = "OUT_OF_SCOPE"

MAX_LISTED_ASSIGNMENTS = 128


@dataclass(frozen=True)
class AnalysisRequest:
    """A target: Delta plus the knot dimension m (3 mod 4), and either a
    signature s or an explicit assignment tau.  Delta is an `IntPoly` and
    tau a sequence; m, s and the entries of tau are integers as
    `seifert.as_matrix` takes them: of a type with ``__index__``, not bool,
    stored as int."""

    delta: IntPoly
    m: int
    signature: int | None = None
    tau: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.delta, IntPoly):
            raise ValueError(f"delta {self.delta!r} is not an IntPoly")
        if self.tau is not None and not isinstance(self.tau, Sequence):
            raise ValueError(f"tau {self.tau!r} is not a sequence")
        object.__setattr__(self, "m", _integer(self.m, "knot dimension m"))
        if self.signature is not None:
            object.__setattr__(self, "signature", _integer(self.signature, "signature"))
        if self.tau is not None:
            object.__setattr__(self, "tau", tuple(_integer(v, "tau value") for v in self.tau))
        if self.m < 3 or self.m % 4 != 3:
            raise ValueError(f"knot dimension m = {self.m} must be >= 3 with m = 3 (mod 4)")
        if (self.signature is None) == (self.tau is None):
            raise ValueError("provide exactly one of a signature or an assignment tau")
        if self.tau is not None and any(v not in (-2, 2) for v in self.tau):
            raise ValueError("tau values must be -2 or +2")


@dataclass(eq=True)
class AnalysisReport:
    """Everything the pipeline computed, JSON-ready.  Polynomials appear
    as ascending coefficient lists."""

    verdict: str
    m: int
    s: int | None
    tool_version: str
    conditions: dict[str, Any] | None = None
    p: list[int] | None = None
    factors: dict[str, Any] | None = None
    rho: int | None = None
    pi_table: list[dict[str, Any]] | None = None
    group: dict[str, Any] | None = None
    mil: dict[str, Any] | None = None
    witnesses: dict[str, Any] = field(default_factory=dict)
    epsilon_status: str | None = None
    reason: str | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, in field order, as ``dataclasses.asdict``
        gives them, but sharing the report's own lists and dicts, which
        :func:`_analyze_common` keeps out of the memo's reach."""
        return dict(vars(self))


def _condition_failure(delta: IntPoly, rep: ConditionReport) -> str | None:
    if not rep.degree_even:
        return "the degree is odd, so Delta(X) = X^2n * Delta(1/X) fails"
    if not rep.reciprocal:
        return "the coefficients are not palindromic: Delta(X) != X^2n * Delta(1/X)"
    if not rep.value_at_one:
        return f"Delta(1) = {delta.evaluate(1)} instead of (-1)^n = {(-1) ** rep.n}"
    if not rep.square_at_minus_one:
        return f"Delta(-1) = {rep.delta_minus_one} is not a perfect square"
    return None


def _factors_dict(sfs: SymmetricFactorSet) -> dict[str, Any]:
    fz = sfs.factorization
    return {
        "content": fz.content,
        "factors": [
            {"coeffs": list(q.coeffs), "multiplicity": e, "symmetric": sym}
            for (q, e), sym in zip(fz.factors, sfs.symmetric)
        ],
        "squarefree": sfs.squarefree,
        "all_symmetric": sfs.all_symmetric,
    }


def _pi_table_dicts(table: tuple[PiEntry, ...]) -> list[dict[str, Any]]:
    return [
        {
            "pair": list(entry.pair),
            "primes": list(entry.primes),
            "witnesses": [[p, list(w.coeffs)] for p, w in entry.witnesses],
        }
        for entry in table
    ]


def _group_dict(group: ObstructionGroup) -> dict[str, Any]:
    return {"components": [list(c) for c in group.components], "rank": group.rank}


def _indecomposability_note(rhos: tuple[int, ...], s: int, mod_required: int) -> str | None:
    """The note that a knot realizing s != 0 is indecomposable, given when
    Delta has at least two irreducible factors and every proper sub-product
    of them has rho below the signature modulus: rho(Delta) - min rho_f <
    mod_required.

    A connected sum K = K1 # K2 has the block sum of the two Seifert forms,
    so Delta = Delta1 Delta2 and s = s1 + s2; in a decomposition neither
    Deltai is a unit, so each is a proper sub-product.  Each Ki is a knot
    of the same dimension: its signature si is divisible by the modulus,
    and |si| <= rho(Deltai) < mod_required, so si = 0 and s = 0.  Each
    factor's rho is then below the modulus too, as the note says; that
    bound alone is not enough, as of three factors two may carry s
    together.

    ``rhos`` holds the rho of each irreducible factor of Delta.  The change
    X -> 1 - 1/X maps the irreducible factors of Delta one to one onto
    those of P, so no second factorization is needed: :func:`_delta_facts`
    maps each factor f of P back to its factor Delta_f of Delta (proof
    there).  The change also maps the unit circle onto the line
    Re z = 1/2, so Delta_f has the rho of f, which
    tests/test_full_degree_oracle.py checks against the v-model of f."""
    if s == 0 or len(rhos) < 2 or sum(rhos) - min(rhos) >= mod_required:
        return None
    return (
        f"every irreducible factor of Delta has rho < {mod_required}, forcing factor "
        f"signature 0; a knot realizing signature {s} with this Alexander polynomial "
        "is therefore indecomposable"
    )


def _reject(report: AnalysisReport, verdict: str, reason: str) -> AnalysisReport:
    report.verdict = verdict
    report.reason = reason
    return report


@dataclass(frozen=True)
class DeltaFacts:
    """What the pipeline knows about one Delta, independent of the
    target.  ``reason`` is the OUT_OF_SCOPE reason, or None when Delta is
    in scope; ``p`` and ``factor_set`` are None when the conditions fail,
    and ``rhos`` (the rho of each factor Delta_f of Delta, one per factor
    f of P) is empty unless Delta is in scope."""

    conditions: ConditionReport
    reason: str | None = None
    p: IntPoly | None = None
    factor_set: SymmetricFactorSet | None = None
    rhos: tuple[int, ...] = ()

    @cached_property
    def obstruction(self) -> tuple[ObstructionGroup, tuple[PiEntry, ...]]:
        """The obstruction group and the prime table, computed on first
        use: a NOT_ADMISSIBLE target never needs them."""
        group, table = obstruction_group(self.factor_set)
        return group, tuple(table)


@memo(PER_INPUT)
def _delta_facts(delta: IntPoly) -> DeltaFacts:
    """Conditions on Delta, the one factorization of P with its standing
    assumptions, and rho per factor of P; memoized per Delta.

    Once the conditions pass, `factor_z` takes P through its v-model: P is
    fixed by X -> 1-X (Delta is reciprocal), lc P = (-1)^n Delta(1) = 1, and
    4^n P(1/2) = (-1)^n Delta(-1) is odd, as Delta(-1) = Delta(1) (mod 2).

    The rho of each factor f of P is taken from Delta: f maps back to its
    factor Delta_f of Delta, whose rho the record of f's v-model q holds
    (`zfactor._lift_facts`, counted by its trace model; f = q(X^2 - X) is
    its lift, and q is irreducible, neither Y nor 4Y + 1, as f is
    irreducible).  The Delta_f multiply to Delta, with no
    product taken here: `factor_z` has checked that the factors of P
    multiply to P (at half degree, on the v-model route), and the map
    f -> Delta_f = (-1)^(deg f / 2) rev(f)(1 - X) is multiplicative.
    Reversal is, rev(gh) = rev(g) rev(h), X -> 1 - X is a ring
    automorphism, and the signs multiply as the half degrees add (each f
    is fixed by X -> 1-X, so of even degree).  So
    prod Delta_f = (-1)^n rev(P)(1 - X), which is Delta exactly when
    `polys._p_to_delta` inverts `polys.delta_to_p`.  It does when
    Delta(1) != 0 (see `delta_to_p`), and the conditions give
    Delta(1) = (-1)^n; the inversion is asserted on every Delta of
    tests/test_full_degree_oracle.py and of the census.  So the report's
    rho, the sum of the rho(Delta_f), is rho(Delta): P is squarefree, and
    so is Delta, a change of variable X -> 1/(1 - X) of P with P(0) != 0,
    and the roots of Delta = prod Delta_f are then the disjoint union of
    those of the Delta_f."""
    conditions = alexander_check(delta)
    failure = _condition_failure(delta, conditions)
    if failure is not None:
        return DeltaFacts(conditions, failure)
    p_poly = delta_to_p(delta)
    sfs = standing_assumptions(p_poly)
    if not sfs.squarefree:
        reason = "the companion polynomial P is not squarefree"
        return DeltaFacts(conditions, reason, p_poly, sfs)
    if not sfs.all_symmetric:
        bad = sfs.factors[sfs.symmetric.index(False)]
        reason = f"irreducible factor {poly_text(bad)} of P is not fixed by X -> 1-X"
        return DeltaFacts(conditions, reason, p_poly, sfs)
    rhos = tuple(_lift_facts(q)[2] for q in sfs.models)
    return DeltaFacts(conditions, None, p_poly, sfs, rhos)


def _analyze_common(req: AnalysisRequest) -> tuple[AnalysisReport, DeltaFacts]:
    """The facts of req.delta, copied into the fields of a new report
    (its verdict set when out of scope).  Every list and dict of a report
    is built for it alone, here or later, so a caller mutating it or its
    ``to_dict`` cannot reach the memo."""
    facts = _delta_facts(req.delta)
    report = AnalysisReport(
        verdict="",
        m=req.m,
        s=req.signature,
        tool_version=TOOL_VERSION,
        conditions=dict(vars(facts.conditions)),
    )
    if facts.factor_set is not None:
        report.p = list(facts.p.coeffs)
        report.factors = _factors_dict(facts.factor_set)
    if facts.reason is not None:
        _reject(report, VERDICT_OUT_OF_SCOPE, facts.reason)
    else:
        report.rho = sum(facts.rhos)
    return report, facts


def _modulus(m: int) -> int:
    """The signature of an m-knot is divisible by 16 when m = 3, else by 8."""
    return 16 if m == 3 else 8


def _divisibility_failure(subject: str, s: int, m: int) -> str | None:
    """The first gate of both entry points."""
    mod = _modulus(m)
    if s % mod == 0:
        return None
    return f"{subject} not divisible by {mod} (required for knot dimension m = {m})"


def _conclude(
    report: AnalysisReport,
    facts: DeltaFacts,
    witness: list[int],
    note: str | None = None,
) -> AnalysisReport:
    """The verdict tail of both entry points once the gates pass: the
    prime table and the obstruction group.  A trivial group gives
    REALIZABLE with the witness assignment (and the note, if any); a
    nonzero one gives OBSTRUCTION_UNKNOWN."""
    group, table = facts.obstruction
    report.pi_table = _pi_table_dicts(table)
    report.group = _group_dict(group)
    if group.rank == 0:
        report.epsilon_status = "trivially zero"
        report.verdict = VERDICT_REALIZABLE
        report.witnesses["tau"] = witness
        if note:
            report.notes.append(note)
    else:
        report.epsilon_status = "requires external evaluation"
        report.verdict = VERDICT_OBSTRUCTION_UNKNOWN
        report.notes.append(
            "the obstruction group is nonzero; deciding realizability needs an "
            "evaluation outside this tool's scope"
        )
    return report


def analyze(req: AnalysisRequest) -> AnalysisReport:
    """Verdict for the target signature req.signature.

    Past the two gates the Milnor family is nonempty, as
    `milnor.first_assignment` requires, since rho = 0 (mod 4) in scope.
    Write Delta(X) = X^n D(X + 1/X) with deg D = n.  Then
    D(2) = Delta(1) = (-1)^n and D(-2) = (-1)^n Delta(-1), where Delta(-1)
    is a square, and odd as Delta(-1) = Delta(1) (mod 2), so positive.  So
    D(2) and D(-2) have one sign, and D, squarefree as Delta is, has an
    even number of roots in (-2, 2), each giving two roots of Delta on the
    unit circle.  With 8 | s and |s| <= rho, n+ = (s + rho)/4 is then an
    integer in 0..rho/2."""
    if req.signature is None:
        raise ValueError("analyze needs a target signature; use analyze_tau for assignments")
    report, facts = _analyze_common(req)
    if facts.reason is not None:
        return report
    s, m, rho = req.signature, req.m, report.rho
    failure = _divisibility_failure(f"signature {s} is", s, m)
    if failure is not None:
        return _reject(report, VERDICT_NOT_ADMISSIBLE, failure)
    if abs(s) > rho:
        failure = f"|s| = {abs(s)} exceeds the unit-circle root count rho = {rho}"
        return _reject(report, VERDICT_NOT_ADMISSIBLE, failure)
    k = rho // 2
    count = expected_count(rho, s)
    report.mil = {"rho": rho, "s": s, "count": count}
    if count <= MAX_LISTED_ASSIGNMENTS:
        report.mil["assignments"] = [list(t) for t in enumerate_sign_tuples(k, s)]
    note = _indecomposability_note(facts.rhos, s, _modulus(m))
    return _conclude(report, facts, first_assignment(k, s), note)


def analyze_tau(req: AnalysisRequest) -> AnalysisReport:
    """Verdict for an explicit Milnor assignment tau (one value per
    unit-circle factor, in sorted interval order)."""
    if req.tau is None:
        raise ValueError("analyze_tau needs an assignment tau")
    report, facts = _analyze_common(req)
    if facts.reason is not None:
        return report
    k = report.rho // 2
    if len(req.tau) != k:
        raise ValueError(
            f"tau must assign one value to each of the {k} unit-circle factors; got {len(req.tau)}"
        )
    s = sum(req.tau)
    report.s = s
    report.mil = {"tau": list(req.tau), "sum": s}
    failure = _divisibility_failure(f"the assignment sums to {s}, which is", s, req.m)
    if failure is not None:
        return _reject(report, VERDICT_NOT_ADMISSIBLE, failure)
    return _conclude(report, facts, list(req.tau))


# ---------------------------------------------------------------------------
# rendering


def report_render(report: AnalysisReport, fmt: str = "text") -> str:
    """Deterministic rendering; ``json`` round-trips through
    :func:`report_from_json`."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; use 'json' or 'text'")
    lines = [f"verdict: {report.verdict}"]
    target = f"m = {report.m}" + (f", target signature s = {report.s}" if report.s is not None else "")
    lines.append(target)
    if report.reason:
        lines.append(f"reason: {report.reason}")
    if report.conditions:
        c = report.conditions
        lines.append(
            "conditions: even degree {0}, reciprocal {1}, Delta(1) = (-1)^n {2}, "
            "Delta(-1) square {3} (Delta(-1) = {4})".format(
                _yn(c["degree_even"]),
                _yn(c["reciprocal"]),
                _yn(c["value_at_one"]),
                _yn(c["square_at_minus_one"]),
                c["delta_minus_one"],
            )
        )
    if report.p is not None:
        lines.append(f"P = {poly_text(IntPoly(report.p))}")
    if report.factors is not None:
        for i, f in enumerate(report.factors["factors"]):
            tag = "symmetric" if f["symmetric"] else "NOT symmetric"
            mult = f" ^{f['multiplicity']}" if f["multiplicity"] > 1 else ""
            lines.append(f"  factor {i}: {poly_text(IntPoly(f['coeffs']))}{mult} ({tag})")
    if report.rho is not None:
        lines.append(f"rho = {report.rho}")
    if report.pi_table is not None:
        for entry in report.pi_table:
            i, j = entry["pair"]
            primes = "{" + ", ".join(map(str, entry["primes"])) + "}"
            lines.append(f"  primes({i},{j}) = {primes}")
            for p, w in entry["witnesses"]:
                lines.append(f"    witness mod {p}: {poly_text(IntPoly(w))}")
    if report.group is not None:
        comps = " | ".join("{" + ", ".join(map(str, c)) + "}" for c in report.group["components"])
        lines.append(f"components: {comps}")
        lines.append(f"group: rank {report.group['rank']} (order 2^{report.group['rank']})")
    if report.mil is not None:
        if "count" in report.mil:
            lines.append(f"Milnor assignments summing to {report.mil['s']}: {report.mil['count']}")
        else:
            lines.append(f"tau = {report.mil['tau']} (sum {report.mil['sum']})")
    if report.epsilon_status:
        lines.append(f"epsilon status: {report.epsilon_status}")
    if report.witnesses.get("tau"):
        lines.append(f"witness tau: {report.witnesses['tau']}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def report_from_json(text: str) -> AnalysisReport:
    """The report whose :func:`report_render` JSON is ``text``; a JSON
    value that is not an object with exactly this version's report keys
    (the required ones present, no others) is refused with a ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a knotsig {TOOL_VERSION} report is a JSON object, not {type(data).__name__}")
    keys = {f.name for f in fields(AnalysisReport)}
    required = {f.name for f in fields(AnalysisReport)
                if f.default is MISSING and f.default_factory is MISSING}
    unknown, missing = sorted(data.keys() - keys), sorted(required - data.keys())
    if unknown or missing:
        raise ValueError(f"not a knotsig {TOOL_VERSION} report: unknown keys {unknown},"
                         f" missing keys {missing}")
    return AnalysisReport(**data)


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"
