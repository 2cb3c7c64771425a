"""Command-line interface.

Exit codes: 0 for any successfully computed answer (including negative
verdicts), 2 for parse or input-validation errors, 3 when an internal
iteration budget was exhausted before the answer was certain, 4 when an
internal consistency check failed (a bug: please report the input).
Every error is one line on stderr, never a traceback.

The values of --delta, --p, --poly and --tau may begin with '-', as in
``knotsig factor --poly -1,0,49``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetExceededError, CertificationError, KnotsigError, PolyParseError
from .milnor import enumerate_sign_tuples, expected_count
from .pipeline import AnalysisRequest, _delta_facts, analyze, analyze_tau, report_render
from .polys import alexander_check, delta_to_p, p_to_delta, parse_poly, poly_text
from .realroots import rho_delta, rho_p
from .seifert import (
    alexander_of_form,
    form_to_pair,
    mat_add,
    milnor_signatures,
    parse_matrix,
    signature_exact,
    transpose,
    unimodular_t,
    validate_form,
)
from .version import TOOL_VERSION
from .zfactor import factor_z

MILNOR_COUNT_CAP = 184_756  # C(20, 10), the most of any rho <= 40: those list in full

# options whose value may begin with '-' (a negative coefficient or tau)
DASH_VALUE_OPTIONS = ("--delta", "--p", "--poly", "--tau")


def _parse_tau(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.replace(" ", ",").split(",") if v)
    except ValueError as exc:
        raise PolyParseError(f"bad tau list: {text!r}") from exc
    if any(v not in (-2, 2) for v in values):
        raise PolyParseError(f"tau values must be -2 or 2: {text!r}")
    return values


def _cmd_analyze(args: argparse.Namespace) -> int:
    delta = parse_poly(args.delta)
    if args.tau is not None:
        req = AnalysisRequest(delta=delta, m=args.m, tau=_parse_tau(args.tau), seed=args.seed)
        report = analyze_tau(req)
    else:
        req = AnalysisRequest(delta=delta, m=args.m, signature=args.signature, seed=args.seed)
        report = analyze(req)
    print(report_render(report, args.format))
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    if (args.delta is None) == (args.p is None):
        raise PolyParseError("transform needs exactly one of --delta or --p")
    if args.delta is not None:
        print(poly_text(delta_to_p(parse_poly(args.delta))))
    else:
        print(poly_text(p_to_delta(parse_poly(args.p))))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    delta = parse_poly(args.delta)
    rep = alexander_check(delta)
    print(f"degree even:        {rep.degree_even} (n = {rep.n})")
    print(f"(1) reciprocal:     {rep.cond_reciprocal}")
    print(f"(2) Delta(1)=(-1)^n: {rep.cond_at_one}")
    wit = f" ({rep.delta_minus_one} = {rep.square_root_witness}^2)" if rep.cond_at_minus_one else f" ({rep.delta_minus_one})"
    print(f"(3) Delta(-1) square: {rep.cond_at_minus_one}{wit}")
    print(f"all conditions:     {rep.all_pass}")
    return 0


def _cmd_rho(args: argparse.Namespace) -> int:
    if (args.delta is None) == (args.p is None):
        raise PolyParseError("rho needs exactly one of --delta or --p")
    if args.delta is not None:
        print(rho_delta(parse_poly(args.delta)))
    else:
        print(rho_p(parse_poly(args.p)))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    fz = factor_z(parse_poly(args.poly))
    if fz.content != 1 or not fz.factors:
        print(f"content: {fz.content}")
    for q, e in fz.factors:
        mult = f" ^{e}" if e > 1 else ""
        print(f"{poly_text(q)}{mult}")
    return 0


def _cmd_group(args: argparse.Namespace) -> int:
    facts = _delta_facts(parse_poly(args.delta), 0)
    if facts.p is None:
        print("conditions on Delta fail; the obstruction group is not defined")
        return 0
    if facts.reason is not None:
        print("standing assumptions fail (P must be a squarefree product of symmetric factors)")
        return 0
    sfs = facts.factor_set
    group, table = facts.obstruction
    for i, f in enumerate(sfs.factors):
        print(f"factor {i}: {poly_text(f)}")
    for entry in table:
        i, j = entry.pair
        primes = "{" + ", ".join(map(str, entry.primes)) + "}"
        print(f"primes({i},{j}) = {primes}")
        for p, w in entry.witnesses:
            print(f"  witness mod {p}: coeffs {list(w.coeffs)}")
    comps = " | ".join("{" + ", ".join(map(str, c)) + "}" for c in group.components)
    print(f"components: {comps}")
    print(f"group rank: {group.rank} (order 2^{group.rank})")
    return 0


def _cmd_milnor(args: argparse.Namespace) -> int:
    delta = parse_poly(args.delta)
    p_poly = delta_to_p(delta)
    rho = rho_p(p_poly)
    count = expected_count(rho, args.signature)
    if count > MILNOR_COUNT_CAP:
        raise BudgetExceededError(f"{count} assignments exceed the enumeration cap of {MILNOR_COUNT_CAP}")
    tuples = enumerate_sign_tuples(rho // 2, args.signature)
    print(f"rho = {rho}, target s = {args.signature}: {len(tuples)} assignment(s)")
    for values in tuples:
        print(" ".join(f"{v:+d}" for v in values))
    return 0


def _cmd_seifert(args: argparse.Namespace) -> int:
    mat = parse_matrix(args.matrix)
    op = args.op
    if op == "validate":
        val = validate_form(mat)
        print("valid Seifert form" if val.ok else "invalid: " + "; ".join(val.problems))
        return 0
    if op == "alexander":
        print(poly_text(alexander_of_form(mat)))
        return 0
    if op == "signature":
        print(signature_exact(mat_add(mat, transpose(mat))))
        return 0
    if op == "to-pair":
        pair = form_to_pair(mat)
        print(f"S = {[list(r) for r in pair.s]}")
        print(f"a = {[list(r) for r in pair.a]}")
        return 0
    if op == "milnor":
        pair = form_to_pair(mat)
        ms = milnor_signatures(pair.s, pair.a)
        for factor, value in zip(ms.factors, ms.values):
            iv = factor.v_root_interval
            print(f"v-root in ({iv.lo}, {iv.hi}): {value:+d}")
        print(f"total: {ms.total}")
        return 0
    if op == "isometry":
        t = unimodular_t(mat)
        print(f"t = {[list(r) for r in t]}")
        return 0
    raise PolyParseError(f"unknown seifert op {op!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotsig",
        description="Exact calculator for realizable knot signatures with a given Alexander polynomial",
    )
    parser.add_argument("--version", action="version", version=f"knotsig {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full realizability analysis of (Delta, m, s) or (Delta, m, tau)")
    p_an.add_argument("--delta", required=True, help="Alexander polynomial")
    p_an.add_argument("--m", type=int, required=True, help="knot dimension, 3 mod 4")
    target = p_an.add_mutually_exclusive_group(required=True)
    target.add_argument("--signature", type=int, help="target signature s")
    target.add_argument("--tau", help="explicit assignment, e.g. '2,-2,2,2'")
    p_an.add_argument("--seed", type=int, default=0, help="seed for randomized subroutines")
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.set_defaults(func=_cmd_analyze)

    p_tr = sub.add_parser("transform", help="Delta -> P or P -> Delta")
    p_tr.add_argument("--delta")
    p_tr.add_argument("--p")
    p_tr.set_defaults(func=_cmd_transform)

    p_ch = sub.add_parser("check", help="the three conditions on Delta")
    p_ch.add_argument("--delta", required=True)
    p_ch.set_defaults(func=_cmd_check)

    p_rho = sub.add_parser("rho", help="unit-circle root count")
    p_rho.add_argument("--delta")
    p_rho.add_argument("--p")
    p_rho.set_defaults(func=_cmd_rho)

    p_fa = sub.add_parser("factor", help="factor an integer polynomial into irreducibles")
    p_fa.add_argument("--poly", required=True)
    p_fa.set_defaults(func=_cmd_factor)

    p_gr = sub.add_parser("group", help="prime table and obstruction group of Delta")
    p_gr.add_argument("--delta", required=True)
    p_gr.set_defaults(func=_cmd_group)

    p_mi = sub.add_parser("milnor", help="enumerate Milnor assignments summing to s")
    p_mi.add_argument("--delta", required=True)
    p_mi.add_argument("--signature", type=int, required=True)
    p_mi.set_defaults(func=_cmd_milnor)

    p_se = sub.add_parser("seifert", help="Seifert form toolkit")
    p_se.add_argument("--matrix", required=True, help="row-major integers, e.g. [[0,2],[-1,0]]")
    p_se.add_argument(
        "--op",
        required=True,
        choices=("validate", "alexander", "signature", "to-pair", "milnor", "isometry"),
    )
    p_se.set_defaults(func=_cmd_seifert)
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--poly -1,0,49`` as ``--poly=-1,0,49``: argparse takes a
    separate value beginning with '-' for an option and rejects it."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if arg in DASH_VALUE_OPTIONS and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{arg}={nxt}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KnotsigError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
