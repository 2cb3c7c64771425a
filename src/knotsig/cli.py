"""Command-line interface.

Exit codes: 0 for any successfully computed answer (including negative
verdicts), 2 for parse or input-validation errors, 3 when an internal
iteration budget was exhausted before the answer was certain, 4 when an
internal consistency check failed (a bug: please report the input),
and 141, as a shell reports a command that SIGPIPE ended, when stdout was
closed before the output was written (``knotsig ... | head``).  Every
error is one line on stderr, never a traceback.

The values of --delta, --p, --poly and --tau may begin with '-', as in
``knotsig factor --poly -1,0,49``.

``milnor`` takes rho from Delta as ``rho --delta`` does, so it refuses
exactly the Delta that ``rho --delta`` refuses, with the same message.
``transform --delta`` refuses, besides what `polys.delta_to_p` refuses,
every Delta with Delta(1) = 0: X -> 1/(1 - X) sends that root to
infinity, so P drops degree and ``transform --p`` would not give Delta
back.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import BudgetExceededError, KnotsigError, PolyParseError
from .milnor import enumerate_sign_tuples, expected_count
from .pipeline import AnalysisRequest, _delta_facts, analyze, analyze_tau, report_render
from .polys import IntPoly, alexander_check, delta_to_p, p_to_delta, parse_poly, poly_text
from .realroots import rho_delta, rho_p
from .seifert import (
    _form_facts,
    alexander_of_form,
    form_to_pair,
    milnor_signatures,
    parse_matrix,
    unimodular_t,
    validate_form,
)
from .version import TOOL_VERSION
from .zfactor import factor_z

MILNOR_COUNT_CAP = 184_756  # C(20, 10), the most of any rho <= 40: those list in full

# options whose value may begin with '-' (a negative coefficient or tau)
DASH_VALUE_OPTIONS = ("--delta", "--p", "--poly", "--tau")


def _parse_tau(text: str) -> tuple[int, ...]:
    """Integers separated by a comma, blanks or both; "" is the empty
    assignment, and an empty entry is refused."""
    try:
        return tuple(int(v) for v in re.split(r"\s*,\s*|\s+", text.strip())) if text.strip() else ()
    except ValueError as exc:
        raise PolyParseError(f"bad tau list: {text!r}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    delta = parse_poly(args.delta)
    if args.tau is not None:
        req = AnalysisRequest(delta=delta, m=args.m, tau=_parse_tau(args.tau))
        report = analyze_tau(req)
    else:
        req = AnalysisRequest(delta=delta, m=args.m, signature=args.signature)
        report = analyze(req)
    print(report_render(report, args.format))
    return 0


def _transform_delta(delta: IntPoly) -> IntPoly:
    """`polys.delta_to_p`, refused when Delta(1) = 0 (lc P = (-1)^n Delta(1))."""
    p = delta_to_p(delta)
    if delta.evaluate(1) == 0:
        raise ValueError("transform excludes a root at X = 1, which X -> 1/(1 - X) sends to infinity")
    return p


def _cmd_delta_or_p(args: argparse.Namespace) -> int:
    """``transform`` or ``rho``, each on exactly one of Delta and P."""
    if (args.delta is None) == (args.p is None):
        raise PolyParseError(f"{args.command} needs exactly one of --delta or --p")
    on_delta, on_p = {"transform": (_transform_delta, p_to_delta), "rho": (rho_delta, rho_p)}[args.command]
    print(on_delta(parse_poly(args.delta)) if args.delta is not None else on_p(parse_poly(args.p)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    delta = parse_poly(args.delta)
    rep = alexander_check(delta)
    print(f"degree even:        {rep.degree_even} (n = {rep.n})")
    print(f"(1) reciprocal:     {rep.reciprocal}")
    print(f"(2) Delta(1)=(-1)^n: {rep.value_at_one}")
    wit = f" ({rep.delta_minus_one} = {rep.square_root_witness}^2)" if rep.square_at_minus_one else f" ({rep.delta_minus_one})"
    print(f"(3) Delta(-1) square: {rep.square_at_minus_one}{wit}")
    print(f"all conditions:     {rep.all_pass}")
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
    facts = _delta_facts(parse_poly(args.delta))
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
    rho = rho_delta(parse_poly(args.delta))
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
        print(_form_facts(mat).lattice.signature)
        return 0
    if op == "to-pair":
        pair = form_to_pair(mat)
        print(f"S = {[list(r) for r in pair.s]}")
        print(f"a = {[list(r) for r in pair.a]}")
        return 0
    if op == "milnor":
        pair = form_to_pair(mat)
        ms = milnor_signatures(pair.s, pair.a)
        for iv, value in zip(ms.intervals, ms.values):
            print(f"v-root in ({iv.lo}, {iv.hi}): {value:+d}")
        print(f"total: {ms.total}")
        return 0
    # "isometry", the last of the parser's choices
    t = unimodular_t(mat)
    print(f"t = {[list(r) for r in t]}")
    return 0


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
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.set_defaults(func=_cmd_analyze)

    p_tr = sub.add_parser("transform", help="Delta -> P or P -> Delta")
    p_tr.add_argument("--delta")
    p_tr.add_argument("--p")
    p_tr.set_defaults(func=_cmd_delta_or_p)

    p_ch = sub.add_parser("check", help="the three conditions on Delta")
    p_ch.add_argument("--delta", required=True)
    p_ch.set_defaults(func=_cmd_check)

    p_rho = sub.add_parser("rho", help="unit-circle root count")
    p_rho.add_argument("--delta")
    p_rho.add_argument("--p")
    p_rho.set_defaults(func=_cmd_delta_or_p)

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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PolyParseError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KnotsigError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
