"""Command-line interface.

Each subcommand's handler returns its answer as an iterable of lines (a
line may be a number or a polynomial, printed as its str) and writes
nothing.  It computes every fact of its answer, and so makes every
refusal, before the first line is yielded: only the formatting is lazy,
and a refused request leaves stdout empty.  `main` hands the lines to
`write_lines`, the one writer, which prints each as it comes, and maps
every outcome to its exit code (0, 2, 3, 4, 141).  The ops of
``seifert`` are the keys of SEIFERT_OPS.

Exit codes: 0 for any successfully computed answer (including negative
verdicts), 2 for parse or input-validation errors, 3 when an internal
iteration budget was exhausted before the answer was certain, 4 when an
internal consistency check failed (a bug: please report the input),
and 141, as a shell reports a command that SIGPIPE ended, when stdout was
closed before the whole answer was written (``knotsig ... | head``).  Every
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
from collections.abc import Iterable
from itertools import chain

from .errors import BudgetExceededError, KnotsigError, PolyParseError
from .milnor import enumerate_sign_tuples, expected_count
from .pipeline import AnalysisRequest, _delta_facts, analyze, analyze_tau, report_render
from .polys import IntPoly, alexander_check, delta_to_p, p_to_delta, parse_poly, poly_text
from .realroots import rho_delta, rho_p
from .seifert import (
    Matrix,
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


def _cmd_analyze(args: argparse.Namespace) -> list[str]:
    delta = parse_poly(args.delta)
    if args.tau is not None:
        req = AnalysisRequest(delta=delta, m=args.m, tau=_parse_tau(args.tau))
        report = analyze_tau(req)
    else:
        req = AnalysisRequest(delta=delta, m=args.m, signature=args.signature)
        report = analyze(req)
    return [report_render(report, args.format)]


def _transform_delta(delta: IntPoly) -> IntPoly:
    """`polys.delta_to_p`, refused when Delta(1) = 0 (lc P = (-1)^n Delta(1))."""
    p = delta_to_p(delta)
    if delta.evaluate(1) == 0:
        raise ValueError("transform excludes a root at X = 1, which X -> 1/(1 - X) sends to infinity")
    return p


def _cmd_delta_or_p(args: argparse.Namespace) -> list[IntPoly | int]:
    """``transform`` or ``rho``, each on exactly one of Delta and P."""
    if (args.delta is None) == (args.p is None):
        raise PolyParseError(f"{args.command} needs exactly one of --delta or --p")
    on_delta, on_p = {"transform": (_transform_delta, p_to_delta), "rho": (rho_delta, rho_p)}[args.command]
    return [on_delta(parse_poly(args.delta)) if args.delta is not None else on_p(parse_poly(args.p))]


def _cmd_check(args: argparse.Namespace) -> list[str]:
    delta = parse_poly(args.delta)
    rep = alexander_check(delta)
    wit = f" ({rep.delta_minus_one} = {rep.square_root_witness}^2)" if rep.square_at_minus_one else f" ({rep.delta_minus_one})"
    return [f"degree even:        {rep.degree_even} (n = {rep.n})",
            f"(1) reciprocal:     {rep.reciprocal}",
            f"(2) Delta(1)=(-1)^n: {rep.value_at_one}",
            f"(3) Delta(-1) square: {rep.square_at_minus_one}{wit}",
            f"all conditions:     {rep.all_pass}"]


def _cmd_factor(args: argparse.Namespace) -> list[str]:
    fz = factor_z(parse_poly(args.poly))
    lines = [f"content: {fz.content}"] if fz.content != 1 or not fz.factors else []
    return lines + [poly_text(q) + (f" ^{e}" if e > 1 else "") for q, e in fz.factors]


def _cmd_group(args: argparse.Namespace) -> list[str]:
    facts = _delta_facts(parse_poly(args.delta))
    if facts.p is None:
        return ["conditions on Delta fail; the obstruction group is not defined"]
    if facts.reason is not None:
        return ["standing assumptions fail (P must be a squarefree product of symmetric factors)"]
    group, table = facts.obstruction
    lines = [f"factor {i}: {poly_text(f)}" for i, f in enumerate(facts.factor_set.factors)]
    for entry in table:
        i, j = entry.pair
        lines.append(f"primes({i},{j}) = {{" + ", ".join(map(str, entry.primes)) + "}")
        lines += [f"  witness mod {p}: coeffs {list(w.coeffs)}" for p, w in entry.witnesses]
    comps = " | ".join("{" + ", ".join(map(str, c)) + "}" for c in group.components)
    return lines + [f"components: {comps}", f"group rank: {group.rank} (order 2^{group.rank})"]


def _cmd_milnor(args: argparse.Namespace) -> Iterable[str]:
    """The header, then one line per assignment, formatted as it is written."""
    rho = rho_delta(parse_poly(args.delta))
    count = expected_count(rho, args.signature)
    if count > MILNOR_COUNT_CAP:
        raise BudgetExceededError(f"{count} assignments exceed the enumeration cap of {MILNOR_COUNT_CAP}")
    tuples = enumerate_sign_tuples(rho // 2, args.signature)
    header = f"rho = {rho}, target s = {args.signature}: {count} assignment(s)"
    return chain([header], (" ".join(f"{v:+d}" for v in values) for values in tuples))


def _rows(m: Matrix) -> str:
    return str([list(r) for r in m])


def _validate_text(mat: Matrix) -> str:
    val = validate_form(mat)
    return "valid Seifert form" if val.ok else "invalid: " + "; ".join(val.problems)


def _pair_text(mat: Matrix) -> str:
    pair = form_to_pair(mat)
    return f"S = {_rows(pair.s)}\na = {_rows(pair.a)}"


def _milnor_text(mat: Matrix) -> str:
    pair = form_to_pair(mat)
    ms = milnor_signatures(pair.s, pair.a)
    lines = [f"v-root in ({iv.lo}, {iv.hi}): {value:+d}" for iv, value in zip(ms.intervals, ms.values)]
    return "\n".join(lines + [f"total: {ms.total}"])


# what ``seifert --op`` answers for the parsed matrix, by op name
SEIFERT_OPS = {
    "validate": _validate_text,
    "alexander": lambda mat: poly_text(alexander_of_form(mat)),
    "signature": lambda mat: _form_facts(mat).lattice.signature,
    "to-pair": _pair_text,
    "milnor": _milnor_text,
    "isometry": lambda mat: f"t = {_rows(unimodular_t(mat))}",
}


def _cmd_seifert(args: argparse.Namespace) -> list[str | int]:
    return [SEIFERT_OPS[args.op](parse_matrix(args.matrix))]


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
        choices=SEIFERT_OPS,
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


def write_lines(lines: Iterable[object]) -> int:
    """Print each of ``lines`` as it comes, then flush; return 0, or 141
    when stdout is closed before all of them are written."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return write_lines(args.func(args))
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
