"""Independent oracles for the benchmark's outputs.

They recompute each claim by another route than the program and run
outside the timed region:

* the companion P = (-1)^n X^2n Delta(1 - 1/X) by sympy's Poly.transform;
* the factors of P by ``sympy.factor_list``, and their product;
* rho from the Chebyshev form of the trace polynomial and an exact sympy
  real-root count on [-2, 2];
* the verdict gates from rho, s and m;
* each listed prime of the obstruction table divides the sympy resultant
  of its pair, its witness is symmetric and divides both factors mod p,
  and the components follow from the pairs with primes;
* for a Seifert form: Delta_A by integer determinants det(xA + A^T) at
  n + 1 points, the Milnor total against a numpy signature of S, and
  analyze(Delta_A, s = sig S) never NOT_ADMISSIBLE when in scope.

``check(op, record)`` returns a list of problems; an empty list means
the output agrees.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
import sympy

import workloads

X = sympy.Symbol("x")
Y = sympy.Symbol("y")
VERDICTS = ("REALIZABLE", "NOT_ADMISSIBLE", "OBSTRUCTION_UNKNOWN", "OUT_OF_SCOPE")


def to_sympy(coeffs) -> sympy.Poly:
    return sympy.Poly(list(reversed(list(coeffs))), X, domain="ZZ")


def from_sympy(poly: sympy.Poly) -> tuple[int, ...]:
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@lru_cache(maxsize=4096)
def conditions(delta: tuple[int, ...]) -> bool:
    """The Alexander conditions, from the coefficients directly."""
    deg = len(delta) - 1
    if deg % 2 or delta != delta[::-1]:
        return False
    n = deg // 2
    at_minus_one = sum(c * (-1) ** k for k, c in enumerate(delta))
    root = sympy.integer_nthroot(at_minus_one, 2) if at_minus_one >= 0 else (0, False)
    return sum(delta) == (-1) ** n and bool(root[1])


@lru_cache(maxsize=4096)
def companion(delta: tuple[int, ...]) -> tuple[int, ...]:
    """(-1)^n X^2n Delta((X - 1)/X), by sympy's functional transform."""
    n = (len(delta) - 1) // 2
    p = to_sympy(delta).transform(sympy.Poly(X - 1, X), sympy.Poly(X, X))
    return from_sympy((-1) ** n * p)


@lru_cache(maxsize=4096)
def factorization(p: tuple[int, ...]) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """(content, sorted ((primitive factor with positive lc), mult))."""
    content, factors = sympy.factor_list(to_sympy(p))
    out = []
    sign = 1
    for f, e in factors:
        c = from_sympy(f)
        if c[-1] < 0:
            c = tuple(-x for x in c)
            sign *= (-1) ** e
        out.append((c, e))
    return int(content) * sign, tuple(sorted(out))


def symmetric(f: tuple[int, ...]) -> bool:
    g = to_sympy(f)
    return g == sympy.Poly(g.as_expr().subs(X, 1 - X), X, domain="ZZ")


@lru_cache(maxsize=4096)
def rho(delta: tuple[int, ...]) -> int:
    """Roots of Delta on the unit circle: Delta(x) = x^n D(x + 1/x) with
    D = c_n + sum_j c_(n+j) * 2 T_j(y/2); each root of D in (-2, 2) is a
    conjugate pair on the circle."""
    n = (len(delta) - 1) // 2
    d = delta[n] + sum(delta[n + j] * 2 * sympy.chebyshevt(j, Y / 2) for j in range(1, n + 1))
    poly = sympy.Poly(sympy.expand(d), Y)
    if poly.eval(2) == 0 or poly.eval(-2) == 0:
        raise ValueError("Delta has a root at +-1")
    return 2 * int(poly.count_roots(-2, 2))


@lru_cache(maxsize=4096)
def resultant(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    return int(sympy.resultant(to_sympy(f).as_expr(), to_sympy(g).as_expr(), X))


def _rem_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        q = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - q * c) % p
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return f


def _symmetric_mod_p(w: list[int], p: int) -> bool:
    img = sympy.Poly(to_sympy(w).as_expr().subs(X, 1 - X), X, modulus=p)
    return img == sympy.Poly(to_sympy(w).as_expr(), X, modulus=p)


# ---------------------------------------------------------------------------
# report checks


def check_report(delta: tuple[int, ...], m: int, s: int | None, tau, rep: dict) -> list[str]:
    """Problems with an analyze (s given) or analyze_tau (tau given) report."""
    verdict = rep.get("verdict")
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    if not conditions(delta):
        return [] if verdict == "OUT_OF_SCOPE" and rep.get("p") is None else [
            f"Delta fails the Alexander conditions but the verdict is {verdict}"]
    p = companion(delta)
    if tuple(rep.get("p") or ()) != p:
        return ["P differs from the sympy transform"]
    content, factors = factorization(p)
    got = rep.get("factors") or {}
    got_factors = tuple(sorted((tuple(f["coeffs"]), f["multiplicity"]) for f in got.get("factors", ())))
    if got.get("content") != content or got_factors != factors:
        return ["factors of P differ from sympy.factor_list"]
    prod = sympy.Poly(content, X, domain="ZZ")
    for f, e in got_factors:
        prod *= to_sympy(f) ** e
    if from_sympy(prod) != p:
        return ["factors do not multiply back to P"]
    squarefree = all(e == 1 for _, e in factors)
    all_symmetric = p[-1] == 1 and all(symmetric(f) for f, _ in factors)
    if not (squarefree and all_symmetric):
        return [] if verdict == "OUT_OF_SCOPE" else [
            f"P is not a squarefree product of symmetric factors but the verdict is {verdict}"]
    if verdict == "OUT_OF_SCOPE":
        return ["in-scope input reported OUT_OF_SCOPE"]
    r = rho(delta)
    if rep.get("rho") != r:
        return [f"rho {rep.get('rho')} differs from the sympy count {r}"]
    mod = 16 if m == 3 else 8
    if tau is not None:
        s = sum(tau)
        admissible = s % mod == 0 and len(tau) == r // 2
    else:
        admissible = s % mod == 0 and abs(s) <= r and (s - r) % 4 == 0
    if rep.get("s") != s:
        return [f"report s = {rep.get('s')}, expected {s}"]
    if not admissible:
        return [] if verdict == "NOT_ADMISSIBLE" else [
            f"gates fail for s = {s}, rho = {r}, m = {m} but the verdict is {verdict}"]
    if verdict == "NOT_ADMISSIBLE":
        return [f"gates pass for s = {s}, rho = {r}, m = {m} but the verdict is NOT_ADMISSIBLE"]
    # pairs index the factors in the report's own order
    return _check_group(rep, [tuple(f["coeffs"]) for f in got["factors"]], verdict, s, r)


def _check_group(rep: dict, factors: list[tuple[int, ...]], verdict: str, s: int, r: int) -> list[str]:
    problems = []
    table = rep.get("pi_table") or []
    k = len(factors)
    if sorted(tuple(e["pair"]) for e in table) != [(i, j) for i in range(k) for j in range(i + 1, k)]:
        return ["the prime table does not list every pair of factors once"]
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for entry in table:
        i, j = entry["pair"]
        res = resultant(factors[i], factors[j])
        for p, w in entry["witnesses"]:
            if res % p:
                problems.append(f"prime {p} does not divide the resultant of pair {i},{j}")
            elif _rem_mod_p(list(factors[i]), w, p) or _rem_mod_p(list(factors[j]), w, p):
                problems.append(f"witness mod {p} does not divide pair {i},{j}")
            elif not _symmetric_mod_p(w, p):
                problems.append(f"witness mod {p} of pair {i},{j} is not symmetric")
        if [p for p, _ in entry["witnesses"]] != entry["primes"]:
            problems.append(f"pair {i},{j}: primes and witnesses disagree")
        if entry["primes"]:
            parent[find(i)] = find(j)
    classes: dict[int, list[int]] = {}
    for i in range(k):
        classes.setdefault(find(i), []).append(i)
    components = sorted(sorted(c) for c in classes.values())
    group = rep.get("group") or {}
    rank = max(len(components) - 1, 0)
    if group.get("components") != components or group.get("rank") != rank:
        problems.append("obstruction components do not follow from the prime table")
    if (verdict == "REALIZABLE") != (rank == 0):
        problems.append(f"verdict {verdict} with group rank {rank}")
    if verdict == "REALIZABLE":
        witness = rep.get("witnesses", {}).get("tau") or []
        if len(witness) != r // 2 or sum(witness) != s:
            problems.append("witness tau does not have one value per factor summing to s")
    return problems


# ---------------------------------------------------------------------------
# Seifert forms


def pencil(m0, m1) -> tuple[int, ...]:
    """det(m0 + x m1) by exact interpolation from integer determinants."""
    n = len(m0)
    pts = list(range(n + 1))
    vals = [workloads.int_det([[m0[i][j] + t * m1[i][j] for j in range(n)] for i in range(n)]) for t in pts]
    poly = sympy.interpolate(list(zip(pts, vals)), X)
    return from_sympy(sympy.Poly(poly, X, domain="ZZ")) if poly != 0 else (0,)


@lru_cache(maxsize=8)
def numpy_signature(lattice: str) -> int:
    gram, _ = workloads.LATTICES[lattice]
    eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
    return int((eig > 1e-9).sum() - (eig < -1e-9).sum())


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def expected_alexander(form) -> tuple[int, ...]:
    """det(xA + A^T), sign-normalised so Delta(1) = (-1)^n."""
    at = [list(r) for r in zip(*form)]
    delta = _trim(pencil(at, form))
    n = (len(delta) - 1) // 2
    return delta if sum(delta) == (-1) ** n else tuple(-c for c in delta)


def charpoly_squarefree(form) -> bool:
    """Squarefreeness of the companion's characteristic polynomial
    det(xI - S^-1 A^T), up to the unit det S: that of det(xS - A^T)."""
    n = len(form)
    s = [[form[i][j] + form[j][i] for j in range(n)] for i in range(n)]
    neg_at = [[-form[j][i] for j in range(n)] for i in range(n)]
    f = to_sympy(pencil(neg_at, s))
    return sympy.gcd(f, f.diff(X)).degree() == 0


def check_seifert(op: dict, result: dict) -> list[str]:
    form, lattice = op["form"], op["lattice"]
    gram, _ = workloads.LATTICES[lattice]
    n = len(form)
    if any(form[i][j] + form[j][i] != gram[i][j] for i in range(n) for j in range(n)):
        return ["generated form does not symmetrise to its lattice"]
    delta = expected_alexander(form)
    if tuple(result["delta"]) != delta:
        return ["Delta_A differs from det(xA + A^T)"]
    mil = result["milnor"]
    sig = numpy_signature(lattice)
    if mil["total"] != sig or sum(mil["values"]) != sig:
        return [f"Milnor total {mil['total']} differs from the numpy signature {sig} of S"]
    if any(v not in (-2, 0, 2) for v in mil["values"]):
        return ["Milnor value outside {-2, 0, 2}"]
    problems = check_report(delta, 7, op["signature"], None, result["report"])
    if result["report"]["verdict"] == "NOT_ADMISSIBLE":
        problems.append("a form realizing sig S got NOT_ADMISSIBLE for s = sig S")
    if result["report"].get("rho") is not None and len(mil["values"]) != result["report"]["rho"] // 2:
        problems.append("one Milnor value per unit-circle factor expected")
    if result["tau_report"] is not None:
        problems += check_report(delta, 7, None, mil["values"], result["tau_report"])
    elif all(v in (-2, 2) for v in mil["values"]):
        problems.append("analyze_tau was not run for an all +-2 assignment")
    return problems


# ---------------------------------------------------------------------------


def check(op: dict, rec: dict) -> list[str]:
    """Problems with one classified outcome.  Refusals are documented
    outcomes and are not checked; failures are already failures."""
    outcome = rec["outcome"]
    if outcome == "rejected":
        if op["kind"] == "seifert" and not charpoly_squarefree(op["form"]):
            return []
        if op["kind"] == "analyze_tau" and conditions(tuple(op["delta"])):
            if len(op["tau"]) != rho(tuple(op["delta"])) // 2:
                return []
        return [f"valid input rejected: {rec['error']}"]
    if outcome != "answered":
        return []
    result = json.loads(rec["result"])
    if op["kind"] == "seifert":
        return check_seifert(op, result)
    tau = op.get("tau")
    return check_report(tuple(op["delta"]), op["m"], op.get("s"), tau, result["report"])
