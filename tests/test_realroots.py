"""Sturm counting, root isolation, and the unit-circle root counts."""

from __future__ import annotations

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from knotsig import (
    IntPoly,
    delta_to_p,
    factor_z,
    gcd_z,
    irr_r_factors,
    is_squarefree_q,
    isolate_roots,
    parse_poly,
    rho_delta,
    rho_p,
    sturm_count,
    v_polynomial,
)
from knotsig import realroots, seifert
from knotsig.realroots import (
    NEG_INF,
    IsolatingInterval,
    refine_interval,
    root_gaps,
    sign_at_root,
    sturm_sequence,
)
from conftest import make_delta_a
from oracles import (
    RatPoly,
    count_real_roots_float,
    fraction_isolate_roots,
    fraction_refine_interval,
    fraction_root_gaps,
    interval_eval,
    rat_isolate_roots,
    rat_sturm_count,
    rat_sturm_sequence,
    sign_at_root_by_bisection,
    squarefree_by_rat_gcd,
)

INF = float("inf")


class TestSturmCount:
    def test_sqrt2_positive(self):
        assert sturm_count(parse_poly("x^2 - 2"), 0, INF) == 1

    def test_no_real_roots(self):
        assert sturm_count(parse_poly("x^2 + 1"), -INF, INF) == 0

    def test_trace_quartic(self):
        assert sturm_count(parse_poly("x^2 - 3"), -2, 2) == 2

    def test_endpoint_root_raises(self):
        with pytest.raises(ValueError, match="endpoint"):
            sturm_count(parse_poly("x^2 - 4"), 2, INF)

    def test_non_squarefree_raises(self):
        with pytest.raises(ValueError, match="squarefree"):
            sturm_count(parse_poly("x^2 - 2*x + 1"), -INF, INF)

    def test_against_float_oracle(self):
        """On random f, a third of them times the square of a random
        g: the Sturm sequence ends in a constant exactly when
        ``is_squarefree_q`` (and the rational gcd) say f is squarefree,
        counting refuses the others, and counts match the float roots."""
        rng = random.Random(61)
        checked = squares = 0
        while checked < 200:
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(2, 10))])
            if rng.random() < 1 / 3:
                f = f * IntPoly([rng.randint(-3, 3) for _ in range(rng.randrange(2, 4))]) ** 2
            if f.is_zero or f.degree < 1:
                continue
            squarefree = sturm_sequence(f)[-1].degree == 0
            assert squarefree == is_squarefree_q(f) == squarefree_by_rat_gcd(f), f.coeffs
            if not squarefree:
                squares += 1
                with pytest.raises(ValueError, match="squarefree"):
                    sturm_count(f, -INF, INF)
                continue
            a, b = sorted(rng.sample(range(-12, 13), 2))
            if f.evaluate(a) == 0 or f.evaluate(b) == 0:
                continue
            want = count_real_roots_float(f, a, b)
            if want is None:
                continue
            assert sturm_count(f, a, b) == want, (f.coeffs, a, b)
            checked += 1
        assert squares >= 50


class TestIsolateRoots:
    def test_single(self):
        ivs = isolate_roots(parse_poly("x^2 - 2"), 0, 3)
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.lo < Fraction(141421, 100000) < iv.hi

    def test_three_known_roots(self):
        ivs = isolate_roots(parse_poly("-6,11,-6,1"), 0, 4)
        assert len(ivs) == 3
        for iv, root in zip(ivs, (1, 2, 3)):
            assert iv.lo < root < iv.hi

    def test_empty(self):
        assert isolate_roots(parse_poly("x^2 + 1")) == []

    def test_disjoint_and_sorted(self):
        rng = random.Random(67)
        for _ in range(40):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randrange(2, 9))])
            if f.is_zero or f.degree < 1 or not squarefree_by_rat_gcd(f):
                continue
            ivs = isolate_roots(f)
            assert len(ivs) == sturm_count(f, -INF, INF)
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi <= b.lo
            for iv in ivs:
                assert f.evaluate(iv.lo) != 0 and f.evaluate(iv.hi) != 0
                assert sturm_count(f, iv.lo, iv.hi) == 1


class TestRho:
    def test_rho_delta_quartic(self, delta1):
        assert rho_delta(delta1) == 4

    def test_rho_delta_product(self, delta1, delta2):
        assert rho_delta(delta1 * delta2) == 8

    def test_rho_delta_example_one(self, g1, delta1):
        assert rho_delta(g1 * delta1) == 8

    @pytest.mark.parametrize("a", range(6))
    def test_rho_delta_a(self, a):
        assert rho_delta(make_delta_a(a)) == 4

    def test_rho_p_values(self, delta1, delta2):
        assert rho_p(delta_to_p(delta1)) == 4
        assert rho_p(delta_to_p(delta1 * delta2)) == 8
        assert rho_p(parse_poly("x^2 - x - 2")) == 0

    def test_rho_even_and_bounded(self):
        rng = random.Random(71)
        done = 0
        while done < 30:
            n = rng.randrange(1, 5)
            half = [rng.randint(-9, 9) for _ in range(n)]
            delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
            if delta.degree != 2 * n or delta.evaluate(1) == 0 or delta.evaluate(-1) == 0:
                continue
            from knotsig import is_squarefree_q

            if not is_squarefree_q(delta):
                continue
            r = rho_delta(delta)
            assert r % 2 == 0 and 0 <= r <= 2 * n
            done += 1

    def test_cross_check_rho_p_equals_rho_delta(self):
        rng = random.Random(73)
        done = 0
        while done < 100:
            n = rng.randrange(1, 6)
            half = [rng.randint(-9, 9) for _ in range(n)]
            delta = IntPoly(half + [rng.randint(-9, 9)] + half[::-1])
            if delta.degree != 2 * n or delta.evaluate(1) == 0 or delta.evaluate(-1) == 0:
                continue
            from knotsig import is_squarefree_q

            if not is_squarefree_q(delta):
                continue
            assert rho_delta(delta) == rho_p(delta_to_p(delta))
            done += 1

    def test_corpus_rho_divisible_by_four(self, delta1, delta2, g1):
        # observed on every worked example; asserted on the corpus only
        corpus = [delta1, delta2, delta1 * delta2, g1 * delta1] + [
            make_delta_a(a) for a in range(6)
        ]
        for delta in corpus:
            assert rho_delta(delta) % 4 == 0

    def test_preconditions_reported_distinctly(self, f1):
        with pytest.raises(ValueError, match="reciprocal"):
            rho_delta(parse_poly("x^2 + x + 2"))
        with pytest.raises(ValueError, match="squarefree"):
            rho_delta(parse_poly("x^2 + 3*x + 1") * parse_poly("x^2 + 3*x + 1"))
        with pytest.raises(ValueError, match="X = 1"):
            rho_delta(parse_poly("x^2 - 2*x + 1") * parse_poly("x^2 + 3*x + 1"))
        with pytest.raises(ValueError, match="symmetr|1-X"):
            rho_p(parse_poly("x^2 + 1"))


class TestRefusals:
    """The wording of each refusal, whichever check now makes it: the
    model's construction, its value at the endpoint, or the Sturm
    sequence of the model."""

    # (2X - 1)^2, whose v-model 4Y + 1 vanishes at -1/4; squares of
    # symmetric factors with v-roots above and below -1/4
    NOT_SQUAREFREE_P = [parse_poly("4*x^2 - 4*x + 1"), parse_poly("x^2 - x - 1") ** 2,
                        parse_poly("x^2 - x + 1") ** 2,
                        parse_poly("x^2 - x + 1") ** 2 * parse_poly("x^2 - x - 1")]

    @pytest.mark.parametrize("p", NOT_SQUAREFREE_P, ids=str)
    def test_p_not_squarefree(self, p):
        with pytest.raises(ValueError, match="^P must be squarefree$"):
            rho_p(p)
        with pytest.raises(ValueError, match="^P must be squarefree$"):
            irr_r_factors(p)

    @pytest.mark.parametrize("text", ["0", "x^2 + 1", "x^3 - x", "x^4 - x + 1"])
    def test_p_not_symmetric(self, text):
        for fn in (rho_p, irr_r_factors):
            with pytest.raises(ValueError, match="^P must satisfy P\\(1-X\\) = P\\(X\\)$"):
                fn(parse_poly(text))

    @pytest.mark.parametrize("delta, message", [
        (parse_poly("x + 1") ** 2 * parse_poly("x^2 + 3*x + 1"), "^rho excludes roots at X = 1 or X = -1$"),
        (parse_poly("x - 1") ** 2, "^rho excludes roots at X = 1 or X = -1$"),
        (parse_poly("x^2 + 3*x + 1") ** 2, "^rho needs a squarefree polynomial$"),
        (parse_poly("x^2 + 1") ** 2 * parse_poly("x^2 - x + 1"), "^rho needs a squarefree polynomial$"),
        (parse_poly("x^2 + x + 2"), "^rho needs a reciprocal polynomial of even degree$"),
        (parse_poly("x^3 + 1"), "^rho needs a reciprocal polynomial of even degree$"),
        (IntPoly.zero(), "^the zero polynomial has no Alexander conditions$"),
    ], ids=str)
    def test_delta(self, delta, message):
        with pytest.raises(ValueError, match=message):
            rho_delta(delta)


class TestIrrRFactors:
    def test_counts(self, delta1, delta2):
        assert len(irr_r_factors(delta_to_p(delta1))) == 2
        assert len(irr_r_factors(delta_to_p(delta1 * delta2))) == 4
        assert irr_r_factors(parse_poly("x^2 - x - 2")) == []

    def test_matches_rho(self, delta1, delta2, g1):
        for delta in (delta1, delta1 * delta2, g1 * delta1):
            p = delta_to_p(delta)
            assert 2 * len(irr_r_factors(p)) == rho_p(p)

    def test_intervals_disjoint_below_quarter(self, delta1, delta2):
        factors = irr_r_factors(delta_to_p(delta1 * delta2))
        for f in factors:
            assert f.v_root_interval.hi <= Fraction(-1, 4)
        for a, b in zip(factors, factors[1:]):
            assert a.v_root_interval.hi <= b.v_root_interval.lo


class TestCertifiedSigns:
    def test_interval_eval_contains_value(self):
        p = parse_poly("x^3 - 2*x + 1")
        lo, hi = interval_eval(p, Fraction(1, 3), Fraction(1, 2))
        for x in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
            assert lo <= p.evaluate(x) <= hi

    def test_sign_at_sqrt2(self):
        minpoly = parse_poly("x^2 - 2")
        ivs = isolate_roots(minpoly, 0, 3)
        # sign of (x - 1) at sqrt(2) is +, sign of 2(x - 3/2) is -
        assert sign_at_root(parse_poly("x - 1"), minpoly, ivs[0]) == 1
        assert sign_at_root(parse_poly("2*x - 3"), minpoly, ivs[0]) == -1

    def test_refine_keeps_root(self):
        minpoly = parse_poly("x^2 - 2")
        iv = isolate_roots(minpoly, 0, 3)[0]
        for _ in range(20):
            iv = refine_interval(minpoly, iv)
        assert iv.lo < Fraction(1414214, 1000000) and iv.hi > Fraction(1414213, 1000000)


def _v_models() -> list[IntPoly]:
    """The v-models Q of P for the k = 4..7 Delta_a products and of each
    of their irreducible factors."""
    out = []
    for k in range(4, 8):
        p_poly = IntPoly.one()
        for a in range(k):
            p_poly = p_poly * delta_to_p(make_delta_a(a))
        q = v_polynomial(p_poly)
        out.append(q)
        if k == 7:
            out.extend(f for f, _ in factor_z(q).factors)
    return out


def _random_squarefree(seed: int, count: int) -> list[IntPoly]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randrange(2, 14))])
        if f.degree >= 1 and squarefree_by_rat_gcd(f):
            out.append(f)
    return out


class TestAgainstFractionChain:
    """The integer Sturm sequences, counts, intervals and signs against
    the Fraction routes of tests/oracles.py."""

    CASES = _v_models() + _random_squarefree(97, 60)

    def test_sequence_is_a_positive_multiple(self):
        for f in self.CASES:
            seq, rat_seq = sturm_sequence(f), rat_sturm_sequence(RatPoly(f.coeffs))
            assert len(seq) == len(rat_seq)
            for g, r in zip(seq, rat_seq):
                assert g.degree == r.degree
                ratio = Fraction(g.lc) / r.lc
                assert ratio > 0 and RatPoly(g.coeffs) == r * ratio
            assert all(g.content() == 1 for g in seq[2:])

    def test_counts(self):
        rng = random.Random(101)
        points = [-INF, INF] + [Fraction(rng.randint(-40, 40), rng.randint(1, 16)) for _ in range(12)]
        for f in self.CASES:
            fr = RatPoly(f.coeffs)
            usable = [x for x in points if x in (-INF, INF) or fr.evaluate(x) != 0]
            for _ in range(6):
                a, b = sorted(rng.sample(usable, 2))
                want = rat_sturm_count(fr, a, b)
                assert sturm_count(f, a, b) == want

    def test_intervals(self):
        for f in self.CASES:
            for a, b in ((-INF, INF), (-INF, Fraction(-1, 4)), (Fraction(-3, 7), Fraction(5, 2))):
                if b != INF and f.evaluate(b) == 0 or a != -INF and f.evaluate(a) == 0:
                    continue
                assert isolate_roots(f, a, b) == rat_isolate_roots(RatPoly(f.coeffs), a, b)

    def test_signs_at_roots(self):
        rng = random.Random(103)
        for f in self.CASES[:20]:
            fr = RatPoly(f.coeffs)
            for iv in isolate_roots(f):
                expr = IntPoly([rng.randint(-9, 9) for _ in range(int(f.degree))])
                if expr.is_zero or gcd_z(f, expr).degree > 0:
                    continue  # expr might vanish at the root
                want = sign_at_root_by_bisection(RatPoly(expr.coeffs), fr, iv)
                assert sign_at_root(expr, f, iv) == want


class TestRootGaps:
    # Q = (x + 1)(2048x + 2049): roots -1 - 1/2048 and -1
    Q = IntPoly([1, 1]) * IntPoly([2049, 2048])
    SHARED = Fraction(-1) - Fraction(1, 4096)
    TOUCHING = [
        IsolatingInterval(Fraction(-3, 2), SHARED),
        IsolatingInterval(SHARED, Fraction(-1, 2)),
    ]

    def test_touching_intervals_are_separated(self):
        gaps = root_gaps(self.Q, self.TOUCHING, Fraction(-1, 4))
        assert len(gaps) == 2
        (lo0, hi0), (lo1, hi1) = gaps
        assert Fraction(-2049, 2048) < lo0 < hi0 < -1 < lo1 < hi1 == Fraction(-1, 4)
        for lo, hi in gaps:
            assert sturm_count(self.Q, lo, hi) == 0

    def test_last_interval_reaching_top_is_refined(self):
        gaps = root_gaps(self.Q, self.TOUCHING, Fraction(-1, 2))
        lo, hi = gaps[-1]
        assert -1 < lo < hi == Fraction(-1, 2)

    def test_no_roots_no_gaps(self):
        assert root_gaps(self.Q, [], Fraction(-1, 4)) == []


def _seifert_forms_v_models() -> list[IntPoly]:
    """The v-models Q of the 16 benchmark Seifert forms: the 8 requests of
    ``perfbench/workloads.py`` seifert_forms (seed 1) on corpus seeds 0
    and 1001."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for corpus in (0, 1001):
        for op in workloads.seifert_forms(1, 8, corpus):
            a = seifert.form_to_pair(op["form"]).a
            out.append(v_polynomial(seifert.charpoly(a)))
    return out


class TestIntegerBisection:
    """Bisection on integer numerators over a shared denominator gives
    byte-identical intervals to the Fraction routes of tests/oracles.py:
    the Fraction-endpoint bisection it replaced and the Fraction Sturm
    chain."""

    CASES = _v_models() + _random_squarefree(211, 20)
    SPANS = ((-INF, INF), (-INF, Fraction(-1, 4)), (Fraction(-3, 7), Fraction(5, 2)), (Fraction(1, 3), INF))

    @staticmethod
    def assert_same(f, a, b, width=Fraction(1, 1 << 10), rat_chain=True):
        got = isolate_roots(f, a, b, width)
        want = fraction_isolate_roots(f, a, b, width)
        assert [(str(iv.lo), str(iv.hi)) for iv in got] == [(str(iv.lo), str(iv.hi)) for iv in want]
        if rat_chain:
            assert got == rat_isolate_roots(RatPoly(f.coeffs), a, b, width)
        return got

    def test_cases(self):
        """Against the Fraction-endpoint route only: TestAgainstFractionChain
        already checks the v-models against the Fraction chain."""
        for f in self.CASES:
            for a, b in self.SPANS:
                if b != INF and f.evaluate(b) == 0 or a != -INF and f.evaluate(a) == 0:
                    continue
                self.assert_same(f, a, b, rat_chain=False)

    def test_root_at_a_midpoint(self):
        # X^2 - 5X on (-1, 1): the first midpoint 0 is a root, moved by 1/2
        f = parse_poly("x^2 - 5*x")
        (iv,) = self.assert_same(f, -1, 1)
        assert iv.lo < 0 < iv.hi
        # roots at dyadic points hit by later midpoints too
        dyadic = IntPoly([-3, 8]) * IntPoly([1, 4]) * IntPoly([-1, 1])
        self.assert_same(dyadic, -2, 3)
        self.assert_same(dyadic, -INF, INF, Fraction(1, 3))

    def test_cauchy_bound_off_powers_of_two(self):
        # bound 2 + 7/3 = 13/3 and 2 + 10/9 = 28/9: denominators 3 and 9
        for text in ("3*x^2 - 7", "9*x^3 - 10*x + 1", "6*x^4 - 5*x^2 + 1"):
            f = parse_poly(text)
            for a, b in ((-INF, INF), (-INF, Fraction(1, 5)), (Fraction(-1, 7), INF)):
                self.assert_same(f, a, b)

    def test_refine_interval(self):
        f = parse_poly("x^2 - 5*x")
        ivs = [IsolatingInterval(Fraction(-1), Fraction(1)),  # midpoint root
               IsolatingInterval(Fraction(-1, 3), Fraction(1, 2)),  # unequal denominators
               IsolatingInterval(Fraction(9, 2), Fraction(16, 3))]
        for iv in ivs:
            for _ in range(12):
                want = fraction_refine_interval(f, iv)
                assert refine_interval(f, iv) == want
                iv = want
        for g in self.CASES[:20]:
            for iv in isolate_roots(g, -INF, INF, Fraction(1, 4)):
                assert refine_interval(g, iv) == fraction_refine_interval(g, iv)

    def test_root_gaps(self):
        q = TestRootGaps.Q
        for top in (Fraction(-1, 4), Fraction(-1, 2)):
            assert root_gaps(q, TestRootGaps.TOUCHING, top) == fraction_root_gaps(q, TestRootGaps.TOUCHING, top)
        for f in self.CASES:
            if f.evaluate(Fraction(-1, 4)) == 0:
                continue
            ivs = isolate_roots(f, -INF, Fraction(-1, 4), Fraction(1, 2))
            assert root_gaps(f, ivs, Fraction(-1, 4)) == fraction_root_gaps(f, ivs, Fraction(-1, 4))

    def test_sturm_variations_only_until_roots_are_apart(self, monkeypatch):
        """On the 16 benchmark v-models the Sturm sequence is evaluated
        only where an interval holds two or more roots: 15.25 times per
        call, against 61.6 when every bisection step evaluated it."""
        qs = _seifert_forms_v_models()
        count = 0
        original = realroots._variations

        def counting(*args):
            nonlocal count
            count += 1
            return original(*args)

        monkeypatch.setattr(realroots, "_variations", counting)
        for q in qs:
            isolate_roots(q, NEG_INF, Fraction(-1, 4))
        assert len(qs) == 16
        assert count / len(qs) < 20
