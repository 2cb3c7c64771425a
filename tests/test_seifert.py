"""Seifert forms and pairs: the bijection, invariants, signatures, and
Milnor signatures of concrete pairs."""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from knotsig import (
    AnalysisRequest,
    IntPoly,
    IsolatingInterval,
    KnotsigError,
    alexander_check,
    alexander_of_form,
    analyze,
    analyze_tau,
    block_diag,
    charpoly_of_pair,
    delta_to_p,
    form_to_pair,
    is_squarefree_q,
    milnor_signatures,
    pair_to_form,
    parse_matrix,
    parse_poly,
    rho_delta,
    rho_p,
    signature_exact,
    symmetric_check,
    unimodular_t,
    validate_form,
    validate_pair,
)
from knotsig.seifert import (
    charpoly,
    e8_gram,
    half_form,
    identity,
    mat_det,
    mat_add,
    mat_inverse_unimodular,
    mat_mul,
    pencil_det,
    transpose,
)
from knotsig import realroots, seifert
import oracles
from oracles import (
    _hermitian_signature,
    _t_with_square_in,
    det_fraction,
    hermitian_signature_by_realification,
    inverse_by_fractions,
    milnor_values_levine_tristram,
    milnor_values_number_field,
    pencil_det_by_lagrange,
    root_gaps,
    signature_by_real_elimination,
    signature_float,
)

# appended, so that ``oracles`` still names tests/oracles.py
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402

A2 = ((0, 2), (-1, 0))
H = ((0, 1), (1, 0))
E8_MINUS_E8 = half_form(block_diag(e8_gram(), tuple(tuple(-x for x in row) for row in e8_gram())))


def skew_perturbed(form, seed, frac=0.25, steps=(-2, -1, 1, 2)):
    """form + K for a seeded random integer skew K: each entry above the
    diagonal is moved by a step with probability ``frac``.  A + A^T is
    unchanged; a draw with det A = 0 is drawn again."""
    rng = random.Random(seed)
    n = len(form)
    while True:
        a = [list(row) for row in form]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < frac:
                    c = rng.choice(steps)
                    a[i][j] += c
                    a[j][i] -= c
        if mat_det(a) != 0:
            return tuple(tuple(row) for row in a)


def squarefree_pairs(form, count, frac=0.25, steps=(-2, -1, 1, 2)):
    """The first ``count`` seeded perturbations of ``form`` whose
    companion has a squarefree characteristic polynomial."""
    out = []
    seed = 0
    while len(out) < count:
        pair = form_to_pair(skew_perturbed(form, seed, frac, steps))
        if is_squarefree_q(charpoly_of_pair(pair.s, pair.a)):
            out.append(pair)
        seed += 1
    return out


def random_conjugates(base, count, seed):
    """Repeated conjugation by single elementary/permutation matrices with
    entries in [-2, 2]; every step preserves unimodularity exactly."""
    rng = random.Random(seed)
    n = len(base)
    out = []
    current = tuple(tuple(row) for row in base)
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            u = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            u[i][j] = c
        elif kind == 1:
            perm = list(range(n))
            rng.shuffle(perm)
            u = [[1 if b == perm[a] else 0 for b in range(n)] for a in range(n)]
        else:
            u = [[(1 if rng.random() < 0.5 else -1) if a == b else 0 for b in range(n)] for a in range(n)]
        u = tuple(tuple(row) for row in u)
        current = mat_mul(transpose(u), mat_mul(current, u))
        out.append(current)
    return out


class TestValidation:
    def test_basic_form(self):
        assert validate_form(A2).ok

    def test_trefoil_style_matrix_rejected(self):
        val = validate_form(((-1, 1), (0, -1)))
        assert not val.ok and "determinant 3" in val.problems[0]

    def test_e8_half(self, e8, e8_half):
        assert mat_det(e8) == 1
        assert validate_form(e8_half).ok

    def test_pair_validation(self):
        assert validate_pair(((0, 1), (1, 0)), ((2, 0), (0, -1))).ok
        bad = validate_pair(((0, 1), (1, 0)), ((1, 0), (0, 1)))
        assert not bad.ok  # relation fails for the identity


class TestBijection:
    def test_example_pair(self):
        pair = form_to_pair(A2)
        assert pair.s == ((0, 1), (1, 0))
        assert pair.a == ((2, 0), (0, -1))

    def test_round_trip(self):
        pair = form_to_pair(A2)
        assert pair_to_form(pair.s, pair.a) == A2

    def test_e8_round_trip(self, e8, e8_half):
        pair = form_to_pair(e8_half)
        assert pair.s == e8
        assert pair_to_form(pair.s, pair.a) == e8_half

    def test_random_conjugates_round_trip(self, e8_half):
        base = block_diag(e8_half, e8_half)
        for mat in random_conjugates(base, 20, seed=3):
            assert validate_form(mat).ok
            pair = form_to_pair(mat)
            assert validate_pair(pair.s, pair.a).ok
            assert pair_to_form(pair.s, pair.a) == mat

    def test_degenerate_rejected(self):
        # symmetrization [[0,1],[1,0]] is fine but det A = 0
        with pytest.raises(ValueError, match="degenerate"):
            form_to_pair(((0, 1), (0, 0)))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match=r"^symmetrization has determinant 3, not \+-1$"):
            form_to_pair(((-1, 1), (0, -1)))

    def test_one_determinant_per_matrix(self, calls, e8_half):
        """form_to_pair takes det A once and det S once per lattice, and
        reads det a off them; validate_pair on the result agrees and takes
        both again.  The last three forms share E8 + H."""
        forms = [A2, e8_half] + [skew_perturbed(half_form(block_diag(e8_gram(), H)), seed) for seed in range(3)]
        counts = calls("seifert.mat_det")
        for form, dets in zip(forms, [2, 2, 2, 1, 1]):
            counts.clear()
            pair = form_to_pair(form)
            assert counts["seifert.mat_det"] == dets
            assert mat_det(pair.a) == mat_det(pair.s) * mat_det(form)
            assert validate_pair(pair.s, pair.a).ok

    def test_every_pair_message(self):
        assert validate_pair(((1, 2), (3, 4)), ((0, 0), (0, 0))).problems == (
            "S is not symmetric",
            "S has an odd diagonal entry, so it is not even",
            "S has determinant -2, not +-1",
            "a has determinant 0, so it is not injective",
            "the relation S(ax, y) = S(x, (1-a)y) fails",
        )


class TestAlexanderAndCharpoly:
    def test_small_form(self):
        assert alexander_of_form(A2) == parse_poly("2*x^2 - 5*x + 2")

    def test_constant_term_is_det(self, e8_half):
        for mat in (A2, e8_half):
            assert alexander_of_form(mat).evaluate(0) == mat_det(mat)

    def test_e8_alexander_conditions(self, e8_half):
        delta = alexander_of_form(e8_half)
        assert delta == parse_poly("x^8 + x^7 - x^5 - x^4 - x^3 + x + 1")
        rep = alexander_check(delta)
        assert rep.all_pass

    def test_palindromy_random(self, e8_half):
        for mat in random_conjugates(A2, 10, seed=5) + random_conjugates(e8_half, 10, seed=7):
            delta = alexander_of_form(mat)
            assert delta.coeffs == tuple(reversed(delta.coeffs))

    def test_charpoly_small(self):
        assert charpoly_of_pair(((0, 1), (1, 0)), ((2, 0), (0, -1))) == parse_poly("x^2 - x - 2")

    def test_prop_identity(self, e8_half):
        for mat in (A2, e8_half) + tuple(random_conjugates(e8_half, 10, seed=11)):
            pair = form_to_pair(mat)
            assert charpoly_of_pair(pair.s, pair.a) == delta_to_p(alexander_of_form(mat))

    def test_charpoly_symmetric(self, e8_half):
        pair = form_to_pair(e8_half)
        assert symmetric_check(charpoly_of_pair(pair.s, pair.a))


class TestSignature:
    def test_e8(self, e8):
        assert signature_exact(e8) == 8

    def test_hyperbolic(self):
        assert signature_exact(((0, 1), (1, 0))) == 0

    def test_negation(self, e8):
        neg = tuple(tuple(-x for x in row) for row in e8)
        assert signature_exact(neg) == -8

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            signature_exact(((1, 1), (1, 1)))

    def test_against_float_oracle_unimodular(self):
        # random symmetric unimodular matrices U^T D U with D diagonal +-1
        rng = random.Random(83)
        checked = 0
        while checked < 200:
            n = rng.randrange(2, 11)
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                d[i][i] = rng.choice((-1, 1))
            m = tuple(tuple(row) for row in d)
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                u = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                u[i][j] = rng.choice((-1, 1))
                ut = tuple(tuple(row) for row in u)
                m = mat_mul(transpose(ut), mat_mul(m, ut))
            assert mat_det(m) in (1, -1)
            want = signature_float([list(r) for r in m])
            if want is None:
                continue
            assert signature_exact(m) == want
            checked += 1

    def test_against_float_oracle_zero_diagonal(self):
        # mostly zero diagonals, so hyperbolic 2x2 pivots occur
        rng = random.Random(89)
        checked = 0
        while checked < 200:
            n = rng.randrange(2, 9)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = rng.choice((0, 0, 1, -1, 2, -3, 5))
                    m[i][j] = m[j][i] = v if i != j or rng.random() < 0.3 else 0
            want = signature_float(m)
            if want is None:
                continue
            assert signature_exact(m) == want
            checked += 1


def skew_from(entries, n):
    """The n x n skew matrix with ``entries`` above the diagonal, row by row."""
    k = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            k[i][j] = next(it)
            k[j][i] = -k[i][j]
    return tuple(map(tuple, k))


def hermitian_or_singular(fn, s, k, t):
    try:
        return fn(s, k, t)
    except ValueError as exc:
        assert "singular" in str(exc)
        return "singular"


LATTICE_GRAMS = {
    "E8": e8_gram(),
    "E8+H": block_diag(e8_gram(), H),
    "E8+H+H": block_diag(block_diag(e8_gram(), H), H),
}

# t = p/d: negative, zero, small and large, with power-of-two and other d
T_VALUES = st.builds(
    Fraction,
    st.one_of(st.integers(-40, 40), st.integers(-10**12, 10**12)),
    st.sampled_from((1, 2, 3, 7, 64, 1024, 3 * 2**20)),
)


def draw_form(draw, grams):
    """(S, A): S drawn from ``grams`` and a Seifert form A = half_form(S) +
    skew over S."""
    s = grams[draw(st.sampled_from(sorted(grams)))]
    n = len(s)
    skew = skew_from(draw(st.lists(st.sampled_from((0, 0, 0, -2, -1, 1, 2)),
                                   min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)), n)
    return s, mat_add(half_form(s), skew)


@st.composite
def lattice_pencils(draw):
    """(S, K, t): S a Gram matrix of E8, E8+H or E8+H+H, and K = A - A^T
    for a Seifert form A = half_form(S) + skew over S."""
    s, a = draw_form(draw, LATTICE_GRAMS)
    return s, mat_add(a, tuple(tuple(-x for x in row) for row in transpose(a))), draw(T_VALUES)


class TestHermitianKernel:
    """The n x n elimination over Z[i] against the real 2n x 2n
    realification of tests/oracles.py."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lattice_pencils())
    def test_lattice_pencils_match_realification(self, case):
        s, k, t = case
        want = hermitian_or_singular(hermitian_signature_by_realification, s, k, t)
        assert hermitian_or_singular(_hermitian_signature, s, k, t) == want

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.lists(st.integers(-3, 3), min_size=6, max_size=6), T_VALUES)
    def test_zero_diagonal_takes_the_block_pivot(self, entries, t):
        """S = H + H and K skew: the whole diagonal of dS + i pK is 0, so
        the first step is the 2 x 2 block pivot on b = d + i p K_01,
        complex whenever p K_01 != 0."""
        s = block_diag(H, H)
        k = skew_from(entries, 4)
        blocks = []
        original = oracles._pivot_block

        def counting(*args):
            blocks.append(args[2:])
            return original(*args)

        oracles._pivot_block = counting
        try:
            got = hermitian_or_singular(_hermitian_signature, s, k, t)
        finally:
            oracles._pivot_block = original
        assert got == hermitian_or_singular(hermitian_signature_by_realification, s, k, t)
        assert blocks and blocks[0] == (0, 1)

    def test_zero_negative_and_huge_t(self):
        grams = list(LATTICE_GRAMS.values()) + [block_diag(H, H)]
        for seed, s in enumerate(grams):
            a = skew_perturbed(half_form(s), seed)
            k = mat_add(a, tuple(tuple(-x for x in row) for row in transpose(a)))
            for t in (Fraction(0), Fraction(-5, 3), Fraction(10**30 + 1, 2**40), Fraction(-(10**30), 7)):
                want = hermitian_or_singular(hermitian_signature_by_realification, s, k, t)
                assert hermitian_or_singular(_hermitian_signature, s, k, t) == want

    def test_milnor_signatures_stays_at_size_n(self, calls, monkeypatch):
        """A Milnor computation takes at most one signature,
        ``signature_exact`` of the n x n S, and only on the first pair of
        its lattice; it runs no elimination over Z[i] (none is left in the
        package), and builds one Sturm sequence of two polynomials per
        basis vector it uses: here only e_0."""
        sizes = []
        original = seifert.signature_exact

        def sized(m):
            sizes.append(len(m))
            return original(m)

        monkeypatch.setattr(seifert, "signature_exact", sized)
        counts = calls("realroots.root_signs")
        pairs_of_sequences = []
        original_sequence = realroots.sturm_sequence

        def sequence(f, g=None):
            if g is not None:
                pairs_of_sequences.append(f)
            return original_sequence(f, g)

        monkeypatch.setattr(realroots, "sturm_sequence", sequence)
        for name in ("_hermitian_elimination", "_hermitian_signature", "_pivot_block", "_times"):
            assert not hasattr(seifert, name)
        done = 0
        for gram in LATTICE_GRAMS.values():
            for index, pair in enumerate(squarefree_pairs(half_form(gram), 2)):
                sizes.clear()
                counts.clear()
                pairs_of_sequences.clear()
                milnor_signatures(pair.s, pair.a)
                assert sizes == ([] if index else [len(gram)])
                assert counts["realroots.root_signs"] == len(pairs_of_sequences) == 1
                done += 1
        assert done == 6


class TestUnimodularT:
    def test_e8_isometry(self, e8, e8_half):
        t = unimodular_t(e8_half)
        assert mat_mul(transpose(t), mat_mul(e8, t)) == e8
        assert charpoly(t) == alexander_of_form(e8_half)

    def test_block_doubling(self, e8_half):
        double = block_diag(e8_half, e8_half)
        t = unimodular_t(double)
        single = unimodular_t(e8_half)
        assert t == block_diag(single, single)
        assert charpoly(t) == charpoly(single) * charpoly(single)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="determinant 2"):
            unimodular_t(A2)


class TestMilnorSignatures:
    def test_no_unit_circle_factors(self):
        ms = milnor_signatures(((0, 1), (1, 0)), ((2, 0), (0, -1)))
        assert ms.values == () and ms.total == 0

    def test_e8_pair(self, e8_half):
        pair = form_to_pair(e8_half)
        ms = milnor_signatures(pair.s, pair.a)
        assert ms.values == (2, 2, 2, 2)
        assert ms.total == 8 == signature_exact(pair.s)
        assert ms.kernel_dims == (2, 2, 2, 2)
        assert 0 not in ms.values

    def test_negated_pair(self, e8_half):
        pair = form_to_pair(e8_half)
        neg_s = tuple(tuple(-x for x in row) for row in pair.s)
        ms = milnor_signatures(neg_s, pair.a)
        assert ms.values == (-2, -2, -2, -2) and ms.total == -8

    def test_total_reconciles_on_conjugates(self, e8_half):
        for mat in random_conjugates(e8_half, 5, seed=13):
            pair = form_to_pair(mat)
            ms = milnor_signatures(pair.s, pair.a)
            assert ms.total == signature_exact(pair.s)
            assert all(v in (-2, 0, 2) for v in ms.values)
            assert all(d == 2 for d in ms.kernel_dims)

    def test_non_squarefree_rejected(self, e8_half):
        double = block_diag(e8_half, e8_half)
        pair = form_to_pair(double)
        with pytest.raises(ValueError, match="squarefree"):
            milnor_signatures(pair.s, pair.a)

    def test_mixed_pair(self, e8_half):
        """Direct sum of E8 with a hyperbolic pair: values stay +2 each and
        the total equals the signature of the sum."""
        pair_e8 = form_to_pair(e8_half)
        pair_h = form_to_pair(A2)
        s = block_diag(pair_e8.s, pair_h.s)
        a = block_diag(pair_e8.a, pair_h.a)
        ms = milnor_signatures(s, a)
        assert ms.total == 8 and ms.values == (2, 2, 2, 2)


@st.composite
def perturbed_forms(draw):
    """half_form(S) + skew for S of E8, E8+H, E8+H+H or H+H, with det A != 0."""
    form = draw_form(draw, {**LATTICE_GRAMS, "H+H": block_diag(H, H)})[1]
    assume(mat_det(form) != 0)
    return form


# (S, a) that are not Seifert pairs, each failing a different way
INVALID_PAIRS = [
    (((1, 2), (3, 4)), ((0, 0), (0, 0))),  # every problem at once
    (H, identity(2)),  # the relation fails; a^T S is no Seifert form
    (H, ((-2, 0), (0, 1))),  # the relation fails; a^T S is the form of (-H, -a)
    (H, ((0, 0), (0, 1))),  # the relation holds, det a = 0
    (((1, 0), (0, 1)), ((1, 0), (0, 0))),  # odd diagonal, det a = 0, relation fails
    (((2, 1), (1, 2)), ((1, 0), (0, 1))),  # det S = 3, relation fails
    (e8_gram(), identity(8)),
    (H, ((1,),)),  # sizes differ
    (((0, 1), (1,)), identity(2)),  # not square
]


class TestFormFacts:
    """One memoized record per Seifert form: Q from n/2 determinants of the
    companion, P and Delta_A read off it, the companion pair checked by
    one product S c = A^T; and one memoized record per lattice S: det S,
    S^-1 and sig S, shared by every form on S."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(perturbed_forms())
    def test_p_read_off_delta_is_the_charpoly(self, form):
        facts = seifert._form_facts(form)
        assert facts.p == charpoly(form_to_pair(form).a)
        assert facts.delta.evaluate(1) == facts.det_s == mat_det(facts.s)

    @pytest.mark.parametrize("corpus_seed", [0, 1001])
    def test_one_pass_per_benchmark_request(self, calls, corpus_seed):
        """The calls of a seifert_forms request, as perfbench's worker
        makes them, cost det A and n/2 determinants of the companion
        (n = len(form); they give Q, P and Delta_A), det S on the first
        form of a lattice only, no `_pair_problems` pass and no pencil
        determinant."""
        counts = calls("seifert.pencil_det", "seifert.mat_det", "seifert._pair_problems",
                       "seifert.charpoly")
        lattices = set()
        for op in workloads.seifert_forms(0, 16, corpus_seed):
            form = op["form"]
            counts.clear()
            pair = form_to_pair(form)
            alexander_of_form(form)
            milnor_signatures(pair.s, pair.a)
            n = len(form)
            first = pair.s not in lattices
            assert counts == {"seifert.mat_det": n // 2 + 1 + first}
            lattices.add(pair.s)
        assert sorted(map(len, lattices)) == [8, 10, 12]

    @pytest.mark.parametrize("corpus_seed", [0, 1001])
    def test_one_inverse_and_signature_per_lattice(self, calls, corpus_seed):
        """The 16 seifert_forms requests, as perfbench's worker makes them,
        invert S and take sig S once per lattice: 3 times each in all."""
        counts = calls("seifert.mat_inverse_unimodular", "seifert.signature_exact")
        for op in workloads.seifert_forms(0, 16, corpus_seed):
            pair = form_to_pair(op["form"])
            alexander_of_form(op["form"])
            milnor_signatures(pair.s, pair.a)
        assert counts == {"seifert.mat_inverse_unimodular": 3, "seifert.signature_exact": 3}

    @pytest.mark.parametrize("corpus_seed", [0, 1001])
    def test_warm_lattice_answers_equal_cold_ones(self, corpus_seed):
        """Each form's pair, Delta_A, Milnor values and both reports are the
        same whether the lattice memo is cleared before the form or left
        warm from the forms before it."""

        def answers(form, signature):
            seifert._form_facts.cache_clear()
            pair = form_to_pair(form)
            delta = alexander_of_form(form)
            if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
                delta = -delta
            mil = milnor_signatures(pair.s, pair.a)
            reports = (
                analyze(AnalysisRequest(delta=delta, m=7, signature=signature)).to_dict(),
                analyze_tau(AnalysisRequest(delta=delta, m=7, tau=mil.values)).to_dict(),
            )
            return pair, delta, mil, reports

        ops = workloads.seifert_forms(0, 16, corpus_seed)
        warm = [answers(op["form"], op["signature"]) for op in ops]
        assert seifert._lattice_facts.cache_info().hits > 0
        for op, want in zip(ops, warm):
            seifert._lattice_facts.cache_clear()
            assert answers(op["form"], op["signature"]) == want

    def test_wrong_companion_is_an_internal_error(self, monkeypatch, e8_half):
        """A wrong S^-1 fails the product S c = A^T, and a failed check
        leaves nothing wrong in the memos: once the inverse is right again,
        the same form gives its pair."""
        original = seifert.mat_inverse_unimodular

        def off_by_one(m):
            inv = [list(row) for row in original(m)]
            inv[0][0] += 1
            return tuple(map(tuple, inv))

        monkeypatch.setattr(seifert, "mat_inverse_unimodular", off_by_one)
        with pytest.raises(KnotsigError, match=r"companion pair invalid: S c = A\^T fails"):
            form_to_pair(e8_half)
        monkeypatch.undo()
        pair = form_to_pair(e8_half)
        assert mat_mul(pair.s, pair.a) == transpose(e8_half)

    def test_non_unimodular_refusal_is_not_memoized(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^symmetrization has determinant 3, not \+-1$"):
                form_to_pair(((-1, 1), (0, -1)))
        assert seifert._lattice_facts.cache_info().currsize == 0

    @pytest.mark.parametrize("corpus_seed", [0, 1001])
    def test_one_sturm_sequence_of_q_per_benchmark_request(self, monkeypatch, corpus_seed):
        """A seifert_forms request, as perfbench's worker makes it (the
        pair, Delta_A, the Milnor values, then the analyses at s and at
        tau), builds the Sturm sequence of Q once: the Milnor root
        isolation, the lift certificate and rho_p share it.  Every other
        sequence of one polynomial is built once too."""
        built = []
        original = realroots.sturm_sequence

        def recording(f, g=None):
            if g is None:
                built.append(f)
            return original(f, g)

        monkeypatch.setattr(realroots, "sturm_sequence", recording)
        irreducible_q = 0
        for op in workloads.seifert_forms(1, 24, corpus_seed):
            form = op["form"]
            built.clear()
            pair = form_to_pair(form)
            delta = alexander_of_form(form)
            if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
                delta = -delta
            mil = milnor_signatures(pair.s, pair.a)
            rep = analyze(AnalysisRequest(delta=delta, m=7, signature=op["signature"]))
            analyze_tau(AnalysisRequest(delta=delta, m=7, tau=mil.values))
            q = seifert._form_facts(seifert.as_matrix(form)).q
            assert built.count(q) == 1
            assert len(set(built)) == len(built)
            irreducible_q += len(rep.factors["factors"]) == 1
        assert irreducible_q > 0

    def test_hand_built_pairs(self, e8, e8_half):
        """Pairs not made by form_to_pair, given as lists: E8's companion
        by the Fraction inverse, and a sum of two diagonal pairs on H."""
        a = mat_mul(inverse_by_fractions(e8), transpose(e8_half))
        pair = form_to_pair(e8_half)
        want = milnor_signatures(pair.s, pair.a)
        seifert._form_facts.cache_clear()
        ms = milnor_signatures([list(r) for r in e8], [list(r) for r in a])
        assert ms == want and ms.values == (2, 2, 2, 2)
        s2, a2 = block_diag(H, H), block_diag(((2, 0), (0, -1)), ((3, 0), (0, -2)))
        assert charpoly_of_pair(s2, a2) == parse_poly("x^2 - x - 2") * parse_poly("x^2 - x - 6")
        assert milnor_signatures(s2, a2).values == ()
        assert pair_to_form(s2, a2) == mat_mul(transpose(a2), s2)

    @pytest.mark.parametrize("s, a", INVALID_PAIRS)
    def test_invalid_pairs_raise_the_validation_problems(self, s, a):
        val = validate_pair(s, a)
        assert not val.ok
        for entry in (milnor_signatures, charpoly_of_pair, pair_to_form):
            with pytest.raises(ValueError) as exc:
                entry(s, a)
            assert str(exc.value) == "; ".join(val.problems)


class TestMilnorOracle:
    """The Levine-Tristram jumps agree with the number-field eigenspace
    signatures (tests/oracles.py) value by value."""

    @staticmethod
    def assert_agrees(s, a):
        ms = milnor_signatures(s, a)
        assert ms.values == milnor_values_number_field(s, a)
        assert ms.total == signature_exact(s)
        return ms

    def test_forms_of_the_suite(self, e8_half):
        pair = form_to_pair(e8_half)
        neg_s = tuple(tuple(-x for x in row) for row in pair.s)
        pair_h = form_to_pair(A2)
        cases = [(pair_h.s, pair_h.a), (pair.s, pair.a), (neg_s, pair.a)]
        cases.append((block_diag(pair.s, pair_h.s), block_diag(pair.a, pair_h.a)))
        for mat in random_conjugates(e8_half, 5, seed=13):
            conj = form_to_pair(mat)
            cases.append((conj.s, conj.a))
        for s, a in cases:
            self.assert_agrees(s, a)

    @pytest.mark.parametrize(
        "form",
        [
            half_form(e8_gram()),
            block_diag(half_form(e8_gram()), A2),
            half_form(block_diag(e8_gram(), H)),
        ],
        ids=["E8", "E8+A2", "E8+H"],
    )
    def test_skew_perturbed(self, form):
        for pair in squarefree_pairs(form, 2):
            self.assert_agrees(pair.s, pair.a)

    def test_mixed_sign_e8_minus_e8(self):
        pair = form_to_pair(skew_perturbed(E8_MINUS_E8, 12, frac=0.1, steps=(-1, 1)))
        ms = self.assert_agrees(pair.s, pair.a)
        assert ms.values == (2, -2) and ms.total == 0

    def test_mixed_sign_four_factors(self):
        """Seed 2 gives four unit-circle factors; the number-field route
        (11 s) gives the same values."""
        pair = form_to_pair(skew_perturbed(E8_MINUS_E8, 2, frac=0.1, steps=(-1, 1)))
        assert milnor_signatures(pair.s, pair.a).values == (-2, 2, -2, 2)


def negated(m):
    return tuple(tuple(-x for x in row) for row in m)


@st.composite
def lattice_pairs(draw):
    """A Seifert pair (S, a) or (-S, a) of a perturbed E8, E8+H or E8+H+H
    form with det A != 0 and squarefree P."""
    form = draw_form(draw, LATTICE_GRAMS)[1]
    assume(mat_det(form) != 0)
    pair = form_to_pair(form)
    assume(is_squarefree_q(charpoly_of_pair(pair.s, pair.a)))
    return (negated(pair.s) if draw(st.booleans()) else pair.s), pair.a


class TestEigenplaneSigns:
    """Milnor values read as eigenplane signs against both oracles of
    tests/oracles.py: the Levine-Tristram jumps over Z[i] and the
    number-field eigenspace signatures."""

    @settings(derandomize=True, max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(lattice_pairs())
    def test_against_levine_tristram(self, pair):
        s, a = pair
        ms = milnor_signatures(s, a)
        assert ms.values == milnor_values_levine_tristram(s, a)
        assert ms.total == signature_by_real_elimination(s)
        assert all(v in (-2, 2) for v in ms.values) and 0 not in ms.values

    @settings(derandomize=True, max_examples=5, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(lattice_pairs())
    def test_against_number_field(self, pair):
        s, a = pair
        assert milnor_signatures(s, a).values == milnor_values_number_field(s, a)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_e8_plus_negative_e8_needs_the_second_block(self, calls, seed):
        """On E8's half form summed with a perturbed -E8 half form, e_0 lies
        in the first block and is S-orthogonal to the eigenplanes of the
        second, so their signs come from e_8, the first basis vector of
        the second block: nine Sturm sequences."""
        form = block_diag(half_form(e8_gram()), skew_perturbed(half_form(negated(e8_gram())), seed,
                                                               frac=0.1, steps=(-1, 1)))
        pair = form_to_pair(form)
        counts = calls("realroots.root_signs")
        ms = milnor_signatures(pair.s, pair.a)
        assert counts["realroots.root_signs"] == 9
        assert ms.values == milnor_values_levine_tristram(pair.s, pair.a)
        assert sorted(ms.values) == [-2] * 4 + [2] * 4 and ms.total == 0


@st.composite
def any_forms(draw):
    """half_form(S) + skew for S of E8, E8+H, E8+H+H or H+H; det A may be 0."""
    return draw_form(draw, {**LATTICE_GRAMS, "H+H": block_diag(H, H)})[1]


def degenerate_forms(gram, count):
    """The first ``count`` seeded skew perturbations of half_form(gram)
    with det A = 0; gram must be indefinite, as x^T A x = x^T S x / 2."""
    out, n = [], len(gram)
    rng = random.Random(f"degenerate:{n}")
    while len(out) < count:
        a = [list(row) for row in half_form(gram)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    c = rng.choice((-2, -1, 1, 2))
                    a[i][j] += c
                    a[j][i] -= c
        if mat_det(a) == 0:
            out.append(tuple(map(tuple, a)))
    return out


class TestCompanionDeterminants:
    """Q, P and Delta_A from n/2 determinants of the companion c = S^-1 A^T
    against pencil determinants, also when det A = 0."""

    @staticmethod
    def assert_matches(form):
        facts = seifert._form_facts(form)
        c = facts.companion
        assert mat_mul(facts.s, c) == transpose(form)
        assert facts.p == charpoly(c)
        assert facts.delta == pencil_det(transpose(form), form) == alexander_of_form(form)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(any_forms())
    def test_against_pencil_determinants(self, form):
        self.assert_matches(form)

    @pytest.mark.parametrize("name", ["E8+H", "E8+H+H", "H+H"])
    def test_degenerate_forms(self, name):
        """det A = 0 (which needs an indefinite S): Delta_A still answers,
        of degree below n, while the pair is refused."""
        gram = LATTICE_GRAMS.get(name, block_diag(H, H))
        for form in degenerate_forms(gram, 3) + [((0, 1), (0, 0))]:
            self.assert_matches(form)
            assert alexander_of_form(form).degree < len(form)
            with pytest.raises(ValueError, match="degenerate"):
                form_to_pair(form)


class TestSamplePoints:
    def test_t_with_square_in(self):
        for lo, hi in [(Fraction(0), Fraction(1, 3)), (Fraction(2), Fraction(3)),
                       (Fraction(1024, 3073), Fraction(1025, 3073)), (Fraction(7), None)]:
            t = _t_with_square_in(lo, hi)
            assert t > 0 and lo < t * t and (hi is None or t * t < hi)

    def test_touching_v_root_intervals(self):
        """Q = (x + 1)(2048x + 2049) has v-roots 1/2048 apart; intervals
        sharing the endpoint -1 - 1/4096 leave no room for a sample point
        until they are refined."""
        q = IntPoly([1, 1]) * IntPoly([2049, 2048])
        shared = Fraction(-1) - Fraction(1, 4096)
        ivs = [IsolatingInterval(Fraction(-3, 2), shared), IsolatingInterval(shared, Fraction(-1, 2))]
        (lo, hi), _ = root_gaps(q, ivs, Fraction(-1, 4))
        t = _t_with_square_in(1 / (-4 * lo - 1), 1 / (-4 * hi - 1))
        lam = -(1 + 1 / (t * t)) / 4  # inverse of t^2 = 1/(-4 lambda - 1)
        assert Fraction(-2049, 2048) < lam < -1


class TestIntegerKernels:
    """pencil_det and mat_inverse_unimodular against the Fraction routes
    of tests/oracles.py."""

    def test_pencil_det_against_lagrange(self):
        rng = random.Random(107)
        for trial in range(60):
            n = 1 + trial % 16
            m0 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m1 = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 1 and n > 1:
                m1[0] = [2 * x for x in m1[-1]]  # singular m1: degree below n
            if trial % 4 == 2 and n > 1:
                m0[0], m1[0] = list(m0[-1]), list(m1[-1])  # singular pencil: zero
            m0, m1 = tuple(map(tuple, m0)), tuple(map(tuple, m1))
            got = pencil_det(m0, m1)
            assert got == pencil_det_by_lagrange(m0, m1)
            assert got.evaluate(3) == det_fraction(
                [[m0[i][j] + 3 * m1[i][j] for j in range(n)] for i in range(n)]
            )
            if trial % 4 == 2 and n > 1:
                assert got.is_zero

    def test_pencil_det_of_forms(self, e8_half):
        for form in (e8_half, half_form(block_diag(e8_gram(), H)), E8_MINUS_E8):
            pert = skew_perturbed(form, 5)
            assert pencil_det(transpose(pert), pert) == pencil_det_by_lagrange(transpose(pert), pert)

    def test_inverse_against_fractions(self, e8, e8_half):
        mats = [e8, e8_half, block_diag(e8, H), E8_MINUS_E8, ((-1,),)]
        mats += random_conjugates(e8_half, 12, seed=17)
        mats += random_conjugates(block_diag(e8, H), 8, seed=19)
        for m in mats:
            inv = mat_inverse_unimodular(m)
            assert inv == inverse_by_fractions(m)
            assert mat_mul(m, inv) == identity(len(m))

    @pytest.mark.parametrize(
        "m, det", [(((2, 0), (0, 1)), 2), (((1, 2), (2, 4)), 0), (((0, 0), (0, 0)), 0), (((3,),), 3)]
    )
    def test_inverse_refuses_non_unimodular(self, m, det):
        with pytest.raises(ValueError, match=f"determinant {det}, not"):
            mat_inverse_unimodular(m)


class TestNoRatPolyArithmetic:
    """The Seifert path and the rho counts on the E8+H forms, which once
    counted rational arithmetic; test_polys.test_src_has_no_rational_layer
    shows there is none."""

    FORMS = [skew_perturbed(half_form(block_diag(e8_gram(), H)), seed) for seed in range(4)]

    def test_form_to_pair_and_alexander(self):
        for form in self.FORMS:
            pair = form_to_pair(form)
            assert pair_to_form(pair.s, pair.a) == form
            assert alexander_of_form(form).degree == len(form)

    def test_milnor_signatures(self):
        done = 0
        for form in self.FORMS:
            pair = form_to_pair(form)
            if is_squarefree_q(charpoly_of_pair(pair.s, pair.a)):
                milnor_signatures(pair.s, pair.a)
                done += 1
        assert done >= 2

    def test_rho(self):
        done = 0
        for form in self.FORMS:
            delta = alexander_of_form(form)
            if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
                delta = -delta
            if delta.evaluate(-1) == 0 or not is_squarefree_q(delta):
                continue
            assert rho_delta(delta) == rho_p(delta_to_p(delta))
            done += 1
        assert done >= 2


class TestOneCheckPerFact:
    """One request of the Seifert path, as the benchmark sends it, on the
    E8+H forms: a Milnor computation reads the v-model off the form's
    facts and never derives it from P again, the
    conditions on Delta are checked and P is factored once for the
    analysis and the tau analysis together, and squarefreeness is never
    tested apart from the Sturm sequences (counted)."""

    def test_e8_plus_h(self, calls):
        cases = []
        for form in TestNoRatPolyArithmetic.FORMS:
            delta = alexander_of_form(form)
            if delta.evaluate(1) != (-1) ** (int(delta.degree) // 2):
                delta = -delta
            cases.append((form_to_pair(form), delta))
        counts = calls("polys.is_squarefree_q", "polys.alexander_check", "polys.v_polynomial",
                       "zfactor.standing_assumptions")
        done = 0
        for pair, delta in cases:
            counts.clear()
            try:
                ms = milnor_signatures(pair.s, pair.a)
            except ValueError:  # P is not squarefree
                ms = None
            assert counts == {}
            if ms is None:
                continue
            counts.clear()
            analyze(AnalysisRequest(delta=delta, m=7, signature=8))
            analyze_tau(AnalysisRequest(delta=delta, m=7, tau=ms.values))
            assert counts["polys.alexander_check"] == 1
            assert counts["zfactor.standing_assumptions"] == 1
            assert counts["polys.is_squarefree_q"] == 0
            done += 1
        assert done >= 2


class TestParseMatrix:
    def test_round_trip(self):
        assert parse_matrix("[[0,2],[-1,0]]") == A2

    def test_bad_input(self):
        from knotsig import PolyParseError

        with pytest.raises(PolyParseError):
            parse_matrix("[[1,2],[3]]")
        with pytest.raises(PolyParseError):
            parse_matrix("nonsense")

    def test_non_integer_entries_refused(self):
        """A float, bool or string entry is refused, naming the entry, not
        truncated by ``int``; integer types with ``__index__`` still pass."""
        import numpy as np
        from knotsig import PolyParseError

        val = validate_form([[0.5, 1], [0, 0.5]])
        assert val == seifert.Validation(False, ("matrix entry 0.5 is not an integer",))
        for text in ("[[true,1],[0,false]]", "[[0.9,1.7],[0,0.2]]", '[["0",1],[0,1]]'):
            with pytest.raises(PolyParseError) as info:
                parse_matrix(text)
            assert "is not an integer" in str(info.value.__cause__)
        a = seifert.as_matrix([[np.int64(0), np.int8(2)], [-1, 0]])
        assert a == A2 and all(type(c) is int for row in a for c in row)
