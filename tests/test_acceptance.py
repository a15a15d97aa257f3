"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion.  Every expected value is either a published worked example or
derived from the brute-force oracle; nothing here is tuned to the
implementation under test.
"""

import itertools
import math
import random
import time

import pytest

from invpoly import (
    HSequence,
    PairSet,
    Permutation,
    QPoly,
    a_expansion,
    a_from_b,
    b_expansion,
    b_from_heights,
    b_q_coefficients,
    build_poset,
    degree_of,
    enumerate_admissible,
    fiber_expansion,
    graded_admissible,
    graded_expansion_eval,
    has_no_internal_zeros,
    height_sequence,
    is_constant,
    is_log_concave,
    linear_extensions,
    poincare,
    verify_conjecture,
)
from invpoly.enumeration import enumerate_Ih_structured
from invpoly.golden import load_all, replay

from conftest import CORPUS_H
from oracles import length_split_check, random_poset

J_CAP = 7
N_MAX = 8


@pytest.fixture(scope="module")
def corpus():
    """Per h: the admissible sets with j(S) <= 7, their three expansions,
    and the grouping counts for every n <= 8."""
    out = []
    for h in CORPUS_H:
        sets = sorted(
            (S for S in enumerate_admissible(h, J_CAP) if S),
            key=lambda S: S.pairs,
        )
        expansions = {
            S: (fiber_expansion(h, S), b_expansion(h, S), a_expansion(h, S))
            for S in sets
        }
        counts = {n: enumerate_admissible(h, n) for n in range(1, N_MAX + 1)}
        out.append((h, sets, expansions, counts))
    return out


def test_criterion_1_golden_examples():
    """Every published worked example is reproduced exactly."""
    start = time.perf_counter()
    fixtures = load_all()
    assert len(fixtures) >= 12
    failures = []
    for fx in fixtures.values():
        t0 = time.perf_counter()
        failures.extend(replay(fx))
        assert time.perf_counter() - t0 < 1.0, fx["name"]
    assert failures == []
    assert time.perf_counter() - start < 15.0


@pytest.mark.xfail(
    strict=True,
    reason="the published a-coefficient display for this example is "
    "internally inconsistent: it equates a cubic with a quadratic, and "
    "its total at n=h(m) contradicts the b-coefficients printed beside "
    "it; the oracle-derived a = (1, 2, 1, 0) is asserted in the golden "
    "suite instead (see the decisions ledger)",
)
def test_criterion_1_defect_published_a_display():
    """Faithful transcription of the published claim a = (12, 15, 6)."""
    h = HSequence((5, 5, 6, 6, 7, 7), 1)
    S = PairSet([(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)])
    res = a_expansion(h, S)
    assert res.coeffs.values == (12, 15, 6)


def test_criterion_2_oracle_equivalence_sweep(corpus):
    """fiber/b/a agree as polynomials and match brute force, j(S)<=n<=8."""
    start = time.perf_counter()
    for h, sets, expansions, counts in corpus:
        for S in sets:
            fib, b, a = expansions[S]
            mono = fib.poly.to_monomial()
            assert b.poly.to_monomial() == mono, (h, S)
            assert a.poly.to_monomial() == mono, (h, S)
            for n in range(S.j(), N_MAX + 1):
                assert fib.poly(n) == counts[n].get(S, 0), (h, S, n)
    assert time.perf_counter() - start < 120.0


def test_criterion_3_log_concavity_suite(corpus):
    """(b_k) and (a_k) weakly log-concave with contiguous support; the
    height sequences of 500 seeded random posets likewise."""
    for h, sets, expansions, _ in corpus:
        for S in sets:
            _, b, a = expansions[S]
            for seq in (b.coeffs.values, a.coeffs.values):
                assert is_log_concave(seq), (h, S, seq)
                assert has_no_internal_zeros(seq), (h, S, seq)
    rng = random.Random(20260824)
    for _ in range(500):
        size = rng.randint(2, 7)
        P, _ = random_poset(rng, size, 0.4)
        v = rng.randint(1, size)
        heights = height_sequence(P, v)
        assert is_log_concave(heights), (P, v)
        assert has_no_internal_zeros(heights), (P, v)


def test_criterion_4_coefficient_conversion(corpus):
    """a_from_b reproduces the a-expansion exactly on the entire corpus."""
    for h, sets, expansions, _ in corpus:
        for S in sets:
            _, b, a = expansions[S]
            got = a_from_b(b.coeffs, S.m(), h.h(S.m()))
            assert got == a.coeffs, (h, S)


def test_criterion_5_poset_bridge(corpus):
    """b_from_heights equals the b-expansion; the linear extensions are
    exactly the inverses of the window members."""
    for h, sets, expansions, _ in corpus:
        for S in sets:
            _, b, _ = expansions[S]
            assert b_from_heights(h, S) == b.coeffs, (h, S)
            exts = set(linear_extensions(build_poset(h, S)))
            members = enumerate_Ih_structured(h, S, h.h(S.m()))
            assert {Permutation(w).inverse() for w in members} == exts, (h, S)


def test_criterion_6_graded_suite(corpus):
    """Graded expansion equals the graded oracle for h(m)<=n<=8; q=1
    recovers the ungraded data; the length decomposition holds.  The
    oracle is one graded grouping sweep of S_n per (h, n)."""
    for h, sets, expansions, counts in corpus:
        graded = {n: graded_admissible(h, n) for n in range(1, N_MAX + 1)}
        for S in sets:
            hm = h.h(S.m())
            ge = b_q_coefficients(h, S)
            _, b, _ = expansions[S]
            for k in ge.indices():
                assert ge.coeff(k).at_one() == b.coeffs[k], (h, S, k)
            for n in range(hm, N_MAX + 1):
                got = graded_expansion_eval(ge, n)
                assert got == graded[n].get(S, QPoly.zero()), (h, S, n)
                assert got.at_one() == counts[n].get(S, 0), (h, S, n)
            if hm <= N_MAX:
                assert length_split_check(h, S, hm), (h, S)


def test_criterion_7_strong_q_log_concavity_sweep():
    """Conjectured strong q-log-concavity of (b_k(S;q)), h(m(S)) <= 7."""
    start = time.perf_counter()
    total = 0
    for h in CORPUS_H:
        report = verify_conjecture(h, 7)
        assert report.violations == [], h
        total += report.checked
    assert total > 0
    assert time.perf_counter() - start < 600.0


def test_criterion_8_degree_and_constancy(corpus):
    """degree_of matches the monomial degree; constant iff degree zero.
    (Each call also cross-checks the two published criteria internally.)"""
    for h, sets, expansions, _ in corpus:
        for S in sets:
            fib, _, _ = expansions[S]
            deg = degree_of(h, S)
            assert deg == fib.poly.to_monomial().degree(), (h, S)
            assert is_constant(h, S) == (deg == 0), (h, S)


def test_criterion_9_descent_specialization():
    """Tail-1 grouping is the descent-set statistic; the n=3 Betti
    generating function is 1 + 4t^2 + t^4 and t=1 always gives n!."""
    h = HSequence((), 1)
    for n in range(1, N_MAX + 1):
        got = enumerate_admissible(h, n)
        expect = {}
        for word in itertools.permutations(range(1, n + 1)):
            D = PairSet(
                (i, i + 1) for i in range(1, n) if word[i - 1] > word[i]
            )
            expect[D] = expect.get(D, 0) + 1
        assert got == expect, n
        assert poincare(h, n).at_one() == math.factorial(n), n
    assert poincare(h, 3) == QPoly((1, 0, 4, 0, 1))
