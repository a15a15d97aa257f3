"""Property-based and randomized cross-checks."""

import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from invpoly import (
    HSequence,
    PairSet,
    Permutation,
    enumerate_Ih,
    enumerate_admissible,
    fiber_data,
    has_no_internal_zeros,
    height_sequence,
    inv_h,
    is_admissible,
    is_log_concave,
    linear_extensions,
    q_binom,
)
from invpoly.model import possible_pairs
from invpoly.polynomials import BinomialPoly

from oracles import flatten, is_pf2, q_binom_subset_model, random_poset, t_of


def h_strategy():
    return st.one_of(
        st.integers(1, 4).map(lambda t: HSequence((), t)),
        st.sampled_from([
            HSequence((2, 4, 4, 5), 1),
            HSequence((3, 4, 6, 7, 7), 1),
            HSequence((5, 5, 6, 6), 1),
        ]),
    )


@settings(max_examples=40, deadline=None)
@given(h=h_strategy(), n=st.integers(1, 7))
def test_admissibility_matches_exhaustion(h, n):
    """A pair set within window n is admissible iff some pi in S_n realizes
    it — and the characterization must agree with the brute-force facts."""
    realized = set(enumerate_admissible(h, n))
    for S in realized:
        assert is_admissible(h, S)
    # spot-check non-realized subsets of the window
    window = possible_pairs(h, n).pairs
    rng = random.Random(n * 1000 + len(window))
    for _ in range(30):
        sub = PairSet(p for p in window if rng.random() < 0.5)
        if sub not in realized and sub.j() <= n if sub else False:
            assert not is_admissible(h, sub)


@settings(max_examples=30, deadline=None)
@given(h=h_strategy(), n=st.integers(2, 6))
def test_admissible_iff_realizable(h, n):
    """Full equivalence over every subset of the candidate window."""
    window = possible_pairs(h, n).pairs
    if len(window) > 8:
        window = window[:8]
    realized = set(enumerate_admissible(h, n))
    for r in range(len(window) + 1):
        for combo in itertools.combinations(window, r):
            S = PairSet(combo)
            if S and S.j() > n:
                continue
            assert is_admissible(h, S) == (S in realized)


@settings(max_examples=50, deadline=None)
@given(
    word=st.permutations(list(range(1, 7))),
    k=st.integers(1, 6),
)
def test_flatten_preserves_h_inversions_within_window(word, k):
    """inv_h of the flattened prefix equals inv_h pairs inside [k]."""
    h = HSequence((), 2)
    pi = Permutation(tuple(word))
    flat = flatten(pi, k)
    inner = PairSet(p for p in inv_h(h, pi) if p[1] <= k)
    assert inv_h(h, flat) == inner


@settings(max_examples=25, deadline=None)
@given(h=h_strategy(), n=st.integers(2, 5), data=st.data())
def test_window_sufficiency_for_admissibility(h, n, data):
    """The verdict at window j(S) agrees with realizability at j(S) and at
    j(S) + 2: widening the window cannot change admissibility."""
    window = possible_pairs(h, n).pairs
    sub = data.draw(st.sets(st.sampled_from(window)) if window else st.just(set()))
    S = PairSet(sub)
    if not S:
        return
    verdict = is_admissible(h, S)
    j = S.j()
    assert verdict == bool(enumerate_Ih(h, S, j))
    assert verdict == bool(enumerate_Ih(h, S, j + 2))


@settings(max_examples=20, deadline=None)
@given(h=h_strategy())
def test_fiber_partition_sizes(h):
    """The fibers over base points partition I_h(S, n) by flattening."""
    for S in enumerate_admissible(h, 5):
        if not S:
            continue
        j = S.j()
        data = fiber_data(h, S)
        for n in range(j, 8):
            members = enumerate_Ih(h, S, n)
            by_base = {}
            for pi in members:
                by_base.setdefault(flatten(pi, j).word, []).append(pi)
            assert set(by_base) <= set(data)
            assert sum(len(v) for v in by_base.values()) == len(members)
            # each fiber has the predicted binomial size
            for sigma, t in data.items():
                want = BinomialPoly(((1, t, j - t),))(n)
                assert len(by_base.get(sigma, [])) == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 12), k=st.integers(0, 12))
def test_q_binom_against_subset_model(n, k):
    if n <= 9:  # the model enumerates all subsets; keep it honest but fast
        assert q_binom(n, k) == q_binom_subset_model(n, k)
    assert q_binom(n, k).at_one() == math.comb(n, k) if k <= n else True


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-3, 8), st.integers(0, 4)),
        max_size=5,
    ),
    n=st.integers(-10, 20),
)
def test_to_monomial_matches_eval(terms, n):
    p = BinomialPoly(tuple(terms))
    assert p.to_monomial()(n) == p(n)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 9), max_size=6))
def test_pf2_iff_log_concave_and_contiguous(values):
    assert is_pf2(values) == (
        is_log_concave(values) and has_no_internal_zeros(values)
    )


def test_stanley_on_random_posets():
    """Height sequences of 500 seeded random posets are log-concave with
    contiguous support (Stanley's theorem)."""
    rng = random.Random(20260824)
    for _ in range(500):
        size = rng.randint(2, 7)
        P, _ = random_poset(rng, size, 0.4)
        v = rng.randint(1, size)
        heights = height_sequence(P, v)
        assert sum(heights) == len(linear_extensions(P))
        assert is_log_concave(heights)
        assert has_no_internal_zeros(heights)


def test_descent_specialization():
    """With h = tail 1, per-set grouping equals descent-set grouping."""
    h = HSequence((), 1)
    for n in range(1, 8):
        got = enumerate_admissible(h, n)
        expect = {}
        for word in itertools.permutations(range(1, n + 1)):
            D = PairSet(
                (i, i + 1) for i in range(1, n) if word[i - 1] > word[i]
            )
            expect[D] = expect.get(D, 0) + 1
        assert got == expect


def test_t_of_bounded_by_j():
    h = HSequence((), 2)
    for S in enumerate_admissible(h, 5):
        if not S:
            continue
        for sigma, t in fiber_data(h, S).items():
            assert t == t_of(sigma, h, S)
            assert 1 <= t <= S.j()
