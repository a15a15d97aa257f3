"""Parity of the kernels with a plain S_n sweep.

The sweeps are written out here and in oracles.grouping, independent
of invpoly's kernels.  Matching is compared with exact list equality,
so the lexicographic output order is pinned too; grouping is compared
with exact dict equality.
"""

import itertools
import math
import random

import pytest

from conftest import CORPUS_H, h_id, splits
from oracles import complete, grouping
from invpoly import HSequence, poincare, possible_pairs
from invpoly import kernels

WINDOWS = [
    (HSequence((), 1), 5),
    (HSequence((), 2), 5),
    (HSequence((), 3), 6),
    (HSequence((2, 4, 4, 5), 1), 6),
    (HSequence((5, 5, 6, 6), 1), 7),
]
WINDOW_IDS = ["tail1-5", "tail2-5", "tail3-6", "prefix-2445-6", "prefix-5566-7"]


def sweep(n, m, pairs):
    """Inversion bitmask -> permutations of [n] increasing after position m
    with that mask, in lexicographic order."""
    groups = {}
    for perm in itertools.permutations(range(1, n + 1)):
        if any(perm[k] > perm[k + 1] for k in range(m, n - 1)):
            continue
        mask = 0
        for b, (i, j) in enumerate(pairs):
            if perm[i - 1] > perm[j - 1]:
                mask |= 1 << b
        groups.setdefault(mask, []).append(perm)
    return groups


def masks(n, pairs):
    """Every admissible mask, then the non-admissible ones among 40 seeded
    random draws (there are none when every mask is admissible)."""
    admissible = sorted(sweep(n, n, pairs))
    rng = random.Random(n * 1000 + len(pairs))
    draws = {rng.getrandbits(len(pairs)) for _ in range(40)}
    return admissible + sorted(draws.difference(admissible))


@pytest.mark.parametrize("h, n", WINDOWS, ids=WINDOW_IDS)
def test_matching_perms(h, n):
    pairs = possible_pairs(h, n).pairs
    groups = sweep(n, n, pairs)
    for mask in masks(n, pairs):
        assert kernels.matching_perms(n, pairs, mask) == groups.get(mask, [])


@pytest.mark.parametrize("h, n", WINDOWS, ids=WINDOW_IDS)
def test_matching_perms_sorted_suffix(h, n):
    pairs = possible_pairs(h, n).pairs
    tested = masks(n, pairs)
    for m in range(n + 1):
        groups = sweep(n, m, pairs)
        for mask in tested:
            got = kernels.matching_perms_sorted_suffix(n, m, pairs, mask)
            assert got == groups.get(mask, []), (m, mask)


def test_target_outside_pair_list_matches_nothing():
    pairs = possible_pairs(HSequence((), 2), 4).pairs
    target = 1 << len(pairs)
    assert kernels.matching_perms(4, pairs, target) == []
    assert kernels.matching_perms_sorted_suffix(4, 2, pairs, target) == []


def test_more_pairs_than_a_machine_word():
    # 70 pairs: the inversion bitmask needs more than 64 bits
    n = 13
    pairs = possible_pairs(HSequence((), 9), n).pairs
    assert len(pairs) > 64
    got = kernels.matching_perms_sorted_suffix(n, 0, pairs, 0)
    assert got == [tuple(range(1, n + 1))]


@pytest.mark.parametrize("h, n", WINDOWS, ids=WINDOW_IDS)
def test_admissible_counts_windows(h, n):
    pairs = possible_pairs(h, n).pairs
    assert kernels.admissible_counts(n, pairs) == grouping(n, pairs)


def assert_every_split(force_split, n, pairs):
    """The sweep at each suffix length it may choose equals the plain one."""
    want = grouping(n, pairs)
    for r in splits(n):
        priced = force_split(r)
        assert kernels.admissible_counts(n, pairs) == want, (n, r)
        assert sorted(set(priced)) == list(splits(n))


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_admissible_counts_corpus(h, force_split):
    for n in range(1, 9):
        pairs = possible_pairs(h, n).pairs
        assert kernels.admissible_counts(n, pairs) == grouping(n, pairs), n
    for n in range(1, 8):
        assert_every_split(force_split, n, possible_pairs(h, n).pairs)


@pytest.mark.parametrize("n", range(6))
def test_admissible_counts_short_words(n, force_split):
    # n < 2: the whole word is the suffix; otherwise every split from a
    # 2-entry suffix to an empty or one-entry prefix
    for pairs in (complete(n), complete(n)[::2], [(1, n)] if n > 1 else []):
        assert kernels.admissible_counts(n, pairs) == grouping(n, pairs)
        assert_every_split(force_split, n, pairs)


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_admissible_counts_no_pairs(n):
    assert kernels.admissible_counts(n, []) == {0: math.factorial(n)}


@pytest.mark.parametrize("pair", [(1, 2), (2, 7), (6, 7)])
def test_admissible_counts_one_pair(pair):
    half = math.factorial(7) // 2
    assert kernels.admissible_counts(7, [pair]) == {0: half, 1: half}


def test_admissible_counts_complete_s7():
    # every pair: the mask is the inversion set, so each class is one word
    pairs = complete(7)
    got = kernels.admissible_counts(7, pairs)
    assert got == grouping(7, pairs)
    assert len(got) == math.factorial(7) and set(got.values()) == {1}


@pytest.mark.parametrize("seed", range(20))
def test_admissible_counts_random_pairs(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 8)
    far = rng.choice([(i, j) for i, j in complete(n) if j - i > 3])
    pairs = rng.sample([p for p in complete(n) if p != far], rng.randint(1, 12))
    pairs.insert(rng.randint(0, len(pairs)), far)
    assert kernels.admissible_counts(n, pairs) == grouping(n, pairs)


def eulerian(n):
    """A(n, d) for d = 0 .. n-1: permutations of [n] with d descents."""
    row = [1]
    for k in range(2, n + 1):
        row = [(d + 1) * (row[d] if d < len(row) else 0)
               + (k - d) * (row[d - 1] if d else 0) for d in range(k)]
    return row


@pytest.mark.parametrize("h", [HSequence((), 1), HSequence((3, 4, 6, 7, 7), 1)],
                         ids=["tail1", "prefix-34677"])
def test_admissible_counts_n9_invariants(h):
    n = 9
    counts = kernels.admissible_counts(n, possible_pairs(h, n).pairs)
    assert sum(counts.values()) == math.factorial(n)
    coeffs = [0] * (2 * max(mask.bit_count() for mask in counts) + 1)
    for mask, c in counts.items():
        coeffs[2 * mask.bit_count()] += c
    assert list(poincare(h, n).coeffs) == coeffs
    # Poincare duality: the Hessenberg variety is smooth and projective
    assert coeffs == coeffs[::-1]
    if h == HSequence((), 1):
        # h-inversions are descents
        assert coeffs[::2] == eulerian(n)


@pytest.mark.parametrize("h, n", WINDOWS[:3], ids=WINDOW_IDS[:3])
def test_matching_takes_a_pair_list(h, n):
    pairs = list(possible_pairs(h, n).pairs)
    groups = sweep(n, n, pairs)
    for mask in masks(n, pairs):
        assert kernels.matching_perms(n, pairs, mask) == groups.get(mask, [])
    for m in range(n + 1):
        groups = sweep(n, m, pairs)
        for mask in groups:
            got = kernels.matching_perms_sorted_suffix(n, m, pairs, mask)
            assert got == groups[mask], (m, mask)


def test_cyclic_mask_matches_nothing_before_any_search(monkeypatch):
    # (1,2) and (2,3) inverted but (1,3) not: 1 > 2 > 3 > 1 is a cycle
    def no_search(*args):
        raise AssertionError("searched a cyclic order")

    monkeypatch.setattr(kernels, "_extend", no_search)
    kernels._order.cache_clear()
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(2):
        assert kernels.matching_perms(3, pairs, 0b101) == []
        assert kernels.matching_perms_sorted_suffix(3, 1, pairs, 0b101, (2, 2)) == []
    assert kernels._order.cache_info().misses == 2


def test_one_set_peels_its_order_once(monkeypatch):
    from invpoly import Permutation, b_q_coefficients, inv_h

    h = HSequence((), 3)
    S = inv_h(h, Permutation((2, 3, 4, 1, 5, 6)))
    assert S.m() == 3
    calls = []
    listing = kernels.matching_perms_sorted_suffix

    def counted(*args):
        calls.append(args)
        return listing(*args)

    monkeypatch.setattr(kernels, "matching_perms_sorted_suffix", counted)
    kernels._order.cache_clear()
    ge = b_q_coefficients(h, S)
    assert len(ge.b_q) == len(calls) == 4
    info = kernels._order.cache_info()
    assert (info.misses, info.hits) == (1, 3)
