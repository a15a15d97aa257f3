"""Parity of the matching kernels with a plain S_n sweep.

The sweep below is written out here, independent of invpoly's kernels,
and compared with exact list equality, so the lexicographic output order
is pinned too.
"""

import itertools
import random

import pytest

from invpoly import HSequence, possible_pairs
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
