"""The matching kernels at windows that an S_n sweep cannot reach.

Counts are checked against the order-ideal count of the induced poset
(posets.height_sequence), which shares no code with the kernels, and each
returned word is checked against the definition through model.inv_h.
The pinned listing is checked the same way, one value at a time.
"""

import random

import pytest

from invpoly import HSequence, Permutation, inv_h, kernels, possible_pairs
from invpoly.posets import build_poset, height_sequence

from conftest import H_IDS, HS, draw


@pytest.mark.parametrize("hm", [10, 11, 12])
@pytest.mark.parametrize("h", HS, ids=H_IDS)
def test_sorted_suffix_matches_poset_count(h, hm):
    rng = random.Random(f"{h!r} {hm}")
    window = possible_pairs(h, hm).pairs
    for _ in range(3):
        word, m, S = draw(h, hm, rng)
        assert S.m() == m
        mask = sum(1 << b for b, p in enumerate(window) if p in S)
        got = kernels.matching_perms_sorted_suffix(hm, m, window, mask)
        assert len(got) == sum(height_sequence(build_poset(h, S), hm))
        assert word in got
        assert all(inv_h(h, Permutation(w)) == S for w in got)
        assert all(a < b for a, b in zip(got, got[1:]))
        # pinned at h(m) = hm: the words with k-1 values below hm's entry
        heights = height_sequence(build_poset(h, S), hm)
        for k in range(1, hm + 1):
            pinned = kernels.matching_perms_sorted_suffix(hm, m, window, mask, (hm, k))
            assert len(pinned) == heights[k - 1]
            assert pinned == [w for w in got if w[hm - 1] == k]


def test_cyclic_mask_returns_nothing_without_search(monkeypatch):
    # (1,2) and (2,3) inverted but (1,3) not: pi1 > pi2 > pi3 > pi1
    window = possible_pairs(HSequence((), 2), 16).pairs
    mask = 1 << window.index((1, 2)) | 1 << window.index((2, 3))

    def search(*args):
        raise AssertionError("a cyclic mask reached the search")

    monkeypatch.setattr(kernels, "_extend", search)
    assert kernels.matching_perms(16, window, mask) == []
    assert kernels.matching_perms_sorted_suffix(16, 2, window, mask) == []
    for k in range(2, 5):
        assert kernels.matching_perms_sorted_suffix(16, 2, window, mask, (4, k)) == []


def test_pinned_position_must_lie_in_the_suffix():
    window = possible_pairs(HSequence((), 2), 6).pairs
    for position in (2, 7):
        with pytest.raises(ValueError):
            kernels.matching_perms_sorted_suffix(6, 2, window, 0, (position, 3))
