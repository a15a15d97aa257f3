"""Brute-force oracle over S_n and the constructive permutation sets.

Everything here is exact.  Grouping S_n by restricted inversion set
(enumerate_admissible) is a full sweep over S_n: the kernel counts every
permutation once, by direct comparisons, and only shares work among
permutations whose prefixes have the same pattern or rank alike among
the leftover values, splitting each word where the pair list predicts
the least work.  graded_admissible is the same sweep with each class's
length polynomial packed into one int, read back once into a QPoly.
Each class becomes a PairSet decoded from its mask in three table
lookups, one per third of the window, through tables of pair tuples
built once per sweep (_decoder).  Listing I_h(S, n) lists,
with no dead ends and in lexicographic order, the linear extensions of
the order that S puts on the positions: over all of S_n for the oracle
entry points, and for the fiber base points and coefficient sets only
the words that increase after the maximum descent, as every member of
the target set does.  B_k_set lists B_k(S, n) directly, with value k
pinned at position h(m) inside that search, so each of the m+1 calls of
b_q_coefficients lists only its own words; a pinned search can dead-end,
but never past the pinned value.  A set's mask is one lookup per pair in
a pair -> bit index of the window, cached per window.  Listings return
word tuples; only the entry point enumerate_Ih makes them Permutations.
The kernels are in invpoly.kernels.

No count route lists: each is a pass of posets.ideal_step over
posets.position_order.  a_counts counts the a-window m+h(m)-1 over the
ideals of the order on all its positions; an inadmissible set, which has
no order, counts zero.  fiber_data (each base point of I_h(S, j(S)) with
its t-value) and b_counts (the window h(m)) list, for callers that want
the words and as the tests' oracles of posets.fiber_from_heights and
posets.b_from_heights.  poincare sweeps nothing either: one packed pass
of the same step over the 2^n sets of positions counts S_n by
h-inversions.
"""

from __future__ import annotations

from functools import lru_cache

from invpoly import config, kernels
from invpoly.errors import BoundExceededError, InadmissibleSetError, InputError
from invpoly.model import HSequence, PairSet, Permutation, possible_pairs
from invpoly.polynomials import QPoly
from invpoly.posets import ideal_pass, ideal_step, position_order


def _check_bound(n: int) -> None:
    cap = config.max_n()
    if n > cap:
        raise BoundExceededError(
            f"brute-force enumeration at n={n} exceeds the cap {cap}"
        )


@lru_cache(maxsize=256)
def _pair_bits(h: HSequence, n: int) -> dict[tuple[int, int], int]:
    """pair -> its bit in masks over the window possible_pairs(h, n).
    Cached per window, as the window itself is."""
    return {p: 1 << b for b, p in enumerate(possible_pairs(h, n))}


def _mask_of(S: PairSet, h: HSequence, n: int) -> int | None:
    """Bitmask of S over the window possible_pairs(h, n); None if S leaks
    out of it.  One lookup per pair of S."""
    bits = _pair_bits(h, n)
    try:
        return sum(bits[p] for p in S)  # distinct bits: the sum is the union
    except KeyError:
        return None


def _decoder(window: tuple[tuple[int, int], ...]):
    """A function from a mask over window to the PairSet it selects.

    The window is cut into three chunks of c = ceil(len / 3) pairs, and
    each chunk gets a table, built here, of the pair tuples its 2^c bit
    patterns select; a mask is then three table entries, joined in order.
    A sweep at n <= 11 has c_i = min(h(i), n) - i <= 10 at every i, so
    2^c is at most twice the number of its classes, prod (c_i + 1).
    window is sorted and unique, so the pairs come out in order and need
    no validation.
    """
    c = -(-len(window) // 3)
    lo, mid, hi = tables = [[()], [()], [()]]
    for t, table in enumerate(tables):
        chunk = window[t * c:(t + 1) * c]
        for bits in range(1, 1 << len(chunk)):
            low = bits & -bits  # its pair comes first
            table.append((chunk[low.bit_length() - 1],) + table[bits ^ low])
    full, c2, new = (1 << c) - 1, 2 * c, tuple.__new__  # PairSet._from_sorted, unbound
    return lambda mask: new(PairSet, lo[mask & full] + mid[mask >> c & full] + hi[mask >> c2])


def enumerate_Ih(h: HSequence, S: PairSet, n: int) -> list[Permutation]:
    """All permutations of [n] with restricted inversion set exactly S."""
    _check_bound(n)
    mask = _mask_of(S, h, n)
    if mask is None:
        return []
    perms = kernels.matching_perms(n, possible_pairs(h, n), mask)
    return [Permutation(p) for p in perms]


def enumerate_Ih_structured(
    h: HSequence, S: PairSet, n: int, at: tuple[int, int] | None = None,
) -> list[tuple[int, ...]]:
    """The words of enumerate_Ih for nonempty admissible S, sweeping only
    words that increase after position m(S).  Not bound-capped: the sweep
    size is n!/(n-m)!, not n!.  at = (position, value), a position after
    m(S), lists only the words that take value there (the kernel's pin)."""
    if not S:
        return [tuple(range(1, n + 1))] if at is None or at[0] == at[1] else []
    mask = _mask_of(S, h, n)
    if mask is None:
        return []
    return kernels.matching_perms_sorted_suffix(n, S.m(), possible_pairs(h, n), mask, at)


def fiber_data(h: HSequence, S: PairSet) -> dict[tuple[int, ...], int]:
    """Each base point of I_h(S, j(S)), S nonempty and admissible, mapped
    to its t-value, in the lister's (lexicographic) order.  Listed with no
    brute-force cap: the oracle of posets.fiber_from_heights.

    The t-value is the largest entry at the positions k <= j(S) with
    h(k) >= j(S)+1.  h is weakly increasing, so those positions are an
    interval lo..j(S), found once per set: t is the max of a slice.
    """
    j = S.j()
    lo = next(k for k in range(j) if h.h(k + 1) > j)  # k = j - 1 qualifies
    return {sigma: max(sigma[lo:j]) for sigma in enumerate_Ih_structured(h, S, j)}


def B_k_set(h: HSequence, S: PairSet, n: int, k: int) -> list[tuple[int, ...]]:
    """Words of I_h(S, n) whose entry at position h(m(S)) equals k, in
    lexicographic order: listed directly, with k pinned at h(m), not
    filtered out of I_h(S, n).  Empty unless h(m)-m <= k <= h(m)."""
    hm = h.h(S.m())
    if n < hm:
        raise InputError(f"B_k sets need n >= h(m) = {hm}, got n={n}")
    return enumerate_Ih_structured(h, S, n, (hm, k))


def b_counts(h: HSequence, S: PairSet) -> tuple[int, ...]:
    """Sizes of B_k(S, h(m)), k = h(m)-m .. h(m), listed: b_from_heights' oracle."""
    m = S.m()
    hm = h.h(m)
    counts = [0] * (m + 1)
    for w in enumerate_Ih_structured(h, S, hm):
        counts[w[hm - 1] - (hm - m)] += 1  # w rises after m: hm-m <= k <= hm
    return tuple(counts)


def a_counts(h: HSequence, S: PairSet) -> tuple[int, ...]:
    """Sizes of A*_k for k = 0 .. m, counted over order ideals.

    The members of I_h(S, n), n = m + h(m) - 1, are the linear extensions
    of position_order(h, S, n): past h(m) each position lies above every
    earlier one its window reaches, as no pair of S ends there.  Giving
    the values 1, 2, ... in turn, a word lies in A*_k exactly when the
    values h(m) .. h(m)+k-1 go to the k head positions (1 .. m) left
    empty by the values below h(m), and the rest fill the suffix in
    order.  So a_k sums, over the ideals D reached after h(m)-1 values
    with k head positions empty, e(D) times the head-only paths from D
    to D + head.  Every such path ends in a word: m is the last descent
    of an admissible S, so no pair of S starts after m, and every other
    pair puts a suffix position above an earlier one; once the head is
    full, the suffix fills in order.
    Nothing is listed: the cost follows the ideals, at most 2^m h(m).
    """
    m = S.m()
    hm = h.h(m)
    n = m + hm - 1
    counts = [0] * (m + 1)
    try:
        lower = position_order(h, S, n)
    except InadmissibleSetError:
        return tuple(counts)
    steps = [(1 << p | low, low, 0) for p, low in enumerate(lower)]
    layer = {0: 1}
    for _ in range(hm - 1):
        layer = ideal_step(layer, steps)
    head, head_steps = (1 << m) - 1, steps[:m]
    while layer:
        for ideal, count in layer.items():
            if ideal & head == head:
                counts[ideal.bit_count() - (hm - 1)] += count
        layer = ideal_step(layer, head_steps)
    return tuple(counts)


def enumerate_admissible(h: HSequence, n: int) -> dict[PairSet, int]:
    """Group S_n by restricted inversion set; counts sum to n!."""
    _check_bound(n)
    window = possible_pairs(h, n)
    counts = kernels.admissible_counts(n, window)
    decode = _decoder(window)
    return {decode(mask): c for mask, c in counts.items()}


def graded_admissible(h: HSequence, n: int) -> dict[PairSet, QPoly]:
    """Group S_n by restricted inversion set, each class graded by length:
    S -> sum of q^length(pi) over I_h(S, n), from the kernel's slots.
    at_one() gives the counts of enumerate_admissible."""
    _check_bound(n)
    window = possible_pairs(h, n)
    graded = kernels.graded_admissible_counts(n, window)
    decode = _decoder(window)
    return {decode(mask): QPoly(slots) for mask, slots in graded.items()}


def poincare(h: HSequence, n: int) -> QPoly:
    """Generating function sum over S_n of t^(2 * #inv_h(pi)).

    For an indecomposable Hessenberg function this is the Poincare
    polynomial of the associated regular semisimple Hessenberg variety.
    Giving the values 1, 2, ... in turn, the value placed at p makes an
    h-inversion with each filled position of (p, h(p)]; so in one packed
    pass over the sets of positions (posets.ideal_pass), slot s counts
    the permutations with s h-inversions.
    """
    _check_bound(n)
    right = [0] * n
    for i, j in possible_pairs(h, n):  # InputError for n < 1
        right[i - 1] |= 1 << (j - 1)
    slots = ideal_pass([(1 << p, 0, r) for p, r in enumerate(right)], n)
    return QPoly(tuple(c for s in slots for c in (s, 0)))  # slot s at t^(2s)


def graded_Ih_oracle(h: HSequence, S: PairSet, n: int) -> QPoly:
    """Length generating function over I_h(S, n)."""
    return QPoly.from_exponents(pi.length() for pi in enumerate_Ih(h, S, n))
