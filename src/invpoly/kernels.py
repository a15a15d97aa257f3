"""Permutation kernels.

Each kernel classifies permutations of [n] by which of the supplied
candidate pairs (i, j), i < j, are inversions.  The classification is a
bitmask over the pair list, held in a Python int so that any number of
pairs fits, and callers compare sets with integer equality.

Grouping (admissible_counts) is the full sweep over S_n and stays the
honest oracle.  It splits each permutation into a prefix and a suffix of
the last four entries, walks the prefixes once, and tabulates the suffix
arrangements once for each pattern of ranks that the prefix entries take
among the values left for the suffix.  Every permutation is still
exactly one (prefix, suffix arrangement) pair, and its mask still comes
from direct comparisons: the split only shares the suffix work among
prefixes that look alike to it.  Nothing outlives the call, so a
repeated call sweeps again.

Matching lists the permutations with a given mask exactly, as the linear
extensions of the order that the mask puts on the positions (_match): a
mask whose order has a cycle is rejected before any search, and
otherwise every branch of the search ends in a match.  The matches come
out sorted.
"""

import itertools


_SUFFIX = 4  # length r of the suffix that admissible_counts tabulates


def admissible_counts(n, pairs):
    """Map inversion-bitmask -> number of permutations of [n] attaining it.

    A full sweep of S_n, split at position k = n - r, r = min(_SUFFIX, n).
    Each prefix (the first k entries) is classified by its mask over the
    pairs inside it and by the boundary ranks: for each prefix position
    paired with a suffix position, the number of values left for the
    suffix that lie below its entry.  The entry at i exceeds the suffix
    entry of rank t exactly when that number exceeds t, so a rank tuple
    fixes, for each of the r! arrangements of the suffix, the mask of
    every pair that reaches the suffix.  Those r! masks are built once per
    rank tuple seen, and each (prefix class, suffix mask) pair adds the
    product of their counts.  The counts sum to n!.
    """
    r = min(_SUFFIX, n)
    k = n - r
    head, cross, tail = [], [], []
    for b, (i, j) in enumerate(pairs):
        if j <= k:
            head.append((i - 1, j - 1, 1 << b))
        elif i <= k:
            cross.append((i - 1, j - 1 - k, 1 << b))
        else:
            tail.append((i - 1 - k, j - 1 - k, 1 << b))
    boundary = sorted({i for i, _, _ in cross})
    slot = {p: s for s, p in enumerate(boundary)}
    cross = [(slot[i], j, bit) for i, j, bit in cross]

    everything = (1 << (n + 1)) - 2  # bit v set for each value v of [n]
    prefixes = {}
    for prefix in itertools.permutations(range(1, n + 1), k):
        mask = 0
        for a, b, bit in head:
            if prefix[a] > prefix[b]:
                mask |= bit
        rest = everything  # the values left for the suffix
        for v in prefix:
            rest ^= 1 << v
        ranks = tuple((rest & ((1 << prefix[p]) - 1)).bit_count() for p in boundary)
        key = (mask, ranks)
        prefixes[key] = prefixes.get(key, 0) + 1

    arrangements = []
    for word in itertools.permutations(range(r)):
        mask = 0
        for a, b, bit in tail:
            if word[a] > word[b]:
                mask |= bit
        arrangements.append((word, mask))
    tables = {}  # boundary ranks -> {suffix mask: arrangements}
    counts = {}
    for (prefix_mask, ranks), c in prefixes.items():
        table = tables.get(ranks)
        if table is None:
            table = tables[ranks] = {}
            for word, mask in arrangements:
                for s, j, bit in cross:
                    if ranks[s] > word[j]:
                        mask |= bit
                table[mask] = table.get(mask, 0) + 1
        for suffix_mask, d in table.items():
            mask = prefix_mask | suffix_mask
            counts[mask] = counts.get(mask, 0) + c * d
    return counts


def matching_perms(n, pairs, target):
    """All permutations of [n] whose inversion bitmask equals target."""
    return _match(n, n, pairs, target)


def matching_perms_sorted_suffix(n, m, pairs, target):
    """Like matching_perms, restricted to words increasing after position m.

    Only valid when every matching permutation is known to have that shape
    (true when target encodes an admissible set with maximum descent m).
    """
    return _match(n, m, pairs, target)


def _match(n, m, pairs, target):
    """Permutations of [n] increasing after position m whose inversion
    bitmask over pairs equals target, in lexicographic order.

    These are the linear extensions of one relation on the positions: the
    entry at j lies below the entry at i for each pair (i, j) in target,
    above it for each pair outside, and m+1 < m+2 < ... < n for the sorted
    suffix.  The relation is peeled of its minimal positions first; if
    that gets stuck it has a cycle (a non-admissible mask, or a suffix pair
    that target inverts) and nothing matches.  Otherwise the values 1, 2,
    ..., n are given in turn, each to an empty position whose lower
    positions are all filled, so every branch ends in a match (Varol &
    Rotem 1981).
    """
    if target >> len(pairs):
        return []
    lower = [0] * n  # lower[p]: positions whose entries must be below p's
    for bit, (i, j) in enumerate(pairs):
        if target >> bit & 1:
            lower[i - 1] |= 1 << (j - 1)
        else:
            lower[j - 1] |= 1 << (i - 1)
    for p in range(m + 1, n):
        lower[p] |= 1 << (p - 1)
    done = 0
    while done != (1 << n) - 1:
        peeled = done
        for p, below in enumerate(lower):
            if below & done == below:
                done |= 1 << p
        if done == peeled:
            return []
    out = []
    _extend(1, 0, m, [0] * n, lower, (1 << m) - 1, out)
    out.sort()
    return out


def _extend(value, filled, k, word, lower, head, out):
    """Give value and every larger one to the empty positions of word.

    head is the bitmask of the first m positions and k the first empty
    position of the sorted suffix, the only suffix position that can take
    a value next.  Once the head is filled, positions k, k+1, ... take the
    remaining values in order.

    A module-level function rather than a closure in _match: a closure that
    calls itself is a reference cycle, which would keep each call's state
    and output alive until the cyclic garbage collector runs.
    """
    if filled & head == head:
        word[k:] = range(value, len(word) + 1)
        out.append(tuple(word))
        return
    for p in range(head.bit_length()):
        below = lower[p]
        if not filled >> p & 1 and below & filled == below:
            word[p] = value
            _extend(value + 1, filled | 1 << p, k, word, lower, head, out)
    if k < len(word) and lower[k] & filled == lower[k]:
        word[k] = value
        _extend(value + 1, filled | 1 << k, k + 1, word, lower, head, out)
