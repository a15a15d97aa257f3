"""Permutation kernels.

Each kernel classifies permutations of [n] by which of the supplied
candidate pairs (i, j), i < j, are inversions.  The classification is a
bitmask over the pair list, held in a Python int so that any number of
pairs fits, and callers compare sets with integer equality.
Grouping (admissible_counts) is the full sweep over S_n and stays the
honest oracle.  Matching is an exact pruned search: one backtracking
kernel, _match, which turns each pair into a bound on the entries as
early as it can.
"""

import itertools


def admissible_counts(n, pairs):
    """Map inversion-bitmask -> number of permutations of [n] attaining it."""
    idx = [(i - 1, j - 1, 1 << b) for b, (i, j) in enumerate(pairs)]
    counts = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mask = 0
        for a, b, bit in idx:
            if perm[a] > perm[b]:
                mask |= bit
        counts[mask] = counts.get(mask, 0) + 1
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

    The first m entries are placed by backtracking, and every pair becomes
    a bound as early as it can:

    - a pair (i, j) with j <= m is decided when position j is placed: its
      entry must lie above the entry at i when the pair is outside target
      and below it when inside;
    - a pair with both ends in the sorted suffix is never an inversion;
    - a pair (i, j) crossing into the suffix is inverted exactly when at
      least j - m suffix entries lie below the entry at i.  That count ends
      between r - (m - i) and r, where r is the rank of the entry among the
      values still free when position i is placed, so r is bounded below
      by j - m when the pair is inside target and above by j - i - 1 when
      outside.  The bound is necessary, not sufficient: crossing pairs are
      checked again once the prefix is complete.
    """
    if target >> len(pairs):
        return []
    above = [[] for _ in range(m)]  # earlier positions whose entry is a floor
    below = [[] for _ in range(m)]  # earlier positions whose entry is a ceiling
    rank_lo = [0] * m  # bounds on the rank of the entry among free values
    rank_hi = [n] * m
    cross = []
    for bit, (i, j) in enumerate(pairs):
        inverted = target >> bit & 1
        if j <= m:
            (below if inverted else above)[j - 1].append(i - 1)
        elif i <= m:
            cross.append((i - 1, j - 1, inverted))
            if inverted:
                rank_lo[i - 1] = max(rank_lo[i - 1], j - m)
            else:
                rank_hi[i - 1] = min(rank_hi[i - 1], j - i - 1)
        elif inverted:
            return []

    bounds = list(zip(above, below, rank_lo, rank_hi))
    out = []
    _extend(0, [0] * m, [True] * (n + 1), bounds, cross, out)
    return out


def _extend(depth, head, free, bounds, cross, out):
    """Place position depth of _match's search and everything after it.

    A module-level function rather than a closure in _match: a closure that
    calls itself is a reference cycle, which would keep each call's state
    and output alive until the cyclic garbage collector runs.
    """
    n = len(free) - 1
    if depth == len(head):
        perm = head + [v for v in range(1, n + 1) if free[v]]
        for a, b, inverted in cross:
            if (perm[a] > perm[b]) != inverted:
                return
        out.append(tuple(perm))
        return
    above, below, r_lo, r_hi = bounds[depth]
    lo = 1
    for a in above:
        if head[a] >= lo:
            lo = head[a] + 1
    hi = n
    for a in below:
        if head[a] <= hi:
            hi = head[a] - 1
    rank = 0
    for v in range(1, hi + 1):
        if free[v]:
            if rank > r_hi:
                break
            if v >= lo and rank >= r_lo:
                free[v] = False
                head[depth] = v
                _extend(depth + 1, head, free, bounds, cross, out)
                free[v] = True
            rank += 1
