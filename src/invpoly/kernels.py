"""Permutation kernels.

Each kernel classifies permutations of [n] by which of the supplied
candidate pairs (i, j), i < j, are inversions.  The classification is a
bitmask over the pair list, held in a Python int so that any number of
pairs fits, and callers compare sets with integer equality.

Grouping (admissible_counts) is the full sweep over S_n and stays the
honest oracle; graded_admissible_counts is the same sweep with each
class split further by length.  Each permutation splits into a prefix
and a suffix of the last r entries, and the prefix into a pattern
(the relative order of its entries) and a set of values; r is chosen on
each call, as the length in 2..6 with the least work that the pair list
predicts (_cost).  The patterns are walked once, the value sets once,
and the suffix arrangements are tabulated once for each pattern of ranks
that the prefix entries take among the values left for the suffix.
Every permutation is still exactly one (pattern, value set, arrangement)
triple, and its mask still comes from direct comparisons: the split only
shares work among the permutations that look alike to it.  Nothing
outlives the call, so a repeated call sweeps again.

Matching lists the permutations with a given mask exactly, as the linear
extensions of the order that the mask puts on the positions (_match): a
mask whose order has a cycle is rejected before any search, and
otherwise, with no pinned value, every branch of the search ends in a
match.  The peeled order is cached per mask (sixteen of them), so the
calls that list one set's words with different pins build it once; the
listings themselves are never cached.  The sorted-suffix listing can
also pin one suffix position to one value, and then lists only the words
that take it; a pinned search can dead-end, but no branch outlives the
placing of the pinned value.  The matches come out sorted.
"""

import collections
import functools
import itertools
import math


def admissible_counts(n, pairs):
    """Map inversion-bitmask -> number of permutations of [n] attaining it.

    The full sweep of S_n (_sweep), with no lengths.  The counts sum to n!.
    """
    return _sweep(n, pairs, 0)


def graded_admissible_counts(n, pairs):
    """Map inversion-bitmask -> {length: number of permutations of [n]
    with that mask and that many inversions}.

    The same sweep as admissible_counts, with each key carrying the
    length in its low bits; the counts sum to n!.
    """
    shift = (n * (n - 1) // 2).bit_length()  # room for any length
    low = (1 << shift) - 1
    graded = {}
    for key, c in _sweep(n, pairs, shift).items():
        graded.setdefault(key >> shift, {})[key & low] = c
    return graded


def _sweep(n, pairs, shift):
    """Count the permutations of [n] by key = mask << shift | length.

    With shift 0 no length is kept and the key is the mask alone.

    Each permutation splits at position k = n - r into a prefix and a
    suffix, where r is the length in 2..min(6, n) whose predicted work
    (_cost) is least, the shorter on a tie.  The prefix is a pattern (the
    relative order of its k entries, a permutation of range(k)) placed on
    a k-subset v_0 < ... < v_{k-1} of the values; the suffix is an
    arrangement of the r values left.  gap[t] = v_t - 1 - t counts the
    values left below v_t, so:

    - a pair inside the prefix compares two pattern entries, and its bit
      depends on the pattern alone;
    - the entry at a prefix position p exceeds the suffix entry of rank
      t exactly when gap[pattern[p]] > t, so the pairs that reach the
      suffix depend on the arrangement and on the boundary ranks
      gap[pattern[p]], p a prefix position paired with the suffix;
    - the length is inv(pattern) + sum(gap) + inv(arrangement): every
      prefix entry exceeds gap[t] suffix entries, all to its right.

    So the k! patterns are classified once by (head key, pattern values
    at the boundary positions), and the C(n, k) value sets once by the
    boundary ranks and sum(gap) they give each such tuple of values.
    The r! arrangement keys are built once per rank tuple seen, and each
    (prefix class, arrangement key) pair adds the product of their
    counts.  Head, cross and tail pairs have disjoint bits and lengths
    stay below 1 << shift, so adding two keys combines them.  Every
    permutation is exactly one (pattern, value set, arrangement) triple,
    and every bit comes from a direct comparison.
    """
    r = min(range(min(2, n), min(6, n) + 1), key=lambda r: _cost(n, r, pairs))
    k = n - r
    head, cross, tail = [], [], []
    for b, (i, j) in enumerate(pairs):
        bit = 1 << b << shift
        if j <= k:
            head.append((i - 1, j - 1, bit))
        elif i <= k:
            cross.append((i - 1, j - 1 - k, bit))
        else:
            tail.append((i - 1 - k, j - 1 - k, bit))
    boundary = sorted({i for i, _, _ in cross})
    slot = {p: s for s, p in enumerate(boundary)}
    cross = [(slot[i], j, bit) for i, j, bit in cross]

    patterns = {}  # boundary values -> {head key: patterns}
    for pattern in itertools.permutations(range(k)):
        key = _inversions(pattern) if shift else 0
        for a, b, bit in head:
            if pattern[a] > pattern[b]:
                key |= bit
        group = patterns.setdefault(tuple([pattern[p] for p in boundary]), {})
        group[key] = group.get(key, 0) + 1

    subsets = list(itertools.combinations(range(1, n + 1), k))
    # gaps[t][s] is gap[t] of value set s, and crossings[s] its sum(gap)
    gaps = [[v - 1 - t for v in column] for t, column in enumerate(zip(*subsets))]
    crossings = [sum(s) - k * (k + 1) // 2 if shift else 0 for s in subsets]
    prefixes = {}  # boundary ranks -> {prefix key: prefixes}
    for values, group in patterns.items():
        # (boundary ranks ..., sum(gap)) -> value sets giving them
        seen = collections.Counter(zip(*[gaps[v] for v in values], crossings))
        for ranks, w in seen.items():
            into = prefixes.setdefault(ranks[:-1], {})
            for key, c in group.items():
                key += ranks[-1]
                into[key] = into.get(key, 0) + w * c

    arrangements = []
    for word in itertools.permutations(range(r)):
        key = _inversions(word) if shift else 0
        for a, b, bit in tail:
            if word[a] > word[b]:
                key |= bit
        arrangements.append((word, key))
    counts = {}
    for ranks, heads in prefixes.items():
        table = {}  # suffix key -> arrangements
        for word, key in arrangements:
            for s, j, bit in cross:
                if ranks[s] > word[j]:
                    key |= bit
            table[key] = table.get(key, 0) + 1
        for suffix_key, d in table.items():
            for prefix_key, c in heads.items():
                key = prefix_key + suffix_key
                counts[key] = counts.get(key, 0) + c * d
    return counts


def _cost(n, r, pairs):
    """The work _sweep predicts for a suffix of r entries: k! patterns,
    C(n, k) value sets against perm(k, b) tuples of boundary values, and
    r! arrangements against up to (r+1)^b rank tuples, b the number of
    boundary positions, each weighed by one more than the comparisons of
    its body.  So a split with few boundary positions is cheap."""
    k = n - r
    head = sum(1 for _, j in pairs if j <= k)
    cross = [i for i, j in pairs if i <= k < j]
    b = len(set(cross))  # the boundary positions
    return (math.factorial(k) * (1 + head)
            + math.comb(n, k) * math.perm(k, b) * (1 + b)
            + (r + 1) ** b * math.factorial(r) * (1 + len(cross)))


def _inversions(word):
    return sum(1 for a in range(len(word)) for b in range(a + 1, len(word))
               if word[a] > word[b])


def matching_perms(n, pairs, target):
    """All permutations of [n] whose inversion bitmask equals target."""
    return _match(n, n, pairs, target)


def matching_perms_sorted_suffix(n, m, pairs, target, at=None):
    """Like matching_perms, restricted to words increasing after position m.

    Only valid when every matching permutation is known to have that shape
    (true when target encodes an admissible set with maximum descent m).
    at = (position, value), a position m < position <= n of the sorted
    suffix, keeps only the words that take value there.
    """
    if at is not None and not m < at[0] <= n:
        raise ValueError(f"pinned position {at[0]} is not in the suffix {m + 1}..{n}")
    return _match(n, m, pairs, target, at)


def _match(n, m, pairs, target, at=None):
    """Permutations of [n] increasing after position m whose inversion
    bitmask over pairs equals target, in lexicographic order; with
    at = (position, value), only those that take value at that position
    of the sorted suffix.

    These are the linear extensions of the order that _order builds on the
    positions, and a mask whose order has a cycle matches nothing.  The
    order is cached per mask, so the m+1 pinned calls that build one set's
    b_k(q) peel it once; the listings are not cached.  The values 1, 2,
    ..., n are given in turn, each to an empty position whose lower
    positions are all filled.  With no pin (at None) every branch ends in a
    match (Varol & Rotem 1981).  A pinned value that the sorted suffix
    cannot take there, outside position-m .. position, matches nothing.
    """
    # no pin: a virtual position past the word, taking a value past n
    position, value = at or (n + 1, n + 1)
    if target >> len(pairs) or not position - m <= value <= position:
        return []
    lower = _order(n, m, tuple(pairs), target)
    if lower is None:
        return []
    out = []
    _extend(1, 0, m, [0] * n, lower, (1 << m) - 1, position - 1, value, out)
    out.sort()
    return out


@functools.lru_cache(maxsize=16)
def _order(n, m, pairs, target):
    """The order that target puts on the positions of a word of [n]
    increasing after position m, as a tuple: entry p is the bitmask of the
    positions whose entries must lie below p's.  None if it has a cycle.

    The entry at j lies below the entry at i for each pair (i, j) in
    target, above it for each pair outside, and m+1 < m+2 < ... < n for the
    sorted suffix.  The relation is peeled of its minimal positions; if
    that gets stuck it has a cycle (a non-admissible mask, or a suffix pair
    that target inverts).  Sixteen entries cover the m+1 calls of one set,
    and hold a small fraction of the orders a sweep over many sets visits.
    """
    lower = [0] * n
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
            return None
    return tuple(lower)


def _extend(value, filled, k, word, lower, head, q, v, out):
    """Give value and every larger one to the empty positions of word.

    head is the bitmask of the first m positions and k the first empty
    position of the sorted suffix, the only suffix position that can take
    a value next.  Once the head is filled, positions k, k+1, ... take the
    remaining values in order.

    Position q of the sorted suffix (0-based) must take value v.  Below v,
    the suffix may not reach q, and the head may take at most
    v-1 - (q-m) values (a head position takes value only if
    value - k < v - q); so v finds k = q and goes there, not to the head.
    The default pin, q = n and v = n+1, never fires, and the search then
    has no dead ends.  A pinned search dead-ends no later than at v.

    A module-level function rather than a closure in _match: a closure that
    calls itself is a reference cycle, which would keep each call's state
    and output alive until the cyclic garbage collector runs.
    """
    if filled & head == head:
        word[k:] = range(value, len(word) + 1)
        out.append(tuple(word))
        return
    if value < v:
        to_head, to_suffix = value - k < v - q, k < q
    else:
        to_head, to_suffix = value > v, k < len(word)
    if to_head:
        free = head & ~filled  # the empty head positions, lowest first
        while free:
            bit = free & -free
            free ^= bit
            p = bit.bit_length() - 1
            below = lower[p]
            if below & filled == below:
                word[p] = value
                _extend(value + 1, filled | bit, k, word, lower, head, q, v, out)
    if to_suffix and lower[k] & filled == lower[k]:
        word[k] = value
        _extend(value + 1, filled | 1 << k, k + 1, word, lower, head, q, v, out)
