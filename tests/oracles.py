"""Reference code that only the tests call, one copy of each.

Each oracle re-derives a statistic by a plain listing or a textbook
formula, so that a route in invpoly has something independent to be
checked against.  Nothing in invpoly imports this module.
"""

import itertools

from invpoly import Permutation, Poset, QPoly
from invpoly.enumeration import enumerate_Ih_structured
from invpoly.errors import InputError
from invpoly.model import length, require_admissible


def words(perms):
    """The permutations as one-line strings, to compare listings as sets."""
    return {str(p) for p in perms}


def complete(n):
    """Every pair (i, j) with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def graded_grouping(n, pairs):
    """Inversion bitmask over pairs, each (i, j) with i < j <= n ->
    {length: permutations of [n] with both}, testing every pair of
    positions on every permutation."""
    bits = {p: 1 << b for b, p in enumerate(pairs)}
    idx = [(i - 1, j - 1, bits.get((i, j), 0)) for i, j in complete(n)]
    out = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mask = length = 0
        for a, b, bit in idx:
            if perm[a] > perm[b]:
                mask |= bit
                length += 1
        lengths = out.setdefault(mask, {})
        lengths[length] = lengths.get(length, 0) + 1
    return out


def grouping(n, pairs):
    """Inversion bitmask over pairs -> permutations of [n] with it: the
    classes of graded_grouping, their lengths summed."""
    return {mask: sum(lengths.values())
            for mask, lengths in graded_grouping(n, pairs).items()}


def t_of(sigma, h, S):
    """The t-value of a base point, by its definition: max sigma_k over
    positions k with k < j(S)+1 <= h(k), tested one position at a time."""
    j = S.j()
    return max(sigma[k - 1] for k in range(1, j + 1) if h.h(k) >= j + 1)


def flatten(pi, k):
    """The first k entries of pi relabelled to a permutation of [k],
    keeping their relative order."""
    head = pi.word[:k]
    rank = {v: r for r, v in enumerate(sorted(head), start=1)}
    return Permutation(tuple(rank[v] for v in head))


def random_poset(rng, size, density):
    """A seeded random poset and its generating relations: each pair
    a < b is drawn upward with probability density, then the labels are
    shuffled, so the relations never close a cycle."""
    gens = [
        (a, b)
        for a in range(1, size + 1)
        for b in range(a + 1, size + 1)
        if rng.random() < density
    ]
    relabel = list(range(1, size + 1))
    rng.shuffle(relabel)
    gens = [(relabel[a - 1], relabel[b - 1]) for a, b in gens]
    return Poset.from_relations(size, gens), gens


def A_star_sets(h, S):
    """A*_k for k = 0 .. m: the words of I_h(S, m + h(m) - 1) whose entries
    of at least h(m) among the first m positions are exactly h(m) .. h(m)+k-1.
    One listing of the window serves every k."""
    m = S.m()
    hm = h.h(m)
    sets = [[] for _ in range(m + 1)]
    for w in enumerate_Ih_structured(h, S, m + hm - 1):
        high = sorted(v for v in w[:m] if v >= hm)
        if high == list(range(hm, hm + len(high))):
            sets[len(high)].append(w)
    return sets


def subset_length(A, lo, hi):
    """Pairs (a, b) in [lo, hi]^2 with a > b, a in A, b not in A."""
    aset = set(A)
    if not aset <= set(range(lo, hi + 1)):
        raise InputError(f"subset {sorted(aset)} not contained in [{lo},{hi}]")
    return sum(1 for a in aset for b in range(lo, a) if b not in aset)


def q_binom_subset_model(n, k):
    """Subset-length generating function: sum over k-subsets A of [1, n]
    of q^len(A).  Equals q_binom(n, k)."""
    if k < 0 or k > n:
        return QPoly.zero()
    return QPoly.from_exponents(
        subset_length(A, 1, n) for A in itertools.combinations(range(1, n + 1), k)
    )


def length_split_check(h, S, n):
    """The length decomposition over every B_k(S, n).

    For pi with pi_{h(m)} = k, the length must split as the length of the
    flattened window plus the subset length (within [k+1, n]) of the
    complement of the tail values.  One listing serves every k; the window
    flattens with its relative order, so keeps its length.
    """
    require_admissible(h, S)
    hm = h.h(S.m())
    if n < hm:
        raise InputError(f"B_k sets need n >= h(m) = {hm}, got n={n}")
    for w in enumerate_Ih_structured(h, S, n):
        k = w[hm - 1]
        tail = set(w[hm:])
        comp = [v for v in range(k + 1, n + 1) if v not in tail]
        if length(w) != length(w[:hm]) + subset_length(comp, k + 1, n):
            return False
    return True


def is_pf2(values):
    """All 2x2 minors of the shifted two-row arrays are nonnegative.

    Finite criterion: a_j a_{i+k} - a_i a_{j+k} >= 0 for all i < j, k >= 0,
    with out-of-range entries read as 0.  Equivalent to weakly log-concave
    with contiguous support for nonnegative sequences.
    """
    vals = list(values)
    if any(v < 0 for v in vals):
        raise InputError("PF2 test requires nonnegative entries")
    L = len(vals)

    def at(p):
        return vals[p] if 0 <= p < L else 0

    return all(
        at(j) * at(i + k) - at(i) * at(j + k) >= 0
        for i in range(L)
        for j in range(i + 1, L)
        for k in range(L - i)
    )


def strongly_log_concave(fs):
    """The strong q-log-concavity test written with plain QPoly products."""
    def at(p):
        return fs[p] if 0 <= p < len(fs) else QPoly.zero()

    return all(
        (at(i) * at(j) - at(i - 1) * at(j + 1)).is_nonnegative()
        for i in range(len(fs))
        for j in range(i, len(fs))
    )
