"""Posets attached to admissible sets, linear extensions, height sequences.

The order lives on positions.  Pairs of S point downward (i above j)
and complement pairs within the window point upward; the transitive
closure of those relations is a partial order exactly when S is
admissible.  position_order is the one home of that rule: it returns the
generating masks on positions 1..n, unclosed, and every count route
reads them (the ideal step needs no closure, as the ideals it reaches
are down-sets).  build_poset closes them on [h(m)] into a Poset, for the
poset command, golden replay and the tests; only the matching kernel
builds its own order.

A Poset holds its order as bitmasks only: bit a-1 of below[v-1] is set
exactly when a < v.  from_relations closes generating relations once,
with a Warshall pass over the masks; everything else reads them.

ideal_step is the one step over the lattice of order ideals.  A weight
is a q-polynomial packed into one int, which a step can multiply by a
power of q, so one pass (ideal_pass) gives a generating function: the
height sequence, enumeration.poincare and graded.b_q_dp; a_counts runs
it on plain counts.  The cost follows the ideals, not the extensions;
linear_extensions is kept for listing the extensions themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from invpoly.errors import InputError, RouteDisagreementError
from invpoly.model import (
    HSequence,
    PairSet,
    Permutation,
    possible_pairs,
    require_admissible,
)
from invpoly.polynomials import CoeffSeq


def _elements(mask: int) -> list[int]:
    """The elements whose bits are set in mask, in increasing order."""
    return [w + 1 for w in range(mask.bit_length()) if mask >> w & 1]


@dataclass(frozen=True)
class Poset:
    """Partial order on 1..ground; below[v-1] is the closed mask under v."""

    ground: int
    below: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "below", tuple(self.below))
        if len(self.below) != self.ground:
            raise InputError(f"need {self.ground} masks, got {len(self.below)}")
        for v, low in enumerate(self.below, start=1):
            if low >> self.ground or low < 0:
                raise InputError(f"mask of {v} reaches outside the ground set")
            if low >> (v - 1) & 1:
                raise InputError(f"{v} lies below itself")
            for a in _elements(low):
                if self.below[a - 1] & ~low:
                    raise InputError("relations must be given transitively closed")

    def _mask(self, v: int) -> int:
        if not 1 <= v <= self.ground:
            raise InputError(f"element {v} outside ground set [{self.ground}]")
        return self.below[v - 1]

    def up_set(self, v: int) -> set[int]:
        self._mask(v)
        return {b for b, low in enumerate(self.below, start=1) if low >> (v - 1) & 1}

    def cover_relations(self) -> list[tuple[int, int]]:
        covers = []
        for b, low in enumerate(self.below, start=1):
            deep = 0  # everything under something under b
            for c in _elements(low):
                deep |= self.below[c - 1]
            covers.extend((a, b) for a in _elements(low & ~deep))
        return sorted(covers)

    @classmethod
    def from_relations(cls, ground: int, relations) -> "Poset":
        """Build from generating relations (a, b), meaning a < b.

        Closes them once: Warshall over the masks, where everything under
        k joins the mask of every element above k.  A cycle leaves some
        element below itself, which construction rejects.
        """
        below = [0] * ground
        for a, b in relations:
            if not (1 <= a <= ground and 1 <= b <= ground):
                raise InputError(f"relation ({a},{b}) outside ground set")
            below[b - 1] |= 1 << (a - 1)
        for k in range(ground):
            for v in range(ground):
                if below[v] >> k & 1:
                    below[v] |= below[k]
        return cls(ground, tuple(below))

    def to_json(self) -> dict:
        return {"n": self.ground, "covers": [[a, b] for a, b in self.cover_relations()]}

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        return cls.from_relations(data["n"], ((a, b) for a, b in data["covers"]))


@functools.lru_cache(maxsize=16)
def position_order(h: HSequence, S: PairSet, n: int) -> tuple[int, ...]:
    """The generating masks of the order S puts on positions 1..n: bit
    a-1 of the mask of b is set when a window pair makes a < b.  A pair
    (i, j) of S puts j below i; every other pair of possible_pairs(h, n)
    puts i below j.  Not closed: the masks are the relations themselves.

    Checks S once (require_admissible), so no cyclic order reaches a
    count.  Cached: the routes of one set ask for it one after another,
    so the cache is kept small.
    """
    require_admissible(h, S)
    below = [0] * n
    s_pairs = set(S)
    for i, j in possible_pairs(h, n):
        if (i, j) in s_pairs:
            below[i - 1] |= 1 << (j - 1)
        else:
            below[j - 1] |= 1 << (i - 1)
    return tuple(below)


@functools.lru_cache(maxsize=16)
def build_poset(h: HSequence, S: PairSet) -> Poset:
    """The order on [h(m)] induced by S and its windowed complement: the
    closure of position_order(h, S, h(m)).  Only the poset command, golden
    replay and the tests need the closed, validated Poset."""
    require_admissible(h, S)  # before S.m(): an empty set is inadmissible
    hm = h.h(S.m())
    below = position_order(h, S, hm)
    return Poset.from_relations(hm, (
        (a, b) for b, low in enumerate(below, start=1) for a in _elements(low)
    ))


def linear_extensions(P: Poset) -> list[Permutation]:
    """All orderings compatible with P, lexicographically.

    Backtracking over currently minimal elements.  Kept for listing the
    extensions themselves (the poset CLI command, golden replay, the test
    oracle); counts such as height_sequence come from the order-ideal
    count instead, which never lists an extension.
    """
    out: list[Permutation] = []
    _extend(P.below, 0, (), out)
    return out


def _extend(below, placed, word, out):
    """Append to out every extension that starts with word.

    placed is the mask of the elements in word; an element can come next
    once everything under it is placed.
    """
    if len(word) == len(below):
        out.append(Permutation(word))
        return
    for w, low in enumerate(below):
        if not placed >> w & 1 and low & placed == low:
            _extend(below, placed | 1 << w, word + (w + 1,), out)


def ideal_step(layer: dict[int, int], steps, width: int = 0) -> dict[int, int]:
    """The next layer of the lattice of order ideals, with packed weights.

    layer maps ideals of one size, as bitmasks, to their weights; steps
    lists (join, low, right) for each element allowed to join, where low
    is the bitmask of the elements that must come before it and join is
    low with the element's own bit added.  The element can join exactly
    when ideal & join == low, and then ideal | join is the grown ideal.
    An ideal passes weight << width * #(ideal & right) to each ideal one
    allowed element larger: a weight is a polynomial read at
    q = 2^width, and the step multiplies it by q^s.  With right = 0 it
    is a path count.
    """
    nxt: dict[int, int] = {}
    for ideal, weight in layer.items():
        for join, low, right in steps:
            if ideal & join == low:
                grown = ideal | join
                if right:
                    nxt[grown] = nxt.get(grown, 0) + (weight << width * (ideal & right).bit_count())
                else:  # most steps of a height or a count pass
                    nxt[grown] = nxt.get(grown, 0) + weight
    return nxt


def ideal_pass(steps, n: int) -> list[int]:
    """The slots of the one weight left once all n elements have joined,
    lowest first.  They are nonnegative and sum to at most n!, so
    n!.bit_length() + 1 bits per slot keep them apart."""
    width = math.factorial(n).bit_length() + 1
    layer = {0: 1}
    for _ in range(n):
        layer = ideal_step(layer, steps, width)
    (weight,) = layer.values()
    slots, full = [], (1 << width) - 1
    while weight:
        slots.append(weight & full)
        weight >>= width
    return slots


def height_sequence(P: Poset, v: int) -> list[int]:
    """h_k = number of linear extensions with exactly k elements before v.

    Counted over the lattice of order ideals (down-sets) as bitmasks,
    without listing any extension (De Loof, De Meyer & De Baets 2006).
    An extension adds one element at a time, from the empty ideal to the
    ground set, and v comes k-th exactly when it joins an ideal of size
    k.  So in one packed pass in which v's step counts every element
    before it and no other step counts any, h_k is slot k.
    """
    P._mask(v)
    return _heights(P.below, v)


def _heights(below, v: int) -> list[int]:
    """height_sequence over masks below, closed or only generating: the
    ideals the step reaches are down-sets either way."""
    n = len(below)
    heights = ideal_pass([(1 << w | low, low, (1 << n) - 1 if w == v - 1 else 0)
                          for w, low in enumerate(below)], n)
    return heights + [0] * (n - len(heights))


def height_support_bounds(P: Poset, v: int) -> tuple[int, int]:
    """Support interval of the height sequence: [#down(v), n - #up(v) - 1]."""
    return P._mask(v).bit_count(), P.ground - len(P.up_set(v)) - 1


def b_from_heights(h: HSequence, S: PairSet) -> CoeffSeq:
    """b-coefficients via the height sequence of h(m) in the poset.

    Independent of the direct enumeration route: b_k = h_{k-1}(P, h(m)),
    reported for k = h(m)-m .. h(m).  The heights come from the
    order-ideal count of height_sequence, run on position_order's masks;
    no permutation is swept, no linear extension listed, no Poset built.
    """
    m = S.m()
    hm = h.h(m)
    heights = _heights(position_order(h, S, hm), hm)
    return CoeffSeq(tuple(heights[k - 1] for k in range(hm - m, hm + 1)), hm - m)


def d_S_of(h: HSequence, S: PairSet) -> int:
    """Number of elements weakly below h(m) in the poset.

    Computed both by poset reachability (the down-set of h(m), walked
    over position_order's masks) and by the chain characterization
    (increasing chains to h(m) through complement pairs, walked over a
    mask of each position's complement predecessors, gathered once from
    the window and S); the two routes must agree.
    """
    hm = h.h(S.m())
    by_poset = _down_set(position_order(h, S, hm), hm).bit_count() + 1
    preds = [0] * hm
    for i, j in possible_pairs(h, hm):
        preds[j - 1] |= 1 << (i - 1)
    for i, j in S:  # no pair of S starts after m, so S lies in the window
        preds[j - 1] &= ~(1 << (i - 1))
    by_chains = _down_set(preds, hm).bit_count() + 1
    if by_chains != by_poset:
        raise RouteDisagreementError(
            f"d_S routes disagree: poset {by_poset} vs chains {by_chains}"
        )
    return by_poset


def _down_set(masks, v: int) -> int:
    """The mask of the elements reached from v by following masks, bit
    a-1 of masks[b-1] leading from b to a; v itself only on a cycle."""
    down, frontier = 0, masks[v - 1]
    while frontier:
        down |= frontier
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~down
    return down
