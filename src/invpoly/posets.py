"""Posets attached to admissible sets, linear extensions, height sequences.

The poset lives on [h(m)].  Pairs of S point downward (i above j) and
complement pairs within the window point upward; the transitive closure
of those relations is a partial order exactly when S is admissible.

Height sequences are counted over the lattice of order ideals, held as
bitmasks, so their cost follows the number of ideals rather than the
number of linear extensions.  linear_extensions is kept for listing the
extensions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from invpoly.errors import (
    InadmissibleSetError,
    InputError,
    PosetCycleError,
    RouteDisagreementError,
)
from invpoly.model import (
    HSequence,
    PairSet,
    Permutation,
    is_admissible,
    possible_pairs,
)


@dataclass(frozen=True)
class Poset:
    """Partial order on 1..ground; relations stored transitively closed."""

    ground: int
    relations: frozenset[tuple[int, int]]  # (a, b) means a < b in the order

    def __post_init__(self):
        for a, b in self.relations:
            if not (1 <= a <= self.ground and 1 <= b <= self.ground):
                raise InputError(f"relation ({a},{b}) outside ground set")
            if a == b:
                raise PosetCycleError(f"reflexive relation at {a}")
        closed = transitive_closure(self.ground, self.relations)
        if closed != self.relations:
            raise InputError("relations must be given transitively closed")

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relations

    def down_set(self, v: int) -> set[int]:
        return {a for a, b in self.relations if b == v}

    def up_set(self, v: int) -> set[int]:
        return {b for a, b in self.relations if a == v}

    def maximal_elements(self) -> set[int]:
        return set(range(1, self.ground + 1)) - {
            a for a, _ in self.relations
        }

    def cover_relations(self) -> list[tuple[int, int]]:
        covers = []
        for a, b in sorted(self.relations):
            if not any(
                self.less(a, c) and self.less(c, b)
                for c in range(1, self.ground + 1)
            ):
                covers.append((a, b))
        return covers

    @classmethod
    def from_relations(cls, ground: int, relations) -> "Poset":
        """Build from generating relations, closing transitively."""
        closed = transitive_closure(ground, frozenset(relations))
        for a in range(1, ground + 1):
            if (a, a) in closed:
                raise PosetCycleError(f"cycle through element {a}")
        return cls(ground, closed)

    def to_json(self) -> dict:
        return {"n": self.ground, "covers": [[a, b] for a, b in self.cover_relations()]}

    @classmethod
    def from_json(cls, data: dict) -> "Poset":
        return cls.from_relations(data["n"], ((a, b) for a, b in data["covers"]))


def transitive_closure(
    ground: int, relations: frozenset[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    reach = {v: set() for v in range(1, ground + 1)}
    for a, b in relations:
        reach[a].add(b)
    for k in range(1, ground + 1):
        for a in range(1, ground + 1):
            if k in reach[a]:
                reach[a] |= reach[k]
    return frozenset((a, b) for a, bs in reach.items() for b in bs)


def build_poset(h: HSequence, S: PairSet) -> Poset:
    """The order on [h(m)] induced by S and its windowed complement."""
    if not S or not is_admissible(h, S):
        raise InadmissibleSetError(f"{S} is not a nonempty admissible set")
    hm = h.h(S.m())
    window = possible_pairs(h, hm)
    gens = []
    s_pairs = set(S.pairs)
    for i, j in window:
        if (i, j) in s_pairs:
            gens.append((j, i))  # i above j
        else:
            gens.append((i, j))
    return Poset.from_relations(hm, gens)


def linear_extensions(P: Poset) -> list[Permutation]:
    """All orderings compatible with P, lexicographically.

    Backtracking over currently minimal elements.  Kept for listing the
    extensions themselves (the poset CLI command, golden replay, the test
    oracle); counts such as height_sequence come from the order-ideal
    count instead, which never lists an extension.
    """
    n = P.ground
    preds = {v: P.down_set(v) for v in range(1, n + 1)}
    out: list[Permutation] = []
    word: list[int] = []
    placed: set[int] = set()

    def extend():
        if len(word) == n:
            out.append(Permutation(tuple(word)))
            return
        for v in range(1, n + 1):
            if v not in placed and preds[v] <= placed:
                placed.add(v)
                word.append(v)
                extend()
                word.pop()
                placed.remove(v)

    extend()
    return out


def _ideal_counts(lower: list[int], skip: int) -> dict[int, int]:
    """Ideal -> number of ways to build it one element at a time.

    Bit w stands for element w+1, and lower[w] is the bitmask of the
    elements that must come before it.  Element w joins an ideal once
    lower[w] lies inside it.  The element at index skip never joins, so
    only the ideals without it are counted.
    """
    steps = [(1 << w, low) for w, low in enumerate(lower) if w != skip]
    layer = {0: 1}
    counts = dict(layer)
    while layer:
        nxt: dict[int, int] = {}
        for ideal, count in layer.items():
            for bit, low in steps:
                if not ideal & bit and low & ideal == low:
                    grown = ideal | bit
                    nxt[grown] = nxt.get(grown, 0) + count
        counts.update(nxt)
        layer = nxt
    return counts


def height_sequence(P: Poset, v: int) -> list[int]:
    """h_k = number of linear extensions with exactly k elements before v.

    Counted over the lattice of order ideals (down-sets) as bitmasks,
    without listing any extension (De Loof, De Meyer & De Baets 2006).
    An extension adds one element at a time, from the empty ideal to the
    ground set.  With e(D) the orderings of an ideal D and e'(U) the ways
    to complete an ideal U to the ground set, v comes k-th exactly when
    it is added to an ideal D of size k, so h_k = sum of e(D) e'(D + v)
    over the ideals D of size k without v whose union with v is an ideal.
    e' is the same count run in the dual order on the complement of U.
    """
    if not 1 <= v <= P.ground:
        raise InputError(f"element {v} outside ground set [{P.ground}]")
    n = P.ground
    below = [0] * n
    above = [0] * n
    for a, b in P.relations:
        below[b - 1] |= 1 << (a - 1)
        above[a - 1] |= 1 << (b - 1)
    into = _ideal_counts(below, v - 1)
    out_of = _ideal_counts(above, v - 1)  # keyed by the complement of U
    vbit, vlow = 1 << (v - 1), below[v - 1]
    rest = ((1 << n) - 1) ^ vbit
    heights = [0] * n
    for ideal, count in into.items():
        if vlow & ideal == vlow:
            heights[ideal.bit_count()] += count * out_of[rest ^ ideal]
    return heights


def height_support_bounds(P: Poset, v: int) -> tuple[int, int]:
    """Support interval of the height sequence: [#down(v), n - #up(v) - 1]."""
    if not 1 <= v <= P.ground:
        raise InputError(f"element {v} outside ground set [{P.ground}]")
    return len(P.down_set(v)), P.ground - len(P.up_set(v)) - 1


def b_from_heights(h: HSequence, S: PairSet):
    """b-coefficients via the height sequence of h(m) in the poset.

    Independent of the direct enumeration route: b_k = h_{k-1}(P, h(m)),
    reported for k = h(m)-m .. h(m).  The heights come from the
    order-ideal count in height_sequence; no permutation is swept and no
    linear extension is listed.
    """
    from invpoly.expansions import CoeffSeq  # local: avoids an import cycle

    m = S.m()
    hm = h.h(m)
    heights = height_sequence(build_poset(h, S), hm)
    return CoeffSeq(tuple(heights[k - 1] for k in range(hm - m, hm + 1)), hm - m)


def d_S_of(h: HSequence, S: PairSet) -> int:
    """Number of elements weakly below h(m) in the poset.

    Computed both by poset reachability and by the chain characterization
    (increasing chains to h(m) through complement pairs); the two routes
    must agree.
    """
    P = build_poset(h, S)
    hm = h.h(S.m())
    by_poset = len(P.down_set(hm)) + 1

    # chain route: walk backwards from h(m) along complement pairs only
    window = possible_pairs(h, hm)
    s_pairs = set(S.pairs)
    comp = [(i, j) for i, j in window if (i, j) not in s_pairs]
    below = {hm}
    frontier = [hm]
    while frontier:
        j = frontier.pop()
        for i, jj in comp:
            if jj == j and i not in below:
                below.add(i)
                frontier.append(i)
    if len(below) != by_poset:
        raise RouteDisagreementError(
            f"d_S routes disagree: poset {by_poset} vs chains {len(below)}"
        )
    return by_poset
