"""Core value types: h-sequences, permutations, and pair sets.

An h-sequence is a weakly increasing sequence of positive integers with
h(i) > i for every i, presented finitely as an explicit prefix followed by
an affine tail h(i) = i + t.  A pair set collects index pairs (i, j) with
i < j; the interesting ones are the restricted inversion sets of
permutations, i.e. inversions (i, j) with j <= h(i).  A pair set is the
sorted tuple of its pairs, and compares, hashes and orders as that tuple.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from invpoly.errors import InadmissibleSetError, InputError


def require_int(value, what: str) -> int:
    """value itself if it is an int; InputError for anything else, bool too."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class HSequence:
    """Finitely presented h-sequence: prefix values, then h(i) = i + t."""

    prefix: tuple[int, ...] = ()
    tail_offset: int = 1

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        for v in (*self.prefix, self.tail_offset):
            require_int(v, "an h-sequence value")
        if self.tail_offset < 1:
            raise InputError(f"tail offset must be >= 1, got {self.tail_offset}")
        prev = 0
        for i, v in enumerate(self.prefix, start=1):
            if v <= i:
                raise InputError(f"h({i}) = {v} must exceed {i}")
            if v < prev:
                raise InputError("h-sequence must be weakly increasing")
            prev = v
        L = len(self.prefix)
        if L and self.prefix[-1] > (L + 1) + self.tail_offset:
            raise InputError(
                f"h({L}) = {self.prefix[-1]} exceeds the tail value "
                f"h({L + 1}) = {L + 1 + self.tail_offset}"
            )

    def h(self, i: int) -> int:
        """Value h(i), defined for every positive integer i."""
        if i < 1:
            raise InputError(f"index must be positive, got {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return i + self.tail_offset

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "tail_offset": self.tail_offset}

    @classmethod
    def from_json(cls, data: dict) -> "HSequence":
        try:
            return cls(tuple(data["prefix"]), data["tail_offset"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad h-sequence JSON: {data!r}") from exc

    def __repr__(self):
        return f"HSequence(prefix={list(self.prefix)}, tail_offset={self.tail_offset})"


def length(word: tuple[int, ...]) -> int:
    """Inversions of a word of distinct positive integers, in one pass:
    each entry adds the entries before it that exceed it."""
    seen = inv = 0  # seen: bitmask of the values before
    for v in word:
        inv += (seen >> v).bit_count()
        seen |= 1 << v
    return inv


@dataclass(frozen=True)
class Permutation:
    """Permutation of [n] in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of [{n}]: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word)

    def inversions(self) -> "PairSet":
        w = self.word
        return PairSet(
            (i, j)
            for i, j in itertools.combinations(range(1, self.n + 1), 2)
            if w[i - 1] > w[j - 1]
        )

    def length(self) -> int:
        """Number of ordinary inversions."""
        return length(self.word)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, v in enumerate(self.word, start=1):
            inv[v - 1] = pos
        return Permutation(tuple(inv))

    def to_json(self) -> list[int]:
        return list(self.word)

    @classmethod
    def from_json(cls, data) -> "Permutation":
        return cls(tuple(data))

    def __str__(self):
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ".".join(str(v) for v in self.word)


class PairSet(tuple):
    """Finite set of pairs (i, j) with i < j, stored as the sorted tuple of
    its pairs: it compares, hashes and orders as that tuple."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]] = ()):
        seen = set()
        for i, j in pairs:
            if i >= j:
                raise InputError(f"pair ({i},{j}) must have i < j")
            if i < 1:
                raise InputError(f"pair ({i},{j}) must have positive indices")
            seen.add((i, j))
        return tuple.__new__(cls, sorted(seen))

    @classmethod
    def _from_sorted(cls, pairs: tuple[tuple[int, int], ...]) -> "PairSet":
        """Wrap a tuple of pairs that is already valid, sorted and unique,
        without checking it: for pairs picked from a window in order.
        Input from outside goes through __new__."""
        return tuple.__new__(cls, pairs)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs as a plain tuple."""
        return tuple(self)

    def j(self) -> int:
        """Largest second index appearing in any pair."""
        if not self:
            raise InputError("j(S) is undefined for the empty set")
        return max(j for _, j in self)

    def m(self) -> int:
        """Largest i with (i, i+1) in the set (the maximum descent): the
        first such pair from the end, as the pairs are sorted."""
        for i, j in reversed(self):
            if j == i + 1:
                return i
        if not self:
            raise InputError("m(S) is undefined for the empty set")
        raise InadmissibleSetError(f"{self} contains no descent pair")

    def to_json(self) -> list[list[int]]:
        return [[i, j] for i, j in self]

    @classmethod
    def from_json(cls, data) -> "PairSet":
        try:
            pairs = [(i, j) for i, j in data]
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad pair-set JSON: {data!r}") from exc
        for v in itertools.chain.from_iterable(pairs):
            require_int(v, "a pair index")
        return cls(pairs)

    def __repr__(self):
        inner = ", ".join(f"({i},{j})" for i, j in self)
        return "{" + inner + "}"


@functools.lru_cache(maxsize=256)
def possible_pairs(h: HSequence, n: int) -> PairSet:
    """All pairs (i, j) with i < j <= min(n, h(i)): the window of P_h.

    Cached: every route asks for the same few windows over and over, and
    h and the result are immutable.
    """
    if n < 1:
        raise InputError(f"window must be positive, got {n}")
    return PairSet(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, min(n, h.h(i)) + 1)
    )


def inv_h(h: HSequence, pi: Permutation) -> PairSet:
    """Restricted inversion set: inversions (i, j) of pi with j <= h(i),
    picked in order from the window; empty for the empty permutation."""
    w = pi.word
    window = possible_pairs(h, pi.n) if w else ()
    return PairSet._from_sorted(
        tuple((i, j) for i, j in window if w[i - 1] > w[j - 1])
    )


def is_admissible(h: HSequence, S: PairSet) -> bool:
    """Whether S is the restricted inversion set of some permutation.

    That is, S and its complement are both closed within the possible
    pairs of the window [j(S)] (a wider window changes nothing; the tests
    check j(S) + 2).  One pass checks both closures: h is weakly
    increasing, so (i, j) and (j, k) are possible whenever (i, k) is, and
    then (i, j) and (j, k) both in S, or both outside, put (i, k) there too.
    """
    if not S:
        return True
    s = set(S)
    if any(j > h.h(i) for i, j in s):
        return False
    for i, k in possible_pairs(h, S.j()):
        ik = (i, k) in s
        for j in range(i + 1, k):
            inside = (i, j) in s
            if inside == ((j, k) in s) and inside != ik:
                return False
    return True


@functools.lru_cache(maxsize=16)
def require_admissible(h: HSequence, S: PairSet) -> None:
    """InadmissibleSetError unless S is nonempty and h-admissible.  Cached,
    and small: the routes of one set, run one after another, share a check."""
    if not S or not is_admissible(h, S):
        raise InadmissibleSetError(f"{S} is not a nonempty h-admissible set")
