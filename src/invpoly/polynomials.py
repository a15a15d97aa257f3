"""Exact polynomial arithmetic and sequence analyzers.

Binomial coefficients use the polynomial convention
binom(x, d) = x(x-1)...(x-d+1)/d!, defined for every integer x, so that
expressions like binom(n-s, d) evaluate correctly below their support.
Everything here is arbitrary-precision integer arithmetic on coefficient
tuples; Fraction appears only in MonomialPoly.  No floats.  The strong
q-log-concavity test packs each polynomial into one int, f(2^w), with
slots wide enough that every coefficient of a compared difference keeps
to its own slot, so a whole product is one int multiply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from invpoly.errors import InputError


def binom(n: int, k: int) -> int:
    """Falling-factorial binomial: n(n-1)...(n-k+1)/k!, any integer n.
    For n < 0 by reflection: binom(n, k) = (-1)^k binom(k-n-1, k)."""
    if k < 0:
        return 0
    if n < 0:
        return -math.comb(k - n - 1, k) if k & 1 else math.comb(k - n - 1, k)
    return math.comb(n, k)


@dataclass(frozen=True)
class CoeffSeq:
    """Integer coefficients with an explicit starting index."""

    values: tuple[int, ...]
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __getitem__(self, k: int) -> int:
        if not self.start <= k < self.start + len(self.values):
            raise IndexError(k)
        return self.values[k - self.start]

    def indices(self) -> range:
        return range(self.start, self.start + len(self.values))

    def to_json(self) -> dict:
        return {str(k): self[k] for k in self.indices()}


@dataclass(frozen=True)
class BinomialPoly:
    """Sum of terms c * binom(n - s, d), normalized by (d, s)."""

    terms: tuple[tuple[int, int, int], ...]  # (coeff, shift, degree)

    def __post_init__(self):
        merged: dict[tuple[int, int], int] = {}
        for c, s, d in self.terms:
            if d < 0:
                raise InputError(f"negative degree in term ({c},{s},{d})")
            merged[(d, s)] = merged.get((d, s), 0) + c
        norm = tuple(
            (c, s, d) for (d, s), c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", norm)

    def __call__(self, n: int) -> int:
        return sum(c * binom(n - s, d) for c, s, d in self.terms)

    def __add__(self, other: "BinomialPoly") -> "BinomialPoly":
        return BinomialPoly(self.terms + other.terms)

    def to_monomial(self) -> "MonomialPoly":
        """Exact conversion to the monomial basis in n, expanded in
        integers over top! (top the largest degree)."""
        top = max((d for _, _, d in self.terms), default=0)
        den = math.factorial(top)
        total = [0] * (top + 1)
        for c, s, d in self.terms:
            # c * top!/d! * (n-s)(n-s-1)...(n-s-d+1)
            poly = (c * (den // math.factorial(d)),)
            for root in range(s, s + d):
                poly = _convolve(poly, (-root, 1))
            for p, coef in enumerate(poly):
                total[p] += coef
        return MonomialPoly(tuple(Fraction(t, den) for t in total))

    def to_json(self) -> dict:
        return {"terms": [{"c": c, "s": s, "d": d} for c, s, d in self.terms]}

    @classmethod
    def constant(cls, c: int) -> "BinomialPoly":
        return cls(((c, 0, 0),))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, s, d in self.terms:
            shift = f"n-{s}" if s > 0 else ("n" if s == 0 else f"n+{-s}")
            bits.append(f"{c}*C({shift},{d})")
        return " + ".join(bits)


@dataclass(frozen=True)
class MonomialPoly:
    """Dense polynomial in n with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree 0."""
        return max(len(self.coeffs) - 1, 0)

    def __call__(self, n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def to_json(self) -> dict:
        return {
            "num": [c.numerator for c in self.coeffs],
            "den": [c.denominator for c in self.coeffs],
        }

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if p == 0:
                bits.append(str(c))
            elif p == 1:
                bits.append(f"{c}*n")
            else:
                bits.append(f"{c}*n^{p}")
        return " + ".join(bits)


def _convolve(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of the product of two coefficient sequences."""
    if not xs or not ys:
        return ()
    out = [0] * (len(xs) + len(ys) - 1)
    for p, a in enumerate(xs):
        if a == 0:
            continue
        for r, b in enumerate(ys):
            out[p + r] += a * b
    return tuple(out)


def _add(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of the sum of two coefficient sequences."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    out = list(xs)
    for p, c in enumerate(ys):
        out[p] += c
    return tuple(out)


@dataclass(frozen=True)
class QPoly:
    """Dense exact-integer polynomial in q (also used for the Poincare t)."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPoly":
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "QPoly":
        """Generating function sum q^e over a multiset of exponents."""
        exps = list(exponents)
        if not exps:
            return cls.zero()
        cs = [0] * (max(exps) + 1)
        for e in exps:
            cs[e] += 1
        return cls(tuple(cs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + QPoly(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "QPoly") -> "QPoly":
        return QPoly(_convolve(self.coeffs, other.coeffs))

    def at_one(self) -> int:
        return sum(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if p == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                bits.append(f"{head}q^{p}" if p > 1 else f"{head}q")
        return " + ".join(bits)


@functools.lru_cache(maxsize=256)
def q_binom(n: int, k: int) -> QPoly:
    """Gaussian binomial via the Pascal recurrence [n,k] = [n-1,k-1] + q^k [n-1,k].

    Division-free and exact: one row of coefficient tuples, updated in
    place from the right.  Cached: a QPoly is immutable, and the graded
    expansions ask for the same few dozen (n, k) again and again.
    """
    if k < 0 or k > n:
        return QPoly.zero()
    row = [(1,)]  # row[i] = [n', i] for i = 0 .. min(n', k), from n' = 0
    for np in range(1, n + 1):
        for i in range(min(np - 1, k), 0, -1):
            row[i] = _add(row[i - 1], (0,) * i + row[i])
        if np <= k:
            row.append((1,))
    return QPoly(row[k])


def is_log_concave(values: Sequence[int]) -> bool:
    """Weak log-concavity: a_i^2 >= a_{i-1} a_{i+1} at every interior index.

    The strict form fails on constant sequences like (1, 1, 1) which the
    theory explicitly covers, so the weak form is the operative one.
    """
    return all(
        values[i] * values[i] >= values[i - 1] * values[i + 1]
        for i in range(1, len(values) - 1)
    )


def has_no_internal_zeros(values: Sequence[int]) -> bool:
    """Support of the sequence is a contiguous index interval."""
    support = [i for i, v in enumerate(values) if v != 0]
    if not support:
        return True
    return all(values[i] != 0 for i in range(support[0], support[-1] + 1))


def q_seq_strongly_log_concave(fs: Sequence[QPoly]) -> bool:
    """Coefficientwise f_i f_j - f_{i-1} f_{j+1} >= 0 for all i <= j.

    Out-of-range entries are the zero polynomial.  Each f is packed once
    as the integer f(2^w) (Kronecker substitution), so a product is one
    int multiply, and f_a f_b with a <= b is formed once: row i holds
    f_i f_j for j >= i, and f_{i-1} f_{j+1} is read from the row before.

    With N the largest l1 norm among the f, every coefficient of a
    difference D = f_i f_j - f_{i-1} f_{j+1} has absolute value at most
    2 N^2 < 2^(w-2) for w = 2 * N.bit_length() + 3.  Adding H, which has
    2^(w-1) in each of the 2 deg + 1 slots of w bits, brings every slot
    into (2^(w-2), 3 * 2^(w-2)) with no carry or borrow between slots, so
    the top bit of a slot is set exactly when its coefficient is >= 0:
    D >= 0 coefficientwise iff (D + H) & H == H.  Exact for any signs.
    """
    w = 2 * max((sum(map(abs, f.coeffs)) for f in fs), default=0).bit_length() + 3
    slots = max(2 * max((len(f.coeffs) for f in fs), default=0) - 1, 0)
    half = ((1 << w * slots) - 1) // ((1 << w) - 1) << (w - 1)  # H
    packed = []
    for f in fs:
        x = 0
        for c in reversed(f.coeffs):
            x = (x << w) + c
        packed.append(x)
    prev: list[int] = []
    for i, fi in enumerate(packed):
        row = [fi * fj for fj in packed[i:]]
        for t, big in enumerate(row):  # f_i f_j, j = i + t
            small = prev[t + 2] if t + 2 < len(prev) else 0
            if (big - small + half) & half != half:
                return False
        prev = row
    return True
