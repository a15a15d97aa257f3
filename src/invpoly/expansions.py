"""Closed-form expansions of the restricted inversion polynomial.

Three routes to the same polynomial, listed by basis name in ROUTES: one
term per fiber base point, the b-coefficients (last-window entry
statistics), and the a-coefficients (high-entry prefix statistics).  Each
result carries the smallest n at which its formula is guaranteed to
count; evaluating as a count below that floor raises, while the
polynomial itself, res.poly(n), evaluates at any integer n.

degree_of and is_constant each check a poset criterion against a
direct one; the poset side reads posets.position_order's generating
masks, and no Poset is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from invpoly.enumeration import a_counts, b_counts, fiber_data
from invpoly.errors import (
    BelowValidityFloorError,
    InputError,
    RouteDisagreementError,
)
from invpoly.model import HSequence, PairSet, require_admissible
from invpoly.polynomials import BinomialPoly, CoeffSeq, binom
from invpoly.posets import d_S_of, position_order


@dataclass(frozen=True)
class ExpansionResult:
    basis: str  # "fiber", "b", or "a"
    poly: BinomialPoly
    coeffs: CoeffSeq
    validity_floor: int

    def count_at(self, n: int) -> int:
        """Value as a permutation count; refuses n below the floor."""
        if n < self.validity_floor:
            raise BelowValidityFloorError(
                f"{self.basis}-expansion counts only for n >= "
                f"{self.validity_floor}, got {n}"
            )
        return self.poly(n)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "coeffs": self.coeffs.to_json(),
            "binomial_terms": self.poly.to_json()["terms"],
            "monomial": self.poly.to_monomial().to_json(),
            "validity_floor": self.validity_floor,
        }


def _empty_result(basis: str) -> ExpansionResult:
    # Only the identity has no restricted inversions, at every n.
    return ExpansionResult(basis, BinomialPoly.constant(1), CoeffSeq((), 0), 1)


def fiber_expansion(h: HSequence, S: PairSet) -> ExpansionResult:
    """One term binom(n - t(sigma), j - t(sigma)) per base point sigma,
    gathered as c * binom(n - t, j - t) over the c base points at each t."""
    if not S:
        return _empty_result("fiber")
    require_admissible(h, S)
    j = S.j()
    t_counts = Counter(fiber_data(h, S).values())
    terms = tuple((c, t, j - t) for t, c in t_counts.items())
    lo = min(t_counts)
    coeffs = CoeffSeq(
        tuple(t_counts.get(t, 0) for t in range(lo, max(t_counts) + 1)), lo
    )
    return ExpansionResult("fiber", BinomialPoly(terms), coeffs, j)


def b_expansion(h: HSequence, S: PairSet) -> ExpansionResult:
    """b_k = #B_k(S, h(m)) for k = h(m)-m .. h(m)."""
    if not S:
        return _empty_result("b")
    require_admissible(h, S)
    m = S.m()
    hm = h.h(m)
    coeffs = CoeffSeq(b_counts(h, S), hm - m)
    terms = tuple(
        (coeffs[k], k, hm - k) for k in coeffs.indices() if coeffs[k]
    )
    return ExpansionResult("b", BinomialPoly(terms), coeffs, hm)


def a_expansion(h: HSequence, S: PairSet) -> ExpansionResult:
    """a_k = #A*_k over the window m + h(m) - 1, for k = 0 .. m.

    The counts come from enumeration.a_counts, an order-ideal count that
    lists no permutation of the window.
    """
    if not S:
        return _empty_result("a")
    require_admissible(h, S)
    m = S.m()
    hm = h.h(m)
    aks = a_counts(h, S)
    coeffs = CoeffSeq(aks, 0)
    terms = tuple((aks[k], hm - 1, k) for k in range(m + 1) if aks[k])
    return ExpansionResult("a", BinomialPoly(terms), coeffs, hm)


# basis name -> its route, for every caller that picks a route by name
ROUTES = {"fiber": fiber_expansion, "b": b_expansion, "a": a_expansion}


def a_from_b(b: CoeffSeq, m: int, hm: int) -> CoeffSeq:
    """Convert b-coefficients to a-coefficients.

    a_0 = b_{h(m)} and a_k = sum over j = k..m of binom(j-1, k-1) * b_{h(m)-j}.
    """
    if b.start != hm - m or len(b.values) != m + 1:
        raise InputError(
            f"b-coefficients must be indexed {hm - m}..{hm}, "
            f"got start {b.start} with {len(b.values)} values"
        )
    if any(v < 0 for v in b.values):
        raise InputError("b-coefficients must be nonnegative")
    out = [b[hm]]
    for k in range(1, m + 1):
        out.append(sum(binom(j - 1, k - 1) * b[hm - j] for j in range(k, m + 1)))
    return CoeffSeq(tuple(out), 0)


def degree_of(h: HSequence, S: PairSet) -> int:
    """Degree of the inversion polynomial: h(m) - d_S."""
    if not S:
        return 0
    require_admissible(h, S)
    return h.h(S.m()) - d_S_of(h, S)


def is_constant(h: HSequence, S: PairSet) -> bool:
    """Whether the inversion polynomial is constant in n.

    Checked two equivalent ways: the condition scan over i <= m (no i is
    both S-saturated above and S-free below) and the poset criterion
    (h(m) is the unique maximal element of position_order's order).  A
    disagreement would be a bug.
    """
    if not S:
        return True
    require_admissible(h, S)
    m = S.m()
    s_pairs = set(S)

    def scan_hit(i: int) -> bool:
        full_above = all(
            (i, j) in s_pairs for j in range(i + 1, h.h(i) + 1)
        )
        free_below = all(
            (k, i) not in s_pairs for k in range(1, i) if i <= h.h(k)
        )
        return full_above and free_below

    by_scan = not any(scan_hit(i) for i in range(1, m + 1))

    # the maximal elements are the positions no generating mask holds
    hm = h.h(m)
    under = 0
    for low in position_order(h, S, hm):
        under |= low
    by_poset = ((1 << hm) - 1) & ~under == 1 << (hm - 1)
    if by_scan != by_poset:
        raise RouteDisagreementError(
            f"constancy criteria disagree on {S}: scan {by_scan}, poset {by_poset}"
        )
    return by_scan
