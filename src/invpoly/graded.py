"""The q-analogue: graded coefficients, the q-binomial expansion, and the
strong q-log-concavity sweep.

The graded polynomial tracks ordinary permutation length over I_h(S, n).
Its b-expansion mirrors the ungraded one with Gaussian binomials in place
of binomials and is valid for n >= h(m) only; below that the formula
genuinely stops counting, so evaluation there raises.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from invpoly.enumeration import B_k_set, enumerate_admissible
from invpoly.errors import (
    BelowValidityFloorError,
    InputError,
    RouteDisagreementError,
)
from invpoly.model import HSequence, PairSet, length, require_admissible
from invpoly.polynomials import QPoly, q_binom, q_seq_strongly_log_concave
from invpoly.posets import ideal_pass, position_order


@dataclass(frozen=True)
class GradedExpansion:
    hm: int
    m: int
    b_q: tuple[QPoly, ...]  # indexed k = hm-m .. hm

    def coeff(self, k: int) -> QPoly:
        if not self.hm - self.m <= k <= self.hm:
            raise IndexError(k)
        return self.b_q[k - (self.hm - self.m)]

    def indices(self) -> range:
        return range(self.hm - self.m, self.hm + 1)

    def to_json(self) -> dict:
        return {
            "hm": self.hm,
            "m": self.m,
            "b_q": {str(k): self.coeff(k).to_json() for k in self.indices()},
        }


def b_q_coefficients(h: HSequence, S: PairSet) -> GradedExpansion:
    """b_k(q) = length generating function of B_k(S, h(m))."""
    require_admissible(h, S)
    m = S.m()
    hm = h.h(m)
    b_q = tuple(
        QPoly.from_exponents(length(w) for w in B_k_set(h, S, hm, k))
        for k in range(hm - m, hm + 1)
    )
    return GradedExpansion(hm, m, b_q)


def b_q_dp(h: HSequence, S: PairSet) -> GradedExpansion:
    """Every b_k(q) in one packed pass over the order ideals of the poset.

    The words of I_h(S, h(m)) are the linear extensions of the order
    that posets.position_order puts on the positions 1..h(m), filled
    with the values 1, 2, ... in turn; the value placed at p makes an
    inversion with each filled position right of p, which the step of p
    counts (posets.ideal_step).  The step of h(m) sets span tag bits
    above h(m), which every later step counts, and h(m) takes the value
    k when h(m) - k steps come later.  So a word of length l < span in
    B_k(S, h(m)) lands in slot l + span * (h(m) - k).
    """
    m = S.m()
    hm = h.h(m)
    below = position_order(h, S, hm)
    span = hm * (hm - 1) // 2 + 1
    tag = ((1 << span) - 1) << hm
    steps = [(1 << p | low, low, (1 << hm) - (2 << p) | tag)
             for p, low in enumerate(below[:-1])]
    steps.append((1 << hm - 1 | tag | below[-1], below[-1], 0))
    slots = ideal_pass(steps, hm)
    return GradedExpansion(hm, m, tuple(
        QPoly(tuple(slots[span * (hm - k):span * (hm - k + 1)]))
        for k in range(hm - m, hm + 1)
    ))


def graded_expansion_eval(ge: GradedExpansion, n: int) -> QPoly:
    """Sum of b_k(q) * qbinom(n-k, h(m)-k); counts only for n >= h(m)."""
    if n < ge.hm:
        raise BelowValidityFloorError(
            f"graded expansion counts only for n >= {ge.hm}, got {n}"
        )
    acc = QPoly.zero()
    for k in ge.indices():
        acc = acc + ge.coeff(k) * q_binom(n - k, ge.hm - k)
    return acc


@dataclass
class ConjectureReport:
    cap: int
    checked: int
    violations: list[dict]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "cap": self.cap,
            "checked": self.checked,
            "violations": self.violations,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def q_log_concavity_violation(S: PairSet, ge: GradedExpansion) -> dict | None:
    """None if ge, the graded coefficients of S, is strongly
    q-log-concave; otherwise a report of the first offending product."""
    seq = ge.b_q
    if q_seq_strongly_log_concave(seq):
        return None
    L = len(seq)
    at = lambda p: seq[p] if 0 <= p < L else QPoly.zero()
    for i in range(L):
        for j in range(i, L):
            diff = at(i) * at(j) - at(i - 1) * at(j + 1)
            if not diff.is_nonnegative():
                return {
                    "S": S.to_json(),
                    "i": i + ge.hm - ge.m,
                    "j": j + ge.hm - ge.m,
                    "difference": diff.to_json(),
                }
    raise RouteDisagreementError(
        f"{S}: the strong q-log-concavity test failed, but no pair (i, j) violates it"
    )


def _check_one(h: HSequence, S: PairSet) -> dict | None:
    return q_log_concavity_violation(S, b_q_coefficients(h, S))


def verify_conjecture(h: HSequence, hm_cap: int, jobs: int = 1) -> ConjectureReport:
    """Check strong q-log-concavity of (b_k(S; q)) for every nonempty
    admissible S with h(m(S)) <= hm_cap.

    Every such S satisfies j(S) <= h(m(S)), so a single grouping sweep of
    S_cap finds them all; each S is then checked once, at window h(m).
    The checks run in at most min(jobs, cpu count) worker processes, each
    taking its sets in about four chunks rather than one per round trip.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    start = time.perf_counter()
    classes = enumerate_admissible(h, hm_cap)
    todo = sorted(S for S in classes if S and h.h(S.m()) <= hm_cap)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-len(todo) // (4 * workers)) or 1  # ceil, at least 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_one, [h] * len(todo), todo, chunksize=chunk))
    else:
        results = [_check_one(h, S) for S in todo]
    violations = [res for res in results if res is not None]
    elapsed_ms = (time.perf_counter() - start) * 1000
    return ConjectureReport(hm_cap, len(results), violations, elapsed_ms)
