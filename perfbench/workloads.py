"""The four benchmark workloads.

Each workload turns a seed into a list of units.  A unit is one call into
invpoly's public entry points, bound to inputs generated here; running
every unit once is one pass.  After a pass, each unit's output is reduced
to canonical JSON and checked two ways where possible:

* against the committed reference hash (``reference.json``), recorded from
  the seed code for the default and held-out seeds, and for every seed
  where the unit's output does not depend on the seed;
* against an independent check computed in this file, from first
  principles (restricted inversion sets, order-ideal counting), without
  calling invpoly.

A unit that has neither check counts as failed.

The helpers below re-derive what a check needs from the definitions, so
that a wrong answer from invpoly cannot also make its own check pass.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable

CORPUS = {
    "tail1": {"prefix": [], "tail_offset": 1},
    "tail2": {"prefix": [], "tail_offset": 2},
    "tail3": {"prefix": [], "tail_offset": 3},
    "prefix-2445": {"prefix": [2, 4, 4, 5], "tail_offset": 1},
    "prefix-34677": {"prefix": [3, 4, 6, 7, 7], "tail_offset": 1},
    "prefix-5566": {"prefix": [5, 5, 6, 6], "tail_offset": 1},
}

# Full size is the benchmark; smoke size runs every unit kind in seconds
# and exists for the benchmark's own tests.
SIZES = {
    "full": {
        "conjecture": {"h": "tail3", "cap": 8},
        "verify": {"cap": 6},
        "oracle": {"hs": ("tail3", "prefix-5566"), "n": 9, "classes": 2},
        "poset": {"h": "tail2", "perm_n": 11, "hm": (8, 12), "sets": 100,
                  "le_cap": 40000, "band_sample": 2000},
    },
    "smoke": {
        "conjecture": {"h": "tail3", "cap": 6},
        "verify": {"cap": 4},
        "oracle": {"hs": ("tail3", "prefix-5566"), "n": 6, "classes": 2},
        "poset": {"h": "tail2", "perm_n": 8, "hm": (5, 9), "sets": 10,
                  "le_cap": 2000, "band_sample": 300},
    },
}

WORKLOADS = ("conjecture", "verify", "oracle", "poset")

# Fixed seed of the sample that places the poset workload's work bands;
# it is part of the workload definition, not of the run's seed.
BAND_SEED = 977


@dataclass
class Unit:
    key: str
    items: int  # items this unit checks: sets, or permutations classified
    seed_free: bool  # output is the same for every workload seed
    run: Callable[[], Any]  # the call into invpoly: the timed part
    canon: Callable[[Any], Any]  # raw output -> canonical JSON value


@dataclass
class Plan:
    workload: str
    seed: int
    size: dict
    units: list[Unit]
    # Independent check: (key -> canonical output) -> (key -> ok), for the
    # keys it can judge.
    check: Callable[[dict[str, Any]], dict[str, bool]]


# -- first-principles helpers (no invpoly) --------------------------------


def h_of(spec: dict) -> Callable[[int], int]:
    prefix, tail = spec["prefix"], spec["tail_offset"]
    return lambda i: prefix[i - 1] if i <= len(prefix) else i + tail


def window_pairs(h: Callable[[int], int], n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, min(n, h(i)) + 1)]


def inv_set(h: Callable[[int], int], word) -> tuple[tuple[int, int], ...]:
    """Restricted inversion set of a word, as sorted pairs."""
    return tuple(
        (i, j) for i, j in window_pairs(h, len(word)) if word[i - 1] > word[j - 1]
    )


def max_descent(S) -> int | None:
    descents = [i for i, j in S if j == i + 1]
    return max(descents) if descents else None


def inversions(word) -> int:
    return sum(
        1 for a in range(len(word)) for b in range(a + 1, len(word))
        if word[a] > word[b]
    )


def q_coeffs(exponents) -> list[int]:
    cs = [0] * (max(exponents, default=-1) + 1)
    for e in exponents:
        cs[e] += 1
    return cs


class InducedOrder:
    """The order on [h(m)] induced by an admissible S, counted over ideals.

    A window pair (i, j) in S puts j below i; one outside S puts i below j.
    Linear extensions are paths from the empty ideal to the whole set, so
    counting paths into and out of each ideal gives the number of
    extensions and the height sequence of any element.
    """

    def __init__(self, h, S, hm: int):
        self.hm = hm
        s = set(S)
        self.below = [0] * (hm + 1)  # v -> bitmask of elements directly below v
        for i, j in window_pairs(h, hm):
            lo, hi = (j, i) if (i, j) in s else (i, j)
            self.below[hi] |= 1 << lo
        self.full = sum(1 << v for v in range(1, hm + 1))
        self.into = {0: 1}  # ideal -> number of orderings of it
        frontier = {0: 1}
        for _ in range(hm):
            nxt: dict[int, int] = {}
            for ideal, c in frontier.items():
                for v in range(1, hm + 1):
                    bit = 1 << v
                    if not ideal & bit and not self.below[v] & ~ideal:
                        nxt[ideal | bit] = nxt.get(ideal | bit, 0) + c
            self.into.update(nxt)
            frontier = nxt

    def extensions(self) -> int:
        return self.into.get(self.full, 0)

    def heights(self, v: int) -> list[int]:
        """k -> number of extensions with exactly k elements before v."""
        out_of: dict[int, int] = {self.full: 1}  # ideal -> completions
        for ideal in sorted(self.into, key=lambda d: -d.bit_count()):
            if ideal == self.full:
                continue
            out_of[ideal] = sum(
                out_of.get(ideal | 1 << w, 0)
                for w in range(1, self.hm + 1)
                if not ideal >> w & 1 and not self.below[w] & ~ideal
            )
        heights = [0] * self.hm
        bit = 1 << v
        for ideal, c in self.into.items():
            if not ideal & bit and not self.below[v] & ~ideal:
                heights[ideal.bit_count()] += c * out_of.get(ideal | bit, 0)
        return heights

    def down_set(self, v: int) -> int:
        seen, stack = 0, [v]
        while stack:
            u = stack.pop()
            for w in range(1, self.hm + 1):
                if self.below[u] >> w & 1 and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        return seen

    def maximal(self) -> set[int]:
        covered = 0
        for v in range(1, self.hm + 1):
            covered |= self.below[v]
        return {v for v in range(1, self.hm + 1) if not covered >> v & 1}


def count_sets(spec: dict, cap: int, hm_cap: int | None = None) -> int:
    """Nonempty restricted inversion sets of S_cap, optionally with
    h(m(S)) <= hm_cap: the sets a verify or verify-conjecture sweep checks."""
    hfun = h_of(spec)
    classes = {inv_set(hfun, w) for w in itertools.permutations(range(1, cap + 1))}
    return sum(1 for S in classes
               if S and (hm_cap is None or hfun(max_descent(S)) <= hm_cap))


def is_error(value) -> bool:
    return isinstance(value, dict) and value.keys() == {"error"}


def unit_hash(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def digest(hashes: dict[str, str]) -> str:
    return unit_hash(sorted(hashes.items()))


# -- the program's entry points ------------------------------------------


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run one `invpoly` command in-process; return (exit code, stdout)."""
    from invpoly.cli import main

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=args, prog_name="invpoly", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _cli_canon(drop: tuple[str, ...]):
    def canon(raw):
        code, text = raw
        payload = json.loads(text) if code in (0, 1) and text.strip() else text
        if isinstance(payload, dict):
            payload = {k: v for k, v in payload.items() if k not in drop}
        return {"exit": code, "output": payload}

    return canon


# -- workloads ------------------------------------------------------------


def plan_conjecture(seed: int, size: dict) -> Plan:
    """verify-conjecture through the click entry point; inputs are fixed."""
    hname, cap = size["h"], size["cap"]
    args = ["verify-conjecture", "--h", json.dumps(CORPUS[hname]),
            "--cap", str(cap), "--jobs", "1", "--json-out"]
    unit = Unit(hname, 0, True, lambda: invoke_cli(args),
                _cli_canon(("elapsed_ms",)))
    return Plan("conjecture", seed, size, [unit], lambda results: {})


def plan_verify(seed: int, size: dict) -> Plan:
    """verify --cap for each corpus h through the click entry point."""
    units = []
    for hname, spec in CORPUS.items():
        args = ["verify", "--h", json.dumps(spec), "--cap", str(size["cap"]),
                "--json-out"]
        units.append(Unit(hname, 0, True, lambda a=args: invoke_cli(a),
                          _cli_canon(())))
    return Plan("verify", seed, size, units, lambda results: {})


def plan_oracle(seed: int, size: dict) -> Plan:
    """Full S_n sweeps: grouping and Poincare per h, then matches and graded
    polynomials for classes drawn as the classes of seeded random words."""
    import invpoly

    n, rng = size["n"], random.Random(seed)
    sweep = math.factorial(n)
    units: list[Unit] = []
    drawn: dict[str, list[tuple]] = {}
    for hname in size["hs"]:
        h, hfun = invpoly.HSequence.from_json(CORPUS[hname]), h_of(CORPUS[hname])
        units.append(Unit(
            f"admissible/{hname}", sweep, True,
            lambda h=h: invpoly.enumerate_admissible(h, n),
            lambda classes: sorted([S.to_json(), c] for S, c in classes.items()),
        ))
        units.append(Unit(f"poincare/{hname}", sweep, True,
                          lambda h=h: invpoly.poincare(h, n),
                          lambda p: p.to_json()["coeffs"]))
        picks: list[tuple] = []
        while len(picks) < size["classes"]:
            word = list(range(1, n + 1))
            rng.shuffle(word)
            S = inv_set(hfun, word)
            if S and S not in picks:
                picks.append(S)
        drawn[hname] = picks
    for hname in size["hs"]:
        h = invpoly.HSequence.from_json(CORPUS[hname])
        for idx, S in enumerate(drawn[hname]):
            ps = invpoly.PairSet(S)
            units.append(Unit(f"Ih/{hname}/{idx}", sweep, False,
                              lambda h=h, ps=ps: invpoly.enumerate_Ih(h, ps, n),
                              lambda perms, S=S: {"S": S, "perms": [p.to_json() for p in perms]}))
            units.append(Unit(f"graded/{hname}/{idx}", sweep, False,
                              lambda h=h, ps=ps: invpoly.graded_Ih_oracle(h, ps, n),
                              lambda q, S=S: {"S": S, "q": q.to_json()["coeffs"]}))

    def check(results: dict[str, Any]) -> dict[str, bool]:
        ok: dict[str, bool] = {}
        for hname in size["hs"]:
            hfun = h_of(CORPUS[hname])
            classes = results[f"admissible/{hname}"]
            counts = {tuple(map(tuple, S)): c for S, c in classes}
            ok[f"admissible/{hname}"] = sum(counts.values()) == sweep
            poincare = [0] * (2 * max(map(len, counts), default=0) + 1)
            for S, c in counts.items():
                poincare[2 * len(S)] += c
            ok[f"poincare/{hname}"] = results[f"poincare/{hname}"] == poincare
            for idx, S in enumerate(drawn[hname]):
                perms = [tuple(p) for p in results[f"Ih/{hname}/{idx}"]["perms"]]
                good = (
                    len(perms) == counts.get(S, -1)
                    and perms == sorted(set(perms))
                    and all(sorted(p) == list(range(1, n + 1)) for p in perms)
                    and all(inv_set(hfun, p) == S for p in perms)
                )
                ok[f"Ih/{hname}/{idx}"] = good
                want = q_coeffs([inversions(p) for p in perms])
                ok[f"graded/{hname}/{idx}"] = (
                    good and results[f"graded/{hname}/{idx}"]["q"] == want
                )
        return ok

    return Plan("oracle", seed, size, units, check)


def _poset_candidate(rng, hfun, size):
    """Draw words until one gives a nonempty S with h(m) in range and at
    most le_cap linear extensions; return (extensions, S, order)."""
    lo, hi = size["hm"]
    while True:
        word = list(range(1, size["perm_n"] + 1))
        rng.shuffle(word)
        S = inv_set(hfun, word)
        m = max_descent(S)
        if m is None or not lo <= hfun(m) <= hi:
            continue
        order = InducedOrder(hfun, S, hfun(m))
        if order.extensions() <= size["le_cap"]:
            return order.extensions(), S, order


def plan_poset(seed: int, size: dict) -> Plan:
    """b_from_heights, degree_of and is_constant on sets inv_h(pi), pi random.

    Work per set follows its number of linear extensions, which is heavy
    tailed.  To keep a pass's work the same from seed to seed, the sets
    fill fixed quantile bands of that number, one set per band; the band
    edges come from a sample drawn with a fixed seed.
    """
    import invpoly

    spec = CORPUS[size["h"]]
    hfun, h = h_of(spec), invpoly.HSequence.from_json(spec)
    band_rng = random.Random(BAND_SEED)
    sample = [_poset_candidate(band_rng, hfun, size)[0]
              for _ in range(size["band_sample"])]
    edges = statistics.quantiles(sample, n=size["sets"], method="inclusive")
    rng = random.Random(seed)
    slots: list[tuple | None] = [None] * size["sets"]
    while None in slots:
        count, S, order = _poset_candidate(rng, hfun, size)
        band = bisect.bisect_right(edges, count)
        if slots[band] is None:
            slots[band] = (S, order)

    def call(ps):
        return (invpoly.b_from_heights(h, ps), invpoly.degree_of(h, ps),
                invpoly.is_constant(h, ps))

    units = []
    for idx, (S, _) in enumerate(slots):
        units.append(Unit(
            f"set/{idx}", 1, False, lambda ps=invpoly.PairSet(S): call(ps),
            lambda raw, S=S: {"S": S, "b": raw[0].to_json(),
                              "degree": raw[1], "constant": raw[2]},
        ))

    def check(results: dict[str, Any]) -> dict[str, bool]:
        ok = {}
        for idx, (S, order) in enumerate(slots):
            hm = order.hm
            m = max_descent(S)
            heights = order.heights(hm)
            want = {
                "S": S,
                "b": {str(k): heights[k - 1] for k in range(hm - m, hm + 1)},
                "degree": hm - (order.down_set(hm).bit_count() + 1),
                "constant": order.maximal() == {hm},
            }
            ok[f"set/{idx}"] = json.loads(json.dumps(want)) == results[f"set/{idx}"]
        return ok

    return Plan("poset", seed, size, units, check)


PLANNERS = {
    "conjecture": plan_conjecture,
    "verify": plan_verify,
    "oracle": plan_oracle,
    "poset": plan_poset,
}


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    return PLANNERS[workload](seed, SIZES["smoke" if smoke else "full"][workload])


def run_pass(plan: Plan) -> dict[str, Any]:
    """One pass: every unit once, in order.  Returns raw outputs; a unit
    that raised maps to the exception instead."""
    raw: dict[str, Any] = {}
    for unit in plan.units:
        try:
            raw[unit.key] = unit.run()
        except Exception as exc:  # counted as a failed unit, never fatal
            raw[unit.key] = exc
    return raw


def canonical(plan: Plan, raw: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for unit in plan.units:
        value = raw[unit.key]
        if not isinstance(value, Exception):
            try:
                value = unit.canon(value)
            except (TypeError, ValueError, AttributeError) as exc:
                value = exc
        if isinstance(value, Exception):
            value = {"error": repr(value)}
        # round-trip so that checks compare plain JSON values
        out[unit.key] = json.loads(json.dumps(value))
    return out


def count_items(plan: Plan) -> dict[str, int]:
    """Items of the CLI units, whose output does not say how many sets
    they checked; recorded in the reference."""
    size = plan.size
    if plan.workload == "conjecture":
        return {size["h"]: count_sets(CORPUS[size["h"]], size["cap"], size["cap"])}
    if plan.workload == "verify":
        return {name: count_sets(spec, size["cap"]) for name, spec in CORPUS.items()}
    return {}


def expected_hashes(plan: Plan, ref: dict) -> dict[str, str]:
    """Reference hashes that apply to this plan's units at its seed."""
    want = dict(ref.get("seed_free", {}))
    want.update(ref.get("seeds", {}).get(str(plan.seed), {}).get("units", {}))
    return want


@dataclass
class Verdict:
    hashes: dict[str, str]
    failed_units: list[str]
    attempted: int
    failed: int

    @property
    def digest(self) -> str:
        return digest(self.hashes)


def judge(plan: Plan, results: dict[str, Any], ref: dict) -> Verdict:
    """Check one pass's canonical outputs; items of a failed unit all fail."""
    want = expected_hashes(plan, ref)
    items = ref.get("items", {})
    try:
        independent = plan.check(results)
    except (KeyError, TypeError, ValueError, IndexError):
        independent = {unit.key: False for unit in plan.units}
    hashes, failed_units, attempted, failed = {}, [], 0, 0
    for unit in plan.units:
        hashes[unit.key] = unit_hash(results[unit.key])
        checks = []
        if unit.key in want:
            checks.append(want[unit.key] == hashes[unit.key])
        if unit.key in independent:
            checks.append(independent[unit.key])
        n_items = unit.items or items.get(unit.key, 1)
        attempted += n_items
        if not checks or not all(checks):
            failed_units.append(unit.key)
            failed += n_items
    return Verdict(hashes, failed_units, attempted, failed)
