"""Compare the compiled and pure permutation kernels.

Run with:  python3 benchmarks/bench_kernels.py [--repeat N]

Exits 1 if the two backends return different results on any case.
perfbench/run.py is the runner whose end-to-end numbers decide.
"""

import argparse
import sys
import time

from invpoly import HSequence, PairSet, possible_pairs
from invpoly import _pure

try:
    from invpoly import _core
except ImportError:
    _core = None


CASES = [
    ("group S_7, tail 2", "admissible_counts",
     (HSequence((), 2), 7), None, None),
    ("group S_8, tail 3", "admissible_counts",
     (HSequence((), 3), 8), None, None),
    ("match in S_8, tail 3", "matching_perms",
     (HSequence((), 3), 8),
     PairSet([(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]), None),
    ("suffix-sorted window 12, tail 3", "matching_perms_sorted_suffix",
     (HSequence((), 3), 12),
     PairSet([(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]), 5),
]


def mask_of(S, window):
    index = {p: b for b, p in enumerate(window)}
    mask = 0
    for p in S:
        mask |= 1 << index[p]
    return mask


def run_case(backend, op, h, n, S, m):
    window = possible_pairs(h, n).pairs
    if op == "admissible_counts":
        return backend.admissible_counts(n, window)
    mask = mask_of(S, window)
    if op == "matching_perms":
        return backend.matching_perms(n, window, mask)
    return backend.matching_perms_sorted_suffix(n, m, window, mask)


def bench(backend, op, args, S, m, repeat):
    h, n = args
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = run_case(backend, op, h, n, S, m)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    opts = parser.parse_args()

    if _core is None:
        print("compiled backend unavailable; benchmarking pure only")
    print(f"{'case':<36} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    differ = False
    for name, op, args, S, m in CASES:
        pure_t, pure_r = bench(_pure, op, args, S, m, opts.repeat)
        line = f"{name:<36} {pure_t * 1000:>8.1f}ms"
        if _core is not None:
            core_t, core_r = bench(_core, op, args, S, m, opts.repeat)
            same = (
                pure_r == core_r
                if op == "admissible_counts"
                else sorted(pure_r) == sorted(core_r)
            )
            line += f" {core_t * 1000:>8.1f}ms {pure_t / core_t:>7.1f}x"
            if not same:
                line += "  RESULTS DIFFER"
                differ = True
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
