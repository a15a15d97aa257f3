"""Kernel selection: compiled extension when available, pure Python otherwise.

Set INVPOLY_PURE_KERNELS=1 to force the pure backend.  The compiled
kernels keep the inversion bitmask in a machine word, so calls with more
than 64 candidate pairs route to the pure backend regardless.

Full matching always runs the pure pruned search: the compiled
matching_perms sweeps all of S_n, which is slower (0.4 ms pure against
2.8 ms compiled for match in S_8).  The compiled sorted-suffix kernel
prunes on prefix pairs like the pure one and is dispatched as usual.
"""

import os

from invpoly import _pure

if os.environ.get("INVPOLY_PURE_KERNELS"):
    _core = None
else:
    try:
        from invpoly import _core
    except ImportError:
        _core = None

BACKEND = "compiled" if _core is not None else "pure"


def _usable(n: int, pairs) -> bool:
    return _core is not None and len(pairs) <= _core.MAX_PAIRS and n <= _core.MAX_N


def admissible_counts(n, pairs):
    if _usable(n, pairs):
        return _core.admissible_counts(n, pairs)
    return _pure.admissible_counts(n, pairs)


matching_perms = _pure.matching_perms


def matching_perms_sorted_suffix(n, m, pairs, target):
    if _usable(n, pairs):
        return _core.matching_perms_sorted_suffix(n, m, pairs, target)
    return _pure.matching_perms_sorted_suffix(n, m, pairs, target)
