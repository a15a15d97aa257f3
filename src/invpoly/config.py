"""Runtime limits for the brute-force oracles.

The default cap keeps full S_n sweeps at or below 10! words.  The
INVPOLY_MAX_N environment variable, which must be an integer, overrides
it; it is the only cap.
"""

import os

from invpoly.errors import InputError

DEFAULT_MAX_N = 10


def max_n() -> int:
    raw = os.environ.get("INVPOLY_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"INVPOLY_MAX_N must be an integer, got {raw!r}") from None
