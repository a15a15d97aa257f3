import itertools
import os
import subprocess
import sys

import pytest

from invpoly import HSequence, kernels, possible_pairs
from invpoly import _pure

compiled = pytest.importorskip("invpoly._core")


def windows():
    for h, n in [
        (HSequence((), 1), 5),
        (HSequence((), 2), 5),
        (HSequence((), 3), 6),
        (HSequence((2, 4, 4, 5), 1), 6),
    ]:
        yield n, possible_pairs(h, n).pairs


class TestBackendEquivalence:
    def test_admissible_counts(self):
        for n, pairs in windows():
            assert compiled.admissible_counts(n, pairs) == \
                _pure.admissible_counts(n, pairs)

    def test_matching_perms(self):
        for n, pairs in windows():
            for mask in _pure.admissible_counts(n, pairs):
                assert sorted(compiled.matching_perms(n, pairs, mask)) == \
                    sorted(_pure.matching_perms(n, pairs, mask))

    def test_matching_perms_sorted_suffix(self):
        for n, pairs in windows():
            for mask in itertools.islice(
                _pure.admissible_counts(n, pairs), 20
            ):
                for m in range(n + 1):
                    assert sorted(
                        compiled.matching_perms_sorted_suffix(n, m, pairs, mask)
                    ) == sorted(
                        _pure.matching_perms_sorted_suffix(n, m, pairs, mask)
                    )


class TestDispatch:
    def test_backend_reports_compiled(self):
        assert kernels.BACKEND == "compiled"

    def test_env_override_forces_pure(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from invpoly.kernels import BACKEND; print(BACKEND)"],
            env={**os.environ, "INVPOLY_PURE_KERNELS": "1"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "pure"

    def test_large_window_falls_back(self):
        # 70 candidate pairs exceeds the compiled 64-bit mask; the
        # dispatcher must route to the pure backend instead of failing
        h = HSequence((), 9)
        n = 13
        pairs = possible_pairs(h, n).pairs
        assert len(pairs) > 64
        got = kernels.matching_perms_sorted_suffix(n, 0, pairs, 0)
        assert got == [tuple(range(1, n + 1))]
