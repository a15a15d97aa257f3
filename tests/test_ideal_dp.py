"""The routes that run on the packed order-ideal step (posets.ideal_step).

poincare, graded.b_q_dp and height_sequence count over order ideals and
list nothing.  Each is checked exactly against a listing that shares no
code with the step: the S_n grouping (the kernel's and the plain one in
oracles), the B_k listing of b_q_coefficients, and linear_extensions.
The Poincare polynomial is also checked against the theorems it must
satisfy past the S_n sweeps' reach.
"""

import math
import random

import pytest
from click.testing import CliRunner

from conftest import CORPUS_H, H_IDS, HS, draw, h_id, random_h
from oracles import grouping, random_poset
from invpoly import HSequence, enumerate_admissible, kernels, poincare, possible_pairs
from invpoly.cli import main
from invpoly.errors import BoundExceededError, InputError
from invpoly.graded import b_q_coefficients, b_q_dp
from invpoly.posets import build_poset, height_sequence, linear_extensions


def by_size(classes):
    """Sum of c_S t^(2|S|) over the classes, as a coefficient list."""
    cs = [0] * (2 * max(len(S) for S in classes) + 1)
    for S, c in classes.items():
        cs[2 * len(S)] += c
    return cs


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_poincare_equals_admissible_classes(h):
    for n in range(1, 10):
        assert list(poincare(h, n).coeffs) == by_size(enumerate_admissible(h, n)), n


@pytest.mark.parametrize("seed", range(20))
def test_poincare_equals_plain_grouping_on_random_h(seed):
    rng = random.Random(seed)
    h, n = random_h(rng), rng.randint(1, 7)
    counts = grouping(n, possible_pairs(h, n).pairs)
    cs = [0] * (2 * max(mask.bit_count() for mask in counts) + 1)
    for mask, c in counts.items():
        cs[2 * mask.bit_count()] += c
    assert list(poincare(h, n).coeffs) == cs, (h, n)


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_poincare_theorems_past_the_sweeps(h, monkeypatch):
    # the coefficients count S_n; Poincare duality and hard Lefschetz
    # make the polynomial in t^2 palindromic and unimodal
    monkeypatch.setenv("INVPOLY_MAX_N", "12")
    for n in range(1, 13):
        cs = list(poincare(h, n).coeffs)
        assert sum(cs) == math.factorial(n), n
        assert cs == cs[::-1], n
        even = cs[::2]
        assert not any(cs[1::2]), n
        top = even.index(max(even))
        assert even[:top + 1] == sorted(even[:top + 1]), n
        assert even[top:] == sorted(even[top:], reverse=True), n


@pytest.mark.parametrize("n", [0, -1])
def test_poincare_needs_a_positive_n(n):
    with pytest.raises(InputError):
        poincare(HSequence((), 2), n)
    res = CliRunner().invoke(
        main, ["poincare", "--h", '{"prefix":[],"tail_offset":2}', "--n", str(n)]
    )
    assert res.exit_code == 3, res.output


def test_poincare_keeps_the_brute_force_cap(monkeypatch):
    monkeypatch.setenv("INVPOLY_MAX_N", "5")
    with pytest.raises(BoundExceededError):
        poincare(HSequence((), 2), 6)
    assert sum(poincare(HSequence((), 2), 5).coeffs) == 120
    res = CliRunner().invoke(
        main, ["poincare", "--h", '{"prefix":[],"tail_offset":2}', "--n", "6"]
    )
    assert res.exit_code == 4, res.output


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_b_q_dp_equals_listing_on_corpus(h):
    sets = [S for S in enumerate_admissible(h, 8) if S and h.h(S.m()) <= 8]
    assert sets
    for S in sets:
        assert b_q_dp(h, S) == b_q_coefficients(h, S), S


@pytest.mark.parametrize("hm", [10, 11, 12])
@pytest.mark.parametrize("h", HS, ids=H_IDS)
def test_b_q_dp_equals_listing_beyond_sweeps(h, hm):
    rng = random.Random(f"{h!r} {hm}")
    for _ in range(3):
        _, _, S = draw(h, hm, rng)
        assert b_q_dp(h, S) == b_q_coefficients(h, S), S


def test_height_sequence_equals_listed_extensions():
    rng = random.Random(20261020)
    for size in range(1, 9):
        for density in (0.2, 0.5):
            P, _ = random_poset(rng, size, density)
            exts = [phi.word for phi in linear_extensions(P)]
            for v in range(1, size + 1):
                want = [0] * size
                for word in exts:
                    want[word.index(v)] += 1
                assert height_sequence(P, v) == want, (P, v)


def test_ideal_routes_call_no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran")

    entry_points = [name for name, fn in vars(kernels).items()
                    if callable(fn) and getattr(fn, "__module__", None) == kernels.__name__]
    assert "admissible_counts" in entry_points
    for name in entry_points:
        monkeypatch.setattr(kernels, name, refuse)
    h = HSequence((), 3)
    assert sum(poincare(h, 9).coeffs) == math.factorial(9)
    _, _, S = draw(h, 10, random.Random(3))
    ge = b_q_dp(h, S)
    heights = height_sequence(build_poset(h, S), 10)
    assert [b.at_one() for b in ge.b_q] == heights[ge.hm - ge.m - 1:]
