"""The graded grouping sweep and the class decoder.

kernels.graded_admissible_counts is compared with the plain S_n sweep
oracles.graded_grouping, and enumeration.graded_admissible with the listing
oracle graded_Ih_oracle.  Past the oracle's reach, both sweeps are held to
mirror duality.  The decoder is compared with the bit-by-bit rule it
replaced.
"""

import math
import random

import pytest
from click.testing import CliRunner

from conftest import CORPUS_H, h_id, random_h, splits
from oracles import complete, graded_grouping
from invpoly import (
    HSequence,
    PairSet,
    QPoly,
    enumeration,
    graded_Ih_oracle,
    kernels,
    possible_pairs,
)
from invpoly.cli import main, run_invariant_suite
from invpoly.errors import BoundExceededError
from invpoly.posets import ideal_pass

H3 = HSequence((), 3)
# the corpus and two h outside it
EIGHT_H = CORPUS_H + [HSequence((3, 3, 5), 2), HSequence((2, 5, 5, 6, 6), 1)]


def mahonian(n):
    """Coefficients of [n]_q!: permutations of [n] by number of inversions."""
    row = [1]
    for k in range(2, n + 1):
        row = [sum(row[e - d] for d in range(k) if 0 <= e - d < len(row))
               for e in range(len(row) + k - 1)]
    return row


def as_slots(graded):
    """The oracle's {length: count} classes as coefficient tuples, lowest length first."""
    return {m: tuple(ls.get(l, 0) for l in range(max(ls) + 1)) for m, ls in graded.items()}


@pytest.mark.parametrize("n", range(8))
def test_graded_counts_fixed_pair_lists(n, force_split):
    # no pairs; every pair; every other pair; one pair across the word;
    # the corpus windows; each at every split the sweep may choose
    lists = [[], complete(n), complete(n)[::2], [(1, n)] if n > 1 else []]
    lists += [possible_pairs(h, n).pairs for h in CORPUS_H] if n else []
    for pairs in lists:
        want = as_slots(graded_grouping(n, pairs))
        assert kernels.graded_admissible_counts(n, pairs) == want
        for r in splits(n):
            priced = force_split(r)
            assert kernels.graded_admissible_counts(n, pairs) == want, (pairs, r)
            assert sorted(set(priced)) == list(splits(n))


@pytest.mark.parametrize("seed", range(12))
def test_graded_counts_random_pairs(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    pairs = rng.sample(complete(n), rng.randint(0, len(complete(n))))
    assert kernels.graded_admissible_counts(n, pairs) == as_slots(graded_grouping(n, pairs))


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_graded_admissible_equals_listing_oracle(h):
    for n in range(1, 8):
        graded = enumeration.graded_admissible(h, n)
        assert sum(q.at_one() for q in graded.values()) == math.factorial(n)
        for S, q in graded.items():
            assert q == graded_Ih_oracle(h, S, n), (n, S)


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
@pytest.mark.parametrize("n", [8, 9])
def test_graded_counts_sum_to_grouping_counts(h, n):
    pairs = possible_pairs(h, n).pairs
    graded = kernels.graded_admissible_counts(n, pairs)
    assert {mask: sum(slots) for mask, slots in graded.items()} == \
        kernels.admissible_counts(n, pairs)
    total = [0] * (n * (n - 1) // 2 + 1)
    for slots in graded.values():
        for length, c in enumerate(slots):
            total[length] += c
    assert total == mahonian(n)


def assert_mirror_dual(n, pairs):
    """Reverse-complement, w -> w0 w w0, sends the pair (i, j) to
    (n+1-j, n+1-i) and keeps length; so each sweep of pairs, with every
    mask relabelled through it, is the same sweep of the mirror list."""
    image = [(n + 1 - j, n + 1 - i) for i, j in pairs]
    mirror = sorted(image)
    to = [1 << mirror.index(p) for p in image]
    for sweep in (kernels.admissible_counts, kernels.graded_admissible_counts):
        relabelled = {sum(bit for b, bit in enumerate(to) if mask >> b & 1): weight
                      for mask, weight in sweep(n, pairs).items()}
        assert relabelled == sweep(n, mirror), (sweep.__name__, n, pairs)


# seeds 0..19 of random.Random, one h each, as in test_enumeration's
# orientation test
@pytest.mark.parametrize("seed", range(20))
def test_mirror_duality_on_random_h_at_every_split(seed, force_split):
    h = random_h(random.Random(seed))
    for n in range(1, 8):
        for r in splits(n):
            force_split(r)
            assert_mirror_dual(n, possible_pairs(h, n).pairs)


# past the oracle's reach: n = 9 and 10, at the split each sweep chooses
@pytest.mark.parametrize("h", EIGHT_H, ids=h_id)
def test_mirror_duality_past_the_oracle(h):
    for n in (9, 10):
        assert_mirror_dual(n, possible_pairs(h, n).pairs)


# poincare counts S_n by h-inversions, and reverse-complement keeps them:
# the same packed pass over the mirror pair list gives the same polynomial
@pytest.mark.parametrize("h", EIGHT_H, ids=h_id)
def test_poincare_of_the_mirror_window(h, monkeypatch):
    monkeypatch.setenv("INVPOLY_MAX_N", "12")
    for n in range(1, 13):
        right = [0] * n
        for i, j in possible_pairs(h, n):
            right[n - j] |= 1 << (n - i)  # the mirror pair (n+1-j, n+1-i)
        slots = ideal_pass([(1 << p, 0, r) for p, r in enumerate(right)], n)
        want = enumeration.poincare(h, n)
        assert QPoly(tuple(c for s in slots for c in (s, 0))) == want, n


# the same seeds: every admissible set with j <= 6 of each h through the
# three expansions, a_from_b, b_q_dp and the graded classes
@pytest.mark.parametrize("seed", range(20))
def test_invariant_suite_on_random_h(seed):
    assert run_invariant_suite(random_h(random.Random(seed)), 6) == []


def test_graded_admissible_bound(monkeypatch):
    monkeypatch.setenv("INVPOLY_MAX_N", "6")
    with pytest.raises(BoundExceededError):
        enumeration.graded_admissible(H3, 7)
    assert enumeration.graded_admissible(H3, 6)


def bit_by_bit(mask, window):
    return tuple(p for b, p in enumerate(window) if mask >> b & 1)


# sizes 0 .. 2, one pair per chunk or fewer, and 45, the widest window of a
# sweep at the default cap (S_10 with every pair), whose tables hold 2^15
# entries each
@pytest.mark.parametrize("size", [0, 1, 2, 8, 9, 16, 17, 45])
def test_decoder_equals_bit_by_bit(size):
    window = tuple(complete(13)[:size])  # sorted and unique
    decode = enumeration._decoder(window)
    rng = random.Random(size)
    full = (1 << size) - 1
    tested = {0, full} | {rng.getrandbits(size) if size else 0 for _ in range(200)}
    tested |= {1 << b for b in range(size)} | {full ^ 1 << b for b in range(size)}
    for mask in tested:
        got = decode(mask)
        assert isinstance(got, PairSet)
        assert got.pairs == bit_by_bit(mask, window), mask


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_decoded_classes_are_valid_pair_sets(h):
    for n in range(1, 8):
        for S in enumeration.enumerate_admissible(h, n):
            rebuilt = PairSet(S.pairs)  # through the validating __init__
            assert rebuilt == S and rebuilt.pairs == S.pairs
            assert hash(rebuilt) == hash(S)


def test_verify_lists_nothing_for_its_graded_check(monkeypatch):
    calls = {"enumerate_Ih": 0, "graded_Ih_oracle": 0}

    def counted(name):
        original = getattr(enumeration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(enumeration, name, counted(name))
    res = CliRunner().invoke(
        main, ["verify", "--h", '{"prefix":[],"tail_offset":3}', "--cap", "5"])
    assert res.exit_code == 0, res.output
    assert calls == {"enumerate_Ih": 0, "graded_Ih_oracle": 0}


def test_corrupted_graded_sweep_is_reported(monkeypatch):
    sweep = enumeration.graded_admissible

    def shifted(h, n):
        # every nonempty class moved up one length: same counts, wrong grading
        q = QPoly.monomial(1)
        return {S: p * q if S else p for S, p in sweep(h, n).items()}

    monkeypatch.setattr(enumeration, "graded_admissible", shifted)
    failures = run_invariant_suite(H3, 5)
    assert failures
    assert all("graded expansion mismatch" in f for f in failures)
