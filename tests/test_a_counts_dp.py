"""The order-ideal count of the a-coefficients against the listings.

enumeration.a_counts counts A*_k without listing the window m+h(m)-1.
Here it is checked against the A*_k sets listed from one sweep of that
window through the sorted-suffix lister (oracles.A_star_sets), and
against the b route (which lists only the window h(m)) converted by
a_from_b; and it is run with every lister disabled, at a window no
listing could finish.
"""

import json
import random

import pytest
from click.testing import CliRunner

from invpoly import (
    HSequence,
    PairSet,
    a_expansion,
    a_from_b,
    enumerate_admissible,
    enumeration,
    kernels,
    model,
)
from invpoly.cli import main
from invpoly.enumeration import a_counts, b_counts
from invpoly.errors import InadmissibleSetError
from invpoly.polynomials import CoeffSeq

from conftest import CORPUS_H, H_IDS, HS, draw
from oracles import A_star_sets


def test_equals_the_window_sweep_on_the_corpus():
    checked = 0
    for h in CORPUS_H:
        for S in enumerate_admissible(h, 6):
            if S:
                assert a_counts(h, S) == tuple(map(len, A_star_sets(h, S))), (h, S)
                checked += 1
    assert checked == 1316


@pytest.mark.parametrize("hm", [10, 11, 12])
@pytest.mark.parametrize("h", HS, ids=H_IDS)
def test_equals_the_b_route_beyond_the_sweep(h, hm):
    rng = random.Random(f"{h!r} {hm}")
    for _ in range(3):
        _, m, S = draw(h, hm, rng)
        b = CoeffSeq(b_counts(h, S), hm - m)
        assert a_counts(h, S) == a_from_b(b, m, hm).values


@pytest.mark.parametrize("tail,pairs", [
    (2, [(1, 2), (2, 3)]),  # pi1 > pi2 > pi3 > pi1: a cycle in the head
    (2, [(1, 2), (1, 9)]),  # (1, 9) lies outside the window of m = 1
    # (6, 8) starts after m = 3, which no admissible set's pair does: the
    # shared admissibility check refuses it, and the sweep finds no word
    # with pi6 > pi8 that increases after position 3
    (3, [(3, 4), (6, 8)]),
    (2, [(1, 3), (2, 4)]),  # no descent: no m, so nothing to count
])
def test_inadmissible_sets_count_zero_like_the_sweep(tail, pairs):
    h, S = HSequence((), tail), PairSet(pairs)
    if not any(j == i + 1 for i, j in S):
        for count in (a_counts, A_star_sets):
            with pytest.raises(InadmissibleSetError):
                count(h, S)
        return
    assert a_counts(h, S) == tuple(map(len, A_star_sets(h, S))) == (0,) * (S.m() + 1)


def test_a_route_checks_admissibility_once(monkeypatch):
    # a_counts reads position_order, whose check is a_expansion's, cached
    h, S = HSequence((), 2), PairSet([(1, 3), (2, 3), (2, 4)])
    want = tuple(map(len, A_star_sets(h, S)))
    checked = []
    check = model.is_admissible

    def counted(h, S):
        checked.append(S)
        return check(h, S)

    model.require_admissible.cache_clear()
    monkeypatch.setattr(model, "is_admissible", counted)
    assert a_expansion(h, S).coeffs.values == want
    assert checked == [S]


def test_reads_the_order_of_S_from_position_order(monkeypatch):
    # handed the order of another set with the same m, a_counts counts
    # that set: all it knows of S beyond m is position_order's masks
    h = HSequence((), 2)
    S, T = PairSet([(1, 3), (2, 3), (2, 4)]), PairSet([(1, 2), (1, 3), (2, 3)])
    assert S.m() == T.m() and a_counts(h, S) != a_counts(h, T)
    want = a_counts(h, T)
    real = enumeration.position_order
    monkeypatch.setattr(enumeration, "position_order", lambda h, S, n: real(h, T, n))
    assert a_counts(h, S) == want


def test_equals_the_listed_A_star_sets():
    h, S = HSequence((), 2), PairSet([(1, 3), (2, 3), (2, 4)])
    assert a_counts(h, S) == tuple(map(len, A_star_sets(h, S)))


def test_lists_nothing(monkeypatch):
    # m = 9, so the a-window is S_20 words increasing after position 9
    h = HSequence((), 3)
    _, m, S = draw(h, 12, random.Random("no listing"))
    want = a_from_b(CoeffSeq(b_counts(h, S), 12 - m), m, 12)

    def listing(*args):
        raise AssertionError("the a route listed a window")

    monkeypatch.setattr(kernels, "matching_perms_sorted_suffix", listing)
    monkeypatch.setattr(kernels, "matching_perms", listing)
    monkeypatch.setattr(enumeration, "enumerate_Ih_structured", listing)
    assert a_expansion(h, S).coeffs == want
    res = CliRunner().invoke(main, [
        "expand", "--h", json.dumps(h.to_json()), "--s",
        json.dumps(S.to_json()), "--basis", "a", "--json-out",
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["coeffs"] == want.to_json()
