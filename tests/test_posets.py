import gc
import math
import random

import pytest

from invpoly import (
    HSequence,
    PairSet,
    Poset,
    a_from_b,
    b_from_heights,
    build_poset,
    d_S_of,
    degree_of,
    enumerate_Ih,
    enumerate_admissible,
    height_sequence,
    height_support_bounds,
    is_constant,
    linear_extensions,
)
from invpoly import posets
from invpoly.enumeration import a_counts, b_counts
from invpoly.errors import InputError, RouteDisagreementError
from invpoly.graded import b_q_dp
from invpoly.polynomials import CoeffSeq
from invpoly.posets import position_order

from conftest import CORPUS_H, h_id
from oracles import random_poset, words

H2 = HSequence((), 2)
S_POSET = PairSet([(1, 3), (2, 3), (2, 4), (3, 4)])

# six-element poset with covers 1<2, 2<3, 2<4, 3<5, 4<6, 5<6
P6 = Poset.from_relations(
    6, [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)]
)


class TestPoset:
    def test_from_relations_closes(self):
        assert P6.below[6 - 1] >> (1 - 1) & 1
        assert not P6.below[4 - 1] >> (3 - 1) & 1

    def test_rejects_cycles(self):
        with pytest.raises(InputError, match="lies below itself"):
            Poset.from_relations(3, [(1, 2), (2, 3), (3, 1)])

    def test_rejects_unclosed_input(self):
        with pytest.raises(InputError):
            Poset(3, (0, 0b001, 0b010))

    def test_down_up_maximal(self):
        assert P6.below[4 - 1] == 0b11  # {1, 2}
        assert P6.up_set(4) == {6}

    def test_cover_relations(self):
        assert set(P6.cover_relations()) == {
            (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)
        }

    def test_json_round_trip(self):
        assert Poset.from_json(P6.to_json()) == P6


class TestLinearExtensions:
    def test_six_element_example(self):
        assert words(linear_extensions(P6)) == {"123456", "123546", "124356"}

    def test_chain_has_one_extension(self):
        chain = Poset.from_relations(3, [(1, 2), (2, 3)])
        assert words(linear_extensions(chain)) == {"123"}

    def test_antichain_has_all(self):
        antichain = Poset.from_relations(3, [])
        assert len(linear_extensions(antichain)) == 6

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            linear_extensions(P6)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHeights:
    def test_all_six_height_sequences(self):
        expect = {
            1: [3, 0, 0, 0, 0, 0],
            2: [0, 3, 0, 0, 0, 0],
            3: [0, 0, 2, 1, 0, 0],
            4: [0, 0, 1, 1, 1, 0],
            5: [0, 0, 0, 1, 2, 0],
            6: [0, 0, 0, 0, 0, 3],
        }
        for v, want in expect.items():
            assert height_sequence(P6, v) == want

    def test_support_bounds(self):
        assert height_support_bounds(P6, 4) == (2, 4)
        assert height_support_bounds(P6, 1) == (0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            height_sequence(P6, 7)


def reachable(gens, a):
    """Elements reached from a by following the relations upward."""
    seen, frontier = set(), [a]
    while frontier:
        x = frontier.pop()
        for lo, hi in gens:
            if lo == x and hi not in seen:
                seen.add(hi)
                frontier.append(hi)
    return seen


class TestHeightsByIdealCount:
    def test_matches_listed_extensions(self):
        """For every element, the ideal count equals the positions taken
        over the listed linear extensions."""
        rng = random.Random(20261018)
        for size in range(1, 9):
            for _ in range(6):
                P, gens = random_poset(rng, size, 0.35)
                for a in range(1, size + 1):
                    up = reachable(gens, a)
                    for b in range(1, size + 1):
                        assert (P.below[b - 1] >> (a - 1) & 1) == (b in up), (P, a, b)
                exts = linear_extensions(P)
                for v in range(1, size + 1):
                    want = [0] * size
                    for phi in exts:
                        want[phi.word.index(v)] += 1
                    assert height_sequence(P, v) == want, (P, v)

    def test_antichain_beyond_listing(self):
        antichain = Poset.from_relations(12, [])
        for v in (1, 7, 12):
            assert height_sequence(antichain, v) == [math.factorial(11)] * 12

    def test_chain_beyond_listing(self):
        chain = Poset.from_relations(12, [(i, i + 1) for i in range(1, 12)])
        for v in range(1, 13):
            want = [0] * 12
            want[v - 1] = 1
            assert height_sequence(chain, v) == want

    def test_lists_no_extension(self, monkeypatch):
        def refuse(P):
            raise AssertionError("height_sequence listed linear extensions")

        monkeypatch.setattr(posets, "linear_extensions", refuse)
        assert height_sequence(P6, 4) == [0, 0, 1, 1, 1, 0]
        assert b_from_heights(H2, S_POSET).values == b_counts(H2, S_POSET)


class TestInducedPoset:
    def test_worked_example_structure(self):
        P = build_poset(H2, S_POSET)
        assert P.ground == 5
        assert set(P.cover_relations()) == {(1, 2), (3, 1), (3, 5), (4, 3)}

    def test_extensions_are_inverses_of_members(self):
        P = build_poset(H2, S_POSET)
        exts = linear_extensions(P)
        assert words(exts) == {"43512", "43152", "43125"}
        members = enumerate_Ih(H2, S_POSET, 5)
        assert {pi.inverse() for pi in members} == set(exts)

    def test_b_from_heights_bridge(self):
        # the height route, which the b-expansion reads, against the listing
        assert b_from_heights(H2, S_POSET) == CoeffSeq(b_counts(H2, S_POSET), 2)

    def test_d_S(self):
        assert d_S_of(H2, S_POSET) == 3

    def test_d_S_route_disagreement_raises(self, monkeypatch):
        # an order with no relations puts nothing below h(m); the chain
        # route still finds the elements below it
        monkeypatch.setattr(posets, "position_order", lambda h, S, n: (0,) * n)
        with pytest.raises(RouteDisagreementError):
            d_S_of(H2, S_POSET)


class TestPositionOrder:
    """position_order's generating masks, the order every count route reads."""

    @pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
    def test_closure_is_the_order_of_the_members(self, h):
        # a poset is the intersection of its linear extensions: a lies
        # below b exactly when a's value is below b's in every member
        for S in (S for S in enumerate_admissible(h, 6) if S):
            for n in range(S.j(), S.j() + 3):
                masks = position_order(h, S, n)
                closed = Poset.from_relations(n, (
                    (a, b) for b, low in enumerate(masks, start=1)
                    for a in range(1, n + 1) if low >> (a - 1) & 1
                ))
                common = [(1 << n) - 1] * n
                for pi in enumerate_Ih(h, S, n):
                    filled = 0
                    for p in pi.inverse().word:  # positions by value
                        common[p - 1] &= filled
                        filled |= 1 << (p - 1)
                assert closed.below == tuple(common), (S, n)

    def test_count_routes_build_no_poset(self, monkeypatch):
        def refuse(cls, ground, relations):
            raise AssertionError("a count route built a Poset")

        monkeypatch.setattr(Poset, "from_relations", classmethod(refuse))
        posets.build_poset.cache_clear()
        with pytest.raises(AssertionError):
            build_poset(H2, S_POSET)
        for h in CORPUS_H:
            for S in (S for S in enumerate_admissible(h, 6) if S):
                m, hm = S.m(), h.h(S.m())
                b = b_from_heights(h, S)
                assert tuple(p.at_one() for p in b_q_dp(h, S).b_q) == b.values, S
                assert a_counts(h, S) == a_from_b(b, m, hm).values, S
                assert is_constant(h, S) == (degree_of(h, S) == 0), S
