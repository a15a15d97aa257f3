import math
import random
from collections import Counter

import pytest

from invpoly import (
    B_k_set,
    HSequence,
    PairSet,
    Permutation,
    a_expansion,
    b_expansion,
    b_from_heights,
    b_q_coefficients,
    degree_of,
    enumerate_Ih,
    enumerate_admissible,
    fiber_data,
    fiber_expansion,
    inv_h,
    is_constant,
    poincare,
)
from invpoly import enumeration, kernels, posets
from invpoly.enumeration import enumerate_Ih_structured
from invpoly.errors import BoundExceededError, InputError
from invpoly.polynomials import QPoly

from conftest import CORPUS_H, h_id, random_h
from oracles import A_star_sets, length_split_check, t_of, words

H2 = HSequence((), 2)
H3 = HSequence((), 3)
S_QUAD = PairSet([(1, 3), (2, 3), (2, 4)])
S_FIVE = PairSet([(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)])


class TestEnumerateIh:
    def test_known_small_sets(self):
        assert words(enumerate_Ih(H2, S_QUAD, 4)) == {"2413", "3412"}
        assert words(enumerate_Ih(H3, S_FIVE, 6)) == {
            "126453", "136452", "236451"
        }

    def test_empty_set_gives_identity_only(self):
        got = enumerate_Ih(H2, PairSet(), 4)
        assert got == [Permutation((1, 2, 3, 4))]

    def test_every_member_realizes_S(self):
        for pi in enumerate_Ih(H2, S_QUAD, 6):
            assert inv_h(H2, pi) == S_QUAD

    def test_partition_of_Sn(self):
        n = 5
        total = sum(
            len(enumerate_Ih(H2, S, n)) for S in enumerate_admissible(H2, n)
        )
        assert total == math.factorial(n)

    def test_set_outside_window_empty(self):
        assert enumerate_Ih(H2, PairSet([(1, 4)]), 5) == []

    def test_bound_enforced(self, monkeypatch):
        with pytest.raises(BoundExceededError):
            enumerate_Ih(H2, S_QUAD, 11)
        # INVPOLY_MAX_N overrides the default
        monkeypatch.setenv("INVPOLY_MAX_N", "6")
        with pytest.raises(BoundExceededError):
            enumerate_Ih(H2, S_QUAD, 7)

    def test_structured_matches_full_sweep(self):
        for S in (S_QUAD, S_FIVE, PairSet([(1, 2)])):
            h = H3 if S is S_FIVE else H2
            for n in range(S.j(), 8):
                assert enumerate_Ih_structured(h, S, n) == [
                    p.word for p in enumerate_Ih(h, S, n)
                ]

    def test_structured_empty_set(self):
        assert enumerate_Ih_structured(H2, PairSet(), 3) == [(1, 2, 3)]
        assert enumerate_Ih_structured(H2, PairSet(), 3, (2, 2)) == [(1, 2, 3)]
        assert enumerate_Ih_structured(H2, PairSet(), 3, (2, 1)) == []

    def test_sets_leaking_out_of_the_window_list_nothing(self):
        # (1, 4) lies outside the tail-2 window: alone, and beside pairs inside it
        partly = PairSet([(1, 2), (1, 3), (1, 4)])
        for S in (PairSet([(1, 4)]), partly):
            assert enumeration._mask_of(S, H2, 5) is None
            assert enumerate_Ih(H2, S, 5) == []
        assert enumerate_Ih_structured(H2, partly, 5) == []
        assert B_k_set(H2, partly, 5, 3) == []


class TestFiberData:
    def test_t_values(self):
        data = fiber_data(H2, S_QUAD)
        assert data == {(2, 4, 1, 3): 3, (3, 4, 1, 2): 2}
        assert list(data) == sorted(data)  # the lister's order

    def test_constant_t_for_five_pair_set(self):
        assert sorted(fiber_data(H3, S_FIVE).values()) == [5, 5, 5]

    def test_t_of_single(self):
        assert t_of((2, 4, 1, 3), H2, S_QUAD) == 3


class TestBkAndAStar:
    def test_b_k_window_counts(self):
        counts = {k: len(B_k_set(H3, S_FIVE, 8, k)) for k in range(3, 9)}
        assert counts == {3: 0, 4: 0, 5: 0, 6: 0, 7: 3, 8: 6}

    def test_b_k_members_end_correctly(self):
        for w in B_k_set(H3, S_FIVE, 8, 7):
            assert w[7] == 7

    @pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
    def test_b_k_set_is_the_filtered_listing(self, h):
        # every admissible S with j <= 7, and every k from h(m)-m-1 to h(m)+1;
        # at n = h(m)+1 the pinned position is not the last one
        for S in enumerate_admissible(h, 7):
            if not S:
                continue
            m = S.m()
            hm = h.h(m)
            for n in (hm, hm + 1):
                listing = enumerate_Ih_structured(h, S, n)
                for k in range(hm - m - 1, hm + 2):
                    assert B_k_set(h, S, n, k) == [w for w in listing if w[hm - 1] == k]

    def test_b_k_rejects_small_window(self):
        with pytest.raises(InputError):
            B_k_set(H3, S_FIVE, 7, 7)

    def test_a_star_counts(self):
        assert [len(A) for A in A_star_sets(H2, S_QUAD)] == [0, 2, 1]

    def test_a_star_empty_below_zero(self):
        # the sets are indexed k = 0 .. m, so no k < 0 falls through to
        # the A*_0 words
        S = PairSet([(1, 2)])
        sets = A_star_sets(H2, S)
        assert len(sets) == S.m() + 1
        assert len(sets[0]) == 1

    def test_a_star_sets_disjoint_interval_condition(self):
        # members whose high entries form a non-initial subset of
        # [h(m), N] (here {5} instead of {4}) belong to no A*_k
        m, hm = S_QUAD.m(), H2.h(S_QUAD.m())
        sets = [set(A) for A in A_star_sets(H2, S_QUAD)]
        assert sets == [set(), {(2, 4, 1, 3, 5), (3, 4, 1, 2, 5)},
                        {(4, 5, 1, 2, 3)}]
        all_members = {p.word for p in enumerate_Ih(H2, S_QUAD, m + hm - 1)}
        assert all_members - set().union(*sets) == {(2, 5, 1, 3, 4),
                                                    (3, 5, 1, 2, 4)}


class TestAdmissibleGrouping:
    def test_counts_sum_to_factorial(self):
        for n in range(1, 7):
            assert sum(enumerate_admissible(H2, n).values()) == math.factorial(n)

    def test_every_key_admissible(self):
        from invpoly import is_admissible

        for S in enumerate_admissible(H2, 5):
            assert is_admissible(H2, S)

    def test_tail1_n3_partition(self):
        got = {
            S: c for S, c in enumerate_admissible(HSequence((), 1), 3).items()
        }
        # descent-set grouping of S_3: each of the four descent sets, with
        # multiplicities 1, 2, 2, 1
        expect = {
            PairSet(): 1,
            PairSet([(1, 2)]): 2,
            PairSet([(2, 3)]): 2,
            PairSet([(1, 2), (2, 3)]): 1,
        }
        assert got == expect

    def test_classes_equal_validated_pair_sets(self):
        # the classes are built unchecked from the window; they must equal,
        # hash and pickle like sets built through PairSet(...)
        import pickle

        for S in enumerate_admissible(H3, 6):
            rebuilt = PairSet(reversed(S.pairs))
            assert S == rebuilt and hash(S) == hash(rebuilt)
            assert type(S.pairs) is tuple and S.pairs == rebuilt.pairs
            copy = pickle.loads(pickle.dumps(S))
            assert copy == S and hash(copy) == hash(S)


class TestPoincare:
    def test_tail1_n3(self):
        assert poincare(HSequence((), 1), 3) == QPoly((1, 0, 4, 0, 1))

    def test_tail2_n3(self):
        assert poincare(H2, 3) == QPoly((1, 0, 2, 0, 2, 0, 1))

    def test_t_equals_one_gives_factorial(self):
        for n in range(1, 7):
            assert poincare(H2, n).at_one() == math.factorial(n)


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_fiber_data_equals_t_of_per_word(h):
    sets = [S for S in enumerate_admissible(h, 8) if S]
    assert sets
    for S in sets:
        data = fiber_data(h, S)
        assert data == {sigma: t_of(sigma, h, S) for sigma in data}, S
        assert len(data) == len(enumerate_Ih(h, S, S.j())), S


@pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
def test_fiber_counts_are_the_heights_of_the_top_of_T(h):
    # posets.fiber_from_heights against the listing oracle fiber_data: the
    # counts of each t(sigma), from the least t, with no zero between
    for S in (S for S in enumerate_admissible(h, 7) if S):
        counts = posets.fiber_from_heights(h, S)
        assert dict(zip(counts.indices(), counts.values)) == \
            Counter(fiber_data(h, S).values()), S


# seeds 0..19 of random.Random, one h each; n up to 8 reaches splits that
# the corpus windows do not
@pytest.mark.parametrize("seed", range(20))
def test_orientation_theorems_on_random_h(seed):
    # the admissible sets are the acyclic orientations of the window graph,
    # and position i of it adds c_i + 1 of them: prod (c_i + 1) classes,
    # with rank generating function prod [c_i + 1]_t in t^|S|
    h = random_h(random.Random(seed))
    for n in range(1, 9):
        count, rank = 1, [1]
        for i in range(1, n + 1):
            c = min(h.h(i), n) - i
            count *= c + 1
            rank = [sum(rank[e - d] for d in range(c + 1) if 0 <= e - d < len(rank))
                    for e in range(len(rank) + c)]
        classes = enumerate_admissible(h, n)
        assert len(classes) == count, (h, n)
        assert Counter(len(S) for S in classes) == dict(enumerate(rank)), (h, n)


def test_count_routes_list_nothing(monkeypatch):
    # every count route is an order-ideal pass: with both listing kernels
    # refusing, each gives what it gave before, on every corpus set, j <= 6
    routes = (fiber_expansion, b_expansion, a_expansion, b_from_heights,
              degree_of, is_constant)
    sets = [(h, S) for h in CORPUS_H for S in enumerate_admissible(h, 6) if S]
    want = [[route(h, S) for route in routes] for h, S in sets]

    def refuse(*args):
        raise AssertionError(f"a count route listed S_{args[0]}")

    monkeypatch.setattr(kernels, "matching_perms_sorted_suffix", refuse)
    monkeypatch.setattr(kernels, "matching_perms", refuse)
    assert [[route(h, S) for route in routes] for h, S in sets] == want
    assert not hasattr(enumeration, "_listing")


def test_routes_build_no_permutation(monkeypatch):
    # the routes count and grade the listed word tuples; a Permutation is
    # built only at the entry points that return one
    routes = {
        "b_q": lambda: b_q_coefficients(H3, S_FIVE),
        "split": lambda: length_split_check(H3, S_FIVE, 9),
        "fiber": lambda: fiber_expansion(H3, S_FIVE),
        "b": lambda: b_expansion(H3, S_FIVE),
        "a": lambda: a_expansion(H3, S_FIVE),
        "heights": lambda: b_from_heights(H3, S_FIVE),
        "degree": lambda: degree_of(H3, S_FIVE),
        "constant": lambda: is_constant(H3, S_FIVE),
    }
    want = {name: route() for name, route in routes.items()}

    def refuse(self):
        raise AssertionError(f"a route built Permutation {self.word}")

    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    assert {name: route() for name, route in routes.items()} == want
    assert want["split"]
