import itertools
import random

import pytest

from invpoly import (
    HSequence,
    PairSet,
    Permutation,
    inv_h,
    is_admissible,
    possible_pairs,
)
from invpoly.errors import InadmissibleSetError, InputError, InvpolyError
from invpoly.model import length

from conftest import CORPUS_H, h_id
from oracles import flatten


class TestHSequence:
    def test_tail_values(self):
        h = HSequence((), 2)
        assert [h.h(i) for i in range(1, 6)] == [3, 4, 5, 6, 7]

    def test_prefix_then_tail(self):
        h = HSequence((2, 4, 4, 5), 1)
        assert [h.h(i) for i in range(1, 8)] == [2, 4, 4, 5, 6, 7, 8]

    def test_rejects_h_not_above_index(self):
        with pytest.raises(InputError):
            HSequence((2, 2), 1)

    def test_rejects_decreasing(self):
        with pytest.raises(InputError):
            HSequence((4, 3), 1)

    def test_rejects_seam_drop(self):
        # prefix ends at 9 but the tail would continue at h(3) = 4
        with pytest.raises(InputError):
            HSequence((9, 9), 1)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(InputError):
            HSequence((), 0)

    @pytest.mark.parametrize(
        "prefix, tail", [((2.5,), 1), ((3.0,), 1), ((), 1.5), ((), True)]
    )
    def test_rejects_non_integer_values(self, prefix, tail):
        with pytest.raises(InputError):
            HSequence(prefix, tail)

    def test_json_round_trip(self):
        h = HSequence((3, 4, 6, 7, 7), 2)
        assert HSequence.from_json(h.to_json()) == h


class TestPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            Permutation((1, 1, 2))

    def test_length_counts_inversions(self):
        assert Permutation((4, 5, 2, 3, 1)).length() == 8
        assert Permutation((1, 2, 3, 4, 5)).length() == 0

    def test_length_of_a_word_of_any_distinct_values(self):
        # the windows that length_split_check measures are not permutations
        for word in itertools.permutations((2, 3, 5, 8, 9)):
            want = sum(a > b for i, a in enumerate(word) for b in word[i + 1:])
            assert length(word) == want

    def test_inversions(self):
        assert Permutation((3, 1, 2)).inversions() == PairSet([(1, 2), (1, 3)])

    def test_flatten_preserves_relative_order(self):
        assert flatten(Permutation((4, 5, 2, 3, 1)), 3).word == (2, 3, 1)

    def test_inverse(self):
        pi = Permutation((3, 4, 2, 1, 5))
        assert pi.inverse().word == (4, 3, 1, 2, 5)
        assert pi.inverse().inverse() == pi

    def test_str(self):
        assert str(Permutation((2, 4, 1, 3))) == "2413"
        assert str(Permutation(tuple(range(1, 11)))) == "1.2.3.4.5.6.7.8.9.10"


class TestPairSet:
    def test_canonical_order_and_dedup(self):
        S = PairSet([(2, 3), (1, 2), (2, 3)])
        assert S.pairs == ((1, 2), (2, 3))

    def test_rejects_bad_pairs(self):
        with pytest.raises(InputError):
            PairSet([(3, 2)])
        with pytest.raises(InputError):
            PairSet([(0, 2)])

    def test_j_and_m(self):
        S = PairSet([(1, 3), (2, 3), (2, 4)])
        assert S.j() == 4
        assert S.m() == 2

    def test_j_undefined_for_empty(self):
        with pytest.raises(InputError):
            PairSet().j()

    def test_m_requires_a_descent(self):
        with pytest.raises(InadmissibleSetError):
            PairSet([(1, 3)]).m()

    def test_m_is_the_largest_descent(self):
        # against the list of descents that m() used to build on every call
        rng = random.Random("PairSet.m")
        seen = {"empty": 0, "no descent": 0, "descent": 0}
        for _ in range(3000):
            n = rng.randint(2, 9)
            pool = list(itertools.combinations(range(1, n + 1), 2))
            if rng.random() < 0.4:  # descent-free sets, the empty one too
                pool = [(i, j) for i, j in pool if j > i + 1]
            S = PairSet(rng.sample(pool, rng.randint(0, min(len(pool), 12))))
            descents = [i for i, j in S if j == i + 1]
            if descents:
                seen["descent"] += 1
                assert S.m() == max(descents), S
                continue
            seen["no descent" if S else "empty"] += 1
            with pytest.raises(InvpolyError) as exc:
                S.m()
            assert exc.type is (InadmissibleSetError if S else InputError), S
        assert min(seen.values()) >= 100, seen

    def test_immutable_and_hashable(self):
        S = PairSet([(1, 2)])
        with pytest.raises(AttributeError):
            S.pairs = ()
        assert S in {PairSet([(1, 2)])}

    def test_json_round_trip(self):
        S = PairSet([(1, 3), (2, 3)])
        assert PairSet.from_json(S.to_json()) == S


class TestPairSetIsItsSortedTuple:
    S = PairSet([(2, 4), (1, 3), (2, 3)])

    def test_is_the_plain_tuple_of_its_pairs(self):
        assert isinstance(self.S, tuple)
        assert self.S == ((1, 3), (2, 3), (2, 4)) == self.S.pairs
        assert hash(self.S) == hash(((1, 3), (2, 3), (2, 4)))
        assert type(self.S.pairs) is tuple

    def test_sorts_like_its_pairs(self):
        window = possible_pairs(HSequence((), 2), 4)
        sets = [
            PairSet(c)
            for r in range(len(window) + 1)
            for c in itertools.combinations(reversed(window), r)
        ]
        assert sorted(sets) == sorted(sets, key=lambda S: S.pairs)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.S.pairs = ()
        with pytest.raises(AttributeError):
            self.S.extra = 1

    def test_pickles_at_every_protocol(self):
        import pickle

        # protocols 0 and 1 rebuild through copyreg, not through __new__
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(self.S, protocol))
            assert type(copy) is PairSet and copy == self.S

    def test_membership_of_an_unhashable_value(self):
        assert (1, 3) in self.S
        assert [1, 3] not in self.S

    def test_still_validates(self):
        with pytest.raises(InputError):
            PairSet([(2, 1)])
        with pytest.raises(InputError):
            PairSet([(0, 2)])


class TestWindowAndInversions:
    def test_possible_pairs_tail1_is_descent_pairs(self):
        assert possible_pairs(HSequence((), 1), 4).pairs == (
            (1, 2), (2, 3), (3, 4)
        )

    def test_possible_pairs_respects_prefix(self):
        got = possible_pairs(HSequence((2, 4, 4, 5), 1), 5).pairs
        assert got == ((1, 2), (2, 3), (2, 4), (3, 4), (4, 5))

    def test_inv_h_restricts_inversions(self):
        h = HSequence((), 2)
        pi = Permutation((4, 5, 2, 3, 1))
        assert inv_h(h, pi) == PairSet(
            [(1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
        )

    def test_inv_h_tail1_is_descent_set(self):
        h = HSequence((), 1)
        pi = Permutation((3, 1, 4, 2))
        assert inv_h(h, pi) == PairSet([(1, 2), (3, 4)])

    @pytest.mark.parametrize("h", CORPUS_H, ids=h_id)
    def test_inv_h_is_the_all_pairs_definition(self, h):
        # every inversion (i, j) with j <= h(i), read off all pairs i < j;
        # n = 0 is included, where the window is undefined
        rng = random.Random(7)
        for n in range(10):
            for _ in range(12):
                word = tuple(rng.sample(range(1, n + 1), n))
                want = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
                        if word[i - 1] > word[j - 1] and j <= h.h(i)]
                got = inv_h(h, Permutation(word))
                assert isinstance(got, PairSet)
                assert got.pairs == tuple(want), (n, word)


class TestAdmissibility:
    def test_empty_set_admissible(self):
        assert is_admissible(HSequence((), 2), PairSet())

    def test_realized_set_admissible(self):
        h = HSequence((), 2)
        S = inv_h(h, Permutation((4, 5, 2, 3, 1)))
        assert is_admissible(h, S)

    def test_set_outside_window_inadmissible(self):
        # (1, 4) is not a possible pair when h(1) = 3
        assert not is_admissible(HSequence((), 2), PairSet([(1, 4)]))

    def test_closure_failure_inadmissible(self):
        # (1,2), (2,3) in S force (1,3) when h(1) >= 3
        h = HSequence((), 2)
        assert not is_admissible(h, PairSet([(1, 2), (2, 3)]))
        assert is_admissible(h, PairSet([(1, 2), (2, 3), (1, 3)]))

    def test_complement_closure_failure_inadmissible(self):
        # complement holds (1,2), (2,3) but not (1,3)
        h = HSequence((), 2)
        assert not is_admissible(h, PairSet([(1, 3)]))
