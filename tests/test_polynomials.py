import math
import random
from fractions import Fraction

import pytest

from invpoly import (
    BinomialPoly,
    MonomialPoly,
    QPoly,
    binom,
    has_no_internal_zeros,
    is_log_concave,
    q_binom,
    q_seq_strongly_log_concave,
)
from invpoly.errors import InputError

from oracles import is_pf2, q_binom_subset_model, strongly_log_concave, subset_length


class TestBinom:
    def test_matches_math_comb_on_naturals(self):
        for n in range(10):
            for k in range(12):
                assert binom(n, k) == math.comb(n, k)

    def test_polynomial_convention_below_support(self):
        assert binom(-1, 2) == 1
        assert binom(-2, 3) == -4
        assert binom(2, 5) == 0

    def test_negative_k_is_zero(self):
        assert binom(5, -1) == 0

    def test_matches_the_falling_factorial_definition(self):
        for n in range(-30, 31):
            for k in range(-3, 21):
                falling = 1
                for t in range(k):
                    falling *= n - t
                want = falling // math.factorial(k) if k >= 0 else 0
                assert binom(n, k) == want, (n, k)


class TestBinomialPoly:
    def test_normalization_merges_terms(self):
        p = BinomialPoly(((1, 2, 1), (2, 2, 1), (0, 0, 3)))
        assert p.terms == ((3, 2, 1),)

    def test_evaluation(self):
        # C(n-2,2) + C(n-3,1)
        p = BinomialPoly(((1, 2, 2), (1, 3, 1)))
        assert [p(n) for n in range(4, 8)] == [2, 5, 9, 14]

    def test_addition(self):
        p = BinomialPoly(((1, 0, 1),)) + BinomialPoly(((1, 0, 1),))
        assert p.terms == ((2, 0, 1),)

    def test_to_monomial_exact(self):
        # 3*C(n-7,1) + 6 = 3n - 15
        p = BinomialPoly(((3, 7, 1), (6, 0, 0)))
        assert p.to_monomial().coeffs == (Fraction(-15), Fraction(3))

    def test_to_monomial_agrees_with_eval(self):
        def reference(p):
            # each term c/d! * (n-s)...(n-s-d+1) expanded in Fractions
            total = []
            for c, s, d in p.terms:
                poly = [Fraction(c, math.factorial(d))]
                for root in range(s, s + d):
                    poly = [Fraction(0)] + poly
                    for k in range(len(poly) - 1):
                        poly[k] -= root * poly[k + 1]
                total += [Fraction(0)] * (len(poly) - len(total))
                for k, coef in enumerate(poly):
                    total[k] += coef
            return MonomialPoly(tuple(total))

        rng = random.Random(17)
        polys = [
            BinomialPoly(()),
            BinomialPoly(((2, 3, 1), (1, 3, 2), (5, 1, 3))),
            BinomialPoly(((1, -4, 8), (-3, -1, 5), (1, -4, 8), (2, 6, 0))),
        ]
        for _ in range(200):
            polys.append(BinomialPoly(tuple(
                (rng.randint(-9, 9), rng.randint(-6, 9), rng.randint(0, 8))
                for _ in range(rng.randint(0, 6))
            )))
        for p in polys:
            mono = p.to_monomial()
            assert mono == reference(p), p
            for n in range(-5, 15):
                assert mono(n) == p(n), (p, n)

    def test_rejects_negative_degree(self):
        with pytest.raises(InputError):
            BinomialPoly(((1, 0, -1),))


class TestMonomialPoly:
    def test_trims_trailing_zeros(self):
        assert MonomialPoly((Fraction(1), Fraction(0))).coeffs == (Fraction(1),)

    def test_degree_of_zero_poly(self):
        assert MonomialPoly(()).degree() == 0


class TestQPoly:
    def test_arithmetic(self):
        a = QPoly((1, 1))
        assert (a * a) == QPoly((1, 2, 1))
        assert (a - a) == QPoly.zero()
        assert (a + QPoly.monomial(2)) == QPoly((1, 1, 1))

    def test_from_exponents(self):
        assert QPoly.from_exponents([5, 6, 6, 7]) == QPoly(
            (0, 0, 0, 0, 0, 1, 2, 1)
        )

    def test_at_one(self):
        assert QPoly((1, 2, 3)).at_one() == 6


class TestQBinom:
    def test_worked_value(self):
        assert q_binom(5, 2) == QPoly((1, 1, 2, 2, 2, 1, 1))

    def test_out_of_range(self):
        assert q_binom(3, 5) == QPoly.zero()
        assert q_binom(3, -1) == QPoly.zero()

    def test_q_equals_one_is_binomial(self):
        for n in range(9):
            for k in range(n + 1):
                assert q_binom(n, k).at_one() == math.comb(n, k)

    def test_symmetry(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binom(n, k) == q_binom(n, n - k)

    def test_matches_subset_model(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binom(n, k) == q_binom_subset_model(n, k)


class TestSubsetLength:
    def test_worked_values(self):
        # subsets of [2,6]: {2,3} has length 0, {5,6} has length 6
        assert subset_length({2, 3}, 2, 6) == 0
        assert subset_length({5, 6}, 2, 6) == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            subset_length({1, 3}, 2, 6)


class TestSequenceAnalyzers:
    def test_log_concave(self):
        assert is_log_concave((1, 2, 1))
        assert is_log_concave((1, 1, 1))
        assert not is_log_concave((1, 1, 2))

    def test_internal_zeros(self):
        assert has_no_internal_zeros((0, 1, 2, 0))
        assert not has_no_internal_zeros((1, 0, 1))
        assert has_no_internal_zeros(())

    def test_pf2_matches_conjunction(self):
        import itertools

        for seq in itertools.product(range(4), repeat=4):
            expect = is_log_concave(seq) and has_no_internal_zeros(seq)
            assert is_pf2(seq) == expect, seq

    def test_pf2_rejects_negative(self):
        with pytest.raises(InputError):
            is_pf2((1, -1))

    def test_strong_q_log_concavity(self):
        one, q = QPoly.one(), QPoly((0, 1))
        assert q_seq_strongly_log_concave([one, one + q, one])
        # f_0 f_2 - nothing fine, but f_1^2 - f_0 f_2 must be nonnegative
        assert not q_seq_strongly_log_concave([one + q, one, one + q])

    def test_strong_q_log_concavity_matches_qpoly_formula(self):
        rng = random.Random(31)
        seqs = [[q_binom(6, k) for k in range(7)]]
        for _ in range(400):
            seqs.append([
                QPoly(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))))
                for _ in range(rng.randint(0, 5))
            ])
        verdicts = [q_seq_strongly_log_concave(fs) for fs in seqs]
        assert verdicts == [strongly_log_concave(fs) for fs in seqs]
        assert verdicts[0] and verdicts.count(False) > 0

    def test_strong_q_log_concavity_on_shifted_factors(self):
        # factors with long runs of leading zeros, zero factors, and
        # sequences of length 0 and 1, against the plain QPoly products
        def factor(rng):
            if rng.random() < 0.15:
                return QPoly.zero()
            zeros = rng.choice([0, 1, 2, 5, 9])
            return QPoly((0,) * zeros + tuple(
                rng.randint(-1, 3) for _ in range(rng.randint(1, 4))
            ))

        rng = random.Random(1729)
        seqs = [[], [QPoly.zero()], [QPoly.monomial(7)],
                [QPoly.monomial(5, -1), QPoly.one()]]
        for _ in range(2000):
            seqs.append([factor(rng) for _ in range(rng.randint(0, 6))])
        verdicts = [q_seq_strongly_log_concave(fs) for fs in seqs]
        assert verdicts == [strongly_log_concave(fs) for fs in seqs]
        assert verdicts[:4] == [True, True, True, False]
        assert 0 < verdicts.count(False) < len(seqs)

    def test_strong_q_log_concavity_on_packed_edge_cases(self):
        big = 1 << 70
        a = 1 << 40  # f_1 = a(1 + q + q^2), so f_1^2 = a^2 (1, 2, 3, 2, 1)
        f1 = QPoly((a, a, a))

        def third(d):  # f_2 with f_1^2 - f_0 f_2 = d, f_0 = 1
            return f1 * f1 - QPoly(d)

        g = QPoly((big, 3))
        seqs = {
            "empty": ([], True),
            "one zero": ([QPoly.zero()], True),
            "one big": ([QPoly((big, big + 1))], True),
            "one mixed": ([QPoly((1, -1))], False),
            "all zero": ([QPoly.zero()] * 4, True),
            # f_i f_j - f_{i-1} f_{j+1} is exactly zero inside the sequence
            "geometric": ([QPoly.one(), g, g * g, g * g * g], True),
            # a -1 between large positive slots, which borrows from its
            # neighbours once packed
            "borrow": ([QPoly.one(), f1, third((a * a, -1, a * a, 0, 5))], False),
            "no borrow": ([QPoly.one(), f1, third((a * a, 0, a * a, 0, 5))], True),
            "big squares": ([QPoly((big,)), QPoly((big + 1,)), QPoly((big,))], True),
            "big by one": ([QPoly((big,)), QPoly((big,)), QPoly((big + 1,))], False),
        }
        for name, (fs, expect) in seqs.items():
            assert strongly_log_concave(fs) == expect, name
            assert q_seq_strongly_log_concave(fs) == expect, name

        rng = random.Random(2 ** 70)
        for top in (3, 1 << 70):
            verdicts = []
            for _ in range(300):
                fs = [
                    QPoly(tuple(rng.randint(-top, top) for _ in range(rng.randint(0, 4))))
                    for _ in range(rng.randint(0, 4))
                ]
                verdicts.append(q_seq_strongly_log_concave(fs))
                assert verdicts[-1] == strongly_log_concave(fs), fs
            assert 0 < verdicts.count(False) < len(verdicts)
