import concurrent.futures
import os

import pytest

from invpoly import graded
from invpoly import (
    HSequence,
    PairSet,
    QPoly,
    b_expansion,
    b_q_coefficients,
    enumerate_Ih,
    graded_expansion_eval,
    verify_conjecture,
)
from invpoly.enumeration import graded_Ih_oracle
from invpoly.errors import (
    BelowValidityFloorError,
    InadmissibleSetError,
    InputError,
    RouteDisagreementError,
)

import oracles
from oracles import length_split_check

H2 = HSequence((), 2)
H3 = HSequence((), 3)
S_FIVE = PairSet([(3, 4), (3, 5), (3, 6), (4, 6), (5, 6)])
S_POSET = PairSet([(1, 3), (2, 3), (2, 4), (3, 4)])


class TestGradedOracle:
    def test_worked_value(self):
        assert graded_Ih_oracle(H2, S_POSET, 5) == QPoly(
            (0, 0, 0, 0, 0, 1, 1, 1)
        )

    def test_q_one_is_count(self):
        for n in range(5, 9):
            assert graded_Ih_oracle(H2, S_POSET, n).at_one() == len(
                enumerate_Ih(H2, S_POSET, n)
            )


class TestGradedCoefficients:
    def test_worked_b_q(self):
        ge = b_q_coefficients(H3, S_FIVE)
        assert ge.coeff(7) == QPoly((0,) * 7 + (1, 1, 1))
        assert ge.coeff(8) == QPoly((0,) * 5 + (1, 2, 2, 1))
        for k in range(3, 7):
            assert ge.coeff(k) == QPoly.zero()

    def test_q_one_recovers_b(self):
        ge = b_q_coefficients(H3, S_FIVE)
        b = b_expansion(H3, S_FIVE).coeffs
        for k in ge.indices():
            assert ge.coeff(k).at_one() == b[k]

    def test_rejects_empty_or_inadmissible(self):
        with pytest.raises(InadmissibleSetError):
            b_q_coefficients(H2, PairSet())

    def test_coeff_outside_indices_raises(self):
        ge = b_q_coefficients(H2, PairSet([(1, 2)]))
        assert ge.indices() == range(2, 4)
        for k in (0, 1, 4):
            with pytest.raises(IndexError):
                ge.coeff(k)


class TestGradedExpansion:
    def test_matches_oracle_at_and_above_floor(self):
        ge = b_q_coefficients(H3, S_FIVE)
        for n in range(8, 10):
            assert graded_expansion_eval(ge, n) == graded_Ih_oracle(
                H3, S_FIVE, n
            )

    def test_floor_enforced(self):
        ge = b_q_coefficients(H3, S_FIVE)
        with pytest.raises(BelowValidityFloorError):
            graded_expansion_eval(ge, 7)

    def test_below_floor_value_genuinely_differs(self):
        # at n = 6 the oracle gives q^5+q^6+q^7; the formula does not
        oracle = graded_Ih_oracle(H3, S_FIVE, 6)
        assert oracle == QPoly((0, 0, 0, 0, 0, 1, 1, 1))
        ge = b_q_coefficients(H3, S_FIVE)
        formula_at_6 = QPoly.zero()
        from invpoly.polynomials import q_binom

        for k in ge.indices():
            formula_at_6 = formula_at_6 + ge.coeff(k) * q_binom(6 - k, 8 - k)
        assert formula_at_6 != oracle


class TestLengthSplit:
    def test_holds_on_examples(self):
        assert length_split_check(H3, S_FIVE, 8)
        assert length_split_check(H2, S_POSET, 7)

    def test_rejects_window_below_h_of_m(self):
        with pytest.raises(InputError):
            length_split_check(H3, S_FIVE, 7)

    def test_fails_on_a_word_whose_length_does_not_split(self, monkeypatch):
        # reversing a word's sorted tail adds inversions that neither the
        # flattened window nor the subset length counts
        hm, n = H2.h(S_POSET.m()), 7  # the tail has n - h(m) = 2 entries
        word = oracles.enumerate_Ih_structured(H2, S_POSET, n)[0]
        forged = word[:hm] + word[hm:][::-1]
        monkeypatch.setattr(oracles, "enumerate_Ih_structured", lambda h, S, n: [forged])
        assert not length_split_check(H2, S_POSET, n)


class TestVerifyConjecture:
    def test_small_sweep_clean(self):
        report = verify_conjecture(H2, 5)
        assert report.ok
        assert report.checked > 0
        assert report.to_json()["violations"] == []

    def test_parallel_matches_serial(self):
        serial = verify_conjecture(H2, 5, jobs=1)
        parallel = verify_conjecture(H2, 5, jobs=2)
        assert serial.checked == parallel.checked
        assert serial.violations == parallel.violations

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(InputError):
            verify_conjecture(H2, 4, jobs=jobs)

    @pytest.mark.parametrize("jobs, cpus, pools", [
        (100_000, 4, [4]),
        (3, 4, [3]),
        (100_000, None, []),  # cpu count unknown: one process, no pool
    ])
    def test_workers_capped_at_cpu_count(self, monkeypatch, jobs, cpus, pools):
        made, chunks = [], []

        class RecordingPool:
            """Records max_workers and chunksize, and runs the map
            in-process; starts nothing."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunks.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = verify_conjecture(H2, 5, jobs=jobs)
        assert made == pools and len(chunks) == len(pools)
        for workers, chunk in zip(pools, chunks):
            assert report.checked > 4 * workers  # enough sets to chunk
            assert chunk > 1  # one set per round trip is slower than serial
        serial = verify_conjecture(H2, 5)
        assert (report.checked, report.violations) == (serial.checked, serial.violations)

    def test_vanished_violation_is_a_route_disagreement(self, monkeypatch):
        monkeypatch.setattr(graded, "q_seq_strongly_log_concave", lambda seq: False)
        with pytest.raises(RouteDisagreementError):
            verify_conjecture(H2, 4)
