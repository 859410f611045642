"""Closed-form tail formulas against hand values and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from redqueue import (
    SystemParams,
    mds_leading_term,
    order_stat_tail,
    rep_batch_tail,
    rep_heuristic_tail,
    rep_single_tail,
)

from redqueue.orderstats import MAX_TOTAL

from oracles import order_stat_tail_alternating


def binom_tail_oracle(n, m, q):
    """Independent brute-force oracle: P(at most n-1 of n+m variables <= t)."""
    return sum(
        math.comb(n + m, j) * (1 - q) ** j * q ** (n + m - j) for j in range(n)
    )


class TestRepSingleTail:
    def test_tail_at_zero(self):
        p = SystemParams(lam=0.5, n=1, d=2, k=10)
        assert rep_single_tail(p, 0.0) == 1.0

    def test_hand_value_at_ln3(self):
        # denominator 0.5 + 0.5*3 = 2, exponent d/(d-1) = 2 -> 1/4
        p = SystemParams(lam=0.5, n=1, d=2, k=10)
        assert rep_single_tail(p, math.log(3)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_empty_system_limit(self, d):
        # lam -> 0: min of d unit-rate exponentials, tail e^{-d t}
        p = SystemParams(lam=1e-12, n=1, d=d, k=10)
        for t in (0.3, 1.0, 2.5):
            assert rep_single_tail(p, t) == pytest.approx(math.exp(-d * t), rel=1e-9)

    def test_monotone_in_t(self):
        p = SystemParams(lam=0.7, n=1, d=3, k=10)
        t = np.linspace(0, 20, 200)
        v = rep_single_tail(p, t)
        assert np.all(np.diff(v) <= 0)

    def test_rejects_d1(self):
        p = SystemParams(lam=0.5, n=1, d=1, k=10)
        with pytest.raises(ValueError, match="undefined for d=1"):
            rep_single_tail(p, 1.0)

    def test_rejects_unstable_lambda(self):
        p = SystemParams(lam=1.0, n=1, d=2, k=10)
        with pytest.raises(ValueError, match="unstable"):
            rep_single_tail(p, 1.0)

    def test_no_overflow_at_large_t(self):
        p = SystemParams(lam=0.5, n=1, d=4, k=10)
        assert 0.0 <= rep_single_tail(p, 500.0) < 1e-200


class TestRepBatchTail:
    def test_tail_at_zero(self):
        p = SystemParams(lam=0.5, n=3, d=3, k=10)
        assert rep_batch_tail(p, 0.0) == 1.0

    def test_n1_reduces_to_single(self):
        p = SystemParams(lam=0.5, n=1, d=2, k=10)
        t = np.linspace(0, 10, 101)
        assert np.array_equal(rep_batch_tail(p, t), rep_single_tail(p, t))

    def test_hand_value_n2(self):
        p = SystemParams(lam=0.5, n=2, d=2, k=10)
        assert rep_batch_tail(p, math.log(3)) == pytest.approx(0.4375, abs=1e-12)

    @pytest.mark.parametrize("t", [13.0, 15.0])
    def test_deep_tail_exact(self, t):
        # 1 - (1 - s)^3 in floats returns exactly 0 here
        p = SystemParams(lam=0.5, n=3, d=3, k=10)
        exact = 1 - (1 - Fraction(rep_single_tail(p, t))) ** 3
        assert abs(rep_batch_tail(p, t) - exact) <= 1e-12 * exact


class TestOrderStatTail:
    def test_q_one_is_one(self):
        assert order_stat_tail(3, 4, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_n1_is_minimum(self, m):
        q = 0.37
        assert order_stat_tail(1, m, q) == pytest.approx(q ** (m + 1), abs=1e-15)

    def test_hand_value_2_1(self):
        q = 0.5
        assert order_stat_tail(2, 1, q) == pytest.approx(3 * q**2 - 2 * q**3, abs=1e-14)
        assert order_stat_tail(2, 1, q) == pytest.approx(binom_tail_oracle(2, 1, q))

    @pytest.mark.parametrize("n,m", [(2, 3), (5, 4), (10, 10)])
    def test_matches_brute_force_oracle(self, n, m):
        for q in np.linspace(0, 1, 21):
            assert order_stat_tail(n, m, q) == pytest.approx(
                binom_tail_oracle(n, m, q), abs=1e-12
            )

    @pytest.mark.parametrize("n,m", [(2, 3), (4, 6), (12, 8)])
    def test_matches_incomplete_beta(self, n, m):
        # independent identity: tail of the n-th order statistic = I_q(m+1, n)
        q = np.linspace(0, 1, 41)
        assert order_stat_tail(n, m, q) == pytest.approx(
            betainc(m + 1, n, q), abs=1e-12
        )

    def test_monotone_in_q(self):
        q = np.linspace(0, 1, 101)
        v = order_stat_tail(4, 5, q)
        assert np.all(np.diff(v) >= 0)

    def test_decreasing_in_n_at_fixed_total(self):
        q = 0.6
        total = 9
        vals = [order_stat_tail(n, total - n, q) for n in range(1, total + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_replication_as_coding_reduction(self, d):
        for q in (0.0, 0.2, 0.77, 1.0):
            assert order_stat_tail(1, d - 1, q) == q**d

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            order_stat_tail(2, 1, 1.5)
        with pytest.raises(ValueError):
            order_stat_tail(2, 1, -0.1)
        with pytest.raises(ValueError):
            order_stat_tail(0, 1, 0.5)
        with pytest.raises(ValueError):
            order_stat_tail(1, MAX_TOTAL, 0.5)  # n+m = MAX_TOTAL + 1

    @pytest.mark.parametrize("n, q", [
        (2, 0.9375), (10, 0.75), (500, 0.5), (600, 0.375), (990, 2**-10), (MAX_TOTAL, 2**-10),
    ])
    def test_exact_at_cap(self, n, q):
        exact = float(binom_tail_oracle(n, MAX_TOTAL - n, Fraction(q)))
        assert order_stat_tail(n, MAX_TOTAL - n, q) == pytest.approx(exact, rel=1e-12, abs=0)


class TestAlternatingForm:
    def test_min_example(self):
        assert order_stat_tail_alternating(1, 2, 0.3) == pytest.approx(0.027, abs=1e-15)

    def test_hand_value_2_1(self):
        assert order_stat_tail_alternating(2, 1, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_against_binomial_oracle_3_3(self):
        q = 0.9
        assert order_stat_tail_alternating(3, 3, q) == pytest.approx(
            binom_tail_oracle(3, 3, q), abs=1e-10
        )

    @pytest.mark.parametrize("total", [5, 12, 20, 25])
    def test_form_equivalence(self, total):
        qs = np.linspace(0, 1, 26)
        for n in range(1, total + 1):
            m = total - n
            a = order_stat_tail_alternating(n, m, qs)
            b = order_stat_tail(n, m, qs)
            assert np.max(np.abs(a - b)) < 1e-10


class TestLeadingTerm:
    def test_single_job_no_coding(self):
        for q in (0.0, 0.3, 1.0):
            assert mds_leading_term(1, 0, q) == q

    def test_small_q_accuracy_2_1(self):
        q = 0.01
        exact = order_stat_tail(2, 1, q)
        lead = mds_leading_term(2, 1, q)
        assert lead == pytest.approx(3 * q**2, abs=1e-16)
        assert abs(lead - exact) <= 2 * q**3 + 1e-15

    def test_coefficient_3_3(self):
        q = 0.001
        assert mds_leading_term(3, 3, q) == pytest.approx(15 * q**4, rel=1e-12)
        assert mds_leading_term(3, 3, q) / order_stat_tail(3, 3, q) == pytest.approx(
            1.0, abs=0.01
        )

    def test_ratio_tends_to_one(self):
        for q in (1e-2, 1e-3, 1e-4):
            ratio = mds_leading_term(4, 2, q) / order_stat_tail(4, 2, q)
            assert ratio == pytest.approx(1.0, abs=20 * q)


class TestRepHeuristicTail:
    def test_identity_n1_d1(self):
        for f in (0.0, 0.4, 1.0):
            assert rep_heuristic_tail(1, 1, f) == f

    def test_hand_value(self):
        assert rep_heuristic_tail(2, 2, 0.5) == pytest.approx(0.4375, abs=1e-15)

    def test_leading_term(self):
        f = 0.01
        assert rep_heuristic_tail(3, 3, f) == pytest.approx(3 * f**3, rel=1e-3)

    def test_deep_tail_exact(self):
        exact = 1 - (1 - Fraction(1e-7) ** 3) ** 3
        assert abs(rep_heuristic_tail(3, 3, 1e-7) - exact) <= 1e-12 * exact

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rep_heuristic_tail(2, 2, 1.2)

    def test_mds_beats_replication_in_tail(self):
        # crossing has occurred by q = 1e-3 for (n, d, m) = (3, 3, 3)
        q = 1e-3
        assert mds_leading_term(3, 3, q) <= rep_heuristic_tail(3, 3, q)


class TestSystemParams:
    def test_alpha_recomputed(self):
        p = SystemParams(lam=0.5, n=3, m=3, k=10)
        assert p.alpha == 0.5 * 6 / 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": 0.5, "n": 0},
            {"lam": 0.5, "m": -1},
            {"lam": 0.5, "d": 0},
            {"lam": 0.5, "n": 3, "m": 3, "k": 5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)
