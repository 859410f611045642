"""Textbook alternating-sum forms, kept as test oracles for the stable kernels.

`redqueue` evaluates the coded-batch tail and the mean-field drift through
the all-positive binomial-tail kernel.  The alternating sums below are the
literal formulas it replaces; they cancel catastrophically in floats for
moderate n, so the tests compare against them only where they can be
evaluated exactly (integer arithmetic) or with compensated summation.
"""

from math import comb, fsum, lcm

import numpy as np

from redqueue.meanfield import MeanFieldProblem
from redqueue.orderstats import _check_counts, _check_prob


def order_stat_tail_alternating(n, m, q):
    """Verbatim alternating-sum order-statistic tail.

    The alternating sum cancels catastrophically in floats for moderate n
    (even with compensated summation), so each evaluation runs in exact
    integer arithmetic on the binary rational q and is rounded once at the
    end.
    """
    _check_counts(n, m)
    arr = _check_prob(q)
    scalar = arr.ndim == 0
    pref = (n + m) * comb(n + m - 1, n - 1)
    denom_lcm = lcm(*range(m + 1, m + n + 1))
    # signed integer coefficient of q^(m+i+1) after clearing denominators
    coefs = [
        (-1 if i & 1 else 1) * comb(n - 1, i) * (denom_lcm // (m + i + 1))
        for i in range(n)
    ]

    def one(qv):
        if qv == 0.0:
            return 0.0
        num, den = float(qv).as_integer_ratio()
        # q^(m+1) * sum_i coefs[i] q^i, with q = num/den, is
        # num^(m+1) * h / den^(m+n) for the homogeneous Horner sum
        # h = sum_i coefs[i] num^i den^(n-1-i)
        h, den_pow = coefs[-1], 1
        for c in reversed(coefs[:-1]):
            den_pow *= den
            h = h * num + c * den_pow
        # int/int division is correctly rounded for arbitrary precision
        return (pref * h * num ** (m + 1)) / (denom_lcm * den_pow * den ** (m + 1))

    out = np.array([one(qv) for qv in np.atleast_1d(arr)])
    return float(out[0]) if scalar else out


def ode_rhs_alternating(problem: MeanFieldProblem, q: float) -> float:
    """Verbatim alternating-sum drift (needs m >= 1)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    n, m = problem.params.n, problem.params.m
    if m < 1:
        raise ValueError("alternating drift form requires m >= 1")
    pref = problem.params.alpha * (n + m - 1) * comb(n + m - 2, n - 1)
    terms = [
        comb(n - 1, i) * (-1) ** i * q ** (m + i + 1) / ((m + i) * (m + i + 1))
        for i in range(n)
    ]
    return -q + pref * fsum(terms)
