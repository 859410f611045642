"""Closed-form tail formulas for replication and coded-batch completion.

The coded-batch tail (n-th smallest of n+m i.i.d. sojourns) is evaluated
through the binomial-tail form

    P(order stat > t) = sum_{j=0}^{n-1} C(n+m, j) (1-q)^j q^(n+m-j),

which is free of the catastrophic cancellation that plagues the textbook
alternating sum for moderate n.  The alternating sum lives on, evaluated
exactly, as a test oracle in tests/oracles.py.
"""

from math import comb

import numpy as np

from .params import SystemParams

# C(n+m, j) stays finite in a double up to n+m = 1029, and the all-positive
# sum has no cancellation: at n+m = 1000 it matches exact rational sums to
# ~4e-14 relative.  A term whose q-power factor underflows is lost; at
# n+m = 1000 such terms are below 1e-62, so only tails that small can lose
# their relative accuracy.
MAX_TOTAL = 1000


def _check_prob(q, name="q"):
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _check_counts(n, m):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n + m > MAX_TOTAL:
        raise ValueError(f"n+m must be <= {MAX_TOTAL}, got {n + m}")


def _binom_lower_tail(q, coefs, total):
    # sum_{j < len(coefs)} C(total, j) (1-q)^j q^(total-j), elementwise.
    out = np.zeros_like(q)
    for j in range(coefs.shape[0]):
        out += coefs[j] * (1.0 - q) ** j * q ** (total - j)
    return out


def order_stat_tail(n, m, q):
    """Tail of the n-th smallest of n+m i.i.d. variables with per-variable tail q.

    Accepts a scalar or array q; returns the same shape.
    """
    _check_counts(n, m)
    arr = _check_prob(q)
    if n == 1:
        # minimum of m+1 variables; keep q**(m+1) bit-identical to the
        # replication-as-coding reduction
        out = arr ** (m + 1)
        return float(out) if arr.ndim == 0 else out
    scalar = arr.ndim == 0
    coefs = np.array([comb(n + m, j) for j in range(n)], dtype=float)
    out = _binom_lower_tail(np.atleast_1d(arr), coefs, n + m)
    return float(out[0]) if scalar else out


def mds_leading_term(n, m, q):
    """Leading term of the coded-batch tail as q -> 0."""
    _check_counts(n, m)
    arr = _check_prob(q)
    return (n + m) * comb(n + m - 1, n - 1) / (m + 1) * arr ** (m + 1)


def _any_of(n, s):
    """1 - (1 - s)^n as s * sum_{j<n} (1 - s)^j, free of cancellation for tiny s."""
    acc = 1.0
    for _ in range(n - 1):
        acc = 1.0 + (1.0 - s) * acc
    return s * acc


def rep_heuristic_tail(n, d, fbar):
    """Heuristic batch tail under replication: 1 - (1 - fbar^d)^n."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    arr = _check_prob(fbar, "fbar")
    return _any_of(n, arr**d)


def _check_rep_params(params: SystemParams):
    if params.d == 1:
        raise ValueError("formula undefined for d=1")
    if params.lam >= 1:
        raise ValueError(f"unstable regime: lam={params.lam} >= 1")


def rep_single_tail(params: SystemParams, t):
    """Stationary completion-time tail of one replicated job (d >= 2 copies).

    P(> t) = (lam + (1-lam) e^{t(d-1)})^(-d/(d-1)), evaluated in log space
    so that large t does not overflow.
    """
    _check_rep_params(params)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("t must be >= 0")
    d, lam = params.d, params.lam
    log_denom = np.logaddexp(np.log(lam), np.log1p(-lam) + tt * (d - 1))
    out = np.exp(-d / (d - 1) * log_denom)
    return float(out) if tt.ndim == 0 else out


def rep_batch_tail(params: SystemParams, t):
    """Stationary batch tail under replication: 1 - (1 - single_tail)^n."""
    return _any_of(params.n, rep_single_tail(params, t))
