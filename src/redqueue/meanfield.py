"""Mean-field ODE for the virtual-job sojourn tail, and derived batch curves.

The tail q(t) = P(V > t) solves the scalar autonomous ODE dq/dt = f(q),
q(0) = 1, with drift

    f(q) = -q + alpha * [ q * I_q(m, n) - m/(m+n) * I_q(m+1, n) ],

where I_q(a, b) is the regularized incomplete beta function.  I_q(m, n) and
I_q(m+1, n) are the order-statistic tails order_stat_tail(n, m-1, q) and
order_stat_tail(n, m, q) (and I_q(0, n) = 1), so the drift reuses that
all-positive binomial-tail kernel.  Differentiating the bracket recovers
I_q(m, n), whose double integral is exactly the alternating sum in the
textbook drift, so the two forms agree analytically; only this one is
stable for moderate n.  The alternating form lives on as a test oracle in
tests/oracles.py.

The bracket is the integral of I_u(m, n) over [0, q], so f is convex with
f(0) = 0 and f(1) = lam - 1.  For lam < 1 this makes f < 0 on (0, 1]: q
falls monotonically from 1 and the solution is the inverse of

    t(q) = int_q^1 du / |f(u)|,

which the solver evaluates by quadrature rather than by time stepping.
"""

from dataclasses import dataclass

import numpy as np

from .orderstats import order_stat_tail
from .params import SystemParams, TailCurve

# Simpson intervals over the log-tail range s = log q in [-(t_max + 10), 0].
QUAD_INTERVALS = 2_000


class IntegrationError(RuntimeError):
    """Raised when the drift is not finite and negative on the quadrature grid."""


@dataclass(frozen=True)
class MeanFieldProblem:
    """The ODE of `params`, reported on the grid t = 0, step, ..., ~t_max."""

    params: SystemParams
    t_max: float = 15.0
    step: float = 1e-3

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.t_max < self.step:
            raise ValueError(
                f"t_max must be >= step so the grid has two points, got {self.t_max}"
            )


@dataclass
class VirtualTailSolution:
    virtual_tail: TailCurve
    batch_tail: TailCurve
    problem: MeanFieldProblem


def _drift(params: SystemParams, q):
    """Drift f(q) for a scalar or an array of levels q in [0, 1]."""
    n, m = params.n, params.m
    i_m = order_stat_tail(n, m - 1, q) if m else 1.0
    return -q + params.alpha * (q * i_m - m / (n + m) * order_stat_tail(n, m, q))


def ode_rhs(problem: MeanFieldProblem, q: float) -> float:
    """Drift of the virtual-job tail at level q (stable evaluation)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return float(_drift(problem.params, q))


def solve_virtual_tail(problem: MeanFieldProblem) -> VirtualTailSolution:
    """Solve the ODE from q(0)=1 by exact quadrature of its inverse.

    In s = log q the inverse reads t(s) = int_s^0 g, with g = q / |f(q)|
    smooth and g >= 1 (as 0 < -f(q) <= q), so the range s in
    [-(t_max + 10), 0] reaches past t_max.  Composite Simpson tabulates t(s)
    there, and cubic Hermite interpolation with the exact slope
    ds/dt = -1/g maps it back onto the output grid.  If f(1) = lam - 1 >= 0,
    q stays at 1.

    Returns both the virtual-job tail and the coded-batch tail obtained by
    mapping the order-statistic tail over it pointwise.
    """
    params = problem.params
    times = np.arange(int(round(problem.t_max / problem.step)) + 1) * problem.step
    if _drift(params, 1.0) >= 0:
        values = np.ones_like(times)
    else:
        values = np.exp(_log_tail(params, problem.t_max + 10.0, times))
    virtual = TailCurve(times, values)
    batch = TailCurve(times, order_stat_tail(params.n, params.m, values))
    return VirtualTailSolution(virtual_tail=virtual, batch_tail=batch, problem=problem)


def _log_tail(params: SystemParams, span: float, times):
    """s = log q at `times`, all below t(-span); needs f(1) < 0."""
    t, s, g = _inverse_table(params, span)
    # cubic Hermite coefficients per interval, in x = (t - t_k) / dt_k
    dt, rise = np.diff(t), np.diff(s)
    d0, d1 = -dt / g[:-1], -dt / g[1:]
    c2, c3 = 3 * rise - 2 * d0 - d1, d0 + d1 - 2 * rise
    k = np.minimum(np.searchsorted(t, times, side="right") - 1, QUAD_INTERVALS - 1)
    x = (times - t[k]) / dt[k]
    return ((c3[k] * x + c2[k]) * x + d0[k]) * x + s[k]


def _inverse_table(params: SystemParams, span: float):
    """Nodes (t, s, g) of t(s) = int_s^0 g on [-span, 0], by composite Simpson."""
    # Nodes s = -span * u**3 for uniform u crowd towards q = 1, where g
    # falls from 1/(1 - lam) to O(1) within |s| ~ (1 - lam)/(alpha - 1).
    # Uniform nodes in s left a 7e-3 error at lam = 0.999 even with 10,000
    # intervals; these leave 4e-12.  Interval ends are u[::2], Simpson
    # midpoints u[1::2].
    u = np.linspace(0.0, 1.0, 2 * QUAD_INTERVALS + 1)
    s = -span * u**3
    q = np.exp(s)
    f = _drift(params, q)
    bad = np.flatnonzero(~(f < 0))
    if bad.size:
        raise IntegrationError(
            f"drift f(q) = {float(f[bad[0]])!r} at q = {float(q[bad[0]])!r}; "
            "the quadrature needs a finite f < 0 on (0, 1]"
        )
    g = q / -f
    dt_du = g * 3 * span * u**2
    t = np.concatenate((
        [0.0],
        np.cumsum((dt_du[:-2:2] + 4 * dt_du[1::2] + dt_du[2::2]) / (6 * QUAD_INTERVALS)),
    ))
    return t, s[::2], g[::2]


def tail_exponent(curve: TailCurve, window) -> float:
    """Least-squares slope of log(tail) versus t over [window[0], window[1]]."""
    lo, hi = window
    if lo < curve.times[0] or hi > curve.times[-1] or lo >= hi:
        raise ValueError(f"window {window} must lie inside the curve grid")
    mask = (curve.times >= lo) & (curve.times <= hi)
    t = curve.times[mask]
    v = curve.values[mask]
    if t.size < 2:
        raise ValueError("window contains fewer than two grid points")
    if np.any(v <= 0):
        raise ValueError("curve must be strictly positive on the window")
    slope, _ = np.polyfit(t, np.log(v), 1)
    return float(slope)
