"""Mean-field ODE: drift forms, integration accuracy, tail exponents."""

import numpy as np
import pytest
from scipy.special import betainc

import redqueue.meanfield as mf
from redqueue import (
    IntegrationError,
    MeanFieldProblem,
    SystemParams,
    TailCurve,
    ode_rhs,
    order_stat_tail,
    solve_virtual_tail,
    tail_exponent,
)
from redqueue.orderstats import MAX_TOTAL

from oracles import ode_rhs_alternating


def problem(lam, n, m, t_max=15.0, step=1e-3):
    return MeanFieldProblem(SystemParams(lam=lam, n=n, m=m, k=1000), t_max=t_max, step=step)


def replication_closed_form(lam, d, t):
    # (lam + (1 - lam) e^{t (d-1)})^{-1/(d-1)} in log space: e^{t (d-1)} overflows for large d
    return np.exp(-np.logaddexp(np.log(lam), np.log1p(-lam) + t * (d - 1)) / (d - 1))


class TestDrift:
    def test_absorbing_at_zero(self):
        assert ode_rhs(problem(0.5, 3, 3), 0.0) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_replication_reduction(self, d):
        # n=1, m=d-1: drift collapses to -q + lam * q^d
        lam = 0.4
        prob = problem(lam, 1, d - 1)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert ode_rhs(prob, q) == pytest.approx(-q + lam * q**d, abs=1e-13)

    def test_hand_value_n1_m1(self):
        assert ode_rhs(problem(0.5, 1, 1), 1.0) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 3), (5, 2), (4, 6)])
    def test_matches_alternating_oracle(self, n, m):
        prob = problem(0.5, n, m)
        for q in np.linspace(0, 1, 21):
            assert ode_rhs(prob, q) == pytest.approx(
                ode_rhs_alternating(prob, q), abs=1e-11
            )

    @pytest.mark.parametrize("n,m", [(3, 2), (6, 4)])
    def test_matches_incomplete_beta_form(self, n, m):
        prob = problem(0.5, n, m)
        alpha = prob.params.alpha
        for q in np.linspace(0, 1, 11):
            expected = -q + alpha * (
                q * betainc(m, n, q) - m / (m + n) * betainc(m + 1, n, q)
            )
            assert ode_rhs(prob, q) == pytest.approx(expected, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ode_rhs(problem(0.5, 2, 2), 1.2)


class TestSolve:
    def test_initial_condition(self):
        sol = solve_virtual_tail(problem(0.5, 3, 2))
        assert sol.virtual_tail.values[0] == 1.0
        assert sol.batch_tail.values[0] == 1.0

    @pytest.mark.parametrize(
        "d,lam", [(2, 0.5), (3, 0.7), (4, 0.3), (MAX_TOTAL, 0.5), (MAX_TOTAL, 0.9)]
    )
    def test_replication_closed_form(self, d, lam):
        sol = solve_virtual_tail(problem(lam, 1, d - 1))
        t = sol.virtual_tail.times
        closed = replication_closed_form(lam, d, t)
        assert np.max(np.abs(sol.virtual_tail.values - closed)) <= 1e-6

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_redundancy_is_mm1(self, n):
        # m=0: f(q) = (lam - 1) q, the M/M/1 sojourn tail e^{-(1-lam)t}
        sol = solve_virtual_tail(problem(0.6, n, 0))
        t = sol.virtual_tail.times
        assert np.max(np.abs(sol.virtual_tail.values - np.exp(-0.4 * t))) <= 1e-12

    def test_value_at_ln3(self):
        sol = solve_virtual_tail(problem(0.5, 1, 1))
        assert sol.virtual_tail.interp(np.log(3)) == pytest.approx(0.5, abs=1e-6)

    def test_batch_below_virtual_in_tail(self):
        # The 3rd-of-6 order-statistic tail sits above q near q=1 and below
        # it for small q (brute force locates the crossing near 0.69), so
        # the batch curve drops below the virtual curve once the virtual
        # tail has decayed past the crossing, and stays below.
        q = np.linspace(0.001, 0.65, 200)
        assert np.all(order_stat_tail(3, 3, q) < q)
        sol = solve_virtual_tail(problem(0.5, 3, 3))
        mask = sol.virtual_tail.values < 0.65
        assert mask.any()
        assert np.all(
            sol.batch_tail.values[mask] <= sol.virtual_tail.values[mask] + 1e-15
        )

    def test_composition_invariant(self):
        sol = solve_virtual_tail(problem(0.6, 2, 2))
        recomposed = order_stat_tail(2, 2, sol.virtual_tail.values)
        assert np.array_equal(sol.batch_tail.values, recomposed)

    @pytest.mark.parametrize(
        "n,m,lam",
        [(3, 1, 0.5), (4, 1, 0.6), (2, 1, 0.4), (3, 4, 0.5), (3, 5, 0.5), (3, 6, 0.5)],
    )
    def test_monotone_and_bounded_in_stable_regime(self, n, m, lam):
        prob = problem(lam, n, m, t_max=10.0)
        assert prob.params.lam < 1
        sol = solve_virtual_tail(prob)
        for curve in (sol.virtual_tail, sol.batch_tail):
            assert np.all(curve.values >= 0)
            assert np.all(curve.values <= 1)
            assert np.all(np.diff(curve.values) <= 1e-12)

    def test_quadrature_convergence_order(self, monkeypatch):
        # Simpson and cubic Hermite are both fourth order in the node spacing
        sols = {}
        for intervals in (250, 500, 1000):
            monkeypatch.setattr(mf, "QUAD_INTERVALS", intervals)
            sols[intervals] = solve_virtual_tail(problem(0.5, 3, 3)).virtual_tail.values
        d1 = np.max(np.abs(sols[250] - sols[500]))
        d2 = np.max(np.abs(sols[500] - sols[1000]))
        order = np.log2(d1 / d2)
        assert order >= 3.5

    @pytest.mark.parametrize("n,m,lam", [(3, 3, 0.5), (4, 2, 0.9), (2, 5, 0.3)])
    def test_solution_satisfies_ode(self, n, m, lam):
        # central differences of the returned curve against the drift itself
        prob = problem(lam, n, m)
        sol = solve_virtual_tail(prob)
        t, q = sol.virtual_tail.times, sol.virtual_tail.values
        slope = (q[2:] - q[:-2]) / (t[2:] - t[:-2])
        drift = np.array([ode_rhs(prob, v) for v in q[1:-1:50]])
        assert np.max(np.abs(slope[::50] - drift)) <= 1e-6

    def test_coded_load_above_one_solves_quietly(self, recwarn):
        # stability is lam < 1; a coded load alpha = lam*(n+m)/n >= 1 is not a boundary
        prob = problem(0.5, 3, 6)
        assert prob.params.alpha == 1.5
        sol = solve_virtual_tail(prob)
        assert not recwarn.list
        assert np.all(np.diff(sol.virtual_tail.values) < 0)

    def test_integration_failure_diagnostic(self, monkeypatch):
        def broken(params, q):
            f = -np.asarray(q, dtype=float)
            return np.where(f < -0.5, f, np.nan) if f.ndim else f

        monkeypatch.setattr(mf, "_drift", broken)
        with pytest.raises(IntegrationError, match=r"drift f\(q\) = nan at q = 0\.49"):
            solve_virtual_tail(problem(0.5, 3, 1))

    def test_overload_stays_at_one(self):
        # lam >= 1 makes f(1) = lam - 1 >= 0, so the tail never leaves 1
        prob = problem(1.2, 3, 3)
        assert ode_rhs(prob, 1.0) == pytest.approx(0.2, abs=1e-14)
        sol = solve_virtual_tail(prob)
        assert np.all(sol.virtual_tail.values == 1.0)
        assert np.all(sol.batch_tail.values == 1.0)


class TestExponents:
    def test_synthetic_exponential(self):
        t = np.linspace(0, 10, 1001)
        curve = TailCurve(t, np.exp(-2 * t))
        assert tail_exponent(curve, (0, 10)) == pytest.approx(-2.0, abs=1e-9)

    def test_virtual_exponent_n1_m1(self):
        sol = solve_virtual_tail(problem(0.5, 1, 1))
        slope = tail_exponent(sol.virtual_tail, (8, 12))
        assert -1.05 <= slope <= -0.95

    def test_batch_exponent_n1_m1(self):
        sol = solve_virtual_tail(problem(0.5, 1, 1))
        slope = tail_exponent(sol.batch_tail, (8, 12))
        assert -2.1 <= slope <= -1.9

    def test_window_outside_grid(self):
        t = np.linspace(0, 5, 100)
        curve = TailCurve(t, np.exp(-t))
        with pytest.raises(ValueError, match="window"):
            tail_exponent(curve, (3, 9))

    def test_zero_values_rejected(self):
        t = np.linspace(0, 5, 100)
        v = np.exp(-t)
        v[-10:] = 0.0
        curve = TailCurve(t, v)
        with pytest.raises(ValueError, match="positive"):
            tail_exponent(curve, (4, 5))


class TestProblemValidation:
    def test_step_positive(self):
        with pytest.raises(ValueError, match="step"):
            MeanFieldProblem(SystemParams(lam=0.5, n=1, m=1, k=10), step=0)

    def test_horizon_long_enough(self):
        with pytest.raises(ValueError, match="t_max"):
            MeanFieldProblem(SystemParams(lam=0.5, n=1, m=1, k=10), t_max=0.05, step=0.1)

    def test_short_horizon_accepted(self):
        prob = MeanFieldProblem(SystemParams(lam=0.5, n=1, m=1, k=10), t_max=1.0)
        assert solve_virtual_tail(prob).virtual_tail.times.size == 1001

    def test_total_capped(self):
        # the kernel holds the only n+m check, and every solve evaluates it
        prob = MeanFieldProblem(SystemParams(lam=0.5, n=1, m=MAX_TOTAL, k=MAX_TOTAL + 1))
        with pytest.raises(ValueError, match=r"n\+m"):
            solve_virtual_tail(prob)
