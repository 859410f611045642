"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with pytest -s, and in the
captured output on failure).  Run just this gate with:

    pytest tests/test_acceptance.py -s
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from redqueue import (
    MeanFieldProblem,
    SimConfig,
    SystemParams,
    decode,
    encode,
    order_stat_tail,
    order_stat_tail_alternating,
    rep_batch_tail,
    run,
    solve_virtual_tail,
    sup_distance,
    tail_exponent,
)
from redqueue.gf import GaloisField


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # build the GF tables and pay first-call costs before any timed section
    order_stat_tail(3, 3, np.array([0.5]))
    params = SystemParams(lam=0.5, n=1, m=1, k=10)
    solve_virtual_tail(MeanFieldProblem(params, t_max=10.0, step=0.1))
    gf = GaloisField.get(256)
    gf.matmul(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))
    gf.solve(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))


# one line per criterion; echoed in the terminal summary by conftest.py
REPORT_LINES = []


def report(num, desc, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {desc} ({elapsed:.2f}s / budget {budget:g}s) {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_order_statistics_identity():
    t0 = time.perf_counter()
    qs = np.arange(101) / 100.0
    worst_norm = 0.0
    worst_agree = 0.0
    for total in range(1, 26):
        for n in range(1, total + 1):
            m = total - n
            worst_norm = max(worst_norm, abs(order_stat_tail(n, m, 1.0) - 1.0))
            stable = order_stat_tail(n, m, qs)
            literal = order_stat_tail_alternating(n, m, qs)
            worst_agree = max(worst_agree, float(np.max(np.abs(stable - literal))))
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-12 and worst_agree <= 1e-10
    report(1, "order-statistics identity and form agreement", ok, elapsed, 1.0,
           f"norm err {worst_norm:.2e}, agreement err {worst_agree:.2e}")


def test_criterion_2_ode_vs_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for lam in (0.3, 0.5, 0.7):
            sol = solve_virtual_tail(MeanFieldProblem(SystemParams(lam=lam, n=1, m=d - 1, k=10)))
            t = sol.virtual_tail.times
            closed = (lam + (1 - lam) * np.exp(t * (d - 1))) ** (-1.0 / (d - 1))
            worst = max(worst, float(np.max(np.abs(sol.virtual_tail.values - closed))))
    elapsed = time.perf_counter() - t0
    report(2, "ODE reproduces replication closed form", worst <= 1e-6, elapsed, 10.0,
           f"sup err {worst:.2e}")


def test_criterion_3_tail_exponents():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, m in ((3, 2), (3, 3), (3, 6)):
        sol = solve_virtual_tail(MeanFieldProblem(SystemParams(lam=0.5, n=n, m=m, k=10)))
        sv = tail_exponent(sol.virtual_tail, (10, 14))
        sb = tail_exponent(sol.batch_tail, (10, 14))
        ok &= -1.05 <= sv <= -0.95
        ok &= sb <= -0.9 * (m + 1)
        details.append(f"(n={n},m={m}): virtual {sv:.3f}, batch {sb:.3f}")
    elapsed = time.perf_counter() - t0
    report(3, "virtual and batch tail exponents", ok, elapsed, 10.0, "; ".join(details))


def test_criterion_4_mm1_sanity():
    t0 = time.perf_counter()
    cfg = SimConfig(
        params=SystemParams(lam=0.5, n=1, m=0, k=200), policy="mds", seed=404,
        horizon=200_000, warmup=10_000, probe_rate=0.1,
    )
    res = run(cfg)
    job_mean = res.batch_samples.mean()
    probe_mean = res.probe_samples.mean()
    grid = np.linspace(1.0, 8.0, 15)
    tails = np.array([np.mean(res.batch_samples > t) for t in grid])
    slope = np.polyfit(grid, np.log(tails), 1)[0]
    ok = (
        abs(job_mean - 2.0) <= 0.04
        and abs(probe_mean - 2.0) <= 0.04
        and abs(slope - (-0.5)) <= 0.05
    )
    elapsed = time.perf_counter() - t0
    report(4, "simulator M/M/1 sanity", ok, elapsed, 60.0,
           f"job mean {job_mean:.4f}, probe mean {probe_mean:.4f}, slope {slope:.4f}")


def test_criterion_5_replication_closed_form():
    t0 = time.perf_counter()
    params = SystemParams(lam=0.5, n=3, d=3, k=1000)
    cfg = SimConfig(params=params, policy="replication", seed=505,
                    horizon=200_000, warmup=10_000, probe_rate=0.0)
    res = run(cfg)
    dist = sup_distance(res.batch_samples, lambda t: rep_batch_tail(params, t))
    band = np.sqrt(np.log(2 / 0.01) / (2 * len(res.batch_samples)))
    elapsed = time.perf_counter() - t0
    report(5, "replication ECDF vs closed form", dist <= 0.02, elapsed, 300.0,
           f"sup dist {dist:.4f} (DKW band {band:.4f}, N={len(res.batch_samples)})")


def test_criterion_6_mds_theory_vs_simulation():
    t0 = time.perf_counter()
    params = SystemParams(lam=0.5, n=3, m=3, k=1000)
    cfg = SimConfig(params=params, policy="mds", seed=606,
                    horizon=200_000, warmup=10_000, probe_rate=0.1)
    res = run(cfg)
    sol = solve_virtual_tail(MeanFieldProblem(params))
    dist_batch = sup_distance(res.batch_samples, lambda t: sol.batch_tail.interp(t))
    dist_probe = sup_distance(res.probe_samples, lambda t: sol.virtual_tail.interp(t))
    ok = dist_batch <= 0.02 and dist_probe <= 0.02
    elapsed = time.perf_counter() - t0
    report(6, "MDS ECDFs vs ODE pipeline", ok, elapsed, 300.0,
           f"batch sup {dist_batch:.4f}, probe sup {dist_probe:.4f} "
           f"(N={len(res.batch_samples)}/{len(res.probe_samples)})")


def test_criterion_7_fig1_qualitative():
    t0 = time.perf_counter()
    grid = np.arange(0.0, 10.0001, 0.01)
    rep = rep_batch_tail(SystemParams(lam=0.5, n=3, d=3, k=10), grid)
    curves = {}
    for m in (3, 4, 5, 6):
        sol = solve_virtual_tail(MeanFieldProblem(SystemParams(lam=0.5, n=3, m=m, k=10)))
        curves[m] = sol.batch_tail.interp(grid)
    diff3 = curves[3] - rep
    signs = np.sign(diff3[np.abs(diff3) > 1e-12])
    crosses = bool(np.any(np.diff(signs) != 0))
    dominated = all(bool(np.all(curves[m] <= rep + 1e-12)) for m in (4, 5, 6))
    elapsed = time.perf_counter() - t0
    report(7, "Fig.1 crossing (m=3) and dominance (m>=4)", crosses and dominated,
           elapsed, 10.0, f"m=3 crosses: {crosses}, m in 4..6 dominated: {dominated}")


def test_criterion_8_codec():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    exhaustive_ok = True
    for n in range(1, 5):
        for m in range(0, 5):
            jobs = [bytes(rng.integers(0, 256, 20, dtype=np.uint8)) for _ in range(n)]
            coded = encode(jobs, m)
            for sub in combinations(range(n + m), n):
                exhaustive_ok &= decode([coded[i] for i in sub]) == jobs
    jobs = [bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for _ in range(4)]
    success = 0
    trials = 10_000
    for trial in range(trials):
        coded = encode(jobs, 4, scheme="random-linear", seed=trial, field_order=65536)
        keep = rng.choice(8, 4, replace=False)
        try:
            success += decode([coded[i] for i in keep]) == jobs
        except ValueError:
            pass
    rate = success / trials
    elapsed = time.perf_counter() - t0
    ok = exhaustive_ok and rate >= 0.999
    report(8, "codec round trips", ok, elapsed, 30.0,
           f"exhaustive bit-exact: {exhaustive_ok}, random-linear rate {rate:.4f}")


def test_criterion_9_replication_as_coding():
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (2, 3):
        mds_res = run(SimConfig(
            params=SystemParams(lam=0.5, n=1, m=d - 1, k=200), policy="mds",
            seed=1000 + d, horizon=110_000, warmup=10_000, probe_rate=0.0,
        ))
        rep_res = run(SimConfig(
            params=SystemParams(lam=0.5, n=1, d=d, k=200), policy="replication",
            seed=2000 + d, horizon=110_000, warmup=10_000, probe_rate=0.0,
        ))
        stat = ks_2samp(mds_res.batch_samples, rep_res.batch_samples)
        ok &= stat.pvalue > 0.01
        details.append(f"d={d}: KS p={stat.pvalue:.3f}")
    elapsed = time.perf_counter() - t0
    report(9, "mds(1,d-1) vs replication(d) indistinguishable", ok, elapsed, 300.0,
           "; ".join(details))
