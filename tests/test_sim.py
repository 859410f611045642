"""Discrete-event simulator against closed-form queueing oracles."""

import numpy as np
import pytest

from redqueue import (
    SimConfig,
    SystemParams,
    ecdf_tail,
    rep_single_tail,
    run,
    sup_distance,
)


def mm1_cfg(**kw):
    base = dict(
        params=SystemParams(lam=0.5, n=1, m=0, k=50),
        policy="mds",
        seed=42,
        horizon=20_000,
        warmup=2_000,
        probe_rate=0.2,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_k_too_small_for_replication(self):
        # SystemParams enforces k >= max(n+m, d), so both policies always
        # find enough distinct servers and SimConfig needs no check of its own
        with pytest.raises(ValueError, match="k must be"):
            SystemParams(lam=0.5, n=1, d=8, k=7)

    @pytest.mark.parametrize("lam", [1.0, 1.2])
    def test_overload_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            SimConfig(params=SystemParams(lam=lam, k=10), policy="mds", seed=0)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SimConfig(params=SystemParams(lam=0.5, k=10), policy="lottery", seed=0)

    def test_warmup_bounds(self):
        with pytest.raises(ValueError, match="warmup"):
            SimConfig(params=SystemParams(lam=0.5, k=10), policy="mds", seed=0,
                      horizon=10, warmup=10)

    def test_probe_rate_bounds(self):
        with pytest.raises(ValueError, match="probe_rate"):
            SimConfig(params=SystemParams(lam=0.5, k=10), policy="mds", seed=0,
                      probe_rate=1.5)


@pytest.fixture(scope="module")
def result():
    return run(mm1_cfg())


class TestMM1:
    """n=1, m=0 collapses every queue to an independent M/M/1 queue."""

    def test_mean_sojourn(self, result):
        assert result.batch_samples.mean() == pytest.approx(2.0, rel=0.03)

    def test_probe_mean_sojourn(self, result):
        assert result.probe_samples.mean() == pytest.approx(2.0, rel=0.06)

    def test_sample_counts(self, result):
        assert len(result.batch_samples) == 18_000
        assert len(result.probe_samples) == pytest.approx(3_600, rel=0.1)

    def test_sojourn_tail_exponent(self, result):
        # M/M/1 sojourn tail is e^{-(1-lam)t}
        grid = np.linspace(0.5, 8.0, 16)
        logtail = np.log([ecdf_tail(result.batch_samples, t)[0] for t in grid])
        slope = np.polyfit(grid, logtail, 1)[0]
        assert slope == pytest.approx(-0.5, rel=0.1)

    def test_probe_matches_job_distribution(self, result):
        # virtual probe and real jobs see the same M/M/1 sojourn law
        from scipy.stats import ks_2samp

        assert ks_2samp(result.batch_samples, result.probe_samples).pvalue > 0.01


class TestIsolatedBatch:
    def test_third_order_statistic_mean(self):
        # lam ~ 0: one batch alone; mds(3,3) completes at the 3rd of 6 Exp(1)
        cfg = SimConfig(
            params=SystemParams(lam=1e-4, n=3, m=3, k=50), policy="mds",
            seed=7, horizon=4_000, warmup=0, probe_rate=0.0,
        )
        res = run(cfg)
        expected = 1 / 6 + 1 / 5 + 1 / 4
        assert res.batch_samples.mean() == pytest.approx(expected, rel=0.03)

    def test_empty_queue_probe_is_exponential(self):
        cfg = SimConfig(
            params=SystemParams(lam=1e-4, n=1, m=0, k=50), policy="mds",
            seed=8, horizon=3_000, warmup=0, probe_rate=1.0,
        )
        res = run(cfg)
        assert len(res.probe_samples) == 3_000
        assert res.probe_samples.mean() == pytest.approx(1.0, rel=0.06)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        a = run(mm1_cfg(seed=5))
        b = run(mm1_cfg(seed=5))
        assert np.array_equal(a.batch_samples, b.batch_samples)
        assert np.array_equal(a.probe_samples, b.probe_samples)
        assert a.counts == b.counts

    def test_different_seeds_differ(self):
        a = run(mm1_cfg(seed=5))
        b = run(mm1_cfg(seed=6))
        assert not np.array_equal(a.batch_samples, b.batch_samples)

    def test_replication_as_coding_same_seed(self):
        # mds(1, d-1) and replication(d) are the same dispatch process
        mds = run(SimConfig(
            params=SystemParams(lam=0.5, n=1, m=2, k=100), policy="mds",
            seed=9, horizon=10_000, warmup=1_000,
        ))
        rep = run(SimConfig(
            params=SystemParams(lam=0.5, n=1, d=3, k=100), policy="replication",
            seed=9, horizon=10_000, warmup=1_000,
        ))
        assert np.array_equal(mds.batch_samples, rep.batch_samples)
        assert np.array_equal(mds.probe_samples, rep.probe_samples)


class TestPinnedStream:
    """Exact output of two fixed-seed cells.

    Any change to the order of random draws moves these values.  A
    deliberate stream change (such as a heap-free event loop) updates the
    pins and logs the change in CHANGES.md.
    """

    @pytest.mark.parametrize("policy, params, counts, samples, probes", [
        ("replication", SystemParams(lam=0.6, n=2, d=3, k=50),
         dict(batches_arrived=3014, batches_completed=3004, copies_created=18084,
              copies_served=6013, copies_removed_queued=4168, copies_preempted=7858,
              probes_injected=527),
         (0.010197245376446062, 0.7066259642049033, 3.0411051696803355),
         (0.003064668305649109, 1.037400886497391, 6.257736766900664)),
        ("mds", SystemParams(lam=0.6, n=3, m=2, k=50),
         dict(batches_arrived=3027, batches_completed=3004, copies_created=15135,
              copies_served=9033, copies_removed_queued=1523, copies_preempted=4485,
              probes_injected=522),
         (0.07739057715855324, 1.2911860763932168, 4.532886935021992),
         (0.0015313767686242026, 1.3726047960417307, 6.7847836417283)),
    ], ids=["replication", "mds"])
    def test_fixed_seed_output(self, policy, params, counts, samples, probes):
        res = run(SimConfig(params=params, policy=policy, seed=2024,
                            horizon=3_000, warmup=300, probe_rate=0.2))
        s, p = res.batch_samples, res.probe_samples
        assert res.counts == counts
        assert (s[0], s[len(s) // 2], s[-1]) == samples
        assert len(p) == counts["probes_injected"]
        assert (p[0], p[len(p) // 2], p[-1]) == probes


class TestRemovalAccounting:
    def test_mds_conservation_and_removal_counts(self):
        cfg = SimConfig(
            params=SystemParams(lam=0.5, n=3, m=3, k=60), policy="mds",
            seed=10, horizon=5_000, warmup=0, probe_rate=0.0, drain=True,
        )
        res = run(cfg)
        c = res.counts
        batches = c["batches_completed"]
        assert batches == c["batches_arrived"]
        # exactly n served and m removed per batch
        assert c["copies_served"] == 3 * batches
        assert c["copies_removed_queued"] + c["copies_preempted"] == 3 * batches
        assert c["copies_created"] == c["copies_served"] + c[
            "copies_removed_queued"
        ] + c["copies_preempted"]

    def test_replication_conservation(self):
        cfg = SimConfig(
            params=SystemParams(lam=0.4, n=2, d=3, k=60), policy="replication",
            seed=11, horizon=5_000, warmup=0, probe_rate=0.0, drain=True,
        )
        res = run(cfg)
        c = res.counts
        assert c["copies_created"] == 6 * c["batches_completed"]
        assert c["copies_served"] + c["copies_removed_queued"] + c[
            "copies_preempted"
        ] == c["copies_created"]
        # one served copy per job
        assert c["copies_served"] == 2 * c["batches_completed"]

    @pytest.mark.parametrize("policy", ["mds", "replication"])
    def test_removal_off_serves_everything(self, policy):
        cfg = SimConfig(
            params=SystemParams(lam=0.3, n=2, m=1, d=2, k=60), policy=policy,
            seed=12, horizon=3_000, warmup=0, probe_rate=0.0,
            removal=False, drain=True,
        )
        res = run(cfg)
        c = res.counts
        assert c["copies_removed_queued"] == 0
        assert c["copies_preempted"] == 0
        assert c["copies_served"] == c["copies_created"]


class TestAgainstClosedForm:
    def test_replication_single_tail_within_band(self):
        params = SystemParams(lam=0.5, n=1, d=2, k=200)
        cfg = SimConfig(params=params, policy="replication", seed=3,
                        horizon=30_000, warmup=3_000, probe_rate=0.0)
        res = run(cfg)
        band = np.sqrt(np.log(2 / 0.01) / (2 * len(res.batch_samples)))
        dist = sup_distance(res.batch_samples, lambda t: rep_single_tail(params, t))
        assert dist <= band + 0.01

    def test_mean_field_convergence_in_k(self):
        params_by_k = {k: SystemParams(lam=0.5, n=2, m=2, k=k) for k in (20, 1000)}
        dists = {}
        from redqueue import MeanFieldProblem, solve_virtual_tail

        sol = None
        for k, params in params_by_k.items():
            if sol is None:
                sol = solve_virtual_tail(MeanFieldProblem(params, t_max=12.0))
            cfg = SimConfig(params=params, policy="mds", seed=21,
                            horizon=30_000, warmup=3_000, probe_rate=0.0)
            res = run(cfg)
            dists[k] = sup_distance(
                res.batch_samples, lambda t: sol.batch_tail.interp(t)
            )
        assert dists[1000] < dists[20]


class TestEcdfTail:
    def test_degenerate_samples(self):
        samples = np.ones(200)
        assert ecdf_tail(samples, 0.5)[0] == 1.0
        assert ecdf_tail(samples, 1.5)[0] == 0.0

    def test_exponential_oracle(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(size=10_000)
        est, lo, hi = ecdf_tail(samples, 1.0)
        assert lo <= np.exp(-1) <= hi
        assert est == pytest.approx(np.exp(-1), abs=0.02)

    def test_band_width(self):
        samples = np.ones(400)
        est, lo, hi = ecdf_tail(samples, 2.0, delta=0.05)
        half = np.sqrt(np.log(2 / 0.05) / 800)
        assert est == 0.0
        assert hi == pytest.approx(half)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="100"):
            ecdf_tail(np.ones(50), 0.5)

    def test_grid_call_matches_pointwise_calls(self):
        # pooled like `simulate`: three runs back to back, so not sorted
        rng = np.random.default_rng(3)
        pooled = np.concatenate([rng.exponential(size=size) for size in (700, 1500, 300)])
        grid = np.sort(np.concatenate([np.linspace(0.0, 6.0, 61), pooled[::97]]))
        bands = ecdf_tail(pooled, grid)
        for i, t in enumerate(grid):
            point = ecdf_tail(pooled, t)
            assert point[0] == np.mean(pooled > t)
            assert tuple(band[i] for band in bands) == point
