"""The benchmark workloads: seeded inputs, the timed calls into redqueue's
public entry points, and correctness gates on what those calls produced.

Each workload draws everything from the `numpy.random.Generator` it is given.
A run repeats *passes*; `inputs(i)` draws pass i's inputs, `run` makes the
timed calls and returns per-operation timings, and `check` (run outside the
timed section) returns the operations attempted and the failures found.
`finish` adds the gates that need every pass of the run.

The gates parse CSV, compute sup distances and evaluate closed forms with
their own code, not redqueue's, so a defect there cannot vouch for itself.
"""

import contextlib
import io
import math
import statistics
import warnings
from pathlib import Path
from time import perf_counter as clock  # run.py swaps in one that leaves out calibration

import numpy as np

from redqueue import cli, codec, meanfield, sim
from redqueue.params import SystemParams

SUP_TOLERANCE = 0.02  # acceptance criteria 5 and 6
CLOSED_FORM_TOLERANCE = 1e-6  # acceptance criterion 2
MONO_TOL = 1e-12


def call_cli(argv):
    """Run `redqueue <argv>` in process; returns (exit code, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def read_csv(path):
    """Parse a redqueue CSV table; empty cells become NaN."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    cols = np.array([[float(c) if c else math.nan for c in r] for r in rows]).T
    return header, dict(zip(header, cols.reshape(len(header), -1)))


def sup_distance(samples, tail):
    """Sup over t of |empirical P(X > t) - tail(t)|, both one-sided limits."""
    xs = np.sort(samples)
    n = xs.size
    model = tail(xs)
    above = 1.0 - np.arange(n) / n
    below = 1.0 - np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(model - above)), np.max(np.abs(model - below))))


def solve_quiet(params, t_max=15.0, step=1e-3):
    # alpha >= 1 warns by design at the paper's settings; the gates check the curve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return meanfield.solve_virtual_tail(
            meanfield.MeanFieldProblem(params, t_max=t_max, step=step)
        )


class Fig1:
    """`redqueue fig1` at seeded lambdas, plus one closed-form check solve.

    Pass 0 uses the paper's lambda = 0.5; later passes draw lambda uniformly
    from [0.3, 0.6], so a memo across calls cannot win a gain that a
    one-figure-per-process user never sees.
    """

    name = "fig1"
    host_elasticity = 1.0  # see run.py, "Rescaling"
    ticks = True
    ms = (2, 3, 4, 5, 6)

    def __init__(self, rng):
        self.rng = rng
        self.closed_form_err = 0.0

    @staticmethod
    def warm_up():
        solve_quiet(SystemParams(lam=0.5, n=3, m=2, k=10), t_max=10.0, step=0.1)

    def inputs(self, i):
        return {"lam": 0.5 if i == 0 else float(self.rng.uniform(0.3, 0.6))}

    def run(self, inp, out_dir):
        lam = inp["lam"]
        t0 = clock()
        rc, log = call_cli(["fig1", "--lam", repr(lam), "--out-dir", str(out_dir)])
        t1 = clock()
        check = solve_quiet(SystemParams(lam=lam, n=1, m=1, k=10))
        t2 = clock()
        ops = [("fig1", t1 - t0), ("check_solve", t2 - t1)]
        return ops, {"rc": rc, "log": log, "check": check}

    def check(self, inp, out, out_dir):
        failures = []
        lam = inp["lam"]
        if out["rc"] != 0:
            failures.append(f"fig1 lam={lam!r}: exit {out['rc']}: {out['log'][-300:]}")
        else:
            failures += [f"fig1 lam={lam!r}: {msg}" for msg in self._table_faults(lam, out_dir)]
        t = out["check"].virtual_tail.times
        closed = 1.0 / (lam + (1.0 - lam) * np.exp(t))  # n=1, m=1 (d=2) closed form
        err = float(np.max(np.abs(out["check"].virtual_tail.values - closed)))
        self.closed_form_err = max(self.closed_form_err, err)
        if not err <= CLOSED_FORM_TOLERANCE:
            failures.append(f"check solve lam={lam!r}: sup error {err:.3g} > {CLOSED_FORM_TOLERANCE}")
        return 2, failures

    def _table_faults(self, lam, out_dir):
        header, cols = read_csv(Path(out_dir) / "fig1.csv")
        expected = ["t", "rep_d3"] + [f"mds_m{m}" for m in self.ms]
        if header != expected:
            return [f"header {header} != {expected}"]
        faults = [f"column {h} not finite" for h in header if not np.all(np.isfinite(cols[h]))]
        if not np.all(np.diff(cols["t"]) > 0):
            faults.append("t not increasing")
        for h in header[1:]:
            v = cols[h]
            if np.any(np.diff(v) > MONO_TOL) or np.any(v < -MONO_TOL) or np.any(v > 1 + MONO_TOL):
                faults.append(f"column {h} is not a tail (non-increasing in [0, 1])")
        if lam == 0.5 and not faults:
            rep = cols["rep_d3"]
            diff3 = cols["mds_m3"] - rep
            signs = np.sign(diff3[np.abs(diff3) > MONO_TOL])
            if not np.any(np.diff(signs) != 0):
                faults.append("m=3 does not cross rep_d3 (criterion 7)")
            for m in (4, 5, 6):
                if not np.all(cols[f"mds_m{m}"] <= rep + MONO_TOL):
                    faults.append(f"m={m} exceeds rep_d3 (criterion 7)")
        svg = (Path(out_dir) / "fig1.svg").read_text()
        if not svg.startswith("<svg") or "</svg>" not in svg:
            faults.append("fig1.svg is not an SVG document")
        return faults

    def finish(self):
        return 0, []

    def headline(self, ops):
        times = [sec for kind, sec in ops if kind == "fig1"]
        return {"fig1_s_p50": (statistics.median(times), "s", f"{len(times)} fig1 calls")}


class Simulate:
    """`redqueue simulate` on both dispatch policies with fresh cell seeds.

    Each pass is one invocation on a config with one seeded cell seed, so
    one cell per policy; the sup-distance gates pool the cells of the
    first `pool_passes` passes, so their sampling noise stays well inside
    the 0.02 tolerance.
    """

    name = "simulate"
    host_elasticity = 1.0
    ticks = True
    lam, n, m, d, k = 0.5, 3, 3, 3, 1000
    horizon, warmup, probe_rate, seeds_per_pass = 12_000, 1_200, 0.1, 1
    policies = ("mds", "replication")

    pool_passes = 8  # passes whose samples the sup gates pool

    def __init__(self, rng):
        self.rng = rng
        # Preallocated and touched up front, so peak RSS does not depend on
        # how many passes fit in the run.  A cell has at most one probe per
        # monitored batch, so both kinds fit in the same capacity.
        cap = self.pool_passes * self.seeds_per_pass * (self.horizon - self.warmup)
        self.pool = {(p, kind): np.full(cap, np.nan)
                     for p in self.policies for kind in ("batch", "probe")}
        self.filled = dict.fromkeys(self.pool, 0)
        self.pooled_passes = 0
        self.batch_sup = self.probe_sup = 0.0

    @staticmethod
    def warm_up():
        solve_quiet(SystemParams(lam=0.5, n=3, m=3, k=10), t_max=10.0, step=0.1)
        params = SystemParams(lam=0.5, n=3, m=3, d=3, k=1000)
        for policy in Simulate.policies:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sim.run(sim.SimConfig(params=params, policy=policy, seed=0,
                                      horizon=200, warmup=20, probe_rate=0.1))

    def inputs(self, i):
        seeds = self.rng.choice(2**31 - 1, size=self.seeds_per_pass, replace=False) + 1
        return {"seeds": [int(s) for s in seeds]}

    def config_text(self, seeds):
        return "\n".join([
            f"lambda = {self.lam}", f"n = {self.n}", f"m = {self.m}", f"d = {self.d}",
            f"k = {self.k}", f"policy = {', '.join(self.policies)}",
            f"horizon = {self.horizon}", f"warmup = {self.warmup}",
            f"probe_rate = {self.probe_rate}",
            f"seeds = {', '.join(str(s) for s in seeds)}",
        ]) + "\n"

    def run(self, inp, out_dir):
        config = Path(out_dir) / "bench.conf"
        config.write_text(self.config_text(inp["seeds"]))
        t0 = clock()
        rc, log = call_cli(["simulate", "--config", str(config), "--seed", "0",
                            "--out-dir", str(out_dir)])
        return [("simulate", clock() - t0)], {"rc": rc, "log": log}

    def headline(self, ops):
        # Nominal count: horizon batches per cell times copies per batch; the
        # traced run reports the exact `sim.copies_created`.
        copies = self.seeds_per_pass * self.horizon * (self.n + self.m + self.n * self.d)
        times = [sec for _, sec in ops]
        return {"copies_per_s": (copies * len(times) / sum(times), "1/s",
                                 f"{len(times)} simulate calls, {copies} nominal copies each")}

    def check(self, inp, out, out_dir):
        cells = [(p, s) for p in self.policies for s in inp["seeds"]]
        if out["rc"] != 0:
            return len(cells), [f"simulate exit {out['rc']}: {out['log'][-300:]}"] * len(cells)
        failures = []
        for policy, seed in cells:
            path = Path(out_dir) / f"samples_{policy}_seed{seed}.csv"
            try:
                _, cols = read_csv(path)
            except (OSError, ValueError) as exc:
                failures.append(f"cell {policy}/{seed}: {exc}")
                continue
            batch = cols["batch"][~np.isnan(cols["batch"])]
            if batch.size != self.horizon - self.warmup:
                failures.append(
                    f"cell {policy}/{seed}: {batch.size} batch samples, "
                    f"expected {self.horizon - self.warmup}"
                )
            if self.pooled_passes < self.pool_passes:
                self._pool(policy, "batch", batch)
                self._pool(policy, "probe", cols["probe"][~np.isnan(cols["probe"])])
        self.pooled_passes += 1
        return len(cells), failures

    def _pool(self, policy, kind, samples):
        buf, start = self.pool[policy, kind], self.filled[policy, kind]
        samples = samples[: buf.size - start]
        buf[start:start + samples.size] = samples
        self.filled[policy, kind] = start + samples.size

    def pooled(self, policy, kind):
        return self.pool[policy, kind][: self.filled[policy, kind]]

    def finish(self):
        """Pooled batch-ECDF gates against the closed form and the mean field."""
        params = SystemParams(lam=self.lam, n=self.n, m=self.m, d=self.d, k=self.k)
        sol = solve_quiet(params)

        def rep_batch(t):
            single = (self.lam + (1 - self.lam) * np.exp(t * (self.d - 1))) ** (
                -self.d / (self.d - 1)
            )
            return 1.0 - (1.0 - single) ** self.n

        references = {
            "mds": lambda t: np.interp(t, sol.batch_tail.times, sol.batch_tail.values),
            "replication": rep_batch,
        }
        failures = []
        for policy in self.policies:
            samples = self.pooled(policy, "batch")
            if not samples.size:
                failures.append(f"{policy}: no batch samples to pool")
                continue
            dist = sup_distance(samples, references[policy])
            self.batch_sup = max(self.batch_sup, dist)
            if not dist <= SUP_TOLERANCE:
                failures.append(f"{policy}: pooled batch sup {dist:.4f} > {SUP_TOLERANCE}")
        probes = self.pooled("mds", "probe")
        if probes.size:
            virtual = sol.virtual_tail
            self.probe_sup = sup_distance(
                probes, lambda t: np.interp(t, virtual.times, virtual.values)
            )
        return len(self.policies), failures


class Codec:
    """Seeded encode -> erase to n -> decode round trips on real bytes.

    Two codes, GF(2^8) systematic-Vandermonde (8,4) and GF(2^16)
    random-linear (4,4), each with several small payloads (per-call
    overhead) and one large one (per-byte kernel cost).  The code seeds and
    erasure subsets are drawn once per run, as a deployment fixes its code;
    payload bytes are fresh in every pass.
    """

    name = "codec"
    # numpy table lookups slow down less than interpreted code when the host does
    host_elasticity = 0.6
    ticks = False
    cases = (
        ("gf256", 256, "systematic-vandermonde", 8, 4),
        ("gf65536", 65536, "random-linear", 4, 4),
    )
    sizes = (256,) * 8 + (65536,)

    def __init__(self, rng):
        self.rng = rng
        self.plan = []
        for label, field, scheme, n, m in self.cases:
            for size in self.sizes:
                keep = sorted(int(j) for j in rng.choice(n + m, n, replace=False))
                seed = int(rng.integers(2**31))
                self.plan.append((label, field, scheme, n, m, size, seed, keep))

    @staticmethod
    def warm_up():
        for _, field, scheme, n, m in Codec.cases:
            jobs = [bytes([j + 1, 2 * j + 1]) for j in range(n)]
            codec.decode(codec.encode(jobs, m, scheme=scheme, seed=1, field_order=field)[m:])

    def inputs(self, i):
        return {"jobs": [
            [self.rng.bytes(size) for _ in range(n)]
            for _, _, _, n, _, size, _, _ in self.plan
        ]}

    def run(self, inp, out_dir):
        ops, decoded = [], []
        for (label, field, scheme, n, m, size, seed, keep), jobs in zip(self.plan, inp["jobs"]):
            t0 = clock()
            coded = codec.encode(jobs, m, scheme=scheme, seed=seed, field_order=field)
            t1 = clock()
            survivors = [coded[j] for j in keep]
            t2 = clock()
            try:
                result = codec.decode(survivors)
            except codec.DecodingError as exc:
                result = exc
            t3 = clock()
            ops.append((f"encode.{label}", t1 - t0, n * size))
            ops.append((f"decode.{label}", t3 - t2, n * size))
            decoded.append(result)
        return ops, {"decoded": decoded}

    def check(self, inp, out, out_dir):
        failures = []
        for (label, _, scheme, n, m, size, seed, keep), jobs, result in zip(
            self.plan, inp["jobs"], out["decoded"]
        ):
            where = f"{label} {scheme} ({n},{m}) {size}B seed={seed} keep={keep}"
            if isinstance(result, codec.DecodingError):
                # random-linear codes are MDS only with high probability
                cause = "singular selection" if scheme == "random-linear" else "MDS decode failed"
                failures.append(f"{where}: {cause}, {result}")
            elif result != jobs:
                failures.append(f"{where}: decoded bytes differ")
        return len(self.plan), failures

    def finish(self):
        return 0, []

    def headline(self, ops):
        out = {}
        for kind in ("encode", "decode"):
            sel = [(sec, size) for name, sec, size in ops if name.startswith(kind)]
            total = sum(size for _, size in sel)
            out[f"{kind}_MBps"] = (total / 1e6 / sum(sec for sec, _ in sel), "MB/s",
                                   f"{len(sel)} calls, {total} payload bytes")
        return out


WORKLOADS = {w.name: w for w in (Fig1, Simulate, Codec)}
