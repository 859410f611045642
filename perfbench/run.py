"""Benchmark harness for redqueue: one command, three seeded workloads.

    python3 perfbench/run.py --workload {fig1,simulate,codec} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/selftest.py      # the harness's own checks

Load model: closed loop, one caller in one process and one thread, which
starts each operation when the previous one has finished.  BLAS/OpenMP
pools are pinned to one thread.  A run repeats *passes* of seeded work (see
workloads.py) for --seconds, checks every pass's outputs outside the timed
section, prints each metric by name with its unit, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  setup_s      median of 11 set-ups, this process's and 10 in fresh
               interpreters spread over the run: import of redqueue plus
               warm-up of the layers the workload uses (first solve, first
               sim call, GF tables), rescaled to the reference host speed
  pass_s_ref   mean wall time of a pass, rescaled to the reference host
               speed
  peak_rss_MB  peak resident memory of this process
and prints, by name, the workload's own figures (fig1_s_p50, copies_per_s,
encode_MBps, decode_MBps) and error_rate with its operation count, and the
raw (not rescaled) pass and set-up times.

Rescaling.  The host is a few cores of a shared machine, whose speed for
the same CPU-bound code drifts by up to 2x over seconds to minutes; a raw
time measures the neighbours as much as redqueue.  So the run also times a
fixed pure-Python calibration kernel (`calibration_kernel`, a toy queue
simulation that uses nothing of redqueue) around each set-up, and about a
fifth of the pass time in the same stretches of the run as the passes: in
blocks between passes, or, where the workload sets `ticks` because its
passes last seconds, from a SIGALRM handler every CAL_PERIOD_S of wall time
during each pass (pass and operation times leave the ticks out).  Ticks
sample a long pass finely; blocks suit short numpy-bound passes, whose
calls would leave the ticks a cold cache.  A rescaled time is
raw * (CAL_REF_S / kernel) ** e, with `kernel` the kernel's mean time in
the same stretch of the run: the time the work would take on a host that
runs the kernel in CAL_REF_S.  The exponent e is the
workload's `host_elasticity`, how strongly its time follows the kernel's as
the host drifts (the ratio of their log-time spreads over 1 s windows on
a 2-vCPU VM: about 1 for fig1, simulate and set-up, whose work is
interpreted Python like the kernel's, and 0.6 for codec, whose work is
mostly numpy table lookups).  Host drift then cancels; a change to
redqueue moves only the pass.

--trace 1 runs every pass twice on the same inputs, untraced and traced
(alternating which goes first), checks that both runs wrote byte-identical
files, and reports the per-layer metrics of `PER_LAYER` from the spans that
spans.py records around each layer's public functions.  Counts come from
pass 0, whose inputs depend on the seed alone, so they repeat exactly for a
seed; times are medians over the traced passes, and trace.overhead_s is the
fastest traced pass minus the fastest untraced one.  Pass 0's layer self
times plus the harness's own time add up to its traced wall time; the run
prints that account.  The spans are written to
.perfbench-out/spans_<workload>_seed<seed>.json when the run ends.

The program is imported from src/ of the checkout this file sits in; the
run fails (exit 2, no result line) when that source is missing.
"""

import argparse
import collections
import contextlib
import heapq
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10

END_TO_END = (("setup_s", "s"), ("pass_s_ref", "s"), ("peak_rss_MB", "MB"))

# The calibration kernel's time on the reference host (x86-64 VM, 2 vCPUs,
# Python 3.11).  Any fixed value gives the same comparisons.
CAL_REF_S = 0.012
CAL_PERIOD_S = 0.05  # tick period during a pass, for workloads that set `ticks`
CAL_SHARE = 0.2  # block before each pass, as a share of the last pass, otherwise


def calibration_kernel():
    """Fixed pure-Python work: an event-driven toy queue (200 FIFO servers,
    Poisson arrivals, a heap of events), so that host drift moves it much as
    it moves redqueue's own simulator and interpreter-bound solvers."""
    rng = random.Random(7)
    queues = [collections.deque() for _ in range(200)]
    heap = [(rng.expovariate(150.0), 0, -1)]
    waited, seq = 0.0, 1
    while seq < 6000:
        t, _, server = heapq.heappop(heap)
        if server < 0:  # an arrival, which also schedules the next one
            s = rng.randrange(200)
            queues[s].append(t)
            if len(queues[s]) == 1:
                heapq.heappush(heap, (t + rng.expovariate(1.0), seq, s))
            heapq.heappush(heap, (t + rng.expovariate(150.0), seq + 1, -1))
            seq += 2
        else:  # a departure
            waited += t - queues[server].popleft()
            if queues[server]:
                heapq.heappush(heap, (t + rng.expovariate(1.0), seq, server))
                seq += 1
    return waited


def calibrate(seconds):
    """Run the kernel for at least `seconds` (once at least); returns (total s, runs)."""
    total, runs = 0.0, 0
    while runs == 0 or total < seconds:
        t0 = time.perf_counter()
        calibration_kernel()
        total += time.perf_counter() - t0
        runs += 1
    return total, runs

# Per-layer metrics of the traced run.  Those in COUNT_UNITS come from pass 0.
PER_LAYER = (
    ("meanfield.calls", "count"), ("meanfield.self_s", "s"), ("meanfield.ms_p50", "ms"),
    ("meanfield.grid_points", "count"), ("meanfield.closed_form_err", "abs"),
    ("orderstats.calls", "count"), ("orderstats.self_s", "s"), ("orderstats.points", "count"),
    ("cli.self_s", "s"), ("cli.write_table_s", "s"), ("cli.table_bytes", "B"),
    ("cli.svg_s", "s"), ("cli.ecdf_calls", "count"), ("cli.ecdf_s", "s"),
    ("sim.calls", "count"), ("sim.self_s", "s"), ("sim.copies_per_s", "1/s"),
    ("sim.copies_created", "count"), ("sim.copies_served", "count"),
    ("sim.copies_preempted", "count"), ("sim.copies_removed_queued", "count"),
    ("sim.served_frac", "fraction"), ("sim.batch_sup", "abs"), ("sim.probe_sup", "abs"),
    ("gf.matmul_calls", "count"), ("gf.matmul_s", "s"), ("gf.matmul_mults", "count"),
    ("gf.matmul_bytes", "B-computed"), ("gf.mults_per_s", "1/s"),
    ("gf.solve_calls", "count"), ("gf.solve_s", "s"),
    ("codec.encode_calls", "count"), ("codec.encode_self_s", "s"),
    ("codec.decode_calls", "count"), ("codec.decode_self_s", "s"),
    ("codec.decode_attempts_per_call", "count"), ("codec.decode_failures", "count"),
    ("codec.encode_ms_p50.gf256", "ms"), ("codec.encode_ms_p50.gf65536", "ms"),
    ("codec.decode_ms_p50.gf256", "ms"), ("codec.decode_ms_p50.gf65536", "ms"),
    ("harness.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("e2e.fig1_s_p50", "s"), ("e2e.copies_per_s", "1/s"),
    ("e2e.encode_MBps", "MB/s"), ("e2e.decode_MBps", "MB/s"),
    ("e2e.error_rate", "fraction"), ("e2e.ops", "count"),
)
# The self-time metrics that partition a traced pass, by layer.
LAYER_SELF = {
    "meanfield": ("meanfield.self_s",), "orderstats": ("orderstats.self_s",),
    "cli": ("cli.self_s",), "sim": ("sim.self_s",), "gf": ("gf.matmul_s", "gf.solve_s"),
    "codec": ("codec.encode_self_s", "codec.decode_self_s"), "harness": ("harness.self_s",),
}
COUNT_UNITS = {"count", "B", "B-computed", "fraction"}


def set_up(workload):
    """Import redqueue from SRC and warm the workload's layers; returns (module, s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    import redqueue

    if Path(redqueue.__file__).resolve().parent != (SRC / "redqueue").resolve():
        raise ImportError(f"redqueue imported from {redqueue.__file__}, not {SRC}")
    workloads.WORKLOADS[workload].warm_up()
    return workloads, time.perf_counter() - t0


def calibrated_set_up(workload):
    """set_up between two calibration blocks; returns (module, raw s, rescaled s)."""
    calibrate(0.15)  # untimed: a fresh interpreter runs the kernel slower at first
    before = calibrate(0.05)
    workloads, raw = set_up(workload)
    after = calibrate(0.05)
    kernel = (before[0] + after[0]) / (before[1] + after[1])
    return workloads, raw, raw * CAL_REF_S / kernel


def probe_setup(workload):
    """(raw, rescaled) set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    raw, rescaled = proc.stdout.split()[-2:]
    return float(raw), float(rescaled)


def environment():
    import importlib.metadata
    import importlib.util

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        # the ceiling keeps git from reporting an enclosing repository's revision
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        rev = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_rev": rev,
        **{var: os.environ.get(var) for var in PINNED},
    }


def differing_files(a, b):
    """Relative paths whose bytes differ between directory trees a and b."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(n) for n in names
        if not ((a / n).is_file() and (b / n).is_file()
                and (a / n).read_bytes() == (b / n).read_bytes())
    )


def pass_profile(spans):
    """Per-layer numbers of one traced pass; spans[0] is the pass itself."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    rows = [(name, t1 - t0 - c, t1 - t0, attrs)
            for (name, t0, t1, _, attrs), c in zip(spans, covered)]

    def sel(prefix):
        return [r for r in rows if r[0].startswith(prefix)]

    def self_s(prefix):
        return sum(r[1] for r in sel(prefix))

    def attr_sum(prefix, key):
        return sum(r[3].get(key, 0) for r in sel(prefix))

    def p50_ms(found):
        return statistics.median(r[2] for r in found) * 1e3 if found else 0.0

    # gf.solve calls made under decode (decode retries), not under encode
    under_decode = 0
    for _, _, _, parent, _ in (s for s in spans if s[0] == "gf.solve"):
        while parent >= 0 and not spans[parent][0].startswith("codec."):
            parent = spans[parent][3]
        under_decode += parent >= 0 and spans[parent][0] == "codec.decode"

    copies = {k: attr_sum("sim.run", k) for k in
              ("copies_created", "copies_served", "copies_preempted", "copies_removed_queued")}
    sim_s = self_s("sim.")
    attempted = copies["copies_served"] + copies["copies_preempted"]
    decodes = len(sel("codec.decode"))
    matmul_s = self_s("gf.matmul")
    out = {
        "meanfield.calls": len(sel("meanfield.")),
        "meanfield.self_s": self_s("meanfield."),
        "meanfield.ms_p50": p50_ms(sel("meanfield.")),
        "meanfield.grid_points": attr_sum("meanfield.", "grid_points"),
        "orderstats.calls": len(sel("orderstats.")),
        "orderstats.self_s": self_s("orderstats."),
        "orderstats.points": attr_sum("orderstats.", "points"),
        "cli.self_s": self_s("cli."),
        "cli.write_table_s": self_s("cli.write_table"),
        "cli.table_bytes": attr_sum("cli.write_table", "bytes"),
        "cli.svg_s": self_s("cli.svg_chart"),
        "cli.ecdf_calls": len(sel("cli.ecdf_tail")),
        "cli.ecdf_s": self_s("cli.ecdf_tail"),
        "sim.calls": len(sel("sim.")),
        "sim.self_s": sim_s,
        "sim.copies_per_s": copies["copies_created"] / sim_s if sim_s else 0.0,
        **{f"sim.{k}": v for k, v in copies.items()},
        "sim.served_frac": copies["copies_served"] / attempted if attempted else 0.0,
        "gf.matmul_calls": len(sel("gf.matmul")),
        "gf.matmul_s": matmul_s,
        "gf.matmul_mults": attr_sum("gf.matmul", "mults"),
        "gf.matmul_bytes": attr_sum("gf.matmul", "bytes_computed"),
        "gf.mults_per_s": attr_sum("gf.matmul", "mults") / matmul_s if matmul_s else 0.0,
        "gf.solve_calls": len(sel("gf.solve")),
        "gf.solve_s": self_s("gf.solve"),
        "codec.encode_calls": len(sel("codec.encode")),
        "codec.encode_self_s": self_s("codec.encode"),
        "codec.decode_calls": decodes,
        "codec.decode_self_s": self_s("codec.decode"),
        "codec.decode_attempts_per_call": under_decode / decodes if decodes else 0.0,
        "codec.decode_failures": sum(bool(r[3].get("raised")) for r in sel("codec.decode")),
        "harness.self_s": rows[0][1],
        "trace.wall_s": rows[0][2],
    }
    for kind in ("encode", "decode"):
        for field in (256, 65536):
            found = [r for r in sel(f"codec.{kind}") if r[3].get("field") == field]
            out[f"codec.{kind}_ms_p50.gf{field}"] = p50_ms(found)
    return out


class Run:
    """One benchmark run: the pass loop, gates, and the tallies they feed."""

    def __init__(self, workloads, name, seed, trace):
        import numpy as np

        self.name = name
        self.wl = workloads.WORKLOADS[name](np.random.default_rng(seed))
        self.trace = trace
        self.walls, self.ops, self.profiles, self.traced_walls = [], [], [], []
        self.attempted = self.failed = 0
        self.notes = []
        self.spans = []
        self.setups = []
        self.cal_s, self.cal_runs = 0.0, 0
        self.ticks = not trace and self.wl.ticks
        self.blocks = not trace and not self.wl.ticks
        workloads.clock = self.clock if self.ticks else time.perf_counter

    def tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        self.cal_s += time.perf_counter() - t0
        self.cal_runs += 1

    def clock(self):
        """perf_counter less the kernel's time so far (re-read if a tick intervened)."""
        while True:
            spent = self.cal_s
            now = time.perf_counter()
            if self.cal_s == spent:
                return now - spent

    @contextlib.contextmanager
    def calibrating(self):
        """Kernel ticks every CAL_PERIOD_S inside the block, if this run ticks."""
        if not self.ticks:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed_pass(self, inp, out_dir, tracer=None):
        out_dir.mkdir()
        if tracer is None:
            with self.calibrating():
                t0 = self.clock()
                ops, out = self.wl.run(inp, out_dir)
                return self.clock() - t0, ops, out
        import spans

        with spans.instrument(tracer):
            root = tracer.begin("harness.pass", {})
            ops, out = self.wl.run(inp, out_dir)
            tracer.end(root)
        return tracer.spans[root][2] - tracer.spans[root][1], ops, out

    def gate(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.notes += failures

    def one_pass(self, i, tmp):
        inp = self.wl.inputs(i)
        work = tmp / "pass"
        if not self.trace:
            wall, ops, out = self.timed_pass(inp, work)
            self.gate(*self.wl.check(inp, out, work))
        else:
            import spans

            tracer = spans.Tracer()
            kept = tmp / "untraced"
            for traced in (i % 2 == 1, i % 2 == 0):
                if traced:
                    twall, _, _ = self.timed_pass(inp, work, tracer)
                else:
                    wall, ops, out = self.timed_pass(inp, work)
                    self.gate(*self.wl.check(inp, out, work))
                if kept.exists():
                    diff = differing_files(kept, work)
                    self.gate(1, [f"pass {i}: traced output differs: {diff}"] if diff else [])
                else:
                    work.rename(kept)
            self.traced_walls.append(twall)
            self.profiles.append(pass_profile(tracer.spans))
            self.spans.append(tracer.spans)
        self.walls.append(wall)
        self.ops += ops
        for path in (work, tmp / "untraced"):
            shutil.rmtree(path, ignore_errors=True)

    def loop(self, seconds, probes=0):
        """Passes for `seconds`, with `probes` set-up probes spread evenly over them."""
        OUT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        try:
            start = time.perf_counter()
            i = 0
            while i == 0 or time.perf_counter() - start < seconds:
                while len(self.setups) < probes and (
                    time.perf_counter() - start >= len(self.setups) * seconds / probes
                ):
                    self.setups.append(probe_setup(self.name))
                if self.blocks:
                    self.calibrate(CAL_SHARE * self.walls[-1] if self.walls else 0.0)
                self.one_pass(i, tmp)
                i += 1
            if self.blocks:
                self.calibrate(CAL_SHARE * self.walls[-1])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.setups += [probe_setup(self.name) for _ in range(probes - len(self.setups))]
        self.gate(*self.wl.finish())

    def calibrate(self, seconds):
        spent, runs = calibrate(seconds)
        self.cal_s += spent
        self.cal_runs += runs

    def pass_s_ref(self):
        """Mean pass wall time rescaled by the kernel's mean time over the run."""
        kernel = self.cal_s / self.cal_runs
        return statistics.fmean(self.walls) * (CAL_REF_S / kernel) ** self.wl.host_elasticity

    def headline(self):
        """The workload's own end-to-end figures plus error_rate, for printing."""
        figures = self.wl.headline(self.ops)
        figures["error_rate"] = (self.failed / self.attempted, "fraction",
                                 f"{self.failed} of {self.attempted} ops failed")
        return figures

    def layer_metrics(self):
        first = self.profiles[0]
        counts = {name for name, unit in PER_LAYER if unit in COUNT_UNITS}
        merged = {
            k: first[k] if k in counts else statistics.median(p[k] for p in self.profiles)
            for k in first
        }
        merged["trace.overhead_s"] = (
            min(self.traced_walls) - min(self.walls)
        )
        merged["meanfield.closed_form_err"] = getattr(self.wl, "closed_form_err", 0.0)
        merged["sim.batch_sup"] = getattr(self.wl, "batch_sup", 0.0)
        merged["sim.probe_sup"] = getattr(self.wl, "probe_sup", 0.0)
        headline = self.headline()
        for name in ("fig1_s_p50", "copies_per_s", "encode_MBps", "decode_MBps", "error_rate"):
            merged[f"e2e.{name}"] = headline[name][0] if name in headline else 0.0
        merged["e2e.ops"] = self.attempted
        return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig1", "simulate", "codec"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this interpreter's set-up time and exit")
    args = parser.parse_args(argv)

    for var in PINNED:  # before set_up imports numpy
        os.environ[var] = "1"
    if not (SRC / "redqueue" / "__init__.py").is_file():
        print(f"error: redqueue source not found under {SRC}", file=sys.stderr)
        return 2
    workloads, *own_setup = calibrated_set_up(args.workload)
    if args.setup_only:
        print(*own_setup)
        return 0

    run = Run(workloads, args.workload, args.seed, args.trace)
    run.loop(args.seconds, 0 if args.trace else SETUP_PROBES)
    setups = [tuple(own_setup)] + run.setups
    env = environment()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(run.walls)}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in run.notes:
        print(f"FAILED: {note}")
    if args.trace:
        values = run.layer_metrics()
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        lines = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "span_fields": ["name", "start", "end", "parent", "attrs"],
            "passes": run.spans,
        }))
        print(f"spans written to {dump}")
        first = run.profiles[0]
        parts = {layer: sum(first[k] for k in keys) for layer, keys in LAYER_SELF.items()}
        print("pass 0 account: " + " + ".join(f"{k} {v:.4f}" for k, v in parts.items())
              + f" = {sum(parts.values()):.4f} s of traced wall {first['trace.wall_s']:.4f} s")
    else:
        raw_setups = [raw for raw, _ in setups]
        values = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "pass_s_ref": run.pass_s_ref(),
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        notes = {
            "setup_s": f"median of {len(setups)} rescaled set-ups: "
                       + ", ".join(f"{ref:.4f}" for _, ref in setups),
            "pass_s_ref": f"mean of {len(run.walls)} passes, rescaled",
        }
        lines = [(name, value, unit, notes.get(name, "")) for name, (value, unit) in metrics.items()]
        lines += [(name, *figure) for name, figure in run.headline().items()]
        lines += [
            ("raw.setup_s", statistics.median(raw_setups), "s",
             "median of the set-ups, not rescaled"),
            ("raw.pass_s", statistics.fmean(run.walls), "s",
             f"mean pass, not rescaled; fastest {min(run.walls):.6g} s, "
             f"median {statistics.median(run.walls):.6g} s"),
            ("raw.kernel_s", run.cal_s / run.cal_runs, "s",
             f"calibration kernel, mean of {run.cal_runs} runs ({run.cal_s:.3g} s)"),
        ]
    for name, value, unit, note in lines:
        print(f"{name:<32} {value:<14.6g} {unit:<10} {note}".rstrip())
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
