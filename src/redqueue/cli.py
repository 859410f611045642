"""Command-line front end.

Subcommands: analytic, meanfield, simulate, compare, fig1, codec-demo,
selftest.  All tabular output is CSV (first column t, then one column per
curve); charts are self-rendered SVG so the CSV stays the canonical
artifact.  Exit codes: 0 success, 1 validation failure, 2 runtime or
integration failure, 3 self-test failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .codec import SCHEMES, decode, encode
from .meanfield import IntegrationError, MeanFieldProblem, solve_virtual_tail
from .orderstats import mds_leading_term, order_stat_tail, rep_batch_tail
from .params import SystemParams
from .sim import SimConfig, ecdf_tail, run

# ---------------------------------------------------------------------------
# tables


def format_value(v) -> str:
    return "" if v is None else repr(float(v))


def write_table(path, header, columns):
    """Write a comparison table; repr() formatting makes re-reading exact."""
    lines = [",".join(header)]
    nrows = len(columns[header[0]])
    for i in range(nrows):
        lines.append(",".join(format_value(columns[name][i]) for name in header))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path):
    """Inverse of write_table: returns (header, columns-with-None-gaps)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(None if cell == "" else float(cell))
    return header, columns


# ---------------------------------------------------------------------------
# SVG chart

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]
_FLOOR = 1e-12


def svg_chart(header, columns, title=""):
    """Render the table as an SVG line chart with a log probability axis.

    A pure function of (header, columns, title): regenerating from a
    re-read CSV yields an identical byte string.
    """
    width, height = 720, 480
    ml, mr, mt, mb = 60, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    t = [v for v in columns[header[0]] if v is not None]
    tmin, tmax = min(t), max(t)
    if tmax <= tmin:
        tmax = tmin + 1.0
    decade_min = -1
    for name in header[1:]:
        for v in columns[name]:
            if v is not None and v > _FLOOR:
                decade_min = min(decade_min, int(np.floor(np.log10(v))))
    decade_min = max(decade_min, int(np.log10(_FLOOR)))

    def x(tv):
        return ml + pw * (tv - tmin) / (tmax - tmin)

    def y(v):
        lv = np.log10(max(v, _FLOOR))
        return mt + ph * (0.0 - lv) / (0.0 - decade_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    n_xticks = 6
    for i in range(n_xticks):
        tv = tmin + (tmax - tmin) * i / (n_xticks - 1)
        xi = x(tv)
        parts.append(f'<line x1="{xi:.2f}" y1="{mt + ph}" x2="{xi:.2f}" y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xi:.2f}" y="{mt + ph + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{tv:g}</text>'
        )
    for dec in range(decade_min, 1):
        yi = y(10.0**dec)
        parts.append(f'<line x1="{ml - 5}" y1="{yi:.2f}" x2="{ml}" y2="{yi:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{yi + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">1e{dec}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2}" y="{height - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">t</text>'
    )
    for ci, name in enumerate(header[1:]):
        color = _PALETTE[ci % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if name.startswith("rep") else ""
        pts = []
        for tv, v in zip(columns[header[0]], columns[name]):
            if tv is None or v is None:
                continue
            pts.append(f"{x(tv):.2f},{y(v):.2f}")
        if pts:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
                f'points="{" ".join(pts)}"/>'
            )
        ly = mt + 16 * ci + 10
        parts.append(
            f'<line x1="{ml + pw + 10}" y1="{ly}" x2="{ml + pw + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{ml + pw + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# config files and manifests


def parse_config(path):
    """Flat key-value config: one `key = value` per line, # comments."""
    conf = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        conf[key] = value
    return conf


def _conf_bool(value: str) -> bool:
    v = value.lower()
    if v in {"on", "true", "1", "yes"}:
        return True
    if v in {"off", "false", "0", "no"}:
        return False
    raise ValueError(f"expected on/off, got {value!r}")


def write_manifest(path, entries):
    lines = [
        f"redqueue_version = {__version__}",
        f"numpy_version = {np.__version__}",
    ]
    lines += [f"{k} = {v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _time_grid(t_max, points, flag="--t-max"):
    if t_max <= 0:
        raise ValueError(f"{flag} must be positive")
    if points < 2:
        raise ValueError("--points must be >= 2")
    return np.linspace(0.0, t_max, points)


def cmd_analytic(args):
    params = SystemParams(lam=args.lam, n=args.n, m=max(args.m), d=args.d, k=args.k)
    grid = _time_grid(args.t_max, args.points)
    # Generic per-queue sojourn tail for the heuristic curves: the
    # no-redundancy M/M/1 stationary sojourn tail e^{-(1-lam)t}.
    q = np.exp(-(1.0 - args.lam) * grid)
    header = ["t", f"rep_d{args.d}"]
    columns = {"t": list(grid), f"rep_d{args.d}": list(rep_batch_tail(params, grid))}
    for m in args.m:
        header += [f"mds_m{m}", f"mds_m{m}_leading"]
        columns[f"mds_m{m}"] = list(order_stat_tail(args.n, m, q))
        columns[f"mds_m{m}_leading"] = list(mds_leading_term(args.n, m, q))
    write_table(args.out, header, columns)
    print(f"wrote {args.out} ({len(grid)} rows, {len(header) - 1} curves)")
    return 0


def _solve_curves(lam, n, ms, t_max, step):
    solutions = {}
    for m in ms:
        params = SystemParams(lam=lam, n=n, m=m, k=max(1000, n + m))
        solutions[m] = solve_virtual_tail(MeanFieldProblem(params, t_max=t_max, step=step))
    return solutions


def cmd_meanfield(args):
    solutions = _solve_curves(args.lam, args.n, args.m, args.t_max, args.step)
    some = next(iter(solutions.values()))
    grid = some.virtual_tail.times
    header = ["t"]
    columns = {"t": list(grid)}
    for m, sol in solutions.items():
        header += [f"virtual_m{m}", f"mds_m{m}"]
        columns[f"virtual_m{m}"] = list(sol.virtual_tail.values)
        columns[f"mds_m{m}"] = list(sol.batch_tail.values)
    write_table(args.out, header, columns)
    print(f"wrote {args.out}")
    return 0


def _sim_cells(conf, seeds):
    params = SystemParams(
        lam=float(conf["lambda"]),
        n=int(conf.get("n", 1)),
        m=int(conf.get("m", 0)),
        d=int(conf.get("d", 1)),
        k=int(conf.get("k", 1000)),
    )
    policies = [p.strip() for p in conf.get("policy", "mds").split(",")]
    cells = []
    for policy in policies:
        for seed in seeds:
            cells.append(
                SimConfig(
                    params=params,
                    policy=policy,
                    seed=seed,
                    removal=_conf_bool(conf.get("removal", "on")),
                    horizon=int(conf.get("horizon", 200_000)),
                    warmup=int(conf.get("warmup", 10_000)),
                    probe_rate=float(conf.get("probe_rate", 0.1)),
                )
            )
    return params, policies, cells


def _write_samples(path, result):
    nb, npr = len(result.batch_samples), len(result.probe_samples)
    header = ["batch", "probe"]
    columns = {
        "batch": list(result.batch_samples) + [None] * max(0, npr - nb),
        "probe": list(result.probe_samples) + [None] * max(0, nb - npr),
    }
    write_table(path, header, columns)


def _read_samples(path):
    _, columns = read_table(path)
    batch = np.array([v for v in columns["batch"] if v is not None])
    probe = np.array([v for v in columns["probe"] if v is not None])
    return batch, probe


def _add_ecdf_band(header, columns, policy, samples, grid):
    """Append sim_<policy>_lo/_mid/_hi: the ECDF tail and its band on grid."""
    bands = [ecdf_tail(samples, t) for t in grid]
    for suffix, index in (("lo", 1), ("mid", 0), ("hi", 2)):
        name = f"sim_{policy}_{suffix}"
        header.append(name)
        columns[name] = [band[index] for band in bands]


def _comparison_table(conf, params, policies, pooled):
    """Theory curves plus pooled-simulation ECDF bands on a shared grid."""
    t_max = float(conf.get("t_max", 10.0))
    step = float(conf.get("step", 1e-3))
    grid = np.arange(0.0, t_max + 1e-12, 0.02)
    header = ["t"]
    columns = {"t": list(grid)}
    if "replication" in policies:
        name = f"rep_d{params.d}"
        header.append(name)
        columns[name] = list(rep_batch_tail(params, grid))
    if "mds" in policies:
        name = f"mds_m{params.m}"
        sol = _solve_curves(params.lam, params.n, [params.m], t_max, step)[params.m]
        header.append(name)
        columns[name] = list(sol.batch_tail.interp(grid))
    for policy in policies:
        samples = pooled.get(policy)
        if samples is None or len(samples) < 100:
            continue
        _add_ecdf_band(header, columns, policy, samples, grid)
    return header, columns


def cmd_simulate(args):
    conf = parse_config(args.config)
    out_dir = Path(args.out_dir or conf.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = (
        [int(s) for s in conf["seeds"].split(",")]
        if "seeds" in conf
        else [args.seed]
    )
    params, policies, cells = _sim_cells(conf, seeds)

    failures = 0
    pooled = {policy: [] for policy in policies}
    for cell in cells:
        name = f"samples_{cell.policy}_seed{cell.seed}.csv"
        try:
            result = run(cell)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            print(f"cell {cell.policy}/seed={cell.seed} FAILED: {exc}", file=sys.stderr)
            failures += 1
            continue
        _write_samples(out_dir / name, result)
        pooled[cell.policy].append(result.batch_samples)
        print(
            f"cell {cell.policy}/seed={cell.seed}: {len(result.batch_samples)} batch "
            f"samples (mean {result.batch_samples.mean():.4f}), "
            f"{len(result.probe_samples)} probes -> {name}"
        )
    pooled = {p: np.concatenate(v) for p, v in pooled.items() if v}
    header, columns = _comparison_table(conf, params, [p for p in policies if p in pooled], pooled)
    write_table(out_dir / "comparison.csv", header, columns)
    (out_dir / "comparison.svg").write_text(
        svg_chart(header, columns, title="theory vs simulation")
    )
    write_manifest(
        out_dir / "manifest.txt",
        {**conf, "cli_seed": args.seed, "out_dir": str(out_dir)},
    )
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 2 if failures else 0


def cmd_compare(args):
    conf = parse_config(args.config)
    out_dir = Path(args.dir)
    if "seeds" not in conf:
        raise ValueError("compare reads the seeds the config lists; add a `seeds` line")
    seeds = [int(s) for s in conf["seeds"].split(",")]
    params, policies, _ = _sim_cells(conf, seeds)
    pooled = {}
    for policy in policies:
        arrays = []
        for seed in seeds:
            path = out_dir / f"samples_{policy}_seed{seed}.csv"
            if not path.is_file():
                raise FileNotFoundError(f"no samples for listed seed {seed}: {path}")
            batch, _ = _read_samples(path)
            arrays.append(batch)
        pooled[policy] = np.concatenate(arrays)
    header, columns = _comparison_table(conf, params, policies, pooled)
    write_table(args.out, header, columns)
    print(f"wrote {args.out}")
    return 0


FIG1_N = 3
FIG1_D = 3
FIG1_MS = (2, 3, 4, 5, 6)


def cmd_fig1(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.arange(0.0, args.t_max + 1e-12, args.grid_step)
    params_rep = SystemParams(lam=args.lam, n=FIG1_N, d=FIG1_D, k=1000)
    header = ["t", f"rep_d{FIG1_D}"]
    columns = {"t": list(grid), f"rep_d{FIG1_D}": list(rep_batch_tail(params_rep, grid))}
    solutions = _solve_curves(args.lam, FIG1_N, FIG1_MS, args.t_max, args.step)
    for m in FIG1_MS:
        header.append(f"mds_m{m}")
        columns[f"mds_m{m}"] = list(solutions[m].batch_tail.interp(grid))
    if args.simulate:
        pooled = {}
        for policy, params in (
            ("replication", params_rep),
            ("mds", SystemParams(lam=args.lam, n=FIG1_N, m=FIG1_D, k=1000)),
        ):
            result = run(
                SimConfig(
                    params=params,
                    policy=policy,
                    seed=args.seed,
                    horizon=args.horizon,
                    warmup=min(args.horizon // 10, 10_000),
                    probe_rate=0.0,
                )
            )
            pooled[policy] = result.batch_samples
        for policy, samples in pooled.items():
            _add_ecdf_band(header, columns, policy, samples, grid)
    csv_path = out_dir / "fig1.csv"
    write_table(csv_path, header, columns)
    title = f"batch completion tails, n={FIG1_N}, lam={args.lam:g}"
    (out_dir / "fig1.svg").write_text(svg_chart(header, columns, title=title))
    write_manifest(
        out_dir / "manifest.txt",
        {
            "command": "fig1",
            "lambda": args.lam,
            "n": FIG1_N,
            "d": FIG1_D,
            "m_values": ",".join(str(m) for m in FIG1_MS),
            "t_max": args.t_max,
            "grid_step": args.grid_step,
            "ode_step": args.step,
            "simulate": args.simulate,
            "seed": args.seed,
        },
    )
    print(f"wrote {csv_path} and {out_dir / 'fig1.svg'}")
    return 0


def cmd_codec_demo(args):
    rng = np.random.default_rng(args.seed)
    size = args.size if args.field == 256 else args.size + args.size % 2
    jobs = [bytes(rng.integers(0, 256, size, dtype=np.uint8)) for _ in range(args.n)]
    coded = encode(
        jobs, args.m, scheme=args.scheme, seed=args.seed, field_order=args.field,
        batch_id="demo",
    )
    print(f"encoded {args.n} payloads of {size} bytes into {len(coded)} coded jobs "
          f"({args.scheme}, GF({args.field}))")
    keep = sorted(rng.choice(len(coded), args.n, replace=False).tolist())
    recovered = decode([coded[i] for i in keep])
    ok = recovered == jobs
    print(f"decoded from coded jobs {[i + 1 for i in keep]}: "
          f"{'round-trip OK' if ok else 'MISMATCH'}")
    return 0 if ok else 2


def cmd_selftest(args):
    del args
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            checks.append((name, False, str(exc)))

    def orderstats_identity():
        from .orderstats import order_stat_tail_alternating

        for total in range(1, 26):
            for n in range(1, total + 1):
                m = total - n
                assert abs(order_stat_tail(n, m, 1.0) - 1.0) < 1e-12
                for q in (0.1, 0.5, 0.9):
                    a = order_stat_tail(n, m, q)
                    b = order_stat_tail_alternating(n, m, q)
                    assert abs(a - b) < 1e-10, (n, m, q, a, b)

    def ode_closed_form():
        lam, d = 0.5, 2
        sol = solve_virtual_tail(
            MeanFieldProblem(SystemParams(lam=lam, n=1, m=d - 1, k=10), t_max=15, step=1e-3)
        )
        t = sol.virtual_tail.times
        closed = (lam + (1 - lam) * np.exp(t * (d - 1))) ** (-1.0 / (d - 1))
        assert np.max(np.abs(sol.virtual_tail.values - closed)) <= 1e-6

    def fig1_shape():
        grid = np.arange(0.0, 10.0001, 0.05)
        rep = rep_batch_tail(SystemParams(lam=0.5, n=3, d=3, k=1000), grid)
        sols = _solve_curves(0.5, 3, [3, 4], 15.0, 1e-3)
        diff3 = sols[3].batch_tail.interp(grid) - rep
        signs = np.sign(diff3[np.abs(diff3) > 1e-12])
        assert np.any(np.diff(signs) != 0), "m=3 curve never crosses replication"
        assert np.all(sols[4].batch_tail.interp(grid) <= rep + 1e-12)

    def codec_roundtrip():
        from itertools import combinations

        jobs = [bytes(range(i, i + 8)) for i in range(3)]
        coded = encode(jobs, 2)
        for sub in combinations(range(5), 3):
            assert decode([coded[i] for i in sub]) == jobs

    check("order-statistics identity & form agreement", orderstats_identity)
    check("ODE matches replication closed form", ode_closed_form)
    check("fig1 crossing and dominance", fig1_shape)
    check("codec any-n-of-(n+m) round trip", codec_roundtrip)

    failed = 0
    for name, ok, msg in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({msg})" if msg else ""))
        failed += not ok
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="redqueue",
        description="Redundancy in multi-server queues: replication vs MDS coding.",
    )
    parser.add_argument("--version", action="version", version=f"redqueue {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form tail curves to CSV")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, nargs="+", default=[3])
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--out", default="analytic.csv")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("meanfield", help="solve the virtual-tail ODE, tabulate curves")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, nargs="+", default=[3])
    p.add_argument("--t-max", type=float, default=15.0)
    p.add_argument("--step", type=float, default=1e-3,
                   help="time spacing of the output grid")
    p.add_argument("--out", default="meanfield.csv")
    p.set_defaults(func=cmd_meanfield)

    p = sub.add_parser("simulate", help="run the experiment cells of a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="base seed (used when the config lists no seeds)")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="rebuild a comparison table from stored samples")
    p.add_argument("--config", required=True)
    p.add_argument("--dir", required=True, help="out_dir of a previous simulate run")
    p.add_argument("--out", default="comparison.csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fig1", help="reproduce the n=3, d=3, m=2..6 comparison figure")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--grid-step", type=float, default=0.02)
    p.add_argument("--step", type=float, default=1e-3,
                   help="time spacing of the mean-field solution grid")
    p.add_argument("--simulate", action="store_true", help="overlay simulation ECDFs")
    p.add_argument("--horizon", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("codec-demo", help="encode random payloads, drop to n, decode")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--scheme", choices=SCHEMES, default="systematic-vandermonde")
    p.add_argument("--field", type=int, choices=(256, 65536), default=256)
    p.add_argument("--size", type=int, default=64, help="payload bytes")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_codec_demo)

    p = sub.add_parser("selftest", help="quick acceptance-style checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
