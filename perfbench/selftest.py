"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Shows that the gates see a corrupted output: one pass of each workload runs
clean (error_rate 0) and then with one output corrupted after the program
wrote it (error_rate > 0): a perturbed fig1 curve, a samples file missing
one row, a flipped byte in a decoded payload, a decode that raised.  Also
checks that traced-output comparison flags a changed file, and that
BENCHMARK.json names exactly the metrics run.py reports.  Exits 1 on any
failed check.
"""

import json
import sys
import tempfile
from pathlib import Path

import run as harness

SEED = 12345


def one_pass(workloads, name, corrupt=None):
    """Run pass 0 and the end-of-run gates; `corrupt(out, out_dir)` edits outputs."""
    run = harness.Run(workloads, name, SEED, trace=0)
    real = run.wl.run

    def run_then_corrupt(inp, out_dir):
        ops, out = real(inp, out_dir)
        if corrupt:
            corrupt(out, Path(out_dir))
        return ops, out

    run.wl.run = run_then_corrupt
    run.loop(0)
    return run


def perturb_curve(out, out_dir):
    path = out_dir / "fig1.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[200].split(",")
    col = header.index("mds_m5")
    cells[col] = repr(float(cells[col]) + 1e-3)
    lines[200] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def drop_sample_row(out, out_dir):
    path = sorted(out_dir.glob("samples_mds_seed*.csv"))[0]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def flip_decoded_byte(out, out_dir):
    payload = bytearray(out["decoded"][0][0])
    payload[0] ^= 0x01
    out["decoded"][0][0] = bytes(payload)


def decode_raised(out, out_dir):
    from redqueue.codec import DecodingError

    out["decoded"][-1] = DecodingError("unrecoverable (injected)")


def main():
    results = []

    def check(label, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f" ({detail})" if detail else ""))

    cases = (
        ("fig1", perturb_curve, "perturbed mds_m5 curve"),
        ("simulate", drop_sample_row, "samples file missing one row"),
        ("codec", flip_decoded_byte, "one flipped decoded byte"),
        ("codec", decode_raised, "decode raised DecodingError"),
    )
    workloads = None
    for name, corrupt, what in cases:
        workloads, _ = harness.set_up(name)
        clean = one_pass(workloads, name)
        check(f"{name}: clean pass has error_rate 0", clean.failed == 0,
              f"{clean.failed} of {clean.attempted}: {clean.notes}")
        bad = one_pass(workloads, name, corrupt)
        check(f"{name}: {what} raises error_rate", bad.failed > 0,
              f"{bad.failed} of {bad.attempted} failed")

    harness.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        for d, text in ((a, "x"), (b, "y")):
            d.mkdir()
            (d / "same.csv").write_text("t\n0.0\n")
            (d / "fig1.svg").write_text(text)
        diff = harness.differing_files(a, b)
        check("traced-output comparison flags a changed file", diff == ["fig1.svg"], str(diff))

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json end_to_end matches run.py",
          [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END))
    check("BENCHMARK.json per_layer matches run.py",
          [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER))
    check("BENCHMARK.json workloads match workloads.py",
          [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
