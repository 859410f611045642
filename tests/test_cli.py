"""CLI subcommands, CSV round trips, and chart purity."""

import math

import numpy as np
import pytest

import redqueue.cli as cli
from redqueue import SystemParams, rep_batch_tail
from redqueue.cli import main, read_table, svg_chart, write_table

CONFIG_MM1 = """\
# M/M/1 sanity cell
lambda = 0.5
n = 1
m = 0
k = 50
policy = mds
removal = on
horizon = 8000
warmup = 1000
probe_rate = 0.1
seeds = 7
t_max = 8
step = 0.001
"""


class TestTables:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ["t", "a", "b"]
        columns = {
            "t": [0.0, 0.1, 0.2],
            "a": [1.0, 1 / 3, 1e-300],
            "b": [0.5, None, 0.25],
        }
        write_table(path, header, columns)
        h2, c2 = read_table(path)
        assert h2 == header
        assert c2 == columns
        # writing the re-read table is byte-identical
        path2 = tmp_path / "t2.csv"
        write_table(path2, h2, c2)
        assert path.read_bytes() == path2.read_bytes()

    def test_chart_pure_function_of_table(self, tmp_path):
        path = tmp_path / "t.csv"
        t = list(np.linspace(0, 5, 50))
        header = ["t", "rep_d3", "mds_m3"]
        columns = {
            "t": t,
            "rep_d3": [math.exp(-v) for v in t],
            "mds_m3": [math.exp(-2 * v) for v in t],
        }
        write_table(path, header, columns)
        direct = svg_chart(header, columns, title="x")
        reread = svg_chart(*read_table(path), title="x")
        assert direct == reread


class TestAnalytic:
    def test_tail_one_at_zero(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(["analytic", "--lam", "0.5", "--n", "1", "--d", "2",
                   "--m", "1", "--out", str(out)])
        assert rc == 0
        _, cols = read_table(out)
        assert cols["t"][0] == 0.0
        assert cols["rep_d2"][0] == 1.0

    def test_replication_column_value(self, tmp_path):
        out = tmp_path / "a.csv"
        t = math.log(3)
        rc = main(["analytic", "--lam", "0.5", "--n", "3", "--d", "3",
                   "--m", "3", "--t-max", repr(t), "--points", "2",
                   "--out", str(out)])
        assert rc == 0
        _, cols = read_table(out)
        single = (1 / (0.5 + 0.5 * 9)) ** 1.5
        assert cols["rep_d3"][1] == pytest.approx(1 - (1 - single) ** 3, abs=1e-12)

    def test_malformed_grid_names_flag(self, tmp_path, capsys):
        rc = main(["analytic", "--t-max", "-1", "--out", str(tmp_path / "a.csv")])
        assert rc == 1
        assert "--t-max" in capsys.readouterr().err


class TestMeanfield:
    def test_closed_form_column(self, tmp_path):
        out = tmp_path / "mf.csv"
        rc = main(["meanfield", "--lam", "0.5", "--n", "1", "--m", "1", "--out", str(out)])
        assert rc == 0
        _, cols = read_table(out)
        t = np.array(cols["t"])
        closed = 1 / (0.5 + 0.5 * np.exp(t))
        assert np.max(np.abs(np.array(cols["virtual_m1"]) - closed)) <= 1e-6

    def test_coded_load_above_one_needs_no_flag(self, tmp_path):
        # alpha = lam*(n+m)/n = 1 is stable: the drift is negative on (0, 1]
        args = ["meanfield", "--lam", "0.5", "--n", "3", "--m", "3",
                "--out", str(tmp_path / "mf.csv")]
        assert main(args) == 0
        with pytest.raises(SystemExit) as exc:
            main(args + ["--allow-unstable"])
        assert exc.value.code == 2

    def test_columns_monotone_from_one(self, tmp_path):
        out = tmp_path / "mf.csv"
        rc = main(["meanfield", "--lam", "0.5", "--n", "3",
                   "--m", "2", "3", "4", "5", "6", "--out", str(out)])
        assert rc == 0
        header, cols = read_table(out)
        mds_cols = [h for h in header if h.startswith("mds_m")]
        assert len(mds_cols) == 5
        for name in mds_cols:
            v = np.array(cols[name])
            assert v[0] == 1.0
            assert np.all(np.diff(v) <= 1e-12)


class TestSimulate:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(CONFIG_MM1 + f"out_dir = {tmp_path / 'out'}\n")
        return path

    def test_mm1_cell_and_outputs(self, config_path, tmp_path):
        rc = main(["simulate", "--config", str(config_path), "--seed", "7"])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.svg").exists()
        assert (out / "manifest.txt").exists()
        _, cols = read_table(out / "samples_mds_seed7.csv")
        batch = [v for v in cols["batch"] if v is not None]
        assert np.mean(batch) == pytest.approx(2.0, rel=0.05)

    def test_deterministic_outputs(self, config_path, tmp_path):
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        first = (tmp_path / "out" / "samples_mds_seed7.csv").read_bytes()
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        second = (tmp_path / "out" / "samples_mds_seed7.csv").read_bytes()
        assert first == second

    def test_compare_rebuilds_table(self, config_path, tmp_path):
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        out = tmp_path / "out"
        rebuilt = tmp_path / "rebuilt.csv"
        rc = main(["compare", "--config", str(config_path), "--dir", str(out),
                   "--out", str(rebuilt)])
        assert rc == 0
        assert rebuilt.read_bytes() == (out / "comparison.csv").read_bytes()

    def test_compare_reads_only_listed_seeds(self, config_path, tmp_path):
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        out = tmp_path / "out"
        stray = out / "samples_mds_seed999.csv"
        stray.write_bytes((out / "samples_mds_seed7.csv").read_bytes())
        rebuilt = tmp_path / "rebuilt.csv"
        rc = main(["compare", "--config", str(config_path), "--dir", str(out),
                   "--out", str(rebuilt)])
        assert rc == 0
        assert rebuilt.read_bytes() == (out / "comparison.csv").read_bytes()

    def test_compare_missing_listed_seed(self, config_path, tmp_path, capsys):
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        config_path.write_text(config_path.read_text() + "seeds = 7, 8\n")
        rc = main(["compare", "--config", str(config_path), "--dir",
                   str(tmp_path / "out"), "--out", str(tmp_path / "rebuilt.csv")])
        assert rc == 2
        assert "samples_mds_seed8.csv" in capsys.readouterr().err

    def test_compare_needs_listed_seeds(self, config_path, tmp_path):
        main(["simulate", "--config", str(config_path), "--seed", "7"])
        text = config_path.read_text().replace("seeds = 7\n", "")
        config_path.write_text(text)
        rc = main(["compare", "--config", str(config_path), "--dir",
                   str(tmp_path / "out"), "--out", str(tmp_path / "rebuilt.csv")])
        assert rc == 1

    def test_cell_failure_exit_code(self, config_path, monkeypatch):
        def boom(cfg):
            raise RuntimeError("synthetic cell failure")

        monkeypatch.setattr(cli, "run", boom)
        rc = main(["simulate", "--config", str(config_path), "--seed", "7"])
        assert rc == 2

    def test_overload_rejected(self, config_path, capsys):
        config_path.write_text(config_path.read_text().replace("lambda = 0.5", "lambda = 1.2"))
        rc = main(["simulate", "--config", str(config_path), "--seed", "7"])
        assert rc == 1
        assert "lam" in capsys.readouterr().err

    def test_missing_seed_rejected(self, config_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(config_path)])


@pytest.fixture(scope="module")
def fig1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    rc = main(["fig1", "--out-dir", str(out), "--grid-step", "0.05"])
    assert rc == 0
    return out


class TestFig1:
    def test_column_set(self, fig1_dir):
        header, _ = read_table(fig1_dir / "fig1.csv")
        assert [h for h in header if h.startswith("rep_")] == ["rep_d3"]
        assert [h for h in header if h.startswith("mds_")] == [
            f"mds_m{m}" for m in (2, 3, 4, 5, 6)
        ]

    def test_curves_start_at_one(self, fig1_dir):
        header, cols = read_table(fig1_dir / "fig1.csv")
        for name in header[1:]:
            assert cols[name][0] == pytest.approx(1.0, abs=1e-12)

    def test_replication_column_matches_library(self, fig1_dir):
        _, cols = read_table(fig1_dir / "fig1.csv")
        params = SystemParams(lam=0.5, n=3, d=3, k=1000)
        t = np.array(cols["t"])
        assert np.allclose(cols["rep_d3"], rep_batch_tail(params, t), atol=1e-12)

    def test_chart_regenerates_identically(self, fig1_dir):
        svg = (fig1_dir / "fig1.svg").read_text()
        header, cols = read_table(fig1_dir / "fig1.csv")
        regenerated = svg_chart(header, cols, title="batch completion tails, n=3, lam=0.5")
        assert svg == regenerated

    def test_manifest_stamps_lambda(self, fig1_dir):
        text = (fig1_dir / "manifest.txt").read_text()
        assert "lambda = 0.5" in text
        assert "redqueue_version" in text


class TestCodecDemo:
    def test_roundtrip_ok(self, capsys):
        assert main(["codec-demo", "--n", "3", "--m", "2", "--seed", "5"]) == 0
        assert "round-trip OK" in capsys.readouterr().out

    def test_gf16_random_linear(self):
        assert main(["codec-demo", "--n", "4", "--m", "4", "--seed", "1",
                     "--field", "65536", "--scheme", "random-linear"]) == 0


def test_selftest_passes():
    assert main(["selftest"]) == 0
