"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_DATA, main
from repro.data import io as data_io


@pytest.fixture()
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.vstack([
        rng.normal(10_000, 300, size=(80, 2)),
        rng.normal(60_000, 300, size=(80, 2)),
    ])
    path = str(tmp_path / "data.npy")
    data_io.save_points(pts, path)
    return path


class TestGenerate:
    @pytest.mark.parametrize("kind", ["ss", "moons", "rings", "snakes"])
    def test_generate_kinds(self, tmp_path, kind, capsys):
        out = str(tmp_path / f"{kind}.npy")
        assert main(["generate", kind, out, "-n", "300", "--seed", "1"]) == 0
        pts = data_io.load_points(out)
        assert len(pts) == 300
        assert "wrote" in capsys.readouterr().out

    def test_generate_real_like(self, tmp_path):
        out = str(tmp_path / "pamap2.csv")
        assert main(["generate", "pamap2", out, "-n", "200", "--seed", "2"]) == 0
        assert data_io.load_points(out).shape == (200, 4)

    def test_generate_ss_dimension(self, tmp_path):
        out = str(tmp_path / "ss5.npy")
        assert main(["generate", "ss", out, "-n", "200", "-d", "5"]) == 0
        assert data_io.load_points(out).shape[1] == 5


class TestCluster:
    def test_cluster_approx(self, dataset, capsys):
        assert main(["cluster", dataset, "--eps", "2000", "--min-pts", "5"]) == 0
        assert "cluster(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["grid", "brute", "kdd96", "cit08"])
    def test_cluster_exact_algorithms(self, dataset, algo, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", algo,
        ])
        assert code == 0
        assert "2 cluster(s)" in capsys.readouterr().out

    def test_labels_out(self, dataset, tmp_path):
        labels_path = str(tmp_path / "labels.txt")
        main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--labels-out", labels_path,
        ])
        labels = np.loadtxt(labels_path)
        assert len(labels) == 160

    def test_missing_file_error(self, capsys):
        code = main(["cluster", "/nope.npy", "--eps", "1"])
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err


class TestEngineAndProfileFlags:
    def test_engine_cache_run(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", "grid", "--engine-cache",
        ])
        assert code == 0
        assert "cluster(s)" in capsys.readouterr().out

    def test_profile_prints_phase_table(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", "grid", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("grid", "cores", "components", "borders", "total"):
            assert phase in out
        assert "share" in out

    def test_profile_with_engine_cache_shows_stats(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", "grid", "--engine-cache", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hits" in out
        assert "cache misses" in out

    def test_profile_without_grid_pipeline(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", "kdd96", "--profile",
        ])
        assert code == 0
        assert "no phase profile" in capsys.readouterr().out

    def test_engine_cache_resilience_conflict_is_3(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--engine-cache", "--resilience",
        ])
        assert code == EXIT_CONFIG
        assert "engine-cache" in capsys.readouterr().err


class TestExitCodes:
    """Each failure class maps to its own documented exit code."""

    def test_config_error_is_3(self, dataset, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        code = main(["cluster", dataset, "--eps", "2000", "--min-pts", "5"])
        assert code == EXIT_CONFIG == 3
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_bad_chunk_budget_fails_fast(self, dataset, monkeypatch, capsys):
        # The budget is only consumed inside the chunked kernels, which
        # small workloads may never reach — the CLI still validates it up
        # front so a malformed value cannot ride along silently.
        monkeypatch.setenv("REPRO_CHUNK_BUDGET", "bogus")
        code = main(["cluster", dataset, "--eps", "2000", "--min-pts", "5"])
        assert code == EXIT_CONFIG == 3
        assert "REPRO_CHUNK_BUDGET" in capsys.readouterr().err

    def test_data_error_is_4(self, tmp_path, capsys):
        path = str(tmp_path / "dirty.csv")
        with open(path, "w") as fh:
            fh.write("1.0,2.0\n3.0,nan\n4.0,5.0\n")
        code = main(["cluster", path, "--eps", "1", "--min-pts", "2"])
        assert code == EXIT_DATA == 4
        assert "non-finite" in capsys.readouterr().err

    def test_bad_rows_drop_recovers(self, tmp_path):
        path = str(tmp_path / "dirty.csv")
        rng = np.random.default_rng(0)
        pts = rng.normal(10_000, 300, size=(40, 2))
        data_io.save_points(pts, path)
        with open(path, "a") as fh:
            fh.write("3.0,nan\n")
        code = main([
            "cluster", path, "--on-bad-rows", "drop",
            "--eps", "2000", "--min-pts", "5",
        ])
        assert code == 0

    def test_budget_error_is_5(self, dataset, capsys):
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--time-budget", "0.000001",
        ])
        assert code == EXIT_BUDGET == 5
        assert "budget" in capsys.readouterr().err

    def test_workers_flag_accepts_clean_run(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_POINTS", "0")
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--algorithm", "grid", "--workers", "2",
        ])
        assert code == 0


class TestCompare:
    def test_compare_same(self, dataset, capsys):
        code = main(["compare", dataset, "--eps", "2000", "--min-pts", "5"])
        assert code == 0
        assert "SAME" in capsys.readouterr().out


class TestLegalRhoAndCollapse:
    def test_legal_rho(self, dataset, capsys):
        code = main(["legal-rho", dataset, "--eps", "2000", "--min-pts", "5"])
        assert code == 0
        assert "maximum legal rho" in capsys.readouterr().out

    def test_collapse(self, dataset, capsys):
        code = main(["collapse", dataset, "--min-pts", "5", "--lo", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "collapsing radius" in out
