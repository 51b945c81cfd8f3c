"""Tests for the config module, error types, and new CLI commands."""

import numpy as np
import pytest

from repro import config
from repro.cli import main
from repro.data import io as data_io
from repro.errors import (
    AlgorithmError,
    ConfigError,
    DataError,
    ParameterError,
    ReproError,
    TimeoutExceeded,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (ParameterError, DataError, AlgorithmError, TimeoutExceeded):
            assert issubclass(exc_type, ReproError)

    def test_parameter_error_is_value_error(self):
        assert issubclass(ParameterError, ValueError)
        assert issubclass(DataError, ValueError)

    def test_timeout_carries_fields(self):
        exc = TimeoutExceeded(12.5, 10.0)
        assert exc.elapsed == 12.5
        assert exc.budget == 10.0
        assert "12.50s" in str(exc)

    def test_single_except_catches_everything(self):
        caught = []
        for exc in (ParameterError("x"), DataError("y"), TimeoutExceeded(1, 0)):
            try:
                raise exc
            except ReproError as e:
                caught.append(e)
        assert len(caught) == 3


class TestConfig:
    def test_paper_constants(self):
        assert config.DOMAIN_SIZE == 100_000.0
        assert config.PAPER_MINPTS == 100
        assert config.FIG9_MINPTS == 20
        assert config.DEFAULT_RHO == 0.001
        assert config.PAPER_RHO_GRID[0] == 0.001
        assert config.PAPER_RHO_GRID[-1] == 0.1
        assert config.PAPER_DIMENSIONS == (3, 5, 7)

    def test_scale_factor_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert config.scale_factor() == 1.0

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert config.scale_factor() == 2.5

    def test_scale_factor_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        assert config.scale_factor() == 1.0

    def test_scale_factor_negative_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-3")
        assert config.scale_factor() == 1.0

    def test_scaled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert config.scaled(2_000_000) == 20_000
        assert config.scaled(1) == 100  # floor


class TestStrictEnvParsing:
    """Invalid REPRO_* values fail loudly with ConfigError at call time."""

    def test_workers_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert config.default_workers() == 1

    def test_workers_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert config.default_workers() == 4

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-2", " "])
    def test_workers_invalid(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        if not value.strip():
            assert config.default_workers() == 1  # empty counts as unset
        else:
            with pytest.raises(ConfigError, match="REPRO_WORKERS"):
                config.default_workers()

    def test_min_points_zero_is_legal(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_POINTS", "0")
        assert config.parallel_min_points() == 0

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_min_points_invalid(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_POINTS", value)
        with pytest.raises(ConfigError, match="REPRO_PARALLEL_MIN_POINTS"):
            config.parallel_min_points()

    def test_chunk_budget_default_and_valid(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_BUDGET", raising=False)
        assert config.chunk_budget() == 4_000_000
        monkeypatch.setenv("REPRO_CHUNK_BUDGET", "1000")
        assert config.chunk_budget() == 1000

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-7"])
    def test_chunk_budget_invalid(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHUNK_BUDGET", value)
        with pytest.raises(ConfigError, match="REPRO_CHUNK_BUDGET"):
            config.chunk_budget()

    def test_chunk_budget_steers_distance_chunking(self, monkeypatch):
        from repro.geometry import distance as dm

        monkeypatch.setenv("REPRO_CHUNK_BUDGET", "10")
        rng = np.random.default_rng(3)
        a = rng.normal(size=(23, 2))
        b = rng.normal(size=(4, 2))
        chunks = list(dm.iter_chunked_sq_dists(a, b))
        assert len(chunks) > 1  # tiny budget forces many chunks
        full = dm.pairwise_sq_dists(a, b)
        for rows, block in chunks:
            assert np.allclose(block, full[rows])

    def test_config_error_is_repro_and_value_error(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)


@pytest.fixture()
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.vstack([
        rng.normal(10_000, 300, size=(60, 2)),
        rng.normal(60_000, 300, size=(60, 2)),
    ])
    path = str(tmp_path / "data.npy")
    data_io.save_points(pts, path)
    return path


class TestNewCLICommands:
    def test_suggest_eps(self, dataset, capsys):
        code = main([
            "suggest-eps", dataset, "--min-pts", "5",
            "--lo", "500", "--hi", "40000", "--steps", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested eps" in out

    def test_optics_profile(self, dataset, capsys):
        code = main(["optics", dataset, "--eps", "5000", "--min-pts", "5"])
        assert code == 0
        assert "OPTICS ordering" in capsys.readouterr().out

    @pytest.mark.parametrize("ext", ["json", "npz"])
    def test_cluster_result_out(self, dataset, tmp_path, ext):
        out_path = str(tmp_path / f"res.{ext}")
        code = main([
            "cluster", dataset, "--eps", "2000", "--min-pts", "5",
            "--result-out", out_path,
        ])
        assert code == 0
        from repro.core.serialize import load_clustering

        restored = load_clustering(out_path)
        assert restored.n_clusters == 2


class TestLogging:
    def test_library_silent_by_default(self, capsys):
        import numpy as np

        from repro import dbscan

        dbscan(np.zeros((5, 2)), 1.0, 2)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_debug_records_emitted(self, caplog):
        import logging

        import numpy as np

        from repro import approx_dbscan, dbscan

        with caplog.at_level(logging.DEBUG, logger="repro"):
            pts = np.random.default_rng(0).uniform(0, 20, (100, 2))
            dbscan(pts, 2.0, 4)
            approx_dbscan(pts, 2.0, 4, rho=0.01)
        messages = [r.message for r in caplog.records]
        assert any("grid built" in m for m in messages)
        assert any("components" in m for m in messages)
        assert any("border assignment" in m for m in messages)

    def test_get_logger_namespacing(self):
        from repro.utils.log import get_logger

        assert get_logger("x.y").name == "repro.x.y"
