"""Experiment configuration."""

import pytest

from repro.common.errors import ConfigError
from repro.experiments.cli import main
from repro.experiments.setup import ExperimentConfig


def test_default_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.4")
    assert ExperimentConfig().scale == pytest.approx(0.4)


def test_bad_env_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "soon")
    with pytest.raises(ConfigError):
        ExperimentConfig()
    monkeypatch.setenv("REPRO_SCALE", "-1")
    with pytest.raises(ConfigError):
        ExperimentConfig()


@pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1", "abc"])
def test_bad_env_is_a_usage_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("REPRO_SCALE", raw)
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--no-cache"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: REPRO_SCALE must be" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_benchmark_partitions():
    config = ExperimentConfig(scale=1.0)
    assert set(config.memory_intensive) | set(config.compute_intensive) == set(
        config.benchmarks
    )
    assert "xalan" in config.memory_intensive
    assert "sunflow" in config.compute_intensive


def test_paper_parameters():
    config = ExperimentConfig(scale=1.0)
    assert config.quantum_ns == 5.0e6
    assert config.thresholds == (0.05, 0.10)
    assert config.targets_up_ghz == (2.0, 3.0, 4.0)
    assert config.targets_down_ghz == (3.0, 2.0, 1.0)
