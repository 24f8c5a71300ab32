"""The fleet policy × cap grid driver on a miniature fleet."""

import json

import pytest

from repro.experiments import fleet_study
from repro.experiments.cli import _DEFAULT_ORDER, _EXPERIMENTS
from repro.experiments.runner import ExperimentRunner
from repro.fleet.policy import policy_names


def test_registered_with_the_experiment_cli():
    assert _EXPERIMENTS["fleet"] is fleet_study
    assert "fleet" in _DEFAULT_ORDER


def test_no_prefetchable_work():
    assert fleet_study.work(object()) == []


def test_study_covers_the_whole_grid(monkeypatch):
    monkeypatch.setattr(fleet_study, "FLEET_TENANTS", 6)
    monkeypatch.setattr(fleet_study, "CAPS_W", (150.0, 400.0))
    result = fleet_study.run(ExperimentRunner())
    names = [row[0] for row in result.rows]
    # Policy-major cell order: each policy appears once per cap.
    expected = [policy for policy in policy_names() for _ in (0, 1)]
    assert names[:-1] == expected
    assert names[-1] == "static-oracle/tenant"
    caps = {row[1] for row in result.rows[:-1]}
    assert caps == {"150", "400"}
    assert len(result.headers) == len(result.rows[0])
    # Deterministic: a second run renders the identical table.
    again = fleet_study.run(ExperimentRunner())
    assert again.rows == result.rows


def test_figure_writer_is_deterministic(monkeypatch, tmp_path):
    from repro.experiments.cache import ResultCache

    monkeypatch.setattr(fleet_study, "FLEET_TENANTS", 6)
    monkeypatch.setattr(fleet_study, "CAPS_W", (150.0, 400.0))
    out_a = tmp_path / "cold.json"
    out_b = tmp_path / "warm.json"
    fleet_study.write_figure(
        out_a, ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
    )
    warm = fleet_study.write_figure(
        out_b, ExperimentRunner(cache=ResultCache(tmp_path / "cache"))
    )
    assert warm["diagnostics"]["cache_hits"] == warm["diagnostics"]["profiles"]
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["kind"] == "repro-fleet-grid"
    assert len(payload["cells"]) == 2 * len(policy_names())


def test_profile_cache_rides_the_result_cache(tmp_path):
    from repro.experiments.cache import ResultCache

    runner = ExperimentRunner(cache=ResultCache(tmp_path))
    cache = fleet_study.profile_cache_for(runner)
    assert cache is not None
    assert cache.root == tmp_path / "fleet-profiles"
    assert fleet_study.profile_cache_for(ExperimentRunner()) is None


def test_main_writes_the_figure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fleet_study, "FLEET_TENANTS", 6)
    monkeypatch.setattr(fleet_study, "CAPS_W", (400.0,))
    out = tmp_path / "fleet_grid.json"
    assert fleet_study.main(["--out", str(out), "--no-cache"]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert json.loads(out.read_text())["config"]["tenants"] == 6
