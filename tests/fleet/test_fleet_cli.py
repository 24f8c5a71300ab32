"""The repro-fleet CLI: run/report/compare/grid/cache, determinism, errors."""

import json

import pytest

from repro.fleet.cli import main

ARGS = ["--tenants", "5", "--seed", "2", "--rate", "50000"]


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    """Keep every CLI invocation's profile store inside the test tmpdir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_run_writes_a_deterministic_report(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", *ARGS, "--out", str(out_a)]) == 0
    text = capsys.readouterr().out
    assert "Fleet run — paper-governor" in text
    assert "Per-family rollup" in text
    # The second run hits the warm profile store; bytes must not move.
    assert main(["run", *ARGS, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_no_cache_cold_and_warm_leave_report_bytes_alone(
    tmp_path, isolated_cache, capsys
):
    outs = [tmp_path / f"{leg}.json" for leg in ("none", "cold", "warm")]
    assert main(["run", *ARGS, "--no-cache", "--out", str(outs[0])]) == 0
    assert not isolated_cache.exists()
    assert main(["run", *ARGS, "--out", str(outs[1])]) == 0
    assert main(["run", *ARGS, "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_report_rerenders_a_saved_run(tmp_path, capsys):
    out = tmp_path / "fleet.json"
    assert main(["run", *ARGS, "--policy", "static-max",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "Fleet run — static-max" in capsys.readouterr().out


def test_report_on_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().out


def test_compare_runs_selected_policies(capsys):
    assert main([
        "compare", *ARGS, "--policies", "static-max,static-oracle",
    ]) == 0
    text = capsys.readouterr().out
    assert "Fleet policy comparison" in text
    assert "static-max" in text
    assert "static-oracle (per-tenant)" in text


def test_compare_rejects_unknown_policy(capsys):
    assert main(["compare", *ARGS, "--policies", "bogus"]) == 2
    assert "unknown fleet policy" in capsys.readouterr().out


def test_run_rejects_unknown_policy_at_parse_time():
    with pytest.raises(SystemExit):
        main(["run", "--policy", "bogus"])


def test_grid_writes_the_figure(tmp_path, capsys):
    out = tmp_path / "grid.json"
    assert main([
        "grid", *ARGS, "--policies", "static-max,tail-allocator",
        "--caps", "150,400", "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "Fleet grid — 5 tenants" in text
    payload = json.loads(out.read_text())
    assert payload["kind"] == "repro-fleet-grid"
    assert len(payload["cells"]) == 4
    assert "diagnostics" not in payload


def test_cache_stats_and_clear(isolated_cache, capsys):
    assert main(["run", *ARGS]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    text = capsys.readouterr().out
    assert "profile cache:" in text
    assert "entries:       0" not in text  # the run stored profiles
    assert main(["cache", "clear"]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert "entries:       0" in capsys.readouterr().out


def test_profile_flag_dumps_pstats(tmp_path, capsys):
    pstats = tmp_path / "fleet.pstats"
    assert main(["--profile", str(pstats), "run", *ARGS]) == 0
    assert pstats.exists()
    assert "profile written to" in capsys.readouterr().out
