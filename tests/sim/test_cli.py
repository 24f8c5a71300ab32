"""The repro-trace CLI."""

import json

import pytest

from repro.sim.cli import main


@pytest.fixture(scope="module")
def archived_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "pmd_scale.json.gz"
    code = main([
        "simulate", "pmd_scale", "--freq", "1.0", "--scale", "0.02",
        "--out", str(path),
    ])
    assert code == 0
    return path


def test_simulate_writes_archive(archived_trace, capsys):
    assert archived_trace.exists()
    assert archived_trace.stat().st_size > 100


def test_stats_subcommand(archived_trace, capsys):
    assert main(["stats", str(archived_trace)]) == 0
    out = capsys.readouterr().out
    assert "Trace statistics" in out
    assert "Criticality stack" in out
    assert "pmd_scale-worker-0" in out


def test_predict_single_model(archived_trace, capsys):
    assert main(["predict", str(archived_trace), "--target", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "DEP+BURST" in out
    assert "4 GHz" in out


def test_predict_all_models(archived_trace, capsys):
    assert main([
        "predict", str(archived_trace), "--target", "2.0", "--all-models",
    ]) == 0
    out = capsys.readouterr().out
    for model in ("M+CRIT", "COOP", "DEP", "DEP+BURST"):
        assert model in out


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "0", "-1"])
def test_invalid_target_exits_2(archived_trace, capsys, target):
    assert main(["predict", str(archived_trace), f"--target={target}"]) == 2
    assert capsys.readouterr().out.startswith("error: target frequency")


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "h2", "--out", "x.json"])


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_scale_exits_2(tmp_path, capsys, scale):
    out_path = tmp_path / "x.json"
    assert main([
        "simulate", "xalan", "--freq", "2", "--scale", scale,
        "--out", str(out_path),
    ]) == 2
    assert capsys.readouterr().out.startswith("error: scale must be")
    assert not out_path.exists()


def test_bad_repro_scale_does_not_break_verify(
    archived_trace, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_SCALE", "abc")
    assert main(["verify", str(archived_trace)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


@pytest.mark.parametrize("command", ["stats", "predict", "verify"])
def test_missing_archive_exits_2(tmp_path, capsys, command):
    extra = ["--target", "2.0"] if command == "predict" else []
    assert main([command, str(tmp_path / "absent.json.gz"), *extra]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: cannot read trace archive")


def test_malformed_archive_exits_2(tmp_path, capsys):
    from repro.sim.serialize import FORMAT_VERSION

    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"format_version": FORMAT_VERSION}))
    assert main(["stats", str(path)]) == 2
    assert "error: malformed trace document" in capsys.readouterr().out


def test_v1_archive_exits_2_with_the_version(archived_trace, tmp_path, capsys):
    import gzip

    from repro.sim.serialize import load_trace, trace_to_dict

    # A version-1 archive was the row-per-event dict, version field 1.
    payload = trace_to_dict(load_trace(archived_trace))
    payload["format_version"] = 1
    path = tmp_path / "v1.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert "error: trace format version 1 not supported (expected 2)" in out
