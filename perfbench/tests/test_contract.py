"""BENCHMARK.json matches what the benchmark code reports."""

import json
from pathlib import Path

from benchkit import checks, layers

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_reported_metrics():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


def test_cells_match_tolerates_only_the_last_printed_digit():
    assert checks.cells_match("+5.3%", "+5.3%")
    assert checks.cells_match("+5.4%", "+5.3%")
    assert not checks.cells_match("+5.5%", "+5.3%")
    assert not checks.cells_match("12", "13")          # counts are exact
    assert not checks.cells_match("5.30%", "5.3%")      # precision is part of the text
    assert not checks.cells_match("lusearch", "avrora")
    assert checks.cells_match("4 GHz", "4 GHz")
