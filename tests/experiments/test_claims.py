"""The claims driver: the paper's claims over the figures' own numbers."""

import dataclasses

import pytest

from repro.experiments import claims, cli
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.experiments.setup import ExperimentConfig

#: The suite's scale (tests/conftest.py); every claim holds here.
SCALE = 0.05

SOURCES = (
    "table2", "table1", "sequential", "fig1", "fig3", "fig4", "fig6", "fig7",
)

FIGURES = {
    "Table I", "Table II", "Sec II.A", "Fig 1", "Fig 3(a)", "Fig 3(b)",
    "Fig 4", "Fig 6", "Fig 7",
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("claims-cache")


@pytest.fixture(scope="module")
def runner(cache_dir):
    """A runner that has rendered every source figure into ``cache_dir``."""
    runner = ExperimentRunner(
        ExperimentConfig(scale=SCALE), cache=ResultCache(cache_dir)
    )
    cli.run_experiments(SOURCES, runner)
    return runner


def failures(text):
    return [line for line in text.splitlines() if line.endswith(" FAIL")]


def test_every_claim_passes_on_the_figures_numbers(runner):
    simulations = runner.simulations
    result = claims.run(runner)
    assert runner.simulations == simulations  # read, never re-simulated
    assert [row[-1] for row in result.rows] == ["pass"] * len(claims.CLAIMS)
    assert not result.failed


def test_cli_warm_run_simulates_nothing_and_exit_code_follows_claims(
    runner, cache_dir, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    argv = ["claims", "--cache-dir", str(cache_dir)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "# done in" in out and " 0 simulation(s) in-process" in out
    assert failures(out) == []

    broken = dataclasses.replace(
        claims.CLAIMS[0], check=lambda facts: ("forced", False)
    )
    monkeypatch.setattr(claims, "CLAIMS", (broken,) + claims.CLAIMS[1:])
    assert cli.main(argv) == 1
    [line] = failures(capsys.readouterr().out)
    assert line.startswith(broken.name) and "forced" in line


def test_claim_names_are_unique_and_name_their_source_figure():
    names = [claim.name for claim in claims.CLAIMS]
    assert len(set(names)) == len(names)
    assert {name.split(": ", 1)[0] for name in names} == FIGURES


def test_work_is_the_union_of_the_source_figures():
    config = ExperimentConfig(scale=SCALE)
    union = set()
    for name in SOURCES:
        union.update(cli._EXPERIMENTS[name].work(config))
    assert claims.work(config) == sorted(union)


def test_claims_run_only_when_named():
    assert "claims" in cli._EXPERIMENTS
    assert "claims" not in cli._DEFAULT_ORDER


def test_holds_renders_and_evaluates_a_chain():
    assert claims._holds("<", 0.06, 0.07, 0.2) == (
        "0.0600 < 0.0700 < 0.2000", True
    )
    assert claims._holds("<=", 0.1, 0.1) == ("0.1000 <= 0.1000", True)
    assert claims._holds(">", 0.1, 0.2)[1] is False
