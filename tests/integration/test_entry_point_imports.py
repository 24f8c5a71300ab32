"""Each console entry point imports only the layers its job runs.

Start-up time is interpreter start plus imports, so an entry point that
loads a layer it never calls pays for it on every invocation. Each test
imports one ``[project.scripts]`` module in a fresh interpreter and
checks that the named layers are absent from ``sys.modules``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Entry-point module -> layers (packages or modules) it must not load.
ABSENT = {
    "repro.experiments.cli": (
        "repro.serve", "repro.fleet", "repro.qa", "concurrent.futures.process",
    ),
    "repro.serve.cli": (
        "repro.sim.system", "repro.sim.batch", "repro.jvm", "repro.workloads",
        "repro.experiments", "repro.fleet", "repro.qa",
    ),
    "repro.fleet.cli": ("repro.qa", "repro.serve", "repro.experiments"),
    "repro.sim.cli": ("repro.serve", "repro.fleet", "repro.experiments"),
    "repro.qa.cli": ("repro.serve", "repro.fleet", "repro.experiments"),
}


def script_modules():
    """Modules named by ``[project.scripts]`` in pyproject.toml."""
    with open(os.path.join(REPO, "pyproject.toml"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"([\w.]+):\w+"', section))


def loaded_modules(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return json.loads(out)


def test_every_entry_point_has_a_boundary():
    assert set(ABSENT) == script_modules()


@pytest.mark.parametrize("module", sorted(ABSENT))
def test_entry_point_skips_unused_layers(module):
    loaded = loaded_modules(module)
    assert module in loaded
    leaked = sorted(
        name for name in loaded
        for layer in ABSENT[module]
        if name == layer or name.startswith(layer + ".")
    )
    assert leaked == []
