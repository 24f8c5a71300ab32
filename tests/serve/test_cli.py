"""The ``repro-serve`` CLI: flag parsing and pool-mode lifecycle."""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.common.errors import ConfigError
from repro.serve.cli import build_parser, config_from_args
from repro.serve.client import ServeClient

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# ----------------------------------------------------------------------
# Flag parsing
# ----------------------------------------------------------------------


def _config(*argv):
    return config_from_args(build_parser().parse_args(argv))


class TestFlagParsing:
    def test_defaults_are_a_single_in_process_worker(self):
        config = _config("--socket", "/tmp/x.sock")
        assert config.n_workers == 1
        assert config.worker_id is None
        assert config.fleet_dir is None
        assert config.predict_cache_mem == 0
        assert config.predict_cache_dir is None

    def test_workers_flag_reaches_the_config(self):
        config = _config("--socket", "/tmp/x.sock", "--workers", "4")
        assert config.n_workers == 4

    def test_zero_workers_is_a_config_error(self):
        with pytest.raises(ConfigError, match="--workers"):
            _config("--socket", "/tmp/x.sock", "--workers", "0")

    def test_cache_flags_reach_the_config(self):
        config = _config(
            "--socket", "/tmp/x.sock",
            "--predict-cache-mem", "512",
            "--predict-cache-dir", "/tmp/cachedir",
            "--fleet-dir", "/tmp/fleetdir",
        )
        assert config.predict_cache_mem == 512
        assert config.predict_cache_dir == "/tmp/cachedir"
        assert config.fleet_dir == "/tmp/fleetdir"
        assert config.predict_cache_enabled

    def test_units_convert_on_the_flag_boundary(self):
        config = _config("--socket", "/tmp/x.sock", "--max-frame-kb", "64")
        assert config.max_frame_bytes == 64 * 1024

    def test_shared_predict_cache_is_a_driver_flag_not_config(self):
        args = build_parser().parse_args(
            ["--socket", "/tmp/x.sock", "--workers", "2",
             "--shared-predict-cache"]
        )
        assert args.shared_predict_cache is True

    def test_shared_predict_cache_without_a_pool_exits_2(
        self, monkeypatch, capsys
    ):
        """One in-process server has no pool cache to share: refuse the
        flag at parse time instead of dropping it."""
        from repro.serve import cli

        monkeypatch.setattr(
            cli, "_run", lambda config: pytest.fail("a server was started")
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["--socket", "/tmp/x.sock", "--shared-predict-cache"])
        assert exc.value.code == 2
        assert "--workers > 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Pool-mode lifecycle (a real repro-serve process)
# ----------------------------------------------------------------------


def _spawn_serve(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )


def _wait_ready(process, timeout=90.0):
    """Read stdout until the readiness line (process prints then serves)."""
    deadline = time.monotonic() + timeout
    line = process.stdout.readline()
    if time.monotonic() > deadline:
        raise TimeoutError("no readiness line")
    return line


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="platform has no AF_UNIX sockets"
)
def test_pool_mode_serves_and_shuts_down_gracefully(tmp_path):
    """``--workers 2`` answers on its worker sockets; SIGTERM exits 0."""
    pool_path = str(tmp_path / "serve.sock")
    workers = [pool_path + ".w0", pool_path + ".w1"]
    process = _spawn_serve("--socket", pool_path, "--workers", "2")
    try:
        banner = _wait_ready(process)
        assert "repro-serve ready" in banner
        assert "(2 workers)" in banner
        for path in workers:
            assert f"unix:{path}" in banner
        assert not os.path.exists(pool_path)  # nothing binds the pool's path
        for path in workers:
            with ServeClient.connect(socket_path=path) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["n_workers"] == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        # Graceful teardown removes every worker's socket.
        assert not any(os.path.exists(path) for path in workers)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
