"""Pytest configuration: make `tests.util` importable and set defaults."""

import atexit
import os
import shutil
import sys
import tempfile

# Tests always run the miniature workloads; never inherit a user's scale.
os.environ.setdefault("REPRO_SCALE", "0.05")

# Keep the persistent result cache out of the user's ~/.cache during tests:
# anything CLI-level that caches goes to a throwaway directory, removed
# when the session's process exits. A REPRO_CACHE_DIR the user set is
# used as it is and never removed.
if "REPRO_CACHE_DIR" not in os.environ:
    _cache_dir = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE_DIR"] = _cache_dir
    atexit.register(shutil.rmtree, _cache_dir, ignore_errors=True)

sys.path.insert(0, os.path.dirname(__file__))
