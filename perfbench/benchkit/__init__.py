"""The repository benchmark's own modules (see ``perfbench/BENCHMARK.md``)."""
