"""Experiment harness: regenerates every table and figure of the paper.

Each module reproduces one artifact of the evaluation:

========  ==========================================================
module    paper artifact
========  ==========================================================
table1    Table I   — benchmark characteristics at 1 GHz
table2    Table II  — simulated system parameters
fig1      Figure 1  — M+CRIT vs DEP+BURST average error vs target
fig3      Figure 3  — per-benchmark error, 6 models, both directions
fig4      Figure 4  — across-epoch vs per-epoch CTP
fig6      Figure 6  — energy savings at 5%/10% slowdown thresholds
fig7      Figure 7  — dynamic manager vs static-optimal
========  ==========================================================

All experiments share an :class:`~repro.experiments.runner.ExperimentRunner`
that caches ground-truth simulations (the expensive part), so running the
whole suite simulates each benchmark once per needed frequency. Construct
the runner with a :class:`~repro.experiments.cache.ResultCache` and the
ground truths persist across processes (content-addressed, corruption
tolerant); :func:`~repro.experiments.parallel.execute` fans a declared
work grid out over worker processes sharing that store.

The ``REPRO_SCALE`` environment variable (default 1.0) shortens every
benchmark proportionally — error structure and energy trends are
scale-invariant, so ``REPRO_SCALE=0.3`` gives a quick faithful pass.
"""

from repro.experiments.setup import ExperimentConfig, default_config
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.parallel import WorkItem, execute
from repro.experiments.runner import ExperimentRunner

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "ResultCache",
    "WorkItem",
    "default_cache_dir",
    "default_config",
    "execute",
]
