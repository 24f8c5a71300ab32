"""The paper's contribution: DVFS performance predictors.

Sequential predictors (Section II.A) estimate a single thread's
scaling/non-scaling split from hardware counters:

* :mod:`~repro.core.stalltime` — commit-stall time (least accurate),
* :mod:`~repro.core.leadingloads` — leading-load latency per miss cluster,
* :mod:`~repro.core.crit` — CRIT's dependent-miss critical path
  (state of the art; the per-thread estimator used by everything below).

Multithreaded predictors (Sections II.C and III):

* :mod:`~repro.core.mcrit` — M+CRIT: per-thread CRIT over whole lifetimes,
  total = slowest thread (naive baseline),
* :mod:`~repro.core.coop` — COOP: split application/collector phases, then
  M+CRIT per phase,
* :mod:`~repro.core.dep` — DEP: futex-delimited synchronization epochs with
  per-epoch or across-epoch critical thread prediction (Algorithm 1).

Any of them can be combined with **BURST** (:mod:`~repro.core.burst`),
which adds the store-queue-full time to the non-scaling component.

Use :func:`~repro.core.predictors.make_predictor` to build a predictor by
name, and :mod:`~repro.core.evaluate` for error metrics.
"""

from repro.core.burst import with_burst
from repro.core.crit import crit_nonscaling
from repro.core.dep import DepPredictor
from repro.core.epochs import Epoch, extract_epochs
from repro.core.evaluate import prediction_error
from repro.core.leadingloads import leading_loads_nonscaling
from repro.core.mcrit import MCritPredictor
from repro.core.coop import CoopPredictor
from repro.core.model import TimeDecomposition, decompose
from repro.core.predictors import make_predictor, predictor_names
from repro.core.stalltime import stall_time_nonscaling

__all__ = [
    "CoopPredictor",
    "DepPredictor",
    "Epoch",
    "MCritPredictor",
    "TimeDecomposition",
    "crit_nonscaling",
    "decompose",
    "extract_epochs",
    "leading_loads_nonscaling",
    "make_predictor",
    "prediction_error",
    "predictor_names",
    "stall_time_nonscaling",
    "with_burst",
]
