"""Columnar batch evaluation of epoch-window predictions.

The online prediction service (:mod:`repro.serve`) coalesces concurrent
``predict`` requests into batches. Evaluating each request scalar-style
costs one :func:`~repro.core.model.decompose` per (epoch, thread) entry
and one Python-level multiply-add per target frequency; this module
flattens every entry of every request in a batch into column arrays —
the same idiom as :meth:`repro.arch.core.CoreModel.time_batch` — and
performs the decomposition and frequency scaling as elementwise NumPy
expressions.

Bit-compatibility contract (mirroring ``time_batch``): every predicted
duration equals the scalar ``predictor.predict_epochs`` result for the
same job, because the vectorized expressions perform the identical
IEEE-754 operations elementwise:

    nonscaling = min(max(estimate, 0), wall)        # decompose's clamp
    predicted  = (wall - nonscaling) * base / target + nonscaling

The per-epoch critical-thread policy (Algorithm 1's delta bookkeeping)
stays a Python loop over precomputed per-thread predictions — it is
inherently sequential across epochs but touches only a handful of floats
per epoch.

The kernels themselves live in :mod:`repro.core.sweep` (the sweep engine
shares them with the experiment drivers and the energy manager); this
module adds the batch concern the service needs: DEP-family jobs with a
recognized linear estimator are flattened together so one columnar pass
covers the whole batch. M+CRIT/COOP jobs route through the sweep window
kernels per job; custom predictors or estimators fall back to the scalar
code, so results never depend on which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import PredictionError
from repro.common.units import check_frequency
from repro.core.dep import DepPredictor
from repro.core.epochs import Epoch
from repro.core.model import check_predicted_ns
from repro.core.sweep import (
    ctp_total,
    estimator_key,
    sweep_predict_epochs,
    vector_estimate,
)


@dataclass(frozen=True)
class PredictJob:
    """One request's worth of prediction work."""

    predictor: object  # anything with predict_epochs(epochs, base, target)
    epochs: Sequence[Epoch]
    base_freq_ghz: float
    target_freqs_ghz: Tuple[float, ...]


class _Columns:
    """Counter columns of all (epoch, thread) entries of a job group."""

    __slots__ = ("wall", "crit", "leading", "stall", "sqfull")

    def __init__(self, entries: List) -> None:
        n = len(entries)
        self.wall = np.empty(n)
        self.crit = np.empty(n)
        self.leading = np.empty(n)
        self.stall = np.empty(n)
        self.sqfull = np.empty(n)
        for i, c in enumerate(entries):
            self.wall[i] = c.active_ns
            self.crit[i] = c.crit_ns
            self.leading[i] = c.leading_ns
            self.stall[i] = c.stall_ns
            self.sqfull[i] = c.sqfull_ns


def _vector_estimate(estimator, cols) -> np.ndarray:
    """Columnar non-scaling estimate matching ``estimator`` exactly.

    A module-level indirection over :func:`repro.core.sweep.vector_estimate`
    so fault-injection tests can perturb the batch path in one place.
    """
    return vector_estimate(estimator, cols)


def scalar_results(job: PredictJob) -> List[float]:
    """Reference path: one scalar ``predict_epochs`` call per target."""
    return [
        job.predictor.predict_epochs(job.epochs, job.base_freq_ghz, target)
        for target in job.target_freqs_ghz
    ]


def evaluate_predict_jobs(jobs: Sequence[PredictJob]) -> List[List[float]]:
    """Evaluate a batch of jobs; results[i][k] is job i at its k-th target.

    DEP-family jobs with a recognized estimator share columnar passes
    (grouped per estimator); M+CRIT/COOP jobs run the sweep window
    kernels per job; everything else runs the scalar path (the sweep
    dispatcher's own fallback).
    """
    results: List[Optional[List[float]]] = [None] * len(jobs)
    groups: Dict[str, List[int]] = {}
    for i, job in enumerate(jobs):
        key = None
        if isinstance(job.predictor, DepPredictor):
            key = estimator_key(job.predictor.estimator)
        if key is None:
            results[i] = sweep_predict_epochs(
                job.predictor,
                job.epochs,
                job.base_freq_ghz,
                job.target_freqs_ghz,
            )
        else:
            groups.setdefault(key, []).append(i)
    for indices in groups.values():
        _evaluate_group([jobs[i] for i in indices], indices, results)
    return results  # type: ignore[return-value]


def _evaluate_group(
    group: List[PredictJob], indices: List[int], results: List
) -> None:
    """Columnar evaluation of jobs sharing one estimator."""
    entries: List = []
    # Per job: (entry_lo, per-epoch thread layout). The layout remembers,
    # for each epoch, its (tids, duration, stall_tid) so the CTP loop can
    # slice the flat prediction array back into epochs.
    layouts: List[Tuple[int, List[Tuple[Tuple[int, ...], float, Optional[int]]]]] = []
    for job in group:
        lo = len(entries)
        epoch_meta = []
        for epoch in job.epochs:
            tids = tuple(epoch.thread_deltas)
            for tid in tids:
                entries.append(epoch.thread_deltas[tid])
            epoch_meta.append((tids, epoch.duration_ns, epoch.stall_tid))
        layouts.append((lo, epoch_meta))
    cols = _Columns(entries)
    if cols.wall.size and float(cols.wall.min()) < 0:
        raise PredictionError("negative wall time in predict batch")
    estimate = _vector_estimate(group[0].predictor.estimator, cols)
    nonscaling = np.minimum(np.maximum(estimate, 0.0), cols.wall)
    scaling = cols.wall - nonscaling
    for job, (lo, epoch_meta), out_index in zip(group, layouts, indices):
        for freq in (job.base_freq_ghz, *job.target_freqs_ghz):
            check_frequency("frequency", freq, PredictionError)
        n = sum(len(tids) for tids, _, _ in epoch_meta)
        s = scaling[lo : lo + n]
        ns = nonscaling[lo : lo + n]
        across = job.predictor.across_epoch_ctp
        job_results: List[float] = []
        for target in job.target_freqs_ghz:
            predicted = (s * job.base_freq_ghz / target + ns).tolist()
            job_results.append(
                check_predicted_ns(ctp_total(epoch_meta, predicted, across))
            )
        results[out_index] = job_results
