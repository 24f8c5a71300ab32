"""The frequency contract: every GHz target, GHz base and uncore scale is
finite and above zero at every entry point, or the entry raises the
``ReproError`` it raises for zero (``PredictionError`` inside the
predictors, ``ConfigError`` at configuration edges).

NaN used to slip through ``<= 0`` checks and come out as a wrong number
(0.0 on the scalar path, ``nan`` on the sweep path); ±inf came out as a
finite prediction, and an infinite machine ladder bound overflowed an
``int`` conversion.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.arch.clusters import ClusterSpec
from repro.arch.specs import haswell_i7_4770k
from repro.common.errors import ConfigError, PredictionError
from repro.core.epochs import extract_epochs
from repro.core.predictors import make_predictor, predictor_names
from repro.core.sweep import EpochArrays, TraceSweep, sweep_predict_epochs
from repro.core.vectorized import PredictJob, evaluate_predict_jobs
from repro.energy.manager import EnergyManagerSession
from repro.energy.vftable import NodeVfTable
from repro.sim.run import simulate
from tests.fleet.conftest import tiny_tenant
from tests.util import lock_pair_program

BAD = (float("nan"), float("inf"), float("-inf"), 0.0, -1.0)
BAD_IDS = ("nan", "inf", "-inf", "zero", "negative")
bad = pytest.mark.parametrize("value", BAD, ids=BAD_IDS)


@lru_cache(maxsize=None)
def _trace():
    return simulate(lock_pair_program(), 1.0).trace


@lru_cache(maxsize=None)
def _epochs():
    return tuple(extract_epochs(_trace().events))


@bad
@pytest.mark.parametrize("pname", predictor_names())
def test_scalar_predictors(pname, value):
    predictor = make_predictor(pname)
    trace = _trace()
    with pytest.raises(PredictionError):
        predictor.predict_total_ns(trace, value)
    with pytest.raises(PredictionError):
        predictor.predict_total_ns(trace, 2.0, base_freq_ghz=value)
    with pytest.raises(PredictionError):
        predictor.predict_total_ns(trace, 2.0, uncore_scale=value)
    with pytest.raises(PredictionError):
        predictor.predict_epochs(list(_epochs()), 1.0, value)


@bad
@pytest.mark.parametrize("pname", predictor_names())
def test_trace_sweep(pname, value):
    predictor = make_predictor(pname)
    sweep = TraceSweep(_trace())
    for targets in ([2.0, value], [(2.0, value)], [(value, 1.5)]):
        with pytest.raises(PredictionError):
            sweep.predict(predictor, targets)
    with pytest.raises(PredictionError):
        sweep.predict(predictor, [2.0], base_freq_ghz=value)


@bad
@pytest.mark.parametrize("pname", predictor_names())
def test_sweep_predict_epochs(pname, value):
    predictor = make_predictor(pname)
    epochs = list(_epochs())
    for window in (epochs, EpochArrays.from_epochs(epochs)):
        with pytest.raises(PredictionError):
            sweep_predict_epochs(predictor, window, 1.0, [2.0, value])
        with pytest.raises(PredictionError):
            sweep_predict_epochs(predictor, window, value, [2.0])


@bad
def test_sweep_predict_epochs_scalar_fallback(value):
    dep = make_predictor("DEP")
    custom = type(dep)(estimator=lambda c: c.active_ns * 0.5)
    with pytest.raises(PredictionError):
        sweep_predict_epochs(custom, list(_epochs()), 1.0, [value])
    with pytest.raises(PredictionError):
        sweep_predict_epochs(custom, list(_epochs()), value, [2.0])


@bad
@pytest.mark.parametrize("pname", ("DEP+BURST", "M+CRIT"))
def test_evaluate_predict_jobs(pname, value):
    predictor = make_predictor(pname)
    for base, targets in ((1.0, (2.0, value)), (value, (2.0,))):
        job = PredictJob(predictor, _epochs(), base, targets)
        with pytest.raises(PredictionError):
            evaluate_predict_jobs([job])


@pytest.mark.parametrize("pname", predictor_names())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing lanes
def test_overflowing_ratio_raises_on_every_path(pname):
    # Valid but extreme: scaled times overflow a double. Scalar DEP used
    # to return inf here while the sweep returned nan.
    target, base = 3.231502068779636e-163, 7.745665445784698e140
    predictor = make_predictor(pname)
    epochs = list(_epochs())
    with pytest.raises(PredictionError):
        predictor.predict_total_ns(_trace(), target, base)
    with pytest.raises(PredictionError):
        TraceSweep(_trace()).predict(predictor, [target], base)
    with pytest.raises(PredictionError):
        predictor.predict_epochs(epochs, base, target)
    with pytest.raises(PredictionError):
        sweep_predict_epochs(predictor, epochs, base, [target])
    with pytest.raises(PredictionError):
        evaluate_predict_jobs(
            [PredictJob(predictor, _epochs(), base, (target,))]
        )


@bad
def test_energy_manager_session(value):
    spec = haswell_i7_4770k()
    with pytest.raises(ConfigError):
        EnergyManagerSession(spec, candidates=(1.5, value, 2.5))
    with pytest.raises(ConfigError):
        EnergyManagerSession(spec, uncore_scale=value)


@bad
def test_tenant_spec(value):
    with pytest.raises(ConfigError):
        tiny_tenant(base=value)


@bad
def test_node_vf_table(value):
    spec = haswell_i7_4770k()
    for field in ("min_freq_ghz", "max_freq_ghz", "freq_step_ghz"):
        with pytest.raises(ConfigError):
            NodeVfTable(spec, **{field: value})


@bad
@pytest.mark.parametrize(
    "field", ("min_freq_ghz", "max_freq_ghz", "freq_step_ghz", "uncore_freq_ghz")
)
def test_machine_and_cluster_specs(field, value):
    with pytest.raises(ConfigError):
        replace(haswell_i7_4770k(), **{field: value})
    with pytest.raises(ConfigError):
        ClusterSpec("c", (0,), **{field: value})
