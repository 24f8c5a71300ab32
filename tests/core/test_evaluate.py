"""Error metrics."""

import pytest

from repro.common.errors import PredictionError
from repro.core.evaluate import prediction_error


def test_prediction_error_signs():
    assert prediction_error(90.0, 100.0) == pytest.approx(-0.10)
    assert prediction_error(110.0, 100.0) == pytest.approx(+0.10)
    assert prediction_error(100.0, 100.0) == 0.0


def test_prediction_error_rejects_bad_actual():
    with pytest.raises(PredictionError):
        prediction_error(1.0, 0.0)
