"""Every batch prediction path classifies each eligible history day once."""

import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.predictor import TemporalReliabilityPredictor
from repro.core.uncertainty import bootstrap_tr
from repro.core.windows import ClockWindow, DayType

WINDOW = ClockWindow.from_hours(12, 2)


@pytest.fixture()
def counted(long_trace, monkeypatch):
    """A batch predictor whose classifier counts its window calls."""
    predictor = TemporalReliabilityPredictor(
        long_trace, estimator_config=EstimatorConfig(step_multiple=10)
    )
    calls = []
    classify = predictor.classifier.classify_window

    def counting(view):
        calls.append(view)
        return classify(view)

    monkeypatch.setattr(predictor.classifier, "classify_window", counting)
    n_days = len(predictor.estimator.history_days(long_trace, WINDOW, DayType.WEEKDAY))
    assert n_days > 1
    return predictor, calls, n_days


def test_predict_detailed_classifies_each_day_once(counted):
    predictor, calls, n_days = counted
    result = predictor.predict_detailed(WINDOW, DayType.WEEKDAY)
    assert result.n_history_days == n_days
    assert len(calls) == n_days


def test_predict_profile_classifies_each_day_once(counted):
    predictor, calls, n_days = counted
    predictor.predict_profile(WINDOW, DayType.WEEKDAY)
    assert len(calls) == n_days


def test_bootstrap_classifies_each_day_once(counted, long_trace):
    predictor, calls, n_days = counted
    interval = bootstrap_tr(
        predictor.estimator, long_trace, WINDOW, DayType.WEEKDAY, n_resamples=5
    )
    assert interval.n_history_days == n_days
    assert len(calls) == n_days
