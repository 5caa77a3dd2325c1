"""ABL — ablations of the reproduction's own design choices (DESIGN.md).

Not a paper figure: these sweeps quantify the knobs our implementation
adds or had to choose, on the FIG5 weekday accuracy metric:

* **censoring** — how right-censored sojourns enter the kernel
  (Kaplan-Meier vs beyond-horizon counting vs dropping);
* **discretization** — the SMP step ``d`` as a multiple of the
  monitoring period (the paper's accuracy/efficiency trade-off,
  Section 4.1);
* **history depth** — the number N of recent same-type days pooled;
* **lookback** — measuring the first sojourn from the window start
  (renewal semantics, our default) vs from its true entry;
* **solver** — the paper's discrete-time recursion vs the
  phase-approximation continuous-time SMP it rejected (Section 4.1),
  measured on both accuracy and per-prediction cost.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.bench.data import evaluation_data
from repro.bench.harness import ExperimentResult, ResultTable
from repro.core.ctsmp import ContinuousSmp
from repro.core.empirical import empirical_tr
from repro.core.estimator import EstimatorConfig
from repro.core.metrics import relative_error, summarize_errors
from repro.core.predictor import TemporalReliabilityPredictor
from repro.core.smp import temporal_reliability
from repro.core.windows import ClockWindow, DayType

__all__ = ["run"]

EVAL_WINDOWS = tuple(
    (h, T) for h in (2, 8, 11, 14, 20) for T in (1.0, 3.0, 10.0)
)


def _mean_error(data, estimator_config: EstimatorConfig) -> float:
    errors = []
    for mid in data.machine_ids:
        predictor = TemporalReliabilityPredictor(
            data.train[mid], estimator_config=estimator_config
        )
        for h, T in EVAL_WINDOWS:
            cw = ClockWindow.from_hours(h, T)
            predicted = predictor.predict(cw, DayType.WEEKDAY)
            emp = empirical_tr(
                data.test[mid], data.classifier, cw, DayType.WEEKDAY,
                step_multiple=data.step_multiple,
            )
            errors.append(relative_error(predicted, emp.value))
    return summarize_errors(errors).mean


def run(scale: str = "quick", *, seed: int = 0) -> ExperimentResult:
    """Run the ablation sweeps."""
    data = evaluation_data(scale, seed=seed)
    base = data.estimator_config

    censoring = ResultTable(
        title="ABL censoring treatment", columns=["censoring", "mean_error_pct"]
    )
    for mode in ("km", "beyond", "drop"):
        censoring.add(mode, _mean_error(data, replace(base, censoring=mode)) * 100)

    steps = ResultTable(
        title="ABL discretization step d", columns=["step_seconds", "mean_error_pct"]
    )
    for mult in (1, 2, 5, 10):
        cfg = replace(base, step_multiple=mult * data.step_multiple)
        steps.add(data.sample_period * mult * data.step_multiple,
                  _mean_error(data, cfg) * 100)

    history = ResultTable(
        title="ABL history depth N (same-type days)", columns=["n_days", "mean_error_pct"]
    )
    for n in (3, 7, 14, None):
        cfg = replace(base, history_days=n)
        history.add("all" if n is None else n, _mean_error(data, cfg) * 100)

    lookback = ResultTable(
        title="ABL first-sojourn lookback", columns=["lookback", "mean_error_pct"]
    )
    for lb, label in ((0.0, "window start (renewal)"), (None, "true entry (1 window)")):
        cfg = replace(base, lookback=lb)
        lookback.add(label, _mean_error(data, cfg) * 100)

    solver = ResultTable(
        title="ABL discrete vs continuous-time (phase-type) solver",
        columns=["solver", "mean_error_pct", "mean_solve_ms"],
    )
    disc_errs, cont_errs = [], []
    disc_ms, cont_ms = [], []
    for mid in data.machine_ids:
        predictor = TemporalReliabilityPredictor(
            data.train[mid], estimator_config=base
        )
        for h, T in EVAL_WINDOWS:
            cw = ClockWindow.from_hours(h, T)
            emp = empirical_tr(
                data.test[mid], data.classifier, cw, DayType.WEEKDAY,
                step_multiple=data.step_multiple,
            )
            kern, init = predictor.estimator.kernel_and_init(
                data.train[mid], cw, DayType.WEEKDAY
            )
            t0 = time.perf_counter()
            tr_d = temporal_reliability(kern, init)
            disc_ms.append((time.perf_counter() - t0) * 1000)
            t0 = time.perf_counter()
            tr_c = ContinuousSmp(kern).temporal_reliability(init_state=init)
            cont_ms.append((time.perf_counter() - t0) * 1000)
            disc_errs.append(relative_error(tr_d, emp.value))
            cont_errs.append(relative_error(tr_c, emp.value))
    solver.add("discrete (paper Eq. 3)", summarize_errors(disc_errs).mean * 100,
               sum(disc_ms) / len(disc_ms))
    solver.add("continuous (phase-type)", summarize_errors(cont_errs).mean * 100,
               sum(cont_ms) / len(cont_ms))

    result = ExperimentResult(
        experiment_id="ABL",
        description="ablations of the reproduction's design choices",
        tables=[censoring, steps, history, lookback, solver],
    )
    result.notes["discrete_error_pct"] = solver.rows[0][1]
    result.notes["continuous_error_pct"] = solver.rows[1][1]
    km, beyond, _drop = (censoring.rows[i][1] for i in range(3))
    result.notes["km_beats_beyond"] = bool(km <= beyond)
    lb0, lb1 = (lookback.rows[i][1] for i in range(2))
    result.notes["renewal_lookback_beats_true_entry"] = bool(lb0 <= lb1)
    return result
