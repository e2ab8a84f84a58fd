"""Evaluation harness: metrics, cross-validation and the figure experiments.

Each name is imported from its submodule on first use (:mod:`repro._lazy`):
a stream job that needs :data:`DEFAULT_EXPERIMENT_CONFIG` or the metrics does
not load the scenario battery, the baselines or the bulk loaders.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__all__ = [
    "BUDGET_GRID",
    "CLASSIFIER_KINDS",
    "BatteryResult",
    "ScenarioOutcome",
    "format_win_loss_table",
    "run_scenario_battery",
    "CrossValidatedCurve",
    "anytime_accuracy_curve",
    "build_bulkloaded_classifier",
    "cross_validated_anytime_curve",
    "DEFAULT_EXPERIMENT_CONFIG",
    "BulkloadExperimentResult",
    "DriftRecoveryResult",
    "run_drift_recovery_experiment",
    "ExperimentConfig",
    "StreamExperimentResult",
    "format_curve_table",
    "run_bulkload_experiment",
    "run_stream_experiment",
    "table1_rows",
    "accuracy",
    "anytime_curve_summary",
    "classification_trace_hash",
    "confusion_matrix",
    "fading_accuracy",
    "latency_percentiles",
    "sliding_window_accuracy",
    "RequestRecord",
    "RequestTrace",
]

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    "BUDGET_GRID": ".battery",
    "CLASSIFIER_KINDS": ".battery",
    "BatteryResult": ".battery",
    "ScenarioOutcome": ".battery",
    "format_win_loss_table": ".battery",
    "run_scenario_battery": ".battery",
    "CrossValidatedCurve": ".anytime_eval",
    "anytime_accuracy_curve": ".anytime_eval",
    "build_bulkloaded_classifier": ".anytime_eval",
    "cross_validated_anytime_curve": ".anytime_eval",
    "DEFAULT_EXPERIMENT_CONFIG": ".experiment",
    "BulkloadExperimentResult": ".experiment",
    "DriftRecoveryResult": ".experiment",
    "run_drift_recovery_experiment": ".experiment",
    "ExperimentConfig": ".experiment",
    "StreamExperimentResult": ".experiment",
    "format_curve_table": ".experiment",
    "run_bulkload_experiment": ".experiment",
    "run_stream_experiment": ".experiment",
    "table1_rows": ".experiment",
    "accuracy": ".metrics",
    "anytime_curve_summary": ".metrics",
    "classification_trace_hash": ".metrics",
    "confusion_matrix": ".metrics",
    "fading_accuracy": ".metrics",
    "latency_percentiles": ".metrics",
    "sliding_window_accuracy": ".metrics",
    "RequestRecord": ".request_trace",
    "RequestTrace": ".request_trace",
}

if TYPE_CHECKING:  # pragma: no cover - the eager view, for type checkers and linters
    from .anytime_eval import (
        CrossValidatedCurve,
        anytime_accuracy_curve,
        build_bulkloaded_classifier,
        cross_validated_anytime_curve,
    )
    from .battery import (
        BUDGET_GRID,
        CLASSIFIER_KINDS,
        BatteryResult,
        ScenarioOutcome,
        format_win_loss_table,
        run_scenario_battery,
    )
    from .experiment import (
        DEFAULT_EXPERIMENT_CONFIG,
        BulkloadExperimentResult,
        DriftRecoveryResult,
        ExperimentConfig,
        StreamExperimentResult,
        format_curve_table,
        run_bulkload_experiment,
        run_drift_recovery_experiment,
        run_stream_experiment,
        table1_rows,
    )
    from .metrics import (
        accuracy,
        anytime_curve_summary,
        classification_trace_hash,
        confusion_matrix,
        fading_accuracy,
        latency_percentiles,
        sliding_window_accuracy,
    )
    from .request_trace import RequestRecord, RequestTrace
else:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
