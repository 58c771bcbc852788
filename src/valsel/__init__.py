"""Probabilistic value selection toolkit.

Filters training data value by value based on class purity, then
measures how much smaller a decision tree or rule list gets and how much
accuracy it costs. See the module docstrings for the contracts.
"""

from .baselines import (
    drop_columns,
    misclassified_filter,
    random_value_removal,
    reservoir_select,
)
from .classifiers import (
    LearnerSpec,
    RuleModel,
    TreeModel,
    train_rules,
    train_tree,
)
from .data import (
    CATEGORICAL,
    DISCRETIZED,
    MISSING,
    Dataset,
    Feature,
    Instance,
    dataset_from_rows,
    load_arff,
    load_csv,
    load_dataset,
    save_dataset,
)
from .discretize import (
    DiscretizationSpec,
    fit,
    fit_equal_frequency,
    fit_equal_width,
    fit_mdl,
    interval_labels,
)
from .discretize import apply as apply_discretization
from .errors import ConfigError, DataError, UnsupportedFeatureError
from .evaluate import (
    FILTERS,
    EvalReport,
    ExperimentConfig,
    RunRecord,
    ar,
    cross_validate,
    filter_dataset,
    format_report_table,
    harmonic,
    mr,
    run_experiment,
    stratified_fold_assignment,
)
from .metrics import (
    MetricTable,
    ValueStats,
    compute_stats,
    confusion_report,
    removal_probability,
    selection_weights,
)
from .selection import FilterOutcome, VSConfig, pvs, pvs_plus

__version__ = "0.1.0"

__all__ = [
    "CATEGORICAL",
    "ConfigError",
    "DISCRETIZED",
    "DataError",
    "Dataset",
    "DiscretizationSpec",
    "EvalReport",
    "ExperimentConfig",
    "FILTERS",
    "Feature",
    "FilterOutcome",
    "Instance",
    "LearnerSpec",
    "MISSING",
    "MetricTable",
    "RuleModel",
    "RunRecord",
    "TreeModel",
    "UnsupportedFeatureError",
    "VSConfig",
    "ValueStats",
    "apply_discretization",
    "ar",
    "compute_stats",
    "confusion_report",
    "cross_validate",
    "dataset_from_rows",
    "drop_columns",
    "fit",
    "fit_equal_frequency",
    "fit_equal_width",
    "filter_dataset",
    "fit_mdl",
    "format_report_table",
    "harmonic",
    "interval_labels",
    "load_arff",
    "load_csv",
    "load_dataset",
    "misclassified_filter",
    "mr",
    "pvs",
    "pvs_plus",
    "random_value_removal",
    "removal_probability",
    "reservoir_select",
    "run_experiment",
    "save_dataset",
    "selection_weights",
    "stratified_fold_assignment",
    "train_rules",
    "train_tree",
]
