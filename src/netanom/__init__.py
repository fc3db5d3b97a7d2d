"""Network-flow anomaly detection toolkit.

Pipeline: ingest flow CSVs, preprocess (encode, reduce, standardize), fit a
Gaussian mixture over normal traffic, band its training-score quartiles with
a width multiplier w, and flag records scoring outside the band. Includes
evaluation (accuracy / detection rate / false-positive rate, one sweep over
a w grid) and a multi-node collaborative detection simulator built on a shared
append-only capture store.
"""

__version__ = "0.1.0"

from .decision import (
    DetectionConfig,
    NormalProfile,
    classify_scores,
    load_profile,
    quartile,
    save_profile,
    train_profile,
)
from .evaluation import ConfusionCounts, MetricsReport, confusion, metrics, roc_csv, sweep
from .gmm import EmConfig, FitReport, MixtureModel, fit_em
from .ingest import (
    FeatureSchema,
    FlowBatch,
    SamplePlan,
    default_schema,
    iter_flow_batches,
    load_schema,
)
from .preprocess import PreprocessModel, fit_pca, fit_preprocess_batches, fit_zscore

__all__ = [
    "__version__",
    "ConfusionCounts",
    "DetectionConfig",
    "EmConfig",
    "FeatureSchema",
    "FitReport",
    "FlowBatch",
    "MetricsReport",
    "MixtureModel",
    "NormalProfile",
    "PreprocessModel",
    "SamplePlan",
    "classify_scores",
    "confusion",
    "default_schema",
    "fit_em",
    "fit_pca",
    "fit_preprocess_batches",
    "fit_zscore",
    "iter_flow_batches",
    "load_profile",
    "load_schema",
    "metrics",
    "quartile",
    "roc_csv",
    "save_profile",
    "sweep",
    "train_profile",
]
