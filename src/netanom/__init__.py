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
    Verdict,
    classify,
    classify_scores,
    load_profile,
    quartile,
    save_profile,
    train_profile,
)
from .evaluation import ConfusionCounts, MetricsReport, confusion, metrics, roc_csv, sweep
from .gmm import EmConfig, FitReport, MixtureModel, fit_em, log_likelihood, mixture_logpdf
from .ingest import (
    FeatureSchema,
    FlowRecord,
    SamplePlan,
    default_schema,
    load_schema,
    parse_flow_csv,
    stratified_sample,
    write_flow_csv,
)
from .preprocess import PreprocessModel, fit_pca, fit_preprocess, fit_zscore

__all__ = [
    "__version__",
    "ConfusionCounts",
    "DetectionConfig",
    "EmConfig",
    "FeatureSchema",
    "FitReport",
    "FlowRecord",
    "MetricsReport",
    "MixtureModel",
    "NormalProfile",
    "PreprocessModel",
    "SamplePlan",
    "Verdict",
    "classify",
    "classify_scores",
    "confusion",
    "default_schema",
    "fit_em",
    "fit_pca",
    "fit_preprocess",
    "fit_zscore",
    "load_profile",
    "load_schema",
    "log_likelihood",
    "metrics",
    "mixture_logpdf",
    "parse_flow_csv",
    "quartile",
    "roc_csv",
    "save_profile",
    "stratified_sample",
    "sweep",
    "train_profile",
    "write_flow_csv",
]
