"""Confusion counting, detection metrics, and the w sweep.

A test set is scored once; ``sweep`` re-thresholds those scores at each w of
a grid and returns one ``MetricsReport`` per w. The ROC CSV, the JSON
reports and the text table are all rendered from those same reports.

Accuracy = (TP+TN)/(TP+TN+FP+FN); detection rate = TP/(TP+FN); false
positive rate = FP/(FP+TN). Undefined-denominator cases are reported as an
explicit None marker, never coerced to 0 or 1: a silently "perfect" rate on
an empty class usually means the sampling is broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decision import DetectionConfig, NormalProfile, classify_scores

REPORT_FORMAT_VERSION = 1

#: Published reference results for three other detection techniques, used as
#: static comparison rows in rendered tables. These are reported values from
#: the literature; this artifact does not reimplement or reproduce them.
REFERENCE_RESULTS = (
    ("TANN", 0.882, 0.123),
    ("EDM", 0.894, 0.106),
    ("MCA", 0.914, 0.089),
)


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise EvaluationError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )


@dataclass(frozen=True)
class MetricsReport:
    """Derived ratios plus the counts they came from. None marks undefined."""

    accuracy: float
    detection_rate: float | None
    false_positive_rate: float | None
    counts: ConfusionCounts
    w: float | None


def confusion(predictions: Sequence[int], truths: Sequence[int]) -> ConfusionCounts:
    """Exact confusion counts for binary predictions against binary truths."""
    pred = np.asarray(predictions)
    truth = np.asarray(truths)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise EvaluationError(f"shape mismatch: predictions {pred.shape} vs truths {truth.shape}")
    if pred.shape[0] == 0:
        raise EvaluationError("cannot count an empty prediction list")
    for name, arr in (("predictions", pred), ("truths", truth)):
        if not np.isin(arr, (0, 1)).all():
            raise EvaluationError(f"{name} must be binary 0/1")
    pred = pred.astype(bool)
    truth = truth.astype(bool)
    return ConfusionCounts(
        tp=int(np.sum(pred & truth)),
        tn=int(np.sum(~pred & ~truth)),
        fp=int(np.sum(pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
    )


def metrics(counts: ConfusionCounts, w: float | None = None) -> MetricsReport:
    """Accuracy, detection rate, and false positive rate from counts."""
    if counts.total == 0:
        raise EvaluationError("metrics need at least one evaluated record")
    accuracy = (counts.tp + counts.tn) / counts.total
    dr = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn > 0 else None
    fpr = counts.fp / (counts.fp + counts.tn) if counts.fp + counts.tn > 0 else None
    return MetricsReport(
        accuracy=accuracy, detection_rate=dr, false_positive_rate=fpr, counts=counts, w=w
    )


def sweep(
    scores: np.ndarray,
    truths: Sequence[int],
    profile: NormalProfile,
    w_grid: Sequence[float],
) -> list[MetricsReport]:
    """One report per w over precomputed scores. The verdict depends on w
    only through the band edges, so the scores are re-thresholded, never
    recomputed."""
    if len(w_grid) == 0:
        raise EvaluationError("w_grid must be non-empty")
    if any(w < 0 for w in w_grid):
        raise EvaluationError("w values must be non-negative")
    reports = []
    for w in w_grid:
        flagged = classify_scores(scores, profile, DetectionConfig(w, enforce_range=False))
        reports.append(metrics(confusion(flagged.astype(int), truths), w=w))
    return reports


def report_to_doc(report: MetricsReport) -> dict:
    return {
        "version": REPORT_FORMAT_VERSION,
        "w": report.w,
        "accuracy": report.accuracy,
        "detection_rate": report.detection_rate,
        "false_positive_rate": report.false_positive_rate,
        "counts": {
            "tp": report.counts.tp,
            "tn": report.counts.tn,
            "fp": report.counts.fp,
            "fn": report.counts.fn,
        },
    }


def report_from_doc(doc: dict) -> MetricsReport:
    if doc.get("version") != REPORT_FORMAT_VERSION:
        raise EvaluationError(f"unsupported report version: {doc.get('version')!r}")
    counts = ConfusionCounts(**doc["counts"])
    return MetricsReport(
        accuracy=doc["accuracy"],
        detection_rate=doc["detection_rate"],
        false_positive_rate=doc["false_positive_rate"],
        counts=counts,
        w=doc["w"],
    )


def _fmt_ratio(value: float | None) -> str:
    return "undefined" if value is None else f"{value * 100:.2f}%"


def render_table(reports: Sequence[MetricsReport], *, include_reference: bool = False) -> str:
    """Aligned text table over w / DR / Accuracy / FPR columns."""
    rows = [("w", "DR", "Accuracy", "FPR")]
    for rep in reports:
        w_text = "-" if rep.w is None else f"{rep.w:g}"
        rows.append((w_text, _fmt_ratio(rep.detection_rate), f"{rep.accuracy * 100:.2f}%", _fmt_ratio(rep.false_positive_rate)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    out = "\n".join(lines)
    if include_reference:
        ref_lines = ["", "Reference results (reported in the literature; not reproduced by this run):"]
        for name, dr, fpr in REFERENCE_RESULTS:
            ref_lines.append(f"  {name}: DR {dr * 100:.1f}%, FPR {fpr * 100:.1f}%")
        out += "\n".join(ref_lines)
    return out + "\n"


def roc_csv(reports: Sequence[MetricsReport]) -> str:
    """Plot-ready sweep data: header plus one `w,dr,fpr,accuracy` row per report."""
    lines = ["w,dr,fpr,accuracy"]
    for rep in reports:
        dr = "undefined" if rep.detection_rate is None else repr(rep.detection_rate)
        fpr = "undefined" if rep.false_positive_rate is None else repr(rep.false_positive_rate)
        lines.append(f"{rep.w!r},{dr},{fpr},{rep.accuracy!r}")
    return "\n".join(lines) + "\n"


def summarize_reports(reports: Sequence[MetricsReport]) -> dict:
    """Micro (pooled counts) and macro (mean of defined ratios) summaries
    across per-sample reports, labeled as such."""
    if not reports:
        raise EvaluationError("nothing to summarize")
    pooled = reports[0].counts
    for rep in reports[1:]:
        pooled = pooled + rep.counts
    micro = metrics(pooled)

    def _mean(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    macro = {
        "accuracy": _mean([r.accuracy for r in reports]),
        "detection_rate": _mean([r.detection_rate for r in reports if r.detection_rate is not None]),
        "false_positive_rate": _mean(
            [r.false_positive_rate for r in reports if r.false_positive_rate is not None]
        ),
    }
    return {
        "micro_pooled_records": report_to_doc(micro),
        "macro_mean_over_samples": macro,
        "samples": len(reports),
    }
