"""Confusion counting, detection metrics, and the w sweep.

A test set is scored one batch at a time; ``sweep`` counts each batch at
every w of a grid as it arrives and keeps only the counts. Its reports, one
per w, give the ROC CSV, the JSON reports and the text table.

Accuracy = (TP+TN)/(TP+TN+FP+FN); detection rate = TP/(TP+FN); false
positive rate = FP/(FP+TN). Undefined-denominator cases are reported as an
explicit None marker, never coerced to 0 or 1: a silently "perfect" rate on
an empty class usually means the sampling is broken.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .decision import DetectionConfig, NormalProfile

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
    batches: Iterable[tuple[np.ndarray, Sequence[int]]],
    profile: NormalProfile,
    w_grid: Sequence[float],
) -> list[MetricsReport]:
    """One report per w over ``(scores, truths)`` batches, each counted as
    it arrives. A verdict depends on w only through the band edges: each
    batch's scores of each class are sorted, and those flagged at a w are
    counted by binary search at its edges (Fawcett 2006, "An introduction
    to ROC analysis", Algorithm 1). The counts are those of
    :func:`~netanom.decision.classify_scores` and :func:`confusion` at each
    w; a NaN score or band edge compares false, as it does there."""
    if len(w_grid) == 0:
        raise EvaluationError("w_grid must be non-empty")
    if any(w < 0 for w in w_grid):
        raise EvaluationError("w values must be non-negative")
    bands = np.array([profile.band(DetectionConfig(w, enforce_range=False)) for w in w_grid])
    none_flagged, flagged = ConfusionCounts(0, 0, 0, 0), np.zeros((2, len(w_grid)), dtype=np.int64)  # fp, tp rows
    for scores, truths in batches:
        s = np.asarray(scores, dtype=np.float64)
        none_flagged += confusion(np.zeros(s.shape, dtype=int), truths)  # checks the batch's truths
        is_attack = np.asarray(truths).astype(bool)
        flagged += [_flagged(np.sort(s[is_attack == attack]), bands) for attack in (False, True)]
    if none_flagged.total == 0:  # confusion rejects an empty batch, so no batch came
        raise EvaluationError("test file has no records")
    fps, tps = flagged.tolist()
    return [
        metrics(ConfusionCounts(tp=tp, tn=none_flagged.tn - fp, fp=fp, fn=none_flagged.fn - tp), w=w)
        for w, fp, tp in zip(w_grid, fps, tps)
    ]


def _flagged(ordered: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """Per ``(lo, hi)`` row of ``bands``, how many of the sorted scores
    ``ordered`` fall strictly outside the band, as ``s < lo or s > hi``
    counts them."""
    ordered = ordered[~np.isnan(ordered)]  # sorted last, never flagged
    lo, hi = bands[:, 0], bands[:, 1]
    below = np.where(np.isnan(lo), 0, np.searchsorted(ordered, lo, side="left"))
    above = len(ordered) - np.searchsorted(ordered, hi, side="right")  # a NaN edge sorts past every score
    return below + above


def report_to_doc(report: MetricsReport) -> dict:
    return {
        "version": REPORT_FORMAT_VERSION,
        "w": report.w,
        "accuracy": report.accuracy,
        "detection_rate": report.detection_rate,
        "false_positive_rate": report.false_positive_rate,
        "counts": asdict(report.counts),  # tp, tn, fp, fn: the field order
    }


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
    micro = metrics(sum((rep.counts for rep in reports[1:]), reports[0].counts))

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
