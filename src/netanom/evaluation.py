"""The band tally, confusion counting, detection metrics, and the w sweep.

Every command counts its verdicts in a :class:`BandTally`, per class and
band edge at each w of a grid. ``sweep`` adds a test set's scores one
batch at a time, and ``detect`` and ``simulate``'s store add the sides they
hold, so only the counts outlive a batch. Its reports, one per w, give the
ROC CSV, the JSON reports and the text table; the edges go in manifests.

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
    """Exact confusion counts for binary predictions against binary truths,
    tallied as sides: a 1 is above the band."""
    pred = np.asarray(predictions)
    if not np.isin(pred, (0, 1)).all():
        raise EvaluationError("predictions must be binary 0/1")
    tally = BandTally([None])
    tally.add_sides(pred, np.asarray(truths))
    return tally.reports()[0].counts


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


#: A record's class in a :class:`BandTally`: its truth, 0 or 1, or unlabeled without one.
_CLASSES = ("normal", "attack", "unlabeled")


class BandTally:
    """The band rule's verdicts at each w of ``ws``: per class of
    ``_CLASSES`` the records ``seen``, and per class and w (rows and
    columns) the records ``below`` ``lower - w*IQR`` and ``above``
    ``upper + w*IQR``. A NaN score or edge compares false, inside the band.
    Tallies add; where their w differ, the sum's is None. :meth:`add`
    needs the band edges of a ``profile``; :meth:`add_sides` needs none."""

    def __init__(self, ws: Sequence[float | None], profile: NormalProfile | None = None):
        self.ws = tuple(ws)
        self.bands = None if profile is None else np.array([profile.band(DetectionConfig(w, enforce_range=False)) for w in self.ws])
        self.seen = np.zeros(len(_CLASSES), np.int64)
        self.below = np.zeros((len(_CLASSES), len(self.ws)), np.int64)
        self.above = np.zeros_like(self.below)

    def add(self, scores: np.ndarray, truths: Sequence[int] | None = None) -> None:
        """Count a batch of scores at every w: by binary search at the band
        edges in each class's sorted scores (Fawcett 2006, "An introduction
        to ROC analysis", Algorithm 1)."""
        lo, hi = self.bands.T
        for c, s in self._classes(np.asarray(scores, dtype=np.float64), truths):
            ordered = np.sort(s[~np.isnan(s)])
            self.below[c] += np.where(np.isnan(lo), 0, np.searchsorted(ordered, lo, side="left"))
            self.above[c] += len(ordered) - np.searchsorted(ordered, hi, side="right")  # a NaN edge sorts past every score

    def add_sides(self, sides: np.ndarray, truths: Sequence[int] | None = None) -> None:
        """Count a batch of :func:`~netanom.decision.sides` taken at this tally's one w."""
        for c, s in self._classes(np.asarray(sides), truths):
            self.below[c] += np.count_nonzero(s < 0)
            self.above[c] += np.count_nonzero(s > 0)

    def _classes(self, values: np.ndarray, truths) -> list[tuple[int, np.ndarray]]:
        """Check a batch, count its records as seen, and split its values by class."""
        truth = np.full(values.shape, 2) if truths is None else np.asarray(truths)
        if truth.shape != values.shape or values.ndim != 1:
            raise EvaluationError(f"shape mismatch: predictions {values.shape} vs truths {truth.shape}")
        if values.shape[0] == 0:
            raise EvaluationError("cannot count an empty prediction list")
        if truths is not None and not np.isin(truth, (0, 1)).all():
            raise EvaluationError("truths must be binary 0/1")
        seen = np.bincount(truth.astype(np.intp), minlength=len(_CLASSES))
        self.seen += seen
        return [(c, values[truth == c]) for c in np.flatnonzero(seen)]

    def __add__(self, other: "BandTally") -> "BandTally":
        total = BandTally([a if a == b else None for a, b in zip(self.ws, other.ws)])
        total.seen = self.seen + other.seen
        total.below = self.below + other.below
        total.above = self.above + other.above
        return total

    def reports(self) -> list[MetricsReport]:
        """One report per w of the labeled records."""
        normals, attacks, _ = self.seen.tolist()
        if normals + attacks == 0:
            raise EvaluationError("test file has no records")
        fps, tps, _ = (self.below + self.above).tolist()
        return [
            metrics(ConfusionCounts(tp=tp, tn=normals - fp, fp=fp, fn=attacks - tp), w=w)
            for w, fp, tp in zip(self.ws, fps, tps)
        ]

    def edges(self) -> list[dict]:
        """Per w, for the manifests: ``w``, ``below`` and ``above``, each per class with records."""
        named = [(c, name) for c, name in enumerate(_CLASSES) if self.seen[c]]
        return [
            {
                "w": w,
                "below": {name: int(self.below[c, i]) for c, name in named},
                "above": {name: int(self.above[c, i]) for c, name in named},
            }
            for i, w in enumerate(self.ws)
        ]


def sweep(
    batches: Iterable[tuple[np.ndarray, Sequence[int]]],
    profile: NormalProfile,
    w_grid: Sequence[float],
) -> list[MetricsReport]:
    """One report per w over ``(scores, truths)`` batches, each added to a
    :class:`BandTally` as it arrives: the counts of
    :func:`~netanom.decision.classify_scores` and :func:`confusion`."""
    if len(w_grid) == 0:
        raise EvaluationError("w_grid must be non-empty")
    if any(w < 0 for w in w_grid):
        raise EvaluationError("w values must be non-negative")
    tally = BandTally(w_grid, profile)
    for scores, truths in batches:
        tally.add(scores, truths)
    return tally.reports()


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
