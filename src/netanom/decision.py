"""Decision engine: normal profile training and the IQR-band verdict rule.

Training fits a mixture model to purely-normal data, scores every training
record, and keeps the first/third quartiles and their gap (the IQR) of those
scores. At test time a record is an attack exactly when its score falls
strictly outside (lower - w*IQR, upper + w*IQR).

Scores are log-densities. Quartiles are order statistics and the log
transform is monotone, so Q1/Q3 identify the same records as they would for
raw densities, but the band geometry differs from a raw-space band; this is
deliberate, since raw densities underflow for the high-dimensional outliers
the rule exists to flag.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._docjson import digest_of, parse_json, pretty_dumps
from .gmm import (
    EmConfig,
    FitReport,
    GmmError,
    MixtureModel,
    fit_em,
    score_records,
)

PROFILE_FORMAT_VERSION = 1

#: The profile document's ``score_space`` value; no other is accepted.
_SCORE_SPACE = "log-density"

#: w outside this interval needs an explicit override.
W_RANGE = (1.5, 3.0)


class DecisionError(Exception):
    pass


class ProfileFormatError(DecisionError):
    """Unreadable, corrupted, or wrong-version profile document."""


class BindingError(DecisionError):
    """Profile and preprocessing model digests do not match."""


def quartile(values: Sequence[float] | np.ndarray, q: int) -> float:
    """First or third quartile by linear interpolation of order statistics.

    Over the sorted values v, the quartile sits at position p = (n-1)*q/4
    and interpolates linearly between the neighboring order statistics.
    """
    if q not in (1, 3):
        raise DecisionError(f"q must be 1 or 3, got {q}")
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    if n == 0:
        raise DecisionError("quartile of an empty list is undefined")
    p = (n - 1) * q / 4.0
    lo = int(p)
    frac = p - lo
    if frac == 0.0:
        return float(v[lo])
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


@dataclass(frozen=True)
class DetectionConfig:
    """Band-width multiplier. Values outside [1.5, 3] require an override."""

    w: float
    enforce_range: bool = True

    def __post_init__(self):
        if not math.isfinite(self.w):
            raise DecisionError(f"w must be finite, got {self.w}")
        if self.w < 0:
            raise DecisionError(f"w must be non-negative, got {self.w}")
        if self.enforce_range and not W_RANGE[0] <= self.w <= W_RANGE[1]:
            raise DecisionError(
                f"w={self.w} outside [{W_RANGE[0]}, {W_RANGE[1]}]; "
                "pass enforce_range=False to override"
            )


@dataclass(frozen=True)
class NormalProfile:
    """Trained mixture plus the quartile band of training scores."""

    model: MixtureModel
    lower: float  # Q1 of training scores
    upper: float  # Q3 of training scores
    iqr: float  # upper - lower
    preprocess_digest: str
    em_config: EmConfig | None = None
    fit_report: FitReport | None = None

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DecisionError(f"lower {self.lower} must not exceed upper {self.upper}")
        if self.iqr != self.upper - self.lower:
            raise DecisionError("iqr must equal upper - lower")

    def band(self, cfg: DetectionConfig) -> tuple[float, float]:
        return (self.lower - cfg.w * self.iqr, self.upper + cfg.w * self.iqr)

    def score_matrix(self, data: np.ndarray) -> np.ndarray:
        """Log-density score of every row of ``data``; shape (N,)."""
        return score_records(data, self.model)


def train_profile(
    train_normal: np.ndarray,
    cfg: EmConfig,
    *,
    preprocess_digest: str = "",
) -> NormalProfile:
    """Build a normal profile from a preprocessed, purely-normal matrix.

    Callers guarantee purity; attack rows in the training matrix silently
    corrupt the band.
    """
    return _fit_profile(train_normal, cfg, preprocess_digest)[0]


def _fit_profile(train_normal: np.ndarray, cfg: EmConfig, preprocess_digest: str) -> tuple[NormalProfile, np.ndarray]:
    """:func:`train_profile`'s profile, and the training scores its quartiles came from."""
    data = np.asarray(train_normal, dtype=np.float64)
    model, report = fit_em(data, cfg)
    scores = score_records(data, model)
    lower = quartile(scores, 1)
    upper = quartile(scores, 3)
    profile = NormalProfile(
        model=model,
        lower=lower,
        upper=upper,
        iqr=upper - lower,
        preprocess_digest=preprocess_digest,
        em_config=cfg,
        fit_report=report,
    )
    return profile, scores


def sides(scores: np.ndarray, profile: NormalProfile, cfg: DetectionConfig) -> np.ndarray:
    """Each score's side of the band, as int8: -1 strictly below its lower
    edge, +1 strictly above its upper edge, 0 inside. A score exactly on an
    edge is inside, and so is a NaN score or any score against a NaN edge."""
    s = np.asarray(scores, dtype=np.float64)
    lo, hi = profile.band(cfg)
    return (s > hi).astype(np.int8) - (s < lo)


def classify_scores(scores: np.ndarray, profile: NormalProfile, cfg: DetectionConfig) -> np.ndarray:
    """Boolean attack mask for precomputed scores: attack iff the score falls
    strictly outside the band (see :func:`sides`)."""
    return sides(scores, profile, cfg) != 0


def ensure_bound(profile: NormalProfile, preprocess_model) -> None:
    """Fail unless the profile was trained against this preprocessing model."""
    actual = preprocess_model.digest()
    if profile.preprocess_digest != actual:
        raise BindingError(
            "profile is bound to preprocessing digest "
            f"{profile.preprocess_digest[:12]}..., got {actual[:12]}..."
        )


def profile_to_doc(profile: NormalProfile) -> dict:
    payload = {
        "version": PROFILE_FORMAT_VERSION,
        "score_space": _SCORE_SPACE,
        "K": profile.model.k,
        "d": profile.model.d,
        "weights": profile.model.weights.tolist(),
        "means": profile.model.means.tolist(),
        "variances": profile.model.variances.tolist(),
        "lower": profile.lower,
        "upper": profile.upper,
        "iqr": profile.iqr,
        "preprocess_digest": profile.preprocess_digest,
        "em_config": None if profile.em_config is None else asdict(profile.em_config),
        "fit_report": None if profile.fit_report is None else asdict(profile.fit_report),
    }
    payload["checksum"] = digest_of(payload)
    return payload


def profile_from_doc(doc: dict) -> NormalProfile:
    if not isinstance(doc, dict):
        raise ProfileFormatError("profile document must be a JSON object")
    if doc.get("version") != PROFILE_FORMAT_VERSION:
        raise ProfileFormatError(f"unsupported profile version: {doc.get('version')!r}")
    body = {k: v for k, v in doc.items() if k != "checksum"}
    if doc.get("checksum") != digest_of(body):
        raise ProfileFormatError("profile checksum mismatch: document is corrupted")
    if doc.get("score_space") != _SCORE_SPACE:
        raise ProfileFormatError(f"unsupported score space: {doc.get('score_space')!r}")
    try:
        model = MixtureModel(
            np.asarray(doc["weights"], dtype=np.float64),
            np.asarray(doc["means"], dtype=np.float64),
            np.asarray(doc["variances"], dtype=np.float64),
        )
        if model.k != doc["K"] or model.d != doc["d"]:
            raise ProfileFormatError("profile K/d fields disagree with the parameter arrays")
        em_doc = doc.get("em_config")
        em_cfg = EmConfig(**em_doc) if em_doc else None
        rep_doc = doc.get("fit_report")
        report = FitReport(**{**rep_doc, "trace": tuple(rep_doc["trace"])}) if rep_doc else None
        return NormalProfile(
            model=model,
            lower=doc["lower"],
            upper=doc["upper"],
            iqr=doc["iqr"],
            preprocess_digest=doc["preprocess_digest"],
            em_config=em_cfg,
            fit_report=report,
        )
    except ProfileFormatError:
        raise
    except (KeyError, TypeError, IndexError, DecisionError, GmmError) as exc:
        raise ProfileFormatError(f"malformed profile document: {exc}") from exc


def save_profile(profile: NormalProfile) -> bytes:
    """Serialize to a versioned, checksummed JSON document."""
    return pretty_dumps(profile_to_doc(profile)).encode("utf-8")


def load_profile(data: bytes | str) -> NormalProfile:
    return profile_from_doc(parse_json(data, ProfileFormatError, "profile"))

