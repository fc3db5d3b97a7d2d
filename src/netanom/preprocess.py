"""Fit-once/apply-many preprocessing pipeline.

Three steps, applied in this order: categorical-to-numeric encoding, feature
reduction (a curated name list or a PCA projection), then per-feature
standardization to zero mean and unit standard deviation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._docjson import digest_of, pretty_dumps
from .ingest import FeatureSchema, FlowRecord, schema_from_doc, schema_to_doc

PREPROCESS_FORMAT_VERSION = 1

#: Floor applied to standard deviations so constant columns stay dividable.
STD_FLOOR = 1e-6

#: The bundled ten-feature selection used by the default ("table1") mode.
CURATED_FEATURES = (
    "ct_dst_sport_ltm",
    "tcprtt",
    "dwin",
    "ct_src_dport_ltm",
    "ct_dst_src_ltm",
    "ct_dst_ltm",
    "smean",
    "dmean",
    "service",
    "proto",
)

#: Code reserved for category values never seen during fitting.
UNSEEN_CODE = 0


class PreprocessError(Exception):
    pass


@dataclass(frozen=True)
class EncoderMap:
    """Per-feature category codes, assigned in first-seen order from 1."""

    codes: Mapping[str, Mapping[str, int]]


def _empty_codes(schema: FeatureSchema) -> dict[str, dict[str, int]]:
    return {c.name: {} for c in schema.columns if c.kind == "categorical"}


def _grow_codes(codes: dict[str, dict[str, int]], columns: Mapping[str, Sequence[str]], n: int) -> None:
    """Give each categorical value of ``columns`` not yet in ``codes`` the
    next code of its feature. First-seen order makes this batch-invariant:
    growing the tables batch by batch ends with the codes of one pass over
    all the rows."""
    for name, table in codes.items():
        texts = columns.get(name, ())
        if len(texts) != n:
            raise PreprocessError(f"column {name!r} holds {len(texts)} values for {n} records")
        for text in dict.fromkeys(texts):
            if text not in table:
                table[text] = len(table) + 1


@dataclass(frozen=True)
class PcaModel:
    """Centered linear projection onto the top principal directions."""

    mean: np.ndarray  # (D,)
    projection: np.ndarray  # (k, D), orthonormal rows
    explained_variance: np.ndarray  # (k,), non-increasing

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (np.asarray(matrix, dtype=np.float64) - self.mean) @ self.projection.T


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """Fit the top-k principal directions of the sample covariance.

    Computed through an SVD of the centered data; eigenvalues use the
    sample (divide-by-N-1) convention. Rank-deficient inputs are fine:
    trailing eigenvalues may be zero.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2:
        raise PreprocessError(f"expected a 2-d matrix, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise PreprocessError("PCA needs at least 2 rows (covariance undefined for N=1)")
    if not 1 <= k <= d:
        raise PreprocessError(f"component count k={k} must be in [1, {d}]")

    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    explained = (s**2) / (n - 1)
    rows = vt[:k].copy()
    # Deterministic sign: make the largest-magnitude entry of each row positive.
    for i in range(rows.shape[0]):
        j = int(np.argmax(np.abs(rows[i])))
        if rows[i, j] < 0:
            rows[i] = -rows[i]
    return PcaModel(mean=mean, projection=rows, explained_variance=explained[:k].copy())


@dataclass(frozen=True)
class ZScoreParams:
    """Per-feature mean and floored population standard deviation."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), every entry >= STD_FLOOR

    def normalize(self, matrix: np.ndarray) -> np.ndarray:
        return (np.asarray(matrix, dtype=np.float64) - self.mean) / self.std


def fit_zscore(matrix: np.ndarray, *, floor: float = STD_FLOOR) -> ZScoreParams:
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise PreprocessError(f"expected a non-empty 2-d matrix, got shape {x.shape}")
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), floor)  # population (divide-by-N) convention
    return ZScoreParams(mean=mean, std=std)


@dataclass(frozen=True)
class PreprocessModel:
    """Fitted encode -> reduce -> normalize pipeline.

    Exactly one of ``selected`` (feature-name list mode) and ``pca`` is set.
    """

    schema: FeatureSchema
    encoder: EncoderMap
    selected: tuple[str, ...] | None
    pca: PcaModel | None
    zscore: ZScoreParams

    def __post_init__(self):
        if (self.selected is None) == (self.pca is None):
            raise PreprocessError("exactly one reduction mode must be configured")

    @property
    def output_dim(self) -> int:
        if self.selected is not None:
            return len(self.selected)
        return self.pca.projection.shape[0]

    @property
    def reduction_mode(self) -> str:
        return "select" if self.selected is not None else "pca"

    @property
    def columns(self) -> tuple[str, ...]:
        """The record columns the pipeline reads, in encode order."""
        return self.selected if self.selected is not None else self.schema.feature_names()

    def apply_columns(
        self, columns: Mapping[str, Sequence[str]], origins: Sequence[Sequence]
    ) -> np.ndarray:
        """Preprocess N records given as columns into an (N, d) matrix.

        ``columns`` maps each name in :attr:`columns` to the records' field
        texts, or for a numeric column also their float64 values, as a
        :class:`~netanom.ingest.FlowBatch` holds them (other names are
        ignored); ``origins`` holds each record's
        (file id, row number), which an error about a bad value names. A
        missing column, or one without a text per record, raises
        :class:`PreprocessError`.
        """
        encoded = _encode_columns(columns, origins, self.schema, self.encoder, self.columns)
        reduced = encoded if self.pca is None else self.pca.transform(encoded)
        return self.zscore.normalize(reduced)

    def apply_records(self, records: Sequence[FlowRecord]) -> np.ndarray:
        """Preprocess records into an (N, d) matrix.

        ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
        deletes this adapter after item 2."""
        return self.apply_columns(_record_columns(records, self.schema, self.columns), [r.origin for r in records])

    def digest(self) -> str:
        """Content hash binding profiles to this exact fitted pipeline."""
        return digest_of(preprocess_to_doc(self))


def parse_reduction_mode(mode: str) -> tuple[str, int | None]:
    """Parse a reduction mode string: ``table1`` or ``pca:<k>``."""
    if mode == "table1":
        return "table1", None
    if mode.startswith("pca:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise PreprocessError(f"bad reduction mode {mode!r}: component count not an integer")
        if k < 1:
            raise PreprocessError(f"bad reduction mode {mode!r}: component count must be >= 1")
        return "pca", k
    raise PreprocessError(f"unknown reduction mode {mode!r} (expected 'table1' or 'pca:<k>')")


def _reduction_features(schema: FeatureSchema, kind: str) -> tuple[str, ...]:
    features = CURATED_FEATURES if kind == "table1" else schema.feature_names()
    schema.validate_selection(features)
    return features


def training_columns(schema: FeatureSchema, mode: str) -> tuple[str, ...]:
    """The record columns a fit in ``mode`` reads, in schema order: every
    categorical column, since the encoder covers them all, and the
    reduction's features."""
    kind, _ = parse_reduction_mode(mode)
    needed = set(_reduction_features(schema, kind)).union(_empty_codes(schema))
    return tuple(name for name in schema.names if name in needed)


def fit_preprocess_batches(
    batches: Iterable[tuple[Mapping[str, Sequence[str]], Sequence[Sequence]]],
    schema: FeatureSchema,
    mode: str = "table1",
) -> tuple[PreprocessModel, np.ndarray]:
    """Fit the full pipeline in one pass over training records given as
    ``(columns, origins)`` batches, as :meth:`PreprocessModel.apply_columns`
    takes them, holding at least :func:`training_columns`.

    Each batch grows the category code tables and is then encoded once with
    them; PCA and the z-score are fitted on the concatenated (N, D) matrix.
    Returns the model and the training records' (N, d) matrix: the bits
    ``apply_columns`` gives for them.
    """
    kind, k = parse_reduction_mode(mode)
    features = _reduction_features(schema, kind)
    codes = _empty_codes(schema)
    encoder = EncoderMap(codes)
    parts = []
    for columns, origins in batches:
        _grow_codes(codes, columns, len(origins))
        parts.append(_encode_columns(columns, origins, schema, encoder, features))
    matrix = np.concatenate(parts) if parts else np.empty((0, len(features)))
    del parts  # PCA's peak comes next
    if not len(matrix):
        raise PreprocessError("cannot fit preprocessing on an empty training set")
    pca = fit_pca(matrix, k) if kind == "pca" else None
    reduced = matrix if pca is None else pca.transform(matrix)
    zscore = fit_zscore(reduced)
    selected = tuple(CURATED_FEATURES) if pca is None else None
    return PreprocessModel(schema, encoder, selected, pca, zscore), zscore.normalize(reduced)


def fit_preprocess(
    train: Sequence[FlowRecord],
    schema: FeatureSchema,
    mode: str = "table1",
) -> PreprocessModel:
    """Fit the full pipeline on training records, passed to
    :func:`fit_preprocess_batches` as one batch.

    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2."""
    columns = _record_columns(train, schema, training_columns(schema, mode))
    return fit_preprocess_batches([(columns, [r.origin for r in train])], schema, mode)[0]


def _record_columns(records: Sequence[FlowRecord], schema: FeatureSchema, names: Iterable[str]) -> dict[str, list[str]]:
    """The named columns of ``records``, each as the records' field texts."""
    index = {name: schema.index_of(name) for name in names}
    return {name: [r.values[i] for r in records] for name, i in index.items()}


def _encode_columns(
    columns: Mapping[str, Sequence[str]],
    origins: Sequence[Sequence],
    schema: FeatureSchema,
    encoder: EncoderMap,
    features: Sequence[str],
) -> np.ndarray:
    """Build the numeric matrix for the named features (encode step)."""
    n = len(origins)
    out = np.empty((n, len(features)), dtype=np.float64)
    for j, name in enumerate(features):
        texts = columns.get(name, ())
        if len(texts) != n:
            raise PreprocessError(f"column {name!r} holds {len(texts)} values for {n} records")
        kind = schema.kind_of(name)
        if kind == "categorical":
            table = encoder.codes.get(name, {})
            out[:, j] = [table.get(text, UNSEEN_CODE) for text in texts]
        elif kind == "numeric":
            try:
                values = np.asarray(texts, dtype=np.float64)  # a float64 array as it is
            except ValueError:
                for text, origin in zip(texts, origins):
                    try:
                        float(text)
                    except ValueError:
                        raise PreprocessError(
                            f"column {name!r}: non-numeric value {text!r} in {origin[0]} row {origin[1]}"
                        ) from None
                raise
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                origin = origins[bad[0]]
                text = texts[bad[0]]
                raise PreprocessError(
                    f"column {name!r}: non-finite value {text if isinstance(text, str) else float(text)!r} "
                    f"in {origin[0]} row {origin[1]}"
                )
            out[:, j] = values
        else:
            raise PreprocessError(f"column {name!r} has kind {kind!r} and cannot be modeled")
    return out


def preprocess_to_doc(model: PreprocessModel) -> dict:
    if model.selected is not None:
        reduction = {"mode": "select", "features": list(model.selected)}
    else:
        reduction = {
            "mode": "pca",
            "mean": model.pca.mean.tolist(),
            "projection": model.pca.projection.tolist(),
            "explained_variance": model.pca.explained_variance.tolist(),
        }
    return {
        "version": PREPROCESS_FORMAT_VERSION,
        "schema": schema_to_doc(model.schema),
        "encoders": {k: dict(v) for k, v in model.encoder.codes.items()},
        "reduction": reduction,
        "zscore": {"mean": model.zscore.mean.tolist(), "std": model.zscore.std.tolist()},
    }


def preprocess_from_doc(doc: dict) -> PreprocessModel:
    if not isinstance(doc, dict):
        raise PreprocessError(f"preprocessing document must be a JSON object, not {type(doc).__name__}")
    if doc.get("version") != PREPROCESS_FORMAT_VERSION:
        raise PreprocessError(f"unsupported preprocessing document version: {doc.get('version')!r}")
    try:
        schema = schema_from_doc(doc["schema"])
        encoder = EncoderMap({k: dict(v) for k, v in doc["encoders"].items()})
        red = doc["reduction"]
        if red["mode"] == "select":
            selected, pca = tuple(red["features"]), None
        elif red["mode"] == "pca":
            selected = None
            pca = PcaModel(
                mean=np.asarray(red["mean"], dtype=np.float64),
                projection=np.asarray(red["projection"], dtype=np.float64),
                explained_variance=np.asarray(red["explained_variance"], dtype=np.float64),
            )
        else:
            raise PreprocessError(f"unknown reduction mode {red['mode']!r}")
        zscore = ZScoreParams(
            mean=np.asarray(doc["zscore"]["mean"], dtype=np.float64),
            std=np.asarray(doc["zscore"]["std"], dtype=np.float64),
        )
    except (KeyError, TypeError) as exc:
        raise PreprocessError(f"malformed preprocessing document: {exc}") from exc
    return PreprocessModel(schema, encoder, selected, pca, zscore)


def save_preprocess(model: PreprocessModel, path) -> None:
    Path(path).write_text(pretty_dumps(preprocess_to_doc(model)), encoding="utf-8")


def load_preprocess(path) -> PreprocessModel:
    """Load a preprocessing model from a JSON file; for JSON text, use
    ``json.loads`` and ``preprocess_from_doc``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PreprocessError(f"preprocessing document is not valid JSON: {exc}") from exc
    return preprocess_from_doc(doc)
