"""Fit-once/apply-many preprocessing pipeline.

Three steps, applied in this order: categorical-to-numeric encoding, feature
reduction (a curated name list or a PCA projection), then per-feature
standardization to zero mean and unit standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._docjson import digest_of, parse_json, pretty_dumps
from .ingest import FeatureSchema, FlowBatch, FlowRecord, batch_of_records, schema_from_doc, schema_to_doc

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


def _grow_codes(codes: dict[str, dict[str, int]], batch: FlowBatch) -> None:
    """Give each categorical value of ``batch`` not yet in ``codes`` the
    next code of its feature, in the order the rows first use them. This
    makes it batch-invariant: growing the tables batch by batch ends with
    the codes of one pass over all the rows."""
    for name, table in codes.items():
        column, texts = _codes(batch, name)
        for code in column[np.sort(np.unique(column, return_index=True)[1])].tolist():
            table.setdefault(texts[code], len(table) + 1)


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


def fit_zscore(matrix: np.ndarray) -> ZScoreParams:
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise PreprocessError(f"expected a non-empty 2-d matrix, got shape {x.shape}")
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_FLOOR)  # population (divide-by-N) convention
    return ZScoreParams(mean=mean, std=std)


@dataclass(frozen=True)
class PreprocessModel:
    """Fitted encode -> reduce -> normalize pipeline.

    Exactly one of ``selected`` (feature-name list mode) and ``pca`` is set.
    ``encoder`` has a table for each categorical column of :attr:`columns`;
    a fit makes no other, a loaded document may hold more, never read.
    """

    schema: FeatureSchema
    encoder: Mapping[str, Mapping[str, int]]  # {feature: {text: code}}, codes in first-seen order from 1
    selected: tuple[str, ...] | None
    pca: PcaModel | None
    zscore: ZScoreParams

    def __post_init__(self):
        if (self.selected is None) == (self.pca is None):
            raise PreprocessError("exactly one reduction mode must be configured")
        kinds = {column.name: column.kind for column in self.schema.columns}
        if missing := [name for name in self.columns if kinds.get(name) == "categorical" and name not in self.encoder]:
            raise PreprocessError(f"the encoders hold no table for categorical column {missing[0]!r}")

    @property
    def columns(self) -> tuple[str, ...]:
        """The record columns the pipeline reads, in encode order."""
        return self.selected if self.selected is not None else self.schema.feature_names()

    def apply(self, batch: FlowBatch) -> np.ndarray:
        """Preprocess the N records of ``batch`` into an (N, d) matrix.

        The batch must hold every name in :attr:`columns` (it may hold
        others) as the reader makes it: a numeric column as a 1-D float64
        array of finite values, and any other as int32 codes into its
        ``batch.texts``. A missing column, one without a value per record,
        or one of another form, holding a non-finite value or a code
        outside its texts raises :class:`PreprocessError`.
        """
        encoded = _encode_columns(batch, self.schema, self.encoder, self.columns)
        reduced = encoded if self.pca is None else self.pca.transform(encoded)
        return self.zscore.normalize(reduced)

    def apply_records(self, records: Sequence[FlowRecord]) -> np.ndarray:
        """Preprocess records into an (N, d) matrix.

        ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
        deletes this adapter after item 2."""
        return self.apply(batch_of_records(records, self.schema, self.columns))

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


def training_columns(schema: FeatureSchema, mode: str) -> tuple[str, ...]:
    """The record columns a fit in ``mode`` reads, encodes and keeps as the
    fitted model's :attr:`PreprocessModel.columns`: table1's curated
    features, or every feature column for ``pca:<k>``."""
    kind, _ = parse_reduction_mode(mode)
    features = CURATED_FEATURES if kind == "table1" else schema.feature_names()
    schema.validate_selection(features)
    return features


def fit_preprocess_batches(
    batches: Iterable[FlowBatch],
    schema: FeatureSchema,
    mode: str = "table1",
) -> tuple[PreprocessModel, np.ndarray]:
    """Fit the full pipeline in one pass over training records given as
    batches holding at least :func:`training_columns`.

    Each batch grows the code tables of its categorical columns and is then
    encoded once with them; PCA and the z-score are fitted on the (N, D)
    matrix of all batches. Returns the model and the records' (N, d)
    matrix: the bits :meth:`PreprocessModel.apply` gives for them.
    """
    kind, k = parse_reduction_mode(mode)
    features = training_columns(schema, mode)
    encoder = {name: {} for name in features if schema.kind_of(name) == "categorical"}
    parts = []
    for batch in batches:
        _grow_codes(encoder, batch)
        parts.append(_encode_columns(batch, schema, encoder, features))
    matrix = np.concatenate(parts) if parts else np.empty((0, len(features)))
    del parts  # PCA's peak comes next
    if not len(matrix):
        raise PreprocessError("cannot fit preprocessing on an empty training set")
    pca = fit_pca(matrix, k) if kind == "pca" else None
    reduced = matrix if pca is None else pca.transform(matrix)
    zscore = fit_zscore(reduced)
    selected = features if pca is None else None
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
    return fit_preprocess_batches([batch_of_records(train, schema, training_columns(schema, mode))], schema, mode)[0]


def _column(batch: FlowBatch, name: str) -> np.ndarray:
    """The named column of ``batch``, checked to hold a value per record."""
    values = batch.columns.get(name, ())
    if len(values) != len(batch):
        raise PreprocessError(f"column {name!r} holds {len(values)} values for {len(batch)} records")
    return values


def _codes(batch: FlowBatch, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """The named categorical column of ``batch``, checked to be int32 codes
    into its texts, and the texts."""
    codes, texts = _column(batch, name), batch.texts.get(name, ())
    coded = isinstance(codes, np.ndarray) and codes.dtype == np.int32 and codes.ndim == 1
    if not coded or len(codes) and not 0 <= codes.min() <= codes.max() < len(texts):
        raise PreprocessError(f"column {name!r}: categorical values must be int32 codes into the batch's {len(texts)} texts")
    return codes, texts


def _encode_columns(batch: FlowBatch, schema: FeatureSchema, encoder: Mapping[str, Mapping[str, int]], features: Sequence[str]) -> np.ndarray:
    """Build the numeric matrix for the named features (encode step)."""
    out = np.empty((len(batch), len(features)), dtype=np.float64)
    kinds = {column.name: column.kind for column in schema.columns}
    for j, name in enumerate(features):
        kind = kinds.get(name)
        if kind == "categorical":
            codes, texts = _codes(batch, name)
            table = encoder[name]
            out[:, j] = np.array([table.get(text, UNSEEN_CODE) for text in texts], np.float64)[codes]
        elif kind == "numeric":
            values = _column(batch, name)
            # API input: the reader makes each numeric column a finite float64 array.
            if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1):
                form = f"a {values.dtype} array of shape {values.shape}" if isinstance(values, np.ndarray) else type(values).__name__
                raise PreprocessError(f"column {name!r}: numeric values must be a 1-D float64 array, not {form}")
            out[:, j] = values
        else:
            raise PreprocessError(f"column {name!r} has kind {kind!r} and cannot be modeled")
    if (bad := np.argwhere(~np.isfinite(out.T))).size:  # the first, by column: only a numeric one can hold any
        j, i = bad[0]
        raise PreprocessError(f"column {features[j]!r}: non-finite value {float(out[i, j])!r} in {batch.file_id} row {batch.rows[i]}")
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
        "encoders": {k: dict(v) for k, v in model.encoder.items()},
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
        encoder = {k: dict(v) for k, v in doc["encoders"].items()}
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
    return preprocess_from_doc(parse_json(Path(path).read_bytes(), PreprocessError, "preprocessing document"))
