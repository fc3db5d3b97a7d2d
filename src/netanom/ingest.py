"""Flow-record ingestion: feature schemas, CSV parsing, and seeded sampling.

A :class:`FeatureSchema` describes the column layout of a flow CSV. Records
are kept as raw text fields plus a parsed binary truth label; all numeric
interpretation happens later, in the preprocessing stage.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SCHEMA_FORMAT_VERSION = 1

#: Column roles. "meta" columns travel with records but are never modeled
#: (e.g. a multi-class attack-category annotation next to the binary label).
COLUMN_KINDS = ("numeric", "categorical", "label", "meta")


class IngestError(Exception):
    """Base class for ingestion failures."""


class SchemaError(IngestError):
    pass


class ParseError(IngestError):
    """A malformed row; carries the originating file id and row number."""

    def __init__(self, file_id: str, row: int, reason: str):
        super().__init__(f"{file_id}, row {row}: {reason}")
        self.file_id = file_id
        self.row = row
        self.reason = reason


class SampleError(IngestError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column layout with exactly one binary label column."""

    columns: tuple[ColumnSpec, ...]
    label_column: str
    positive_label_value: str

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        for col in self.columns:
            if col.kind not in COLUMN_KINDS:
                raise SchemaError(f"column {col.name!r}: unknown kind {col.kind!r}")
        label_cols = [c.name for c in self.columns if c.kind == "label"]
        if label_cols != [self.label_column]:
            raise SchemaError(
                f"schema must have exactly one label column named {self.label_column!r}, "
                f"found {label_cols}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def label_index(self) -> int:
        return self.index_of(self.label_column)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def kind_of(self, name: str) -> str:
        return self.columns[self.index_of(name)].kind

    def feature_names(self) -> tuple[str, ...]:
        """Names of modelable columns (numeric or categorical), in order."""
        return tuple(c.name for c in self.columns if c.kind in ("numeric", "categorical"))

    def validate_selection(self, selected: Sequence[str]) -> None:
        """Check that every selected feature exists and is modelable."""
        modelable = set(self.feature_names())
        missing = [n for n in selected if n not in modelable]
        if missing:
            raise SchemaError(f"selected features not present as modelable columns: {missing}")


@dataclass(frozen=True)
class FlowRecord:
    """One network observation: raw field texts plus an optional truth label.

    ``truth`` is 1 for attack, 0 for normal, None when the label field was
    empty. ``origin`` is (file id, 1-based data-row number).
    """

    values: tuple[str, ...]
    truth: int | None
    origin: tuple[str, int]

    def value(self, schema: FeatureSchema, name: str) -> str:
        return self.values[schema.index_of(name)]


@dataclass(frozen=True)
class RowIssue:
    file_id: str
    row: int
    reason: str


def schema_to_doc(schema: FeatureSchema) -> dict:
    return {
        "version": SCHEMA_FORMAT_VERSION,
        "columns": [{"name": c.name, "kind": c.kind} for c in schema.columns],
        "label_column": schema.label_column,
        "positive_label_value": schema.positive_label_value,
    }


def schema_from_doc(doc: dict) -> FeatureSchema:
    if not isinstance(doc, dict) or doc.get("version") != SCHEMA_FORMAT_VERSION:
        raise SchemaError(f"unsupported schema document version: {doc.get('version')!r}")
    try:
        columns = tuple(ColumnSpec(c["name"], c["kind"]) for c in doc["columns"])
        return FeatureSchema(columns, doc["label_column"], doc["positive_label_value"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc


def load_schema(source) -> FeatureSchema:
    """Load a schema from a path, or from JSON text/bytes."""
    if isinstance(source, (str, bytes)) and not _looks_like_path(source):
        text = source.decode("utf-8") if isinstance(source, bytes) else source
    else:
        text = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema is not valid JSON: {exc}") from exc
    return schema_from_doc(doc)


def save_schema(schema: FeatureSchema, path) -> None:
    from ._docjson import pretty_dumps

    Path(path).write_text(pretty_dumps(schema_to_doc(schema)), encoding="utf-8")


def _looks_like_path(source) -> bool:
    if isinstance(source, bytes):
        return False
    # JSON schema text always starts with "{"; anything else is a path.
    return not source.lstrip().startswith("{")


# Bundled default layout matching UNSW-NB15-style flow CSVs: 47 flow
# features, a free-text attack-category annotation kept as metadata, and a
# 0/1 label column.
_DEFAULT_COLUMNS = (
    ("srcip", "categorical"),
    ("sport", "numeric"),
    ("dstip", "categorical"),
    ("dsport", "numeric"),
    ("proto", "categorical"),
    ("state", "categorical"),
    ("dur", "numeric"),
    ("sbytes", "numeric"),
    ("dbytes", "numeric"),
    ("sttl", "numeric"),
    ("dttl", "numeric"),
    ("sloss", "numeric"),
    ("dloss", "numeric"),
    ("service", "categorical"),
    ("sload", "numeric"),
    ("dload", "numeric"),
    ("spkts", "numeric"),
    ("dpkts", "numeric"),
    ("swin", "numeric"),
    ("dwin", "numeric"),
    ("stcpb", "numeric"),
    ("dtcpb", "numeric"),
    ("smean", "numeric"),
    ("dmean", "numeric"),
    ("trans_depth", "numeric"),
    ("res_bdy_len", "numeric"),
    ("sjit", "numeric"),
    ("djit", "numeric"),
    ("stime", "numeric"),
    ("ltime", "numeric"),
    ("sintpkt", "numeric"),
    ("dintpkt", "numeric"),
    ("tcprtt", "numeric"),
    ("synack", "numeric"),
    ("ackdat", "numeric"),
    ("is_sm_ips_ports", "numeric"),
    ("ct_state_ttl", "numeric"),
    ("ct_flw_http_mthd", "numeric"),
    ("is_ftp_login", "numeric"),
    ("ct_ftp_cmd", "numeric"),
    ("ct_srv_src", "numeric"),
    ("ct_srv_dst", "numeric"),
    ("ct_dst_ltm", "numeric"),
    ("ct_src_ltm", "numeric"),
    ("ct_src_dport_ltm", "numeric"),
    ("ct_dst_sport_ltm", "numeric"),
    ("ct_dst_src_ltm", "numeric"),
    ("attack_cat", "meta"),
    ("label", "label"),
)


def default_schema() -> FeatureSchema:
    """Schema for the stock 49-column UNSW-NB15-style flow CSV layout."""
    return FeatureSchema(
        columns=tuple(ColumnSpec(n, k) for n, k in _DEFAULT_COLUMNS),
        label_column="label",
        positive_label_value="1",
    )


def _open_text(source):
    """Return (text stream, default file id, needs_close) for the input. A
    ``str`` or path-like is always a path; CSV text comes as bytes or a
    stream."""
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        return path.open("r", encoding="utf-8", newline=""), path.name, True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(bytes(source).decode("utf-8")), "<memory>", False
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data), "<memory>", False
    raise IngestError(f"unsupported source type: {type(source)!r}")


def parse_flow_csv(
    source,
    schema: FeatureSchema,
    *,
    file_id: str | None = None,
    strict: bool = True,
    issues: list[RowIssue] | None = None,
) -> list[FlowRecord]:
    """Parse a flow CSV into records, in file order.

    ``source`` may be a path (a ``str`` or path-like, never CSV text), an
    open text/binary stream, or bytes. The header row is
    optional and auto-detected by matching the schema's column names. In
    strict mode (default) the first malformed row raises
    :class:`ParseError`; in lenient mode malformed rows are skipped and
    reported through ``issues``.

    Labels parse as: empty field -> unlabeled (None); field equal to the
    schema's positive value -> 1; anything else -> 0.
    """
    stream, default_id, needs_close = _open_text(source)
    fid = file_id if file_id is not None else default_id
    label_idx = schema.label_index
    positive = schema.positive_label_value
    width = schema.width
    lowered_names = [n.lower() for n in schema.names]

    records: list[FlowRecord] = []
    try:
        reader = csv.reader(stream)
        row_no = 0
        first = True
        for fields in reader:
            if not fields:
                continue  # blank line
            if first:
                first = False
                stripped = [f.strip().lstrip("﻿").lower() for f in fields]
                if stripped == lowered_names:
                    continue  # header row
            row_no += 1
            if len(fields) != width:
                issue = RowIssue(fid, row_no, f"expected {width} fields, got {len(fields)}")
                if strict:
                    raise ParseError(issue.file_id, issue.row, issue.reason)
                if issues is not None:
                    issues.append(issue)
                continue
            raw_label = fields[label_idx].strip()
            if raw_label == "":
                truth = None
            else:
                truth = 1 if raw_label == positive else 0
            records.append(FlowRecord(tuple(fields), truth, (fid, row_no)))
    finally:
        if needs_close:
            stream.close()
    return records


def parse_flow_csvs(paths: Iterable, schema: FeatureSchema, *, strict: bool = True) -> list[FlowRecord]:
    """Parse several files (paths, never CSV text) and concatenate the records in file order."""
    out: list[FlowRecord] = []
    for p in paths:
        out.extend(parse_flow_csv(Path(p), schema, strict=strict))
    return out


def write_flow_csv(records: Sequence[FlowRecord], schema: FeatureSchema, dest, *, header: bool = True) -> None:
    """Serialize records back to CSV. Inverse of :func:`parse_flow_csv`."""

    def _write(stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        if header:
            writer.writerow(schema.names)
        for rec in records:
            if len(rec.values) != schema.width:
                raise IngestError(
                    f"record from {rec.origin} has {len(rec.values)} fields, schema has {schema.width}"
                )
            writer.writerow(rec.values)

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with Path(dest).open("w", encoding="utf-8", newline="") as stream:
            _write(stream)


@dataclass(frozen=True)
class SamplePlan:
    """Seeded draw: total size, normal share, and the train share of normals."""

    total_size: int
    normal_fraction: float
    train_fraction_of_normal: float
    seed: int

    def __post_init__(self):
        if self.total_size <= 0:
            raise ValueError("total_size must be positive")
        for name in ("normal_fraction", "train_fraction_of_normal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def stratified_sample(
    records: Sequence[FlowRecord], plan: SamplePlan
) -> tuple[list[FlowRecord], list[FlowRecord]]:
    """Draw (train_normal, test) without replacement, deterministically.

    Per class, indices are shuffled with a generator seeded from the plan and
    prefixes are taken; the train partition holds only normal records and is
    disjoint from test. Output lists preserve the input ordering.
    """
    unlabeled = sum(1 for r in records if r.truth is None)
    if unlabeled:
        raise SampleError(f"{unlabeled} records lack a truth label; sampling needs labeled data")

    normal_idx = np.array([i for i, r in enumerate(records) if r.truth == 0], dtype=np.int64)
    attack_idx = np.array([i for i, r in enumerate(records) if r.truth == 1], dtype=np.int64)

    n_normal = round(plan.total_size * plan.normal_fraction)
    n_attack = plan.total_size - n_normal
    if n_normal > normal_idx.size:
        raise SampleError(f"need {n_normal} normal records, only {normal_idx.size} available")
    if n_attack > attack_idx.size:
        raise SampleError(f"need {n_attack} attack records, only {attack_idx.size} available")

    rng = np.random.default_rng(plan.seed)
    chosen_normal = normal_idx[rng.permutation(normal_idx.size)[:n_normal]]
    chosen_attack = attack_idx[rng.permutation(attack_idx.size)[:n_attack]]

    n_train = round(n_normal * plan.train_fraction_of_normal)
    train_ids = np.sort(chosen_normal[:n_train])
    test_ids = np.sort(np.concatenate([chosen_normal[n_train:], chosen_attack]))

    train = [records[i] for i in train_ids]
    test = [records[i] for i in test_ids]
    return train, test
