"""Multi-node detection simulation over one capture file.

A run reads one capture file from a batch source, as
:class:`~netanom.ingest.FlowBatch`es, in passes. A pass assigns each record
to a named node of the topology and cuts each node's records, in file
order, into intervals of ``interval_size`` records as they fill; a node's
last, shorter interval is flushed when the capture ends. Each node
independently preprocesses and classifies exactly its own intervals, as
they arrive, against one shared normal profile, and returns only its
verdicts: each record's side of the band, -1, 0 or +1. The store keeps
each node's truths and tallies the verdicts against them, once for both
transports, and sums the nodes' tallies.
Nodes never exchange verdicts: sharing stops at the capture layer, so
partitioning can never change outcomes. Besides the truths, a pass holds
fewer than ``interval_size`` pending records per node, not the capture.

Retries are rounds: a pass streams every node still owed a result, and a
node whose attempt fails retryably joins the next pass, up to
``retry_budget + 1`` passes, until none is owed. Once every node owed a
result is one of ``fail_nodes``, which crash before a pass reads, the
rounds left are counted, not run. Nodes report in
``cfg.nodes`` order. A pass runs on the calling thread, on either
transport: it reads the source's first batch, opens a link to each node it
streams in ``cfg.nodes`` order, hands each interval to its node's link as
the store cuts it, then takes each node's verdicts. A link that faults is
closed, with the one reason of the end that saw the fault; the other nodes
carry on. The intervals carry only what a node reads: the columns the
preprocessing model reads (``PreprocessModel.columns``), numeric ones as
float64 values and the others as int32 codes into their texts, and each
record's row number. Each node encodes and standardizes them, and scoring
is record-local, so the transports' reports are identical byte for byte.
In-process, the link is the node itself. Over loopback, it is the node
behind its own TCP connection to the run's listener, and the calling thread
drives both ends. Each frame crosses in one call: it goes out in pieces of
at most ``_PIECE`` bytes, each read at the other end as it is sent, so no
send waits for a reader, and that end then acts on it. A length prefix that
does not count exactly the bytes that crossed raises a retryable
:class:`TransportError` at once. The truths stay with the store: the node's
intervals have truth -1 (unknown). The frames are length-prefixed:

    frame    = length (4-byte big-endian) + payload
    payload  = header length (4-byte big-endian) + JSON header + body

    node -> store    hello     {node}
    store -> node    interval  {file, n, columns, texts} + columns (<f8 | <i4) + rows (<i8), ...
    store -> node    end       {count}
    node -> store    result    {n} + verdicts (i1: -1, 0 or +1)
    store -> node    ack

Each header also holds its ``type``, which fixes the body: one raw little-
endian buffer of ``n`` values per entry above, and none for the frames
without ``n``. Each of ``columns`` travels in order: a numeric one as an
``<f8`` buffer, so a float reads back with the same bits, and any other as
an ``<i4`` buffer of codes into its list in ``texts``, the sorted texts
the frame's records use (see :func:`_join`). An interval frame is one
interval, in the node's order; an interval whose frame would pass
``_MAX_FRAME`` is halved until each part fits. The node classifies each
frame as it arrives and checks ``end.count``; the store checks the hello
and that the result holds one verdict of -1, 0 or +1 per record. A frame that does
not fit its layout, a numeric column sent as texts or a code outside its
texts included, raises a retryable :class:`TransportError`. Truth labels
are checked once the capture is read: an unlabeled record fails the run,
naming the file's first one. A bad numeric value never reaches a node: the
read fails on it. A data error ends the run on either transport, with no
result.

Failure model: crash-stop per node. A node that keeps failing past the
retry budget is excluded; the aggregate then covers the healthy nodes only
and is flagged partial.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import socket
import struct
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._docjson import parse_json
from .decision import DetectionConfig, NormalProfile, ensure_bound, sides
from .evaluation import BandTally, ConfusionCounts, MetricsReport
from .ingest import FeatureSchema, FlowBatch, FlowRecord, SchemaError, batch_of_records
from .preprocess import PreprocessModel

SIMCONFIG_FORMAT_VERSION = 1

ASSIGNMENT_RULES = ("round-robin", "hash-of-source", "explicit")
TRANSPORTS = ("in-process", "loopback-socket")

_MAX_FRAME = 64 * 1024 * 1024
_PIECE = 64 * 1024  # a loopback connection holds at most one unread piece of a frame (see _Loopback._cross)
_SOCKET_TIMEOUT = 30.0


class SimulationError(Exception):
    pass


class TransportError(SimulationError):
    pass


class SimulatedNodeFailure(SimulationError):
    """The failure of each attempt of a node configured to crash (``fail_nodes``)."""


def _join(parts: list[FlowBatch]) -> FlowBatch:
    """One batch from consecutive parts of a node's records. A text column
    holds exactly the texts its rows use, sorted: its texts and codes
    depend on the rows alone, not on how the reader cut them into batches."""
    columns, texts = {}, {}
    for name in parts[0].columns:
        if name not in parts[0].texts:
            columns[name] = np.concatenate([part.columns[name] for part in parts])
            continue
        used = [np.flatnonzero(np.bincount(part.columns[name], minlength=len(part.texts[name]))).tolist() for part in parts]
        texts[name] = tuple(sorted({part.texts[name][code] for part, codes in zip(parts, used) for code in codes}))
        code_of = {text: code for code, text in enumerate(texts[name])}
        pieces = []
        for part, codes in zip(parts, used):
            remap = np.zeros(len(part.texts[name]), np.int32)  # a part's code -> the joined code, for each code in use
            remap[codes] = [code_of[part.texts[name][code]] for code in codes]
            pieces.append(remap[part.columns[name]])
        columns[name] = np.concatenate(pieces)
    return FlowBatch(columns, np.concatenate([part.truth for part in parts]), parts[0].file_id, np.concatenate([part.rows for part in parts]), texts)


@dataclass(frozen=True)
class SimulationConfig:
    nodes: tuple[str, ...]
    assignment: str = "round-robin"
    interval_size: int = 100
    w: float = 1.5
    node_w: Mapping[str, float] | None = None  # per-node overrides
    transport: str = "in-process"
    hash_column: str = "srcip"
    explicit_assignment: tuple[str, ...] | None = None
    fail_nodes: tuple[str, ...] = ()
    retry_budget: int = 3
    port: int = 0  # loopback port; 0 picks an ephemeral port
    allow_any_w: bool = False

    def __post_init__(self):
        # A w given as an integer reports exactly as the same w as a float.
        object.__setattr__(self, "w", float(self.w))
        if self.node_w is not None:
            object.__setattr__(self, "node_w", {node: float(w) for node, w in self.node_w.items()})
        if not self.nodes:
            raise SimulationError("topology must have at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise SimulationError("node names must be unique")
        if self.assignment not in ASSIGNMENT_RULES:
            raise SimulationError(f"unknown assignment rule {self.assignment!r}")
        if self.transport not in TRANSPORTS:
            raise SimulationError(f"unknown transport {self.transport!r}")
        if self.interval_size < 1:
            raise SimulationError("interval_size must be >= 1")
        if self.retry_budget < 0:
            raise SimulationError("retry_budget must be >= 0")
        if not 0 <= self.port <= 65535:
            raise SimulationError(f"port must be in 0-65535, got {self.port}")
        unknown = set(self.fail_nodes) - set(self.nodes)
        if unknown:
            raise SimulationError(f"fail_nodes not in topology: {sorted(unknown)}")
        if self.assignment == "explicit":
            if self.explicit_assignment is None:
                raise SimulationError("explicit assignment requires explicit_assignment in the config")
            unknown = [name for name in self.explicit_assignment if name not in self.nodes]
            if unknown:
                raise SimulationError(f"explicit assignment names unknown node {unknown[0]!r}")
        for node, w in ((None, self.w), *(self.node_w or {}).items()):
            if node is not None and node not in self.nodes:
                raise SimulationError(f"node_w names unknown node {node!r}")
            DetectionConfig(w, enforce_range=not self.allow_any_w)

    def w_for(self, node: str) -> DetectionConfig:
        w = (self.node_w or {}).get(node, self.w)
        return DetectionConfig(w, enforce_range=not self.allow_any_w)


def simconfig_to_doc(cfg: SimulationConfig) -> dict:
    doc: dict = {"version": SIMCONFIG_FORMAT_VERSION}
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, (tuple, Mapping)):
            value = list(value) if isinstance(value, tuple) else dict(value)
        doc[field.name] = value
    return doc


# The JSON type, and its name, a config field arrives as, by the head of the
# field's annotation (annotations are strings here, see the __future__ import).
_JSON_TYPES = {
    "tuple": (list, "a list"),
    "Mapping": (dict, "an object"),
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "a boolean"),
}


def _check_json_type(key: str, value, annotation: str) -> None:
    expected, name = _JSON_TYPES[annotation]
    if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
        raise SimulationError(f"simulation config key {key!r} must be {name}, got {type(value).__name__}")


def simconfig_from_doc(doc) -> SimulationConfig:
    """Build a config from its JSON document. Absent keys take the
    ``SimulationConfig`` defaults; a missing ``nodes``, an unknown key or a
    value of the wrong JSON type, a list element included, raises
    ``SimulationError`` naming the key."""
    if not isinstance(doc, dict):
        raise SimulationError(f"simulation config must be a JSON object, not {type(doc).__name__}")
    if doc.get("version") != SIMCONFIG_FORMAT_VERSION:
        raise SimulationError(f"unsupported simulation config version: {doc.get('version')!r}")
    by_name = {field.name: field for field in fields(SimulationConfig)}
    kwargs = {}
    for key, value in doc.items():
        if key == "version":
            continue
        field = by_name.get(key)
        if field is None:
            raise SimulationError(f"unknown simulation config key {key!r}")
        if value is None and field.type.endswith("| None"):
            kwargs[key] = None
            continue
        _check_json_type(key, value, field.type.split("[")[0])
        if key == "node_w":
            for node, w in value.items():
                _check_json_type(f"{key}.{node}", w, "float")
        elif isinstance(value, list):  # every list field is a tuple of names
            for i, name in enumerate(value):
                _check_json_type(f"{key}[{i}]", name, "str")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    if "nodes" not in kwargs:
        raise SimulationError("simulation config is missing the 'nodes' key")
    return SimulationConfig(**kwargs)


def load_simconfig(path) -> SimulationConfig:
    return simconfig_from_doc(parse_json(Path(path).read_bytes(), SimulationError, "simulation config"))


def _node_assigner(cfg: SimulationConfig):
    """``assign(batch, start)``: the index in ``cfg.nodes`` of the node of
    each record of ``batch``, whose first record is record ``start`` of the
    pass, as an intp array. An explicit assignment that does not cover the
    batch raises :class:`SimulationError`, counting the records up to the
    batch's end.

    Hash-of-source assignment hashes each record's source in the hash
    column, as the reader gives it: a text by its UTF-8 bytes, a float64
    value by its ``repr`` (``-0.0`` as ``0.0``), so ``80``, ``80.0`` and
    ``8e1`` are one source. A source's node is the first 8 bytes of the
    sha256 digest, big-endian, modulo the node count. Each distinct source
    of a batch is hashed once."""
    n = len(cfg.nodes)
    if cfg.assignment == "round-robin":
        return lambda batch, start: np.arange(start, start + len(batch), dtype=np.intp) % n
    if cfg.assignment == "explicit":
        index = {node: i for i, node in enumerate(cfg.nodes)}
        names = cfg.explicit_assignment

        def assign_listed(batch: FlowBatch, start: int) -> np.ndarray:
            if len(names) < start + len(batch):
                raise SimulationError(f"explicit assignment has {len(names)} entries for {start + len(batch)} records")
            return np.array([index[name] for name in names[start : start + len(batch)]], np.intp)

        return assign_listed

    def assign(batch: FlowBatch, start: int) -> np.ndarray:
        column = batch.columns.get(cfg.hash_column)
        if column is None:
            raise SchemaError(f"no column named {cfg.hash_column!r}")
        if cfg.hash_column in batch.texts:
            sources, codes = batch.texts[cfg.hash_column], column
        else:
            values, codes = np.unique(column + 0.0, return_inverse=True)
            sources = map(repr, values.tolist())
        digests = (hashlib.sha256(source.encode("utf-8")).digest() for source in sources)
        return np.array([int.from_bytes(h[:8], "big") % n for h in digests], np.intp)[codes]

    return assign


class _Store:
    """The store's side of one pass over a capture, for ``nodes``, nodes of
    ``cfg.nodes`` in that order: it assigns each batch's records, keeps each
    node's truths and a pending part of fewer than ``cfg.interval_size`` of
    its records over ``columns``, and cuts the node's intervals from it."""

    def __init__(self, cfg: SimulationConfig, columns: Sequence[str], nodes: Iterable[str]):
        self.cfg, self.columns = cfg, tuple(columns)
        self.pending: dict[str, list[FlowBatch]] = {node: [] for node in nodes}
        self._truths: dict[str, list[np.ndarray]] = {node: [] for node in self.pending}
        self.truth: dict[str, np.ndarray] = {}  # each node's, once the capture is read
        self.n_records = 0

    def drop(self, node: str) -> None:
        """Stop cutting ``node``'s intervals: its attempt failed. A pass
        whose every node is dropped reads no further."""
        self.pending.pop(node, None)
        self._truths.pop(node, None)

    def intervals(self, batches: Iterable[FlowBatch]) -> Iterator[tuple[str, FlowBatch]]:
        """``(node, interval)`` for each interval of a node not dropped, as
        it fills, then each node's remainder, in ``cfg.nodes`` order. An
        interval holds ``columns`` as ``batches`` hold them.

        Besides what reading ``batches`` raises, a data error raises
        :class:`SimulationError`: a batch of another file or without one of
        ``columns``, an explicit assignment of the wrong length (a short one
        at the first batch it does not cover), an empty capture and, once
        every batch is in, an unlabeled record, naming the file's first."""
        assign = _node_assigner(self.cfg)
        size = self.cfg.interval_size
        file_id, unlabeled = None, None
        for batch in batches:
            if file_id not in (None, batch.file_id):
                raise SimulationError(f"the store holds capture {file_id!r}; a batch of {batch.file_id!r} cannot join it")
            file_id = batch.file_id
            missing = [name for name in self.columns if name not in batch.columns]
            if missing:
                raise SimulationError(f"the store lacks the modeled columns {missing}")
            index = assign(batch, self.n_records)
            self.n_records += len(batch)
            if unlabeled is None and (batch.truth < 0).any():
                unlabeled = batch.rows[batch.truth < 0].min()
            kept = replace(batch, columns={name: batch.columns[name] for name in self.columns})
            for i, node in enumerate(self.cfg.nodes):
                if (parts := self.pending.get(node)) is None:
                    continue
                part = kept.take(np.flatnonzero(index == i))
                self._truths[node].append(part.truth)
                parts.append(part)
                if sum(map(len, parts)) >= size:
                    joined = _join(parts)
                    full = len(joined) - len(joined) % size
                    parts[:] = [joined.take(slice(full, None))]
                    for start in range(0, full, size):
                        yield node, joined.take(slice(start, start + size))
            if not self.pending:
                return
        if self.n_records == 0:
            raise SimulationError("test file has no records")
        names = self.cfg.explicit_assignment
        if self.cfg.assignment == "explicit" and len(names) != self.n_records:
            raise SimulationError(f"explicit assignment has {len(names)} entries for {self.n_records} records")
        if unlabeled is not None:
            raise SimulationError(f"unlabeled row: {file_id} row {unlabeled}; metrics need ground truth")
        self.truth = {node: np.concatenate([np.empty(0, np.int8), *parts]) for node, parts in self._truths.items()}
        for node, parts in list(self.pending.items()):
            if node in self.pending and sum(map(len, parts)):  # not dropped since
                yield node, _join(parts)


def replay(
    records: Sequence[FlowRecord],
    cfg: SimulationConfig,
    schema: FeatureSchema,
) -> Callable[[], Iterator[FlowBatch]]:
    """A batch source (see :func:`run_simulation`) over ``records`` as one
    batch of every column of ``schema``, read and hashed as ``simulate``
    reads and hashes them; a hash column that ``cfg`` names and ``schema``
    lacks raises :class:`SchemaError`. ``bench/tracing.py`` is the only
    caller outside tests; ROADMAP item 3 deletes this adapter after item 2."""
    if cfg.assignment == "hash-of-source":
        schema.index_of(cfg.hash_column)
    batch = batch_of_records(records, schema, schema.names)

    def source() -> Iterator[FlowBatch]:
        yield batch

    return source


@dataclass(frozen=True)
class NodeResult:
    """One node's outcome. ``tally`` counts its verdicts at its w, none for
    a failed node. ``errors`` holds the reason of each run of failed
    attempts, in order, with the number of consecutive attempts that gave
    it: the error of the end that saw the fault, the store's or the node's.
    A failed node's last reason says why it failed. ``frames`` and
    ``wire_bytes`` count both directions of the successful loopback
    connection, length prefixes included; they are 0 in-process.
    ``wall_s`` is the wall time of the passes the node streamed in, in
    seconds."""

    node: str
    tally: BandTally
    verdicts: np.ndarray  # read-only int8, one side of the band (-1, 0 or +1) per record in file order
    failed: bool
    attempts: int
    errors: tuple[tuple[str, int], ...] = ()
    frames: int = 0
    wire_bytes: int = 0
    wall_s: float = 0.0

    @property
    def n_records(self) -> int:
        return len(self.verdicts)

    @property
    def counts(self) -> ConfusionCounts | None:
        """None for a node without records or a failed one."""
        return self.tally.reports()[0].counts if self.tally.seen.any() else None


@dataclass(frozen=True)
class SimulationOutcome:
    node_results: Mapping[str, NodeResult]
    per_node_reports: Mapping[str, MetricsReport]
    aggregate_report: MetricsReport
    failed_nodes: tuple[str, ...]
    n_records: int  # the capture's, failed nodes' records included

    @property
    def partial(self) -> bool:
        return bool(self.failed_nodes)

    @property
    def aggregate_counts(self) -> ConfusionCounts:
        """``aggregate_report.counts``, kept for ``bench/tracing.py``."""
        return self.aggregate_report.counts


def _classify(interval: FlowBatch, preprocess: PreprocessModel, profile: NormalProfile, det: DetectionConfig) -> np.ndarray:
    """One interval's verdicts, as int8 sides of the band."""
    return sides(profile.score_matrix(preprocess.apply(interval)), profile, det)


_F8, _I4, _I8, _I1 = np.dtype("<f8"), np.dtype("<i4"), np.dtype("<i8"), np.dtype("i1")  # floats, codes, row numbers, verdicts


def _encode_frame(header: dict, *arrays: np.ndarray) -> bytes:
    """``header`` and the raw bytes of ``arrays``, contiguous arrays of
    their wire dtypes, as one frame (see the module docstring)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    size = 4 + len(head) + sum(array.nbytes for array in arrays)
    return b"".join([struct.pack(">II", size, len(head)), head, *(array.data for array in arrays)])


def _decode_frame(payload: bytes | memoryview) -> tuple[dict, memoryview]:
    """The header and the body of the frame ``payload`` (the bytes after
    the length prefix). A payload whose header is not a JSON object raises
    :class:`TransportError`, so the node retries."""
    if len(payload) < 4:
        raise TransportError(f"frame of {len(payload)} bytes has no header length")
    (head_size,) = struct.unpack_from(">I", payload)
    start = 4 + head_size
    if start > len(payload):
        raise TransportError(f"header of {head_size} bytes runs past the {len(payload)}-byte frame")
    try:
        header = json.loads(bytes(payload[4:start]))
    except (ValueError, RecursionError) as exc:
        raise TransportError(f"malformed frame header: {type(exc).__name__}: {exc}") from None
    if not isinstance(header, dict):
        raise TransportError(f"malformed frame header: a JSON {type(header).__name__}, not an object")
    return header, memoryview(payload)[start:]


def _body(header: dict, body: memoryview, kind: str, *dtypes: np.dtype) -> list[np.ndarray]:
    """The buffers of a ``kind`` frame: a read-only view of ``header["n"]``
    values per dtype, in order. A frame of another type, a bad ``n`` or a
    body of another length raises :class:`TransportError`. A frame without
    buffers has no ``n`` and an empty body."""
    if header.get("type") != kind:
        raise TransportError(f"expected {kind} frame, got {header.get('type')!r}")
    n = header.get("n") if dtypes else 0
    if type(n) is not int or n < 0:
        raise TransportError(f"{kind} frame counts n={n!r} records")
    size = n * sum(dtype.itemsize for dtype in dtypes)
    if len(body) != size:
        raise TransportError(f"{kind} frame body holds {len(body)} bytes, its header declares {size}")
    offsets = itertools.accumulate((n * dtype.itemsize for dtype in dtypes), initial=0)
    return [np.frombuffer(body, dtype, n, offset) for dtype, offset in zip(dtypes, offsets)]


def _interval_frames(interval: FlowBatch) -> Iterator[bytes]:
    """Encode one interval as frames of at most ``_MAX_FRAME`` payload
    bytes, halving the interval until each part fits. Its text columns go
    as :func:`_join` gives them, so a frame's bytes depend on its records
    alone. A column that is not a 1-D array of its wire dtype, ``<i4`` codes
    for a text column and ``<f8`` for any other, raises ``TypeError``."""
    for name, column in interval.columns.items():
        if column.dtype != (_I4 if name in interval.texts else _F8) or column.ndim != 1:
            raise TypeError(f"column {name!r}: a {column.dtype} array of shape {column.shape} has no wire form")
    interval, n = _join([interval]), len(interval)
    header = {"type": "interval", "file": interval.file_id, "n": n, "columns": list(interval.columns), "texts": interval.texts}
    data = _encode_frame(header, *interval.columns.values(), np.ascontiguousarray(interval.rows, _I8))
    if len(data) - 4 <= _MAX_FRAME:
        yield data
    elif n == 1:
        raise TransportError(
            f"record {interval.file_id} row {interval.rows[0]} needs a frame of "
            f"{len(data) - 4} bytes, over the {_MAX_FRAME} limit"
        )
    else:
        yield from _interval_frames(interval.take(slice(0, n // 2)))
        yield from _interval_frames(interval.take(slice(n // 2, n)))


def _interval_of(header: dict, body: memoryview, schema: FeatureSchema) -> FlowBatch:
    """The interval an interval frame carries: its columns that are numeric
    in ``schema`` as float64 and the others as int32 codes into the texts
    the header lists, each record's truth -1 (unknown). A field that is
    missing or does not fit the layout, a non-finite float or a code
    outside its texts raises :class:`TransportError`."""
    names, texts, file_id = header.get("columns"), header.get("texts"), header.get("file")
    if not isinstance(file_id, str):
        raise TransportError(f"interval frame file {file_id!r} is not a string")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise TransportError(f"interval frame columns {names!r} are not unique names")
    numeric = {column.name for column in schema.columns if column.kind == "numeric"}
    if not isinstance(texts, dict) or set(texts) != set(names) - numeric:
        raise TransportError(f"interval frame texts do not map exactly its text columns {sorted(set(names) - numeric)}")
    if not all(isinstance(column, list) and set(map(type, column)) <= {str} for column in texts.values()):
        raise TransportError("interval frame texts are not lists of strings")
    *values, rows = _body(header, body, "interval", *[_I4 if name in texts else _F8 for name in names], _I8)
    columns = dict(zip(names, values))
    for name, column in columns.items():
        if name not in texts and not np.isfinite(column).all():
            raise TransportError(f"interval frame column {name!r} holds a non-finite value")
        if name in texts and len(column) and not 0 <= column.min() <= column.max() < len(texts[name]):
            raise TransportError(f"interval frame column {name!r} holds a code outside its {len(texts[name])} texts")
    return FlowBatch(columns, np.full(len(rows), -1, np.int8), file_id, rows, {name: tuple(column) for name, column in texts.items()})


def _check_result(verdicts: np.ndarray, n: int) -> None:
    """Raise :class:`TransportError` unless ``verdicts`` holds one -1, 0 or +1 per record of an ``n``-record stream."""
    if len(verdicts) != n:
        raise TransportError(f"result frame holds {len(verdicts)} verdicts for a stream of {n} records")
    if not np.isin(verdicts, (-1, 0, 1)).all():
        raise TransportError("result frame verdicts are not all -1, 0 or +1")


def _check_end(header: dict, body: memoryview, received: int) -> None:
    """Raise :class:`TransportError` unless ``header`` and ``body`` are an
    ``end`` frame that counts the ``received`` records: a lost frame shows
    up here."""
    _body(header, body, "end")
    count = header.get("count")
    if type(count) is not int or count != received:
        raise TransportError(f"end frame counts {count!r} records, {received} received")


#: Failures worth retrying: transport trouble, not data errors.
_RETRYABLE = (TransportError, OSError)


def _reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Node:
    """One node of a pass: it classifies each interval it takes and gives
    its verdicts at the end. In-process, it is its own link (see
    :func:`_run_nodes`), and no frame crosses a wire; over loopback, a
    :class:`_Loopback` hands it the interval of each frame that reaches it."""

    frames = wire_bytes = 0

    def __init__(self, name: str, preprocess: PreprocessModel, profile: NormalProfile, cfg: SimulationConfig):
        self.name, self.preprocess, self.profile, self.det = name, preprocess, profile, cfg.w_for(name)
        self.verdicts: list[np.ndarray] = []

    def take(self, interval: FlowBatch) -> None:
        self.verdicts.append(_classify(interval, self.preprocess, self.profile, self.det))

    def result(self) -> np.ndarray:
        """Its int8 verdicts, in order."""
        return np.concatenate([np.empty(0, np.int8), *self.verdicts])

    def close(self) -> None:
        pass


class _Loopback:
    """``node`` behind its own connection to ``server``, whose both ends the
    calling thread drives, one frame at a time (see the module docstring),
    counting the frames and bytes that cross in both directions. Opening it
    connects, accepts and checks the hello; if any of that fails, both ends
    are closed."""

    def __init__(self, node: _Node, server: socket.socket):
        self.node, self.sent, self.frames, self.wire_bytes = node, 0, 0, 0
        with ExitStack() as opened:
            # Made and accepted one at a time, so the connection accepted is this one.
            self.node_end = opened.enter_context(socket.create_connection(server.getsockname(), timeout=_SOCKET_TIMEOUT))
            self.store_end = opened.enter_context(server.accept()[0])
            for sock in (self.node_end, self.store_end):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(_SOCKET_TIMEOUT)
            hello, body = self._cross(self.node_end, self.store_end, _encode_frame({"type": "hello", "node": node.name}))
            _body(hello, body, "hello")
            if hello.get("node") != node.name:
                raise TransportError(f"hello frame names node {hello.get('node')!r}")
            self.opened = opened.pop_all()

    def take(self, interval: FlowBatch) -> None:
        self.sent += len(interval)
        for data in _interval_frames(interval):
            self.node.take(_interval_of(*self._cross(self.store_end, self.node_end, data), self.node.preprocess.schema))

    def result(self) -> np.ndarray:
        header, body = self._cross(self.store_end, self.node_end, _encode_frame({"type": "end", "count": self.sent}))
        verdicts = self.node.result()
        _check_end(header, body, len(verdicts))
        frame = _encode_frame({"type": "result", "n": len(verdicts)}, verdicts)
        (verdicts,) = _body(*self._cross(self.node_end, self.store_end, frame), "result", _I1)
        _check_result(verdicts, self.sent)
        _body(*self._cross(self.store_end, self.node_end, _encode_frame({"type": "ack"})), "ack")
        return verdicts

    def close(self) -> None:
        self.opened.close()

    def _cross(self, sender: socket.socket, receiver: socket.socket, data: bytes) -> tuple[dict, memoryview]:
        """The header and body of the frame ``data``, sent from ``sender`` in
        pieces of at most ``_PIECE`` bytes and read at ``receiver`` as each
        is sent. A length prefix that does not count exactly the bytes that
        crossed, or counts more than ``_MAX_FRAME``, raises
        :class:`TransportError`."""
        sent, crossed = memoryview(data), memoryview(bytearray(len(data)))
        for start in range(0, len(data), _PIECE):
            end = min(start + _PIECE, len(data))
            sender.sendall(sent[start:end])
            while start < end:
                if not (got := receiver.recv_into(crossed[start:end])):
                    raise TransportError("connection closed mid-frame")
                start += got
        length = int.from_bytes(crossed[:4], "big")
        if length != len(data) - 4:
            raise TransportError(f"frame length prefix counts {length} bytes, {len(data) - 4} follow it")
        if length > _MAX_FRAME:
            raise TransportError(f"frame of {length} bytes exceeds the {_MAX_FRAME} limit")
        self.frames += 1
        self.wire_bytes += len(data)
        return _decode_frame(crossed.toreadonly()[4:])


def _run_nodes(
    source: Callable[[], Iterator[FlowBatch]], link: Callable[[str], _Node | _Loopback], columns: Sequence[str], cfg: SimulationConfig
) -> tuple[dict[str, NodeResult], int]:
    """Run up to ``cfg.retry_budget + 1`` passes, each over the nodes of
    ``cfg.nodes`` still owed a result, until none is, and tally each node's
    verdicts against its truths. A node of ``cfg.fail_nodes`` crashes before
    a pass reads; once it is the only kind owed, every round left crashes
    alike, and their attempts are counted at once.

    A pass runs on the calling thread, on either transport (see the module
    docstring): ``link(node)`` opens ``node``'s link. A link that raises a
    retryable error is closed, its reason recorded and its node dropped;
    the others carry on. Any other exception, a data error, propagates at
    once, after every link is closed. The results follow ``cfg.nodes``
    order; the count is the capture's."""
    attempts = dict.fromkeys(cfg.nodes, 0)
    errors: dict[str, list[tuple[str, int]]] = {node: [] for node in cfg.nodes}  # runs of (reason, attempts)
    wall_s = dict.fromkeys(cfg.nodes, 0.0)
    done: dict[str, NodeResult] = {}
    n_records = 0

    def note_failure(node: str, reason: str, times: int = 1) -> None:
        runs = errors[node]
        if runs and runs[-1][0] == reason:
            times += runs.pop()[1]
        runs.append((reason, times))

    for round_ in range(cfg.retry_budget + 1):
        owed = [node for node in cfg.nodes if node not in done]
        if not owed:
            break
        streaming = [node for node in owed if node not in cfg.fail_nodes]
        times = 1 if streaming else cfg.retry_budget + 1 - round_
        for node in owed:
            attempts[node] += times
            if node in cfg.fail_nodes:
                note_failure(node, _reason(SimulatedNodeFailure(f"node {node!r}: injected crash")), times)
        if not streaming:
            break
        started = time.perf_counter()
        store = _Store(cfg, columns, streaming)
        links: dict[str, _Node | _Loopback] = {}

        def attempt(node: str, step: Callable[[], object]):
            try:
                return step()
            except _RETRYABLE as exc:
                note_failure(node, _reason(exc))
                store.drop(node)
                if node in links:
                    links.pop(node).close()

        with closing(source()) as batches:
            # A reader process the source forks starts here, before any
            # connection is open, so it holds none of their sockets.
            head = list(itertools.islice(batches, 1))
            try:
                for node in streaming:
                    if (opened := attempt(node, lambda: link(node))) is not None:
                        links[node] = opened
                for node, interval in store.intervals(itertools.chain(head, batches)):
                    if node in links:
                        attempt(node, lambda: links[node].take(interval))
                verdicts = {node: attempt(node, links[node].result) for node in list(links)}
            finally:
                for opened in links.values():
                    opened.close()
        n_records = max(n_records, store.n_records)  # a pass whose every node failed may stop early
        elapsed = time.perf_counter() - started
        for node in streaming:
            wall_s[node] += elapsed
        for node, opened in links.items():
            verdicts[node].setflags(write=False)
            tally = BandTally([cfg.w_for(node).w])
            if len(verdicts[node]):
                tally.add_sides(verdicts[node], store.truth[node])
            done[node] = NodeResult(node, tally, verdicts[node], False, attempts[node], tuple(errors[node]), wall_s=wall_s[node], frames=opened.frames, wire_bytes=opened.wire_bytes)
    nothing = np.empty(0, np.int8)
    nothing.setflags(write=False)
    results = {
        node: done.get(node) or NodeResult(node, BandTally([cfg.w_for(node).w]), nothing, True, attempts[node], tuple(errors[node]), wall_s=wall_s[node])
        for node in cfg.nodes
    }
    return results, n_records


def run_simulation(
    source: Callable[[], Iterator[FlowBatch]],
    profile: NormalProfile,
    preprocess: PreprocessModel,
    cfg: SimulationConfig,
) -> SimulationOutcome:
    """Run every node of ``cfg.nodes`` over its records of one capture file
    and aggregate the counts.

    ``source`` starts a new pass over the capture each time it is called:
    it returns a generator of the capture's batches, in file order, which
    the pass closes when it ends. The batches hold the columns the model
    reads and, for hash-of-source assignment, the hash column, as the
    reader gives them (see :func:`replay`). A run calls it once, and once
    more for each round of retries.

    The aggregate is the sum of the healthy nodes' tallies; failed nodes
    are excluded and flagged, never silently dropped. A data
    error (see :meth:`_Store.intervals`) raises at once, on either
    transport, after every connection is closed.
    """
    ensure_bound(profile, preprocess)
    if cfg.transport == "in-process":
        results, n_records = _run_nodes(source, lambda node: _Node(node, preprocess, profile, cfg), preprocess.columns, cfg)
    else:
        with socket.create_server(("127.0.0.1", cfg.port)) as server:
            results, n_records = _run_nodes(source, lambda node: _Loopback(_Node(node, preprocess, profile, cfg), server), preprocess.columns, cfg)

    failed = tuple(n for n in cfg.nodes if results[n].failed)
    healthy = [results[n].tally for n in cfg.nodes if not results[n].failed]
    if not any(tally.seen.any() for tally in healthy):
        raise SimulationError(f"no healthy node produced results; failures: {list(failed)}")
    return SimulationOutcome(
        node_results=results,
        per_node_reports={n: r.tally.reports()[0] for n, r in results.items() if r.tally.seen.any()},
        aggregate_report=sum(healthy[1:], healthy[0]).reports()[0],
        failed_nodes=failed,
        n_records=n_records,
    )
