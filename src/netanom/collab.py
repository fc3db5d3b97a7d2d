"""Multi-node detection simulation over a shared capture store.

A replay reads one capture file as :class:`~netanom.ingest.FlowBatch`es,
assigns each record to a named node and appends it to an append-only log,
one totally-ordered stream per node, itself a batch; a record's seq is its
1-based position in its node's stream. Each node then independently
preprocesses and classifies exactly its own partition, one interval (a
slice of ``interval_size`` records) at a time, against one shared normal
profile; a coordinator sums the per-node confusion counts. Nodes never
exchange verdicts: sharing stops at the capture/logging layer, so
partitioning can never change outcomes.

One runner starts a thread per node and retries each node's attempt; the
two transports differ only in how an attempt fetches the node's partition.
The store cuts a partition into intervals, batches that carry only what a
node reads: the columns the preprocessing model reads
(``PreprocessModel.columns``) as the store holds them, numeric ones as
float64 values and the others as field texts, plus each record's truth and
row number. Both transports hand the same classify function these
intervals, each node still encodes and standardizes the columns itself,
and scoring is record-local, so their reports are identical byte for byte. In-process, an interval is handed over
as is. The loopback transport serves the partition over TCP, one
connection per attempt, with length-prefixed frames:

    frame    = length (4-byte big-endian) + payload
    payload  = header length (4-byte big-endian) + JSON header + body

    worker -> store   hello     {node}
    store -> worker   interval  {file, n, columns, texts} + floats + rows (<i8) + truths (i1), ...
    store -> worker   end       {count}
    worker -> store   result    {counts, n} + verdicts (i1)
    store -> worker   ack

Each header also holds its ``type``, which fixes the body: one raw
little-endian buffer of ``n`` values per entry above, and none for the
frames without ``n``. ``texts`` maps each column the store holds as field
texts to its texts; every other one of ``columns`` travels as an ``<f8``
buffer, in ``columns`` order, so a float reads back with the same bits.
``counts`` is null for a node without records. An interval frame is one
interval, in stream order; an interval whose frame would pass
``_MAX_FRAME`` is halved until each part fits. The worker classifies each
frame as it arrives and checks ``end.count`` against the records it
received. A frame that does not fit its layout raises a retryable
:class:`TransportError`. Truth labels are checked once, up front, for both
transports.

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
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .decision import DetectionConfig, NormalProfile, classify_scores, ensure_bound
from .evaluation import ConfusionCounts, MetricsReport, confusion, metrics
from .ingest import FeatureSchema, FlowBatch, FlowRecord, SchemaError, batch_of_records
from .preprocess import PreprocessModel

SIMCONFIG_FORMAT_VERSION = 1

ASSIGNMENT_RULES = ("round-robin", "hash-of-source", "explicit")
TRANSPORTS = ("in-process", "loopback-socket")

_MAX_FRAME = 64 * 1024 * 1024
_SOCKET_TIMEOUT = 30.0


class SimulationError(Exception):
    pass


class TransportError(SimulationError):
    pass


class SimulatedNodeFailure(SimulationError):
    """Raised inside a worker whose node is configured to crash."""


class SharedStore:
    """Append-only log of one capture file with one totally-ordered stream
    per node; a record's seq is its 1-based position there.

    A stream is a :class:`~netanom.ingest.FlowBatch` of the store's
    columns. A column is a float64 array when every appended batch gave it
    as one, else a list of the batches' values. Records are never changed
    or deleted. Readers hold no state in the store: ``partition(node)``
    returns the whole stream every time, which is also how a run is audited
    afterwards.
    """

    def __init__(self, columns: Iterable[str]):
        self.columns = tuple(columns)
        self.file_id: str | None = None
        # Per node, its parts of the batches, joined on the first read after an append.
        self._streams: dict[str, list[FlowBatch]] = {}

    def extend(self, batch: FlowBatch, nodes: Sequence[str]) -> None:
        """Append the records of ``batch``, which holds every store column,
        each under its node in ``nodes``. A batch of another file than the
        first one's raises :class:`SimulationError`."""
        if self.file_id not in (None, batch.file_id):
            raise SimulationError(f"the store holds capture {self.file_id!r}; a batch of {batch.file_id!r} cannot join it")
        self.file_id = batch.file_id
        kept = replace(batch, columns={name: batch.columns[name] for name in self.columns})
        assigned = np.asarray(nodes)
        for node in dict.fromkeys(nodes):
            self._streams.setdefault(node, []).append(kept.take(np.flatnonzero(assigned == node)))

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._streams)

    def partition(self, node: str) -> FlowBatch:
        """Full view of one node's stream, in sequence order. The stream is
        the store's own: readers must not change it."""
        parts = self._streams.get(node)
        if parts is None:
            return FlowBatch({name: [] for name in self.columns}, np.empty(0, np.int8), self.file_id or "", np.empty(0, np.int64))
        if len(parts) > 1:
            parts[:] = [_join(parts)]
        return parts[0]

    def __len__(self) -> int:
        return sum(len(part) for parts in self._streams.values() for part in parts)


def _join(parts: list[FlowBatch]) -> FlowBatch:
    """One batch from consecutive parts of a stream: a column is an array if
    every part holds it as one, else a list."""
    columns = {}
    for name in parts[0].columns:
        pieces = [part.columns[name] for part in parts]
        arrays = all(isinstance(piece, np.ndarray) for piece in pieces)
        columns[name] = np.concatenate(pieces) if arrays else [value for piece in pieces for value in piece]
    truth = np.concatenate([part.truth for part in parts])
    rows = np.concatenate([part.rows for part in parts])
    return FlowBatch(columns, truth, parts[0].file_id, rows)


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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SimulationError(f"simulation config is not valid JSON: {exc}") from exc
    return simconfig_from_doc(doc)


def _node_assigner(cfg: SimulationConfig):
    """``assign(batch, start)``: the node of each record of ``batch``, whose
    first record is record ``start`` of the whole replay. Explicit
    assignment may name fewer nodes than the batch has records;
    :func:`replay_chunks` checks its length once every batch is in."""
    n = len(cfg.nodes)
    if cfg.assignment == "round-robin":
        return lambda batch, start: [cfg.nodes[i % n] for i in range(start, start + len(batch))]
    if cfg.assignment == "explicit":
        return lambda batch, start: (cfg.explicit_assignment or ())[start : start + len(batch)]
    node_of: dict[str, str] = {}  # sources repeat: hash each value once

    def assign(batch: FlowBatch, start: int) -> list[str]:
        texts = batch.columns.get(cfg.hash_column)
        if texts is None:
            raise SchemaError(f"no column named {cfg.hash_column!r}")
        out = []
        for value in texts:
            node = node_of.get(value)
            if node is None:
                h = hashlib.sha256(value.encode("utf-8")).digest()
                node = node_of[value] = cfg.nodes[int.from_bytes(h[:8], "big") % n]
            out.append(node)
        return out

    return assign


def replay_chunks(batches: Iterable[FlowBatch], columns: Iterable[str], cfg: SimulationConfig) -> SharedStore:
    """Append every record of ``batches``, all of one capture file, once, in
    input order, under its assigned node. Each batch holds ``columns`` and,
    for hash-of-source assignment, the hash column as field texts. Every
    batch is read before an explicit assignment is checked."""
    assign = _node_assigner(cfg)
    store = SharedStore(columns)
    n_records = 0
    for batch in batches:
        store.extend(batch, assign(batch, n_records))
        n_records += len(batch)
    if n_records == 0:
        raise SimulationError("cannot replay an empty record list")
    if cfg.assignment == "explicit":
        if cfg.explicit_assignment is None:
            raise SimulationError("explicit assignment requires explicit_assignment in the config")
        if len(cfg.explicit_assignment) != n_records:
            raise SimulationError(
                f"explicit assignment has {len(cfg.explicit_assignment)} entries "
                f"for {n_records} records"
            )
        unknown = [name for name in cfg.explicit_assignment if name not in cfg.nodes]
        if unknown:
            raise SimulationError(f"explicit assignment names unknown node {unknown[0]!r}")
    return store


def replay(
    records: Sequence[FlowRecord],
    cfg: SimulationConfig,
    schema: FeatureSchema,
) -> SharedStore:
    """Append every record once, in input order, under its assigned node:
    the records as one batch over every column of ``schema``.

    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2. ``simulate`` fills the store with
    :func:`replay_chunks`."""
    return replay_chunks([batch_of_records(records, schema, schema.names)], schema.names, cfg)


@dataclass(frozen=True)
class NodeResult:
    """One node's outcome. ``error`` says why a failed node failed; for a
    node that recovered on the loopback transport it holds the store
    service's error from a retried attempt, if there was one. ``frames``
    and ``wire_bytes`` count both directions of the successful loopback
    connection, length prefixes included; they are 0 in-process.
    ``wall_s`` is the node's wall time over all its attempts, in seconds."""

    node: str
    counts: ConfusionCounts | None
    verdicts: tuple[int, ...]
    n_records: int
    failed: bool
    attempts: int
    error: str | None = None
    frames: int = 0
    wire_bytes: int = 0
    wall_s: float = 0.0


@dataclass(frozen=True)
class SimulationOutcome:
    node_results: Mapping[str, NodeResult]
    per_node_reports: Mapping[str, MetricsReport]
    aggregate_counts: ConfusionCounts
    aggregate_report: MetricsReport
    failed_nodes: tuple[str, ...]
    partial: bool


def _intervals(stream: FlowBatch, preprocess: PreprocessModel, size: int) -> Iterator[FlowBatch]:
    """A node's stream cut into intervals of ``size`` records, in stream
    order. An interval holds only the columns ``preprocess`` reads, as the
    store holds them."""
    modeled = replace(stream, columns={name: stream.columns[name] for name in preprocess.columns})
    for start in range(0, len(stream), size):
        yield modeled.take(slice(start, start + size))


def _classify_intervals(
    intervals: Iterable[FlowBatch],
    preprocess: PreprocessModel,
    profile: NormalProfile,
    det: DetectionConfig,
) -> tuple[dict, np.ndarray]:
    """Classify one node's partition, one interval at a time as the
    intervals arrive, into the node's result: the loopback ``result``
    frame's header and its verdicts."""
    verdicts: list[np.ndarray] = []
    counts = ConfusionCounts(0, 0, 0, 0)
    for interval in intervals:
        flagged = classify_scores(profile.score_matrix(preprocess.apply(interval)), profile, det).astype(np.int8)
        verdicts.append(flagged)
        counts = counts + confusion(flagged, interval.truth)
    flagged = np.concatenate(verdicts) if verdicts else np.empty(0, dtype=np.int8)
    counts_doc = {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn} if verdicts else None
    return {"type": "result", "counts": counts_doc, "n": len(flagged)}, flagged


_F8, _I8, _I1 = np.dtype("<f8"), np.dtype("<i8"), np.dtype("i1")  # floats, row numbers, truths and verdicts


def _encode_frame(header: dict, *arrays: np.ndarray) -> bytes:
    """``header`` and the raw bytes of ``arrays``, contiguous arrays of
    their wire dtypes, as one frame (see the module docstring)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    size = 4 + len(head) + sum(array.nbytes for array in arrays)
    return b"".join([struct.pack(">II", size, len(head)), head, *(array.data for array in arrays)])


def _decode_frame(payload: bytes) -> tuple[dict, memoryview]:
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
        header = json.loads(payload[4:start])
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
    bytes, halving the interval until each part fits. A column array that
    is not 1-D float64 raises ``TypeError``."""
    texts, arrays = {}, []
    for name, column in interval.columns.items():
        if not isinstance(column, np.ndarray):
            texts[name] = column
        elif column.dtype == np.float64 and column.ndim == 1:
            arrays.append(np.ascontiguousarray(column, _F8))
        else:
            raise TypeError(f"column {name!r}: a {column.dtype} array of shape {column.shape} has no wire form")
    n = len(interval)
    header = {"type": "interval", "file": interval.file_id, "n": n, "columns": list(interval.columns), "texts": texts}
    data = _encode_frame(header, *arrays, np.ascontiguousarray(interval.rows, _I8), np.ascontiguousarray(interval.truth, _I1))
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


def _interval_of(header: dict, body: memoryview) -> FlowBatch:
    """The interval an interval frame carries. A field that is missing or
    does not fit the layout raises :class:`TransportError`."""
    names, texts, file_id = header.get("columns"), header.get("texts"), header.get("file")
    if not isinstance(file_id, str):
        raise TransportError(f"interval frame file {file_id!r} is not a string")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise TransportError(f"interval frame columns {names!r} are not unique names")
    if not isinstance(texts, dict) or not set(texts) <= set(names):
        raise TransportError("interval frame texts do not map some of its columns")
    *floats, rows, truth = _body(header, body, "interval", *[_F8] * (len(names) - len(texts)), _I8, _I1)
    if not all(isinstance(column, list) and len(column) == len(rows) for column in texts.values()):
        raise TransportError(f"interval frame texts are not lists of its {len(rows)} records")
    floats = iter(floats)
    return FlowBatch({name: texts[name] if name in texts else next(floats) for name in names}, truth, file_id, rows)


def _result_of(header: dict, body: memoryview) -> tuple[dict, np.ndarray]:
    """A result frame's header and verdicts. ``counts`` is null for no
    records, else four counts that sum to ``n``; other counts raise
    :class:`TransportError`."""
    (verdicts,) = _body(header, body, "result", _I1)
    counts = header.get("counts")
    if not (counts is None and not len(verdicts)) and not (
        isinstance(counts, dict)
        and sorted(counts) == ["fn", "fp", "tn", "tp"]
        and all(type(count) is int and count >= 0 for count in counts.values())
        and sum(counts.values()) == len(verdicts)
    ):
        raise TransportError(f"result frame counts {counts!r} do not sum to its {len(verdicts)} records")
    return header, verdicts


class _Channel:
    """Length-prefixed frames over one socket, counting the frames and bytes
    that pass in both directions."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.frames = 0
        self.wire_bytes = 0

    def send(self, header: dict, *arrays: np.ndarray) -> None:
        self.send_encoded(_encode_frame(header, *arrays))

    def send_encoded(self, data: bytes) -> None:
        self.sock.sendall(data)
        self.frames += 1
        self.wire_bytes += len(data)

    def recv(self) -> tuple[dict, memoryview]:
        (length,) = struct.unpack(">I", self._recv_exact(4))
        if length > _MAX_FRAME:
            raise TransportError(f"frame of {length} bytes exceeds the {_MAX_FRAME} limit")
        frame = _decode_frame(self._recv_exact(length))
        self.frames += 1
        self.wire_bytes += 4 + length
        return frame

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise TransportError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


def _received_intervals(channel: _Channel) -> Iterator[FlowBatch]:
    """Yield each interval frame's interval as it arrives, until the ``end``
    frame, whose count must match (a lost frame shows up there)."""
    received = 0
    while (frame := channel.recv())[0].get("type") == "interval":
        interval = _interval_of(*frame)
        received += len(interval)
        yield interval
    _body(*frame, "end")
    count = frame[0].get("count")
    if type(count) is not int or count != received:
        raise TransportError(f"end frame counts {count!r} records, {received} received")


#: Failures worth retrying: crashes and transport trouble, not data errors.
_RETRYABLE = (SimulatedNodeFailure, TransportError, OSError)


def _attempt_loop(node: str, cfg: SimulationConfig, attempt_fn) -> tuple[tuple | None, int, str | None]:
    """Run one node's work with crash-stop retries. Returns
    (result or None, attempts used, last error)."""
    last_error = None
    for attempt in range(1, cfg.retry_budget + 2):
        try:
            if node in cfg.fail_nodes:
                raise SimulatedNodeFailure(f"node {node!r}: injected crash")
            return attempt_fn(), attempt, None
        except _RETRYABLE as exc:
            last_error = f"{type(exc).__name__}: {exc}"
    return None, cfg.retry_budget + 1, last_error


def _run_nodes(cfg: SimulationConfig, attempt) -> dict[str, NodeResult]:
    """Run ``attempt(node)`` on one thread per node under the crash-stop
    retry loop. ``attempt`` returns the node's result, a result frame's
    header and verdicts (see :func:`_classify_intervals`), and a dict of
    the wire's ``NodeResult`` fields (empty in-process). A data error in
    any node is fatal and re-raised once every thread has finished."""
    results: dict[str, NodeResult] = {}
    fatal: list[Exception] = []
    lock = threading.Lock()

    def work(node: str) -> None:
        started = time.perf_counter()
        try:
            payload, attempts, error = _attempt_loop(node, cfg, lambda: attempt(node))
        except Exception as exc:  # data errors are fatal, not node failures
            with lock:
                fatal.append(exc)
            return
        wall_s = time.perf_counter() - started
        if payload is None:
            result = NodeResult(node, None, (), 0, failed=True, attempts=attempts, error=error, wall_s=wall_s)
        else:
            (header, verdicts), wire = payload
            counts = ConfusionCounts(**header["counts"]) if header["counts"] is not None else None
            result = NodeResult(node, counts, tuple(verdicts.tolist()), header["n"], False, attempts, wall_s=wall_s, **wire)
        with lock:
            results[node] = result

    threads = [threading.Thread(target=work, args=(node,)) for node in cfg.nodes]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if fatal:
        raise fatal[0]
    return results


def _run_loopback(
    store: SharedStore,
    preprocess: PreprocessModel,
    profile: NormalProfile,
    cfg: SimulationConfig,
) -> dict[str, NodeResult]:
    server = socket.create_server(("127.0.0.1", cfg.port))
    port = server.getsockname()[1]
    wire_results: dict[str, tuple[dict, np.ndarray]] = {}
    # The store service's errors, by the worker's address until a worker
    # claims them, then by node: the store fails a wrong hello before it
    # knows the node.
    handler_errors: dict[tuple, str] = {}
    node_errors: dict[str, str] = {}
    lock = threading.Lock()
    done = threading.Event()
    handler_threads: list[threading.Thread] = []

    def handle(conn: socket.socket, peer: tuple) -> None:
        with conn:
            try:
                conn.settimeout(_SOCKET_TIMEOUT)
                channel = _Channel(conn)
                hello, body = channel.recv()
                _body(hello, body, "hello")
                node = hello.get("node")
                if not isinstance(node, str):
                    raise TransportError(f"hello frame names node {node!r}")
                stream = store.partition(node)
                for interval in _intervals(stream, preprocess, cfg.interval_size):
                    for data in _interval_frames(interval):
                        channel.send_encoded(data)
                channel.send({"type": "end", "count": len(stream)})
                result = _result_of(*channel.recv())
                with lock:
                    wire_results[node] = result
                channel.send({"type": "ack"})
            except Exception as exc:  # recorded before the close the worker sees
                with lock:
                    handler_errors[peer] = f"{type(exc).__name__}: {exc}"

    def serve() -> None:
        # Blocks in accept until the wake-up connection made once every node
        # is done; a connection accepted after ``done`` is that one.
        while True:
            try:
                conn, peer = server.accept()
            except OSError:
                break
            if done.is_set():
                conn.close()
                break
            t = threading.Thread(target=handle, args=(conn, peer))
            t.start()
            handler_threads.append(t)

    def attempt(node: str) -> tuple[tuple[dict, np.ndarray], dict]:
        with socket.create_connection(("127.0.0.1", port), timeout=_SOCKET_TIMEOUT) as sock:
            local = sock.getsockname()
            channel = _Channel(sock)
            try:
                channel.send({"type": "hello", "node": node})
                intervals = _received_intervals(channel)
                channel.send(*_classify_intervals(intervals, preprocess, profile, cfg.w_for(node)))
                _body(*channel.recv(), "ack")
            except _RETRYABLE as exc:
                with lock:
                    server_error = handler_errors.pop(local, None)
                    if server_error is None:
                        raise
                    node_errors[node] = server_error
                raise TransportError(f"{type(exc).__name__}: {exc}; store service: {server_error}") from exc
        with lock:
            result = wire_results[node]
        return result, {"error": node_errors.get(node), "frames": channel.frames, "wire_bytes": channel.wire_bytes}

    server_thread = threading.Thread(target=serve)
    server_thread.start()
    try:
        return _run_nodes(cfg, attempt)
    finally:
        done.set()
        socket.create_connection(("127.0.0.1", port), timeout=_SOCKET_TIMEOUT).close()
        server_thread.join()
        for t in handler_threads:
            t.join()
        server.close()


def run_simulation(
    store: SharedStore,
    profile: NormalProfile,
    preprocess: PreprocessModel,
    cfg: SimulationConfig,
) -> SimulationOutcome:
    """Run every node over its partition and aggregate the counts.

    The aggregate is the exact field-wise sum of the healthy nodes' counts;
    failed nodes are excluded and flagged, never silently dropped.
    """
    ensure_bound(profile, preprocess)
    missing = [name for name in preprocess.columns if name not in store.columns]
    if missing:
        raise SimulationError(f"the store lacks the modeled columns {missing}")
    for node in cfg.nodes:
        stream = store.partition(node)
        unlabeled = np.flatnonzero(stream.truth < 0)
        if unlabeled.size:
            raise SimulationError(f"unlabeled row: {stream.file_id} row {stream.rows[unlabeled[0]]}; metrics need ground truth")
    if cfg.transport == "in-process":

        def attempt(node: str) -> tuple[tuple[dict, np.ndarray], dict]:
            intervals = _intervals(store.partition(node), preprocess, cfg.interval_size)
            return _classify_intervals(intervals, preprocess, profile, cfg.w_for(node)), {}

        results = _run_nodes(cfg, attempt)
    else:
        results = _run_loopback(store, preprocess, profile, cfg)

    failed = tuple(n for n in cfg.nodes if results[n].failed)
    per_node_reports = {}
    aggregate = ConfusionCounts(0, 0, 0, 0)
    any_counts = False
    for node in cfg.nodes:
        res = results[node]
        if res.failed or res.counts is None:
            continue
        det = cfg.w_for(node)
        per_node_reports[node] = metrics(res.counts, w=det.w)
        aggregate = aggregate + res.counts
        any_counts = True
    if not any_counts:
        raise SimulationError(f"no healthy node produced results; failures: {list(failed)}")

    node_ws = {cfg.w_for(n).w for n in cfg.nodes if not results[n].failed}
    aggregate_w = node_ws.pop() if len(node_ws) == 1 else None
    aggregate_report = metrics(aggregate, w=aggregate_w)
    return SimulationOutcome(
        node_results=results,
        per_node_reports=per_node_reports,
        aggregate_counts=aggregate,
        aggregate_report=aggregate_report,
        failed_nodes=failed,
        partial=bool(failed),
    )
