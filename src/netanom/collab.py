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
    payload  = header length (4-byte big-endian) + JSON header + buffers

    worker -> store   hello     {node}
    store -> worker   interval  {file, values: {column: values}, truth, rows}, ...
    store -> worker   end       {count}
    worker -> store   result    {counts, verdicts, n}
    store -> worker   ack

Arrays travel as raw little-endian buffers after the header: float64
columns (``<f8``), truths and verdicts (``i1``) and row numbers (``<i8``),
so a float reads back with the same bits. Field texts, the file id and
every other field travel in the JSON header. An interval frame is one
interval, in stream order. An interval whose frame would pass
``_MAX_FRAME`` is halved until each part fits its own frame. The worker classifies each frame as it arrives and checks
``end.count`` against the records it received; a frame that does not
decode raises a retryable :class:`TransportError`. Truth labels are
checked once, up front, for both transports.

Failure model: crash-stop per node. A node that keeps failing past the
retry budget is excluded; the aggregate then covers the healthy nodes only
and is flagged partial.
"""

from __future__ import annotations

import hashlib
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
) -> dict:
    """Classify one node's partition, one interval at a time as the
    intervals arrive, into the node's result payload (the loopback
    ``result`` frame)."""
    verdicts: list[np.ndarray] = []
    counts = ConfusionCounts(0, 0, 0, 0)
    for interval in intervals:
        flagged = classify_scores(profile.score_matrix(preprocess.apply(interval)), profile, det).astype(np.int8)
        verdicts.append(flagged)
        counts = counts + confusion(flagged, interval.truth)
    flagged = np.concatenate(verdicts) if verdicts else np.empty(0, dtype=np.int8)
    return {
        "type": "result",
        "counts": {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn} if verdicts else None,
        "verdicts": flagged,
        "n": len(flagged),
    }


#: The dtypes an array travels as, by their numpy name on the wire.
_WIRE_DTYPES = {name: np.dtype(name) for name in ("<f8", "i1", "<i8")}
_WIRE_NAMES = {(dtype.kind, dtype.itemsize): name for name, dtype in _WIRE_DTYPES.items()}


def _encode_frame(obj: dict) -> bytes:
    """``obj`` as one frame (see the module docstring). An array, at the top
    level of ``obj`` or one dict down, leaves a null in the header and
    travels as a buffer; the header's ``buffers`` lists each buffer's
    ``[path, dtype, count]``, in buffer order."""
    header: dict = {}
    table: list = []
    arrays: list[np.ndarray] = []

    def lift(path: list[str], value):
        if not isinstance(value, np.ndarray):
            return value
        name = _WIRE_NAMES.get((value.dtype.kind, value.dtype.itemsize))
        if name is None or value.ndim != 1:
            raise TypeError(f"{'.'.join(path)}: a {value.dtype} array of shape {value.shape} has no wire form")
        table.append([path, name, len(value)])
        arrays.append(np.ascontiguousarray(value, dtype=_WIRE_DTYPES[name]))
        return None

    for key, value in obj.items():
        if isinstance(value, dict):
            header[key] = {name: lift([key, name], item) for name, item in value.items()}
        else:
            header[key] = lift([key], value)
    header["buffers"] = table
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    size = 4 + len(head) + sum(array.nbytes for array in arrays)
    return b"".join([struct.pack(">II", size, len(head)), head, *(array.data for array in arrays)])


def _decode_frame(payload: bytes) -> dict:
    """The object :func:`_encode_frame` framed as ``payload`` (the bytes
    after the length prefix). Each array is a read-only view of
    ``payload``. A payload that is not such a frame raises
    :class:`TransportError`, so the node retries."""
    if len(payload) < 4:
        raise TransportError(f"frame of {len(payload)} bytes has no header length")
    (head_size,) = struct.unpack_from(">I", payload)
    start = 4 + head_size
    if start > len(payload):
        raise TransportError(f"header of {head_size} bytes runs past the {len(payload)}-byte frame")
    try:
        header = json.loads(payload[4:start])
        table = [(path, name, count) for path, name, count in header.pop("buffers")]
    except (ValueError, TypeError, AttributeError, KeyError) as exc:
        raise TransportError(f"malformed frame header: {type(exc).__name__}: {exc}") from None
    buffers = []  # (dict, key) of each buffer's null in the header, dtype, count
    for path, name, count in table:
        dtype = _WIRE_DTYPES.get(name) if isinstance(name, str) else None
        if dtype is None:
            raise TransportError(f"buffer {path!r} has dtype {name!r}, not one of {list(_WIRE_DTYPES)}")
        if type(count) is not int or count < 0:
            raise TransportError(f"buffer {path!r} has count {count!r}")
        try:
            parent = header[path[0]] if len(path) == 2 else header
            if len(path) > 2 or not isinstance(parent, dict) or parent[path[-1]] is not None:
                raise KeyError(path[-1])
        except (KeyError, TypeError, IndexError):
            raise TransportError(f"buffer path {path!r} names no null in the header") from None
        buffers.append((parent, path[-1], dtype, count))
    declared = sum(dtype.itemsize * count for *_, dtype, count in buffers)
    if len(payload) - start != declared:
        raise TransportError(f"frame body holds {len(payload) - start} bytes, its header declares {declared}")
    offset = start
    for parent, key, dtype, count in buffers:
        parent[key] = np.frombuffer(payload, dtype, count, offset)
        offset += dtype.itemsize * count
    return header


def _interval_frames(interval: FlowBatch) -> Iterator[bytes]:
    """Encode one interval as frames of at most ``_MAX_FRAME`` payload
    bytes, halving the interval until each part fits. Truths travel as an
    ``i1`` buffer and row numbers as an ``<i8`` one."""
    data = _encode_frame(
        {"type": "interval", "file": interval.file_id, "values": interval.columns, "truth": interval.truth, "rows": interval.rows}
    )
    n = len(interval)
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


def _interval_of(frame: dict) -> FlowBatch:
    """The interval a decoded interval frame carries; its truths and rows came as buffers."""
    try:
        interval = FlowBatch(frame["values"], frame["truth"], frame["file"], frame["rows"])
        lengths = {interval.truth.size, interval.rows.size, *map(len, interval.columns.values())}
    except (KeyError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed interval frame: {type(exc).__name__}: {exc}") from None
    if len(lengths) != 1:
        raise TransportError(f"interval frame fields differ in length: {sorted(lengths)}")
    return interval


class _Channel:
    """Length-prefixed frames over one socket, counting the frames and bytes
    that pass in both directions."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.frames = 0
        self.wire_bytes = 0

    def send(self, obj: dict) -> None:
        self.send_encoded(_encode_frame(obj))

    def send_encoded(self, data: bytes) -> None:
        self.sock.sendall(data)
        self.frames += 1
        self.wire_bytes += len(data)

    def recv(self) -> dict:
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


def _received_intervals(channel: _Channel) -> Iterator[dict]:
    """Yield each interval frame's interval as it arrives, until the ``end``
    frame, whose count must match (a lost frame shows up there)."""
    received = 0
    while (frame := channel.recv()).get("type") == "interval":
        interval = _interval_of(frame)
        received += len(interval)
        yield interval
    if frame.get("type") != "end":
        raise TransportError(f"unexpected frame type {frame.get('type')!r}")
    if frame["count"] != received:
        raise TransportError(f"end frame counts {frame['count']} records, {received} received")


#: Failures worth retrying: crashes and transport trouble, not data errors.
_RETRYABLE = (SimulatedNodeFailure, TransportError, OSError)


def _attempt_loop(node: str, cfg: SimulationConfig, attempt_fn) -> tuple[dict | None, int, str | None]:
    """Run one node's work with crash-stop retries. Returns
    (result payload or None, attempts used, last error)."""
    last_error = None
    for attempt in range(1, cfg.retry_budget + 2):
        try:
            if node in cfg.fail_nodes:
                raise SimulatedNodeFailure(f"node {node!r}: injected crash")
            return attempt_fn(), attempt, None
        except _RETRYABLE as exc:
            last_error = f"{type(exc).__name__}: {exc}"
    return None, cfg.retry_budget + 1, last_error


def _result_from_payload(node: str, payload: dict, attempts: int, wall_s: float) -> NodeResult:
    counts_doc = payload["counts"]
    counts = ConfusionCounts(**counts_doc) if counts_doc is not None else None
    return NodeResult(
        node=node,
        counts=counts,
        verdicts=tuple(payload["verdicts"].tolist()),
        n_records=payload["n"],
        failed=False,
        attempts=attempts,
        error=payload.get("error"),
        frames=payload.get("frames", 0),
        wire_bytes=payload.get("wire_bytes", 0),
        wall_s=wall_s,
    )


def _run_nodes(cfg: SimulationConfig, attempt) -> dict[str, NodeResult]:
    """Run ``attempt(node)`` on one thread per node under the crash-stop
    retry loop. ``attempt`` returns the node's result payload. A data error
    in any node is fatal and re-raised once every thread has finished."""
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
            result = _result_from_payload(node, payload, attempts, wall_s)
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
    wire_results: dict[str, dict] = {}
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
                hello = channel.recv()
                if hello.get("type") != "hello":
                    raise TransportError(f"expected hello frame, got {hello.get('type')!r}")
                node = hello["node"]
                stream = store.partition(node)
                for interval in _intervals(stream, preprocess, cfg.interval_size):
                    for data in _interval_frames(interval):
                        channel.send_encoded(data)
                channel.send({"type": "end", "count": len(stream)})
                payload = channel.recv()
                if payload.get("type") != "result":
                    raise TransportError(f"expected result frame, got {payload.get('type')!r}")
                with lock:
                    wire_results[node] = payload
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

    def attempt(node: str) -> dict:
        with socket.create_connection(("127.0.0.1", port), timeout=_SOCKET_TIMEOUT) as sock:
            local = sock.getsockname()
            channel = _Channel(sock)
            try:
                channel.send({"type": "hello", "node": node})
                intervals = _received_intervals(channel)
                channel.send(_classify_intervals(intervals, preprocess, profile, cfg.w_for(node)))
                if channel.recv().get("type") != "ack":
                    raise TransportError("missing ack from the store service")
            except _RETRYABLE as exc:
                with lock:
                    server_error = handler_errors.pop(local, None)
                    if server_error is None:
                        raise
                    node_errors[node] = server_error
                raise TransportError(f"{type(exc).__name__}: {exc}; store service: {server_error}") from exc
        with lock:
            payload = wire_results[node]
        return {
            **payload,
            "error": node_errors.get(node),
            "frames": channel.frames,
            "wire_bytes": channel.wire_bytes,
        }

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

        def attempt(node: str) -> dict:
            intervals = _intervals(store.partition(node), preprocess, cfg.interval_size)
            return _classify_intervals(intervals, preprocess, profile, cfg.w_for(node))

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
