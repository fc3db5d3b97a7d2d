"""Multi-node detection simulation over one capture file.

A replay reads one capture file as :class:`~netanom.ingest.FlowBatch`es,
assigns each record to a named node and builds, once, one stream per node
of the topology: a batch of that node's records in file order (empty for a
node without records). Each node then independently preprocesses and
classifies exactly its own stream, one interval (a slice of
``interval_size`` records) at a time, against one shared normal profile,
and returns only its verdicts. The runner counts them against the
stream's truths, once for both transports, and sums the per-node counts.
Nodes never exchange verdicts: sharing stops at the capture layer, so
partitioning can never change outcomes.

One runner runs the nodes in turn, in ``cfg.nodes`` order, on the calling
thread, and retries each node's attempt; the two transports differ only in
how an attempt fetches the node's stream, cut into intervals that carry
only what a node reads: the columns the preprocessing model reads
(``PreprocessModel.columns``), numeric ones as float64 values and the
others as field texts, and each record's row number. Each node encodes and
standardizes them, and scoring is record-local, so the transports' reports
are identical byte for byte. In-process, an interval is handed over as
is. Over loopback, each attempt opens one TCP connection to the run's
listener, accepts it itself and serves the node's stream on one
store-service thread, which it joins before it returns. The truths stay
with the store: the worker's intervals have truth -1 (unknown). The
frames are length-prefixed:

    frame    = length (4-byte big-endian) + payload
    payload  = header length (4-byte big-endian) + JSON header + body

    worker -> store   hello     {node}
    store -> worker   interval  {file, n, columns, texts} + floats + rows (<i8), ...
    store -> worker   end       {count}
    worker -> store   result    {n} + verdicts (i1)
    store -> worker   ack

Each header also holds its ``type``, which fixes the body: one raw
little-endian buffer of ``n`` values per entry above, and none for the
frames without ``n``. ``texts`` maps each column that is not numeric to
its field texts; every numeric one of ``columns`` travels as an ``<f8``
buffer, in ``columns`` order, so a float reads back with the same bits.
An interval frame is one interval, in stream order; an interval whose
frame would pass ``_MAX_FRAME`` is halved until each part fits. The worker
classifies each frame as it arrives and checks ``end.count``; the store
checks that the result holds one 0/1 verdict per record. A frame that does
not fit its layout, a numeric column sent as texts included, raises a
retryable :class:`TransportError`. Truth labels are checked once, up
front: an unlabeled record fails the run, naming the file's first one. A
bad numeric value never reaches a node: the read that builds the streams
fails on it.

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

from ._docjson import parse_json
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


def _join(parts: list[FlowBatch]) -> FlowBatch:
    """One batch from consecutive parts of a stream, each column an array or
    a list in every part. One part is its own stream."""
    if len(parts) == 1:
        return parts[0]
    columns = {}
    for name in parts[0].columns:
        pieces = [part.columns[name] for part in parts]
        columns[name] = np.concatenate(pieces) if isinstance(pieces[0], np.ndarray) else [text for piece in pieces for text in piece]
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
    return simconfig_from_doc(parse_json(Path(path).read_text(encoding="utf-8"), SimulationError, "simulation config"))


def _node_assigner(cfg: SimulationConfig):
    """``assign(batch, start)``: the index in ``cfg.nodes`` of the node of
    each record of ``batch``, whose first record is record ``start`` of the
    whole replay, as an intp array. Explicit assignment may name fewer
    nodes than the batch has records; :func:`replay_chunks` checks the
    count once every batch is in.

    Hash-of-source assignment hashes each record's source in the hash
    column, as the reader gives it: a text by its UTF-8 bytes, a float64
    value by its ``repr`` (``-0.0`` as ``0.0``), so ``80``, ``80.0`` and
    ``8e1`` are one source. A source's node is the first 8 bytes of the
    sha256 digest, big-endian, modulo the node count."""
    n = len(cfg.nodes)
    if cfg.assignment == "round-robin":
        return lambda batch, start: np.arange(start, start + len(batch), dtype=np.intp) % n
    if cfg.assignment == "explicit":
        index = {node: i for i, node in enumerate(cfg.nodes)}
        names = cfg.explicit_assignment
        return lambda batch, start: np.array([index[name] for name in names[start : start + len(batch)]], np.intp)
    node_of: dict[str | float, int] = {}  # sources repeat: hash each value once

    def assign(batch: FlowBatch, start: int) -> np.ndarray:
        column = batch.columns.get(cfg.hash_column)
        if column is None:
            raise SchemaError(f"no column named {cfg.hash_column!r}")
        sources = (column + 0.0).tolist() if isinstance(column, np.ndarray) else column
        for value in set(sources) - node_of.keys():
            h = hashlib.sha256((value if isinstance(value, str) else repr(value)).encode("utf-8")).digest()
            node_of[value] = int.from_bytes(h[:8], "big") % n
        return np.fromiter(map(node_of.__getitem__, sources), np.intp, len(sources))

    return assign


def replay_chunks(batches: Iterable[FlowBatch], columns: Iterable[str], cfg: SimulationConfig) -> dict[str, FlowBatch]:
    """One stream per node of ``cfg.nodes``, in that order: the records of
    ``batches``, all of one capture file, each once, in input order, under
    its assigned node, over ``columns``; a node without records gets an
    empty stream. Each batch holds ``columns`` and, for hash-of-source
    assignment, the hash column, as the reader gives them. Every batch is
    read before an explicit assignment's length is checked."""
    assign = _node_assigner(cfg)
    columns = tuple(columns)
    parts: dict[str, list[FlowBatch]] = {node: [] for node in cfg.nodes}
    file_id = None
    n_records = 0
    for batch in batches:
        index = assign(batch, n_records)
        if file_id not in (None, batch.file_id):
            raise SimulationError(f"the store holds capture {file_id!r}; a batch of {batch.file_id!r} cannot join it")
        file_id = batch.file_id
        kept = replace(batch, columns={name: batch.columns[name] for name in columns})
        for i, node in enumerate(cfg.nodes):
            parts[node].append(kept.take(np.flatnonzero(index == i)))
        n_records += len(batch)
    if n_records == 0:
        raise SimulationError("cannot replay an empty record list")
    if cfg.assignment == "explicit" and len(cfg.explicit_assignment) != n_records:
        raise SimulationError(f"explicit assignment has {len(cfg.explicit_assignment)} entries for {n_records} records")
    # Popped as joined: one node's parts and its stream are alive at a time, not two captures.
    return {node: _join(parts.pop(node)) for node in cfg.nodes}


def replay(
    records: Sequence[FlowRecord],
    cfg: SimulationConfig,
    schema: FeatureSchema,
) -> dict[str, FlowBatch]:
    """:func:`replay_chunks` over ``records`` as one batch of every column
    of ``schema``, read and hashed as ``simulate`` reads and hashes them.
    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2."""
    return replay_chunks([batch_of_records(records, schema, schema.names)], schema.names, cfg)


@dataclass(frozen=True)
class NodeResult:
    """One node's outcome. ``errors`` holds the reason of each failed
    attempt, in order; over loopback a reason ends with the store service's
    error, if it had one. A failed node's last reason says why it failed.
    ``frames`` and ``wire_bytes`` count both directions of the successful
    loopback connection, length prefixes included; they are 0 in-process.
    ``wall_s`` is the node's wall time over all its attempts, in seconds."""

    node: str
    counts: ConfusionCounts | None  # None for a node without records or a failed one
    verdicts: np.ndarray  # read-only int8, one 0/1 verdict per record in stream order
    failed: bool
    attempts: int
    errors: tuple[str, ...] = ()
    frames: int = 0
    wire_bytes: int = 0
    wall_s: float = 0.0

    @property
    def n_records(self) -> int:
        return len(self.verdicts)


@dataclass(frozen=True)
class SimulationOutcome:
    node_results: Mapping[str, NodeResult]
    per_node_reports: Mapping[str, MetricsReport]
    aggregate_counts: ConfusionCounts
    aggregate_report: MetricsReport
    failed_nodes: tuple[str, ...]

    @property
    def partial(self) -> bool:
        return bool(self.failed_nodes)


def _intervals(stream: FlowBatch, preprocess: PreprocessModel, size: int) -> Iterator[FlowBatch]:
    """A node's stream cut into intervals of ``size`` records, in stream
    order. An interval holds only the columns ``preprocess`` reads, as the
    stream holds them."""
    modeled = replace(stream, columns={name: stream.columns[name] for name in preprocess.columns})
    for start in range(0, len(stream), size):
        yield modeled.take(slice(start, start + size))


def _classify_intervals(
    intervals: Iterable[FlowBatch],
    preprocess: PreprocessModel,
    profile: NormalProfile,
    det: DetectionConfig,
) -> np.ndarray:
    """Classify one node's stream, one interval at a time as the
    intervals arrive, into its int8 0/1 verdicts, in stream order."""
    flagged = [classify_scores(profile.score_matrix(preprocess.apply(interval)), profile, det) for interval in intervals]
    return np.concatenate([np.empty(0, np.int8), *flagged])  # bool masks join as int8


_F8, _I8, _I1 = np.dtype("<f8"), np.dtype("<i8"), np.dtype("i1")  # floats, row numbers, verdicts


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
    data = _encode_frame(header, *arrays, np.ascontiguousarray(interval.rows, _I8))
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
    in ``schema`` as float64 and the others as texts, each record's truth
    -1 (unknown). A field that is missing or does not fit the layout
    raises :class:`TransportError`."""
    names, texts, file_id = header.get("columns"), header.get("texts"), header.get("file")
    if not isinstance(file_id, str):
        raise TransportError(f"interval frame file {file_id!r} is not a string")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise TransportError(f"interval frame columns {names!r} are not unique names")
    numeric = {column.name for column in schema.columns if column.kind == "numeric"}
    if not isinstance(texts, dict) or set(texts) != set(names) - numeric:
        raise TransportError(f"interval frame texts do not map exactly its text columns {sorted(set(names) - numeric)}")
    *floats, rows = _body(header, body, "interval", *[_F8] * (len(names) - len(texts)), _I8)
    if not all(isinstance(column, list) and len(column) == len(rows) for column in texts.values()):
        raise TransportError(f"interval frame texts are not lists of its {len(rows)} records")
    if not all(set(map(type, column)) <= {str} for column in texts.values()):
        raise TransportError("interval frame texts are not all strings")
    floats = iter(floats)
    return FlowBatch({name: texts[name] if name in texts else next(floats) for name in names}, np.full(len(rows), -1, np.int8), file_id, rows)


def _check_result(verdicts: np.ndarray, n: int) -> None:
    """Raise :class:`TransportError` unless ``verdicts`` holds one 0/1 value per record of an ``n``-record stream."""
    if len(verdicts) != n:
        raise TransportError(f"result frame holds {len(verdicts)} verdicts for a stream of {n} records")
    if not np.isin(verdicts, (0, 1)).all():
        raise TransportError("result frame verdicts are not all 0 or 1")


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


def _received_intervals(channel: _Channel, schema: FeatureSchema) -> Iterator[FlowBatch]:
    """Yield each interval frame's interval (see :func:`_interval_of`) as it
    arrives, until the ``end`` frame, whose count must match (a lost frame
    shows up there)."""
    received = 0
    while (frame := channel.recv())[0].get("type") == "interval":
        interval = _interval_of(*frame, schema)
        received += len(interval)
        yield interval
    _body(*frame, "end")
    count = frame[0].get("count")
    if type(count) is not int or count != received:
        raise TransportError(f"end frame counts {count!r} records, {received} received")


#: Failures worth retrying: crashes and transport trouble, not data errors.
_RETRYABLE = (SimulatedNodeFailure, TransportError, OSError)


def _run_nodes(cfg: SimulationConfig, streams: Mapping[str, FlowBatch], attempt) -> dict[str, NodeResult]:
    """Run ``attempt(node)`` for each node of ``cfg.nodes`` in turn, on the
    calling thread, retrying a retryable failure up to ``cfg.retry_budget``
    times (crash-stop), and count the verdicts against the truths of the
    node's stream in ``streams``. ``attempt`` returns the node's verdicts
    (see :func:`_classify_intervals`) and a dict of the wire's
    ``NodeResult`` fields (empty in-process). Any other exception, a data
    error, propagates at once; the results follow ``cfg.nodes`` order."""
    results: dict[str, NodeResult] = {}
    for node in cfg.nodes:
        started = time.perf_counter()
        errors: list[str] = []
        verdicts, wire = np.empty(0, np.int8), {}
        for attempts in range(1, cfg.retry_budget + 2):
            try:
                if node in cfg.fail_nodes:
                    raise SimulatedNodeFailure(f"node {node!r}: injected crash")
                verdicts, wire = attempt(node)
                break
            except _RETRYABLE as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
        failed = len(errors) == attempts  # every attempt failed
        verdicts.setflags(write=False)
        counts = confusion(verdicts, streams[node].truth) if len(verdicts) else None
        results[node] = NodeResult(node, counts, verdicts, failed, attempts, tuple(errors), wall_s=time.perf_counter() - started, **wire)
    return results


def _run_loopback(streams: Mapping[str, FlowBatch], preprocess: PreprocessModel, profile: NormalProfile, cfg: SimulationConfig) -> dict[str, NodeResult]:
    server = socket.create_server(("127.0.0.1", cfg.port))
    address = server.getsockname()

    def serve(conn: socket.socket, node: str, outcome: dict) -> None:
        # Leaves the checked result, or the error that ended the service, in ``outcome``.
        with conn:
            try:
                conn.settimeout(_SOCKET_TIMEOUT)
                channel = _Channel(conn)
                hello, body = channel.recv()
                _body(hello, body, "hello")
                if hello.get("node") != node:
                    raise TransportError(f"hello frame names node {hello.get('node')!r}")
                stream = streams[node]
                for interval in _intervals(stream, preprocess, cfg.interval_size):
                    for data in _interval_frames(interval):
                        channel.send_encoded(data)
                channel.send({"type": "end", "count": len(stream)})
                (verdicts,) = _body(*channel.recv(), "result", _I1)
                _check_result(verdicts, len(stream))
                outcome["verdicts"] = verdicts
                channel.send({"type": "ack"})
            except Exception as exc:  # recorded before the close the worker sees
                outcome["error"] = f"{type(exc).__name__}: {exc}"

    def attempt(node: str) -> tuple[np.ndarray, dict]:
        # Attempts run one at a time, so the connection accepted is this one.
        sock = socket.create_connection(address, timeout=_SOCKET_TIMEOUT)
        try:
            conn = server.accept()[0]
        except OSError:
            sock.close()
            raise
        outcome: dict = {}
        service = threading.Thread(target=serve, args=(conn, node, outcome))
        service.start()
        try:
            with sock:
                channel = _Channel(sock)
                try:
                    channel.send({"type": "hello", "node": node})
                    intervals = _received_intervals(channel, preprocess.schema)
                    verdicts = _classify_intervals(intervals, preprocess, profile, cfg.w_for(node))
                    channel.send({"type": "result", "n": len(verdicts)}, verdicts)
                    _body(*channel.recv(), "ack")
                except _RETRYABLE as exc:
                    # Read before this socket closes: an error its close causes is not the store's.
                    if (error := outcome.get("error")) is None:
                        raise
                    raise TransportError(f"{type(exc).__name__}: {exc}; store service: {error}") from exc
        finally:
            service.join()
        return outcome["verdicts"], {"frames": channel.frames, "wire_bytes": channel.wire_bytes}

    with server:
        return _run_nodes(cfg, streams, attempt)


def run_simulation(
    streams: Mapping[str, FlowBatch],
    profile: NormalProfile,
    preprocess: PreprocessModel,
    cfg: SimulationConfig,
) -> SimulationOutcome:
    """Run every node over its stream in ``streams``, as
    :func:`replay_chunks` builds them, and aggregate the counts.

    The aggregate is the exact field-wise sum of the healthy nodes' counts;
    failed nodes are excluded and flagged, never silently dropped. Streams
    that hold records of a node outside ``cfg.nodes``, or lack a node of
    it, raise :class:`SimulationError`, as does an unlabeled record: the
    file's first one is named.
    """
    ensure_bound(profile, preprocess)
    missing = [name for name in preprocess.columns if not all(name in stream.columns for stream in streams.values())]
    if missing:
        raise SimulationError(f"the store lacks the modeled columns {missing}")
    strays = [node for node, stream in streams.items() if len(stream) and node not in cfg.nodes]
    if strays:
        raise SimulationError(f"the store holds records of nodes not in the topology: {strays}")
    absent = [node for node in cfg.nodes if node not in streams]
    if absent:
        raise SimulationError(f"the streams lack nodes of the topology: {absent}")
    unlabeled = [(stream.rows[stream.truth < 0].min(), stream.file_id) for stream in streams.values() if (stream.truth < 0).any()]
    if unlabeled:
        row, file_id = min(unlabeled)
        raise SimulationError(f"unlabeled row: {file_id} row {row}; metrics need ground truth")
    if cfg.transport == "in-process":

        def attempt(node: str) -> tuple[np.ndarray, dict]:
            intervals = _intervals(streams[node], preprocess, cfg.interval_size)
            return _classify_intervals(intervals, preprocess, profile, cfg.w_for(node)), {}

        results = _run_nodes(cfg, streams, attempt)
    else:
        results = _run_loopback(streams, preprocess, profile, cfg)

    failed = tuple(n for n in cfg.nodes if results[n].failed)
    counted = [n for n in cfg.nodes if not results[n].failed and results[n].counts is not None]
    if not counted:
        raise SimulationError(f"no healthy node produced results; failures: {list(failed)}")
    aggregate = sum((results[n].counts for n in counted), ConfusionCounts(0, 0, 0, 0))
    node_ws = {cfg.w_for(n).w for n in cfg.nodes if not results[n].failed}
    return SimulationOutcome(
        node_results=results,
        per_node_reports={n: metrics(results[n].counts, w=cfg.w_for(n).w) for n in counted},
        aggregate_counts=aggregate,
        aggregate_report=metrics(aggregate, w=node_ws.pop() if len(node_ws) == 1 else None),
        failed_nodes=failed,
    )
