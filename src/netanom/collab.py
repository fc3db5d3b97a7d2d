"""Multi-node detection simulation over a shared capture store.

A replay reads a capture in chunks of columns, assigns each record to a
named node and appends it to an append-only log, one totally-ordered stream
of columns per node; a record's seq is its 1-based position in its node's
stream. Each node then independently preprocesses and classifies exactly
its own partition, one interval (a slice of ``interval_size`` records) at a
time, against one shared normal profile; a coordinator sums the per-node
confusion counts. Nodes never
exchange verdicts: sharing stops at the capture/logging layer, so
partitioning can never change outcomes.

One runner starts a thread per node and retries each node's attempt; the
two transports differ only in how an attempt fetches the node's partition.
The store cuts a partition into intervals that carry only what a node
reads: the columns the preprocessing model reads (``PreprocessModel.columns``)
as the store holds them, numeric ones as float64 values and the others as
field texts, plus each record's truth and origin. Both transports hand the
same classify function these intervals, each node still encodes and
standardizes the columns itself, and scoring is record-local, so their
reports are identical byte for byte. In-process, an interval is handed over
as is. The loopback transport serves the partition over TCP, one
connection per attempt, with length-prefixed JSON frames (4-byte big-endian
length, then the UTF-8 payload); a float travels as its shortest repr,
which reads back to the same bits:

    worker -> store   hello     {node}
    store -> worker   interval  {values: {column: [value, ...]}, truth, origin}, ...
    store -> worker   end       {count}
    worker -> store   result    {counts, verdicts, n}
    store -> worker   ack

An interval frame is one interval, in stream order. An interval whose
frame would pass ``_MAX_FRAME`` is halved until each part fits its own
frame. The worker classifies each frame as it arrives and checks
``end.count`` against the records it received. Truth labels are checked
once, up front, for both transports.

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
from collections import defaultdict
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .decision import DetectionConfig, NormalProfile, classify_scores, ensure_bound
from .evaluation import ConfusionCounts, MetricsReport, confusion, metrics
from .ingest import FeatureSchema, FlowRecord, SchemaError
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
    """Append-only capture log with one totally-ordered stream per node; a
    record's seq is its 1-based position there.

    A stream is held as columns, in the shape of an interval:
    ``{"values": {column: values}, "truth": [...], "origin": [...]}``, with
    truth 1 for attack, 0 for normal and -1 for unlabeled. A column is a
    float64 array when every chunk gave it as one (a numeric column of a
    :class:`~netanom.ingest.FlowBatch`), else a list of the chunks' values.
    Records are never changed or deleted. Readers hold no state in the
    store: ``partition(node)`` returns the whole stream every time, which is
    also how a run is audited afterwards.
    """

    def __init__(self, columns: Iterable[str]):
        self.columns = tuple(columns)
        # Per node, each column as the parts the chunks gave, joined into
        # one on the first read after an append.
        self._streams: dict[str, dict] = {}

    def extend(self, chunk: dict, nodes: Sequence[str]) -> None:
        """Append the records of ``chunk``, a stream-shaped dict holding every
        store column, each under its node in ``nodes``."""
        rows_of: defaultdict[str, list[int]] = defaultdict(list)
        for row, node in enumerate(nodes):
            rows_of[node].append(row)
        for node, rows in rows_of.items():
            stream = self._streams.get(node)
            if stream is None:
                stream = self._streams[node] = self._empty()
            # itemgetter returns a bare item, not a 1-tuple, for one index.
            take = itemgetter(*rows) if len(rows) > 1 else lambda seq: (seq[rows[0]],)
            for name, parts in stream["values"].items():
                column = chunk["values"][name]
                parts.append(column[np.array(rows)] if isinstance(column, np.ndarray) else list(take(column)))
            stream["truth"].extend(take(chunk["truth"]))
            stream["origin"].extend(take(chunk["origin"]))

    def _empty(self) -> dict:
        return {"values": {name: [] for name in self.columns}, "truth": [], "origin": []}

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._streams)

    def partition(self, node: str) -> dict:
        """Full view of one node's stream, in sequence order. The stream is
        the store's own: readers must not change it."""
        stream = self._streams.get(node)
        if stream is None:
            return self._empty()
        for parts in stream["values"].values():
            if len(parts) > 1:
                parts[:] = [_join(parts)]
        return {
            "values": {name: parts[0] for name, parts in stream["values"].items()},
            "truth": stream["truth"],
            "origin": stream["origin"],
        }

    def __len__(self) -> int:
        return sum(len(s["truth"]) for s in self._streams.values())


def _join(parts: list) -> np.ndarray | list:
    """One column from its parts: an array if every part is one, else a list."""
    if all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts)
    return [value for part in parts for value in (part.tolist() if isinstance(part, np.ndarray) else part)]


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
    value of the wrong JSON type raises ``SimulationError`` naming the key."""
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
    """``assign(chunk, start)``: the node of each record of ``chunk``, whose
    first record is record ``start`` of the whole replay. Explicit
    assignment may name fewer nodes than the chunk has records;
    :func:`replay_chunks` checks its length once every chunk is in."""
    n = len(cfg.nodes)
    if cfg.assignment == "round-robin":
        return lambda chunk, start: [cfg.nodes[i % n] for i in range(start, start + len(chunk["truth"]))]
    if cfg.assignment == "explicit":
        return lambda chunk, start: (cfg.explicit_assignment or ())[start : start + len(chunk["truth"])]
    node_of: dict[str, str] = {}  # sources repeat: hash each value once

    def assign(chunk: dict, start: int) -> list[str]:
        texts = chunk["values"].get(cfg.hash_column)
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


def replay_chunks(chunks: Iterable[dict], columns: Iterable[str], cfg: SimulationConfig) -> SharedStore:
    """Append every record of ``chunks`` once, in input order, under its
    assigned node. A chunk is a stream-shaped dict (see :class:`SharedStore`)
    holding ``columns`` and, for hash-of-source assignment, the hash column.
    Every chunk is read before an explicit assignment is checked."""
    assign = _node_assigner(cfg)
    store = SharedStore(columns)
    n_records = 0
    for chunk in chunks:
        store.extend(chunk, assign(chunk, n_records))
        n_records += len(chunk["truth"])
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
    the records as one chunk over every column of ``schema``.

    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2. ``simulate`` fills the store with
    :func:`replay_chunks`."""
    if not records:
        raise SimulationError("cannot replay an empty record list")
    chunk = {
        "values": dict(zip(schema.names, zip(*(r.values for r in records)))),
        "truth": [-1 if r.truth is None else r.truth for r in records],
        "origin": [r.origin for r in records],
    }
    return replay_chunks([chunk], schema.names, cfg)


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


def _slice(interval: dict, start: int, stop: int) -> dict:
    """Records ``start`` to ``stop`` of an interval, as an interval."""
    return {
        "values": {name: texts[start:stop] for name, texts in interval["values"].items()},
        "truth": interval["truth"][start:stop],
        "origin": interval["origin"][start:stop],
    }


def _intervals(stream: dict, preprocess: PreprocessModel, size: int) -> Iterator[dict]:
    """A node's stream cut into intervals of ``size`` records. An interval
    holds only what a node reads: ``values``, the columns ``preprocess``
    reads (``{column: values}``, as the store holds them), and the records'
    ``truth`` and ``origin`` lists, all in stream order."""
    modeled = {
        "values": {name: stream["values"][name] for name in preprocess.columns},
        "truth": stream["truth"],
        "origin": stream["origin"],
    }
    for start in range(0, len(stream["truth"]), size):
        yield _slice(modeled, start, start + size)


def _classify_intervals(
    intervals: Iterable[dict],
    preprocess: PreprocessModel,
    profile: NormalProfile,
    det: DetectionConfig,
) -> dict:
    """Classify one node's partition, one interval at a time as the
    intervals arrive, into the node's result payload (the loopback
    ``result`` frame)."""
    verdicts: list[int] = []
    truths: list[int] = []
    for interval in intervals:
        matrix = preprocess.apply_columns(interval["values"], interval["origin"])
        flagged = classify_scores(profile.score_matrix(matrix), profile, det)
        verdicts.extend(flagged.astype(int).tolist())
        truths.extend(interval["truth"])
    counts = confusion(verdicts, truths) if verdicts else None
    return {
        "type": "result",
        "counts": None
        if counts is None
        else {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn},
        "verdicts": verdicts,
        "n": len(verdicts),
    }


def _encode_frame(obj: dict) -> bytes:
    # A float64 column goes out as a list of its floats.
    data = json.dumps(obj, separators=(",", ":"), default=np.ndarray.tolist).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _interval_frames(interval: dict) -> Iterator[bytes]:
    """Encode one interval as frames of at most ``_MAX_FRAME`` payload
    bytes, halving the interval until each part fits."""
    data = _encode_frame({"type": "interval", **interval})
    n = len(interval["truth"])
    if len(data) - 4 <= _MAX_FRAME:
        yield data
    elif n == 1:
        origin = interval["origin"][0]
        raise TransportError(
            f"record {origin[0]} row {origin[1]} needs a frame of "
            f"{len(data) - 4} bytes, over the {_MAX_FRAME} limit"
        )
    else:
        yield from _interval_frames(_slice(interval, 0, n // 2))
        yield from _interval_frames(_slice(interval, n // 2, n))


class _Channel:
    """Length-prefixed JSON frames over one socket, counting the frames and
    bytes that pass in both directions."""

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
        frame = json.loads(self._recv_exact(length))
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
    """Yield each interval frame as it arrives, until the ``end`` frame,
    whose count must match (a lost frame shows up there)."""
    received = 0
    while (frame := channel.recv()).get("type") == "interval":
        received += len(frame["truth"])
        yield frame
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
        verdicts=tuple(payload["verdicts"]),
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
                channel.send({"type": "end", "count": len(stream["truth"])})
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
        if -1 in stream["truth"]:
            file_id, row = stream["origin"][stream["truth"].index(-1)]
            raise SimulationError(f"unlabeled row: {file_id} row {row}; metrics need ground truth")
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
