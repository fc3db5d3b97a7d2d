"""Multi-node detection simulation over a shared capture store.

A replay assigns flow records to named nodes and appends them to an
append-only log, one totally-ordered stream per node. Each node then
independently preprocesses and classifies exactly its own partition,
interval by interval, against one shared normal profile; a coordinator sums
the per-node confusion counts. Nodes never exchange verdicts: sharing stops
at the capture/logging layer, so partitioning can never change outcomes.

One runner starts a thread per node and retries each node's attempt; the
two transports differ only in how an attempt fetches the node's partition.
Both hand the same classify function one batch of records per interval, and
scoring is record-local, so their reports are identical byte for byte.
In-process batches come from ``store.partition(node)`` directly. The
loopback transport serves the partition over TCP, one connection per
attempt, with length-prefixed JSON frames (4-byte big-endian length, then
the UTF-8 payload):

    worker -> store   hello     {node}
    store -> worker   interval  {interval_id, first_seq, values, truth, origin}, ...
    store -> worker   end       {count}
    worker -> store   result    {counts, verdicts, n}
    store -> worker   ack

An interval frame holds one interval's records as columns; record ``i`` has
seq ``first_seq + i``. An interval whose frame would pass ``_MAX_FRAME`` is
split into several frames with the same ``interval_id``, which the worker
joins again. The worker classifies each interval as it arrives and checks
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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .decision import DetectionConfig, NormalProfile, classify_scores, ensure_bound
from .evaluation import ConfusionCounts, MetricsReport, confusion, metrics
from .ingest import FeatureSchema, FlowRecord
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


@dataclass(frozen=True)
class CaptureMessage:
    """One logged observation: node, per-node sequence, batching interval,
    and the raw record payload."""

    node: str
    seq: int
    interval_id: int
    values: tuple[str, ...]
    truth: int | None
    origin: tuple[str, int]

    def record(self) -> FlowRecord:
        return FlowRecord(self.values, self.truth, self.origin)


class SharedStore:
    """Append-only capture log with one totally-ordered stream per node.

    Messages are immutable and never deleted. Readers hold no state in the
    store: ``partition(node)`` returns the whole stream every time, which is
    also how a run is audited afterwards.
    """

    def __init__(self):
        self._streams: dict[str, list[CaptureMessage]] = {}

    def append(self, msg: CaptureMessage) -> None:
        stream = self._streams.setdefault(msg.node, [])
        last = stream[-1].seq if stream else 0
        if msg.seq <= last:
            raise SimulationError(
                f"node {msg.node!r}: seq {msg.seq} does not increase past {last}"
            )
        stream.append(msg)

    def nodes(self) -> tuple[str, ...]:
        return tuple(self._streams)

    def partition(self, node: str) -> tuple[CaptureMessage, ...]:
        """Full view of one node's stream, in sequence order."""
        return tuple(self._streams.get(node, ()))

    def __len__(self) -> int:
        return sum(len(s) for s in self._streams.values())


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
    return {
        "version": SIMCONFIG_FORMAT_VERSION,
        "nodes": list(cfg.nodes),
        "assignment": cfg.assignment,
        "interval_size": cfg.interval_size,
        "w": cfg.w,
        "node_w": dict(cfg.node_w) if cfg.node_w else None,
        "transport": cfg.transport,
        "hash_column": cfg.hash_column,
        "explicit_assignment": list(cfg.explicit_assignment) if cfg.explicit_assignment else None,
        "fail_nodes": list(cfg.fail_nodes),
        "retry_budget": cfg.retry_budget,
        "port": cfg.port,
        "allow_any_w": cfg.allow_any_w,
    }


def simconfig_from_doc(doc: dict) -> SimulationConfig:
    if doc.get("version") != SIMCONFIG_FORMAT_VERSION:
        raise SimulationError(f"unsupported simulation config version: {doc.get('version')!r}")
    return SimulationConfig(
        nodes=tuple(doc["nodes"]),
        assignment=doc.get("assignment", "round-robin"),
        interval_size=doc.get("interval_size", 100),
        w=doc.get("w", 1.5),
        node_w=doc.get("node_w"),
        transport=doc.get("transport", "in-process"),
        hash_column=doc.get("hash_column", "srcip"),
        explicit_assignment=(
            tuple(doc["explicit_assignment"]) if doc.get("explicit_assignment") else None
        ),
        fail_nodes=tuple(doc.get("fail_nodes", ())),
        retry_budget=doc.get("retry_budget", 3),
        port=doc.get("port", 0),
        allow_any_w=doc.get("allow_any_w", False),
    )


def load_simconfig(path) -> SimulationConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SimulationError(f"simulation config is not valid JSON: {exc}") from exc
    return simconfig_from_doc(doc)


def _assign_nodes(
    records: Sequence[FlowRecord], cfg: SimulationConfig, schema: FeatureSchema | None
) -> list[str]:
    n = len(cfg.nodes)
    if cfg.assignment == "round-robin":
        return [cfg.nodes[i % n] for i in range(len(records))]
    if cfg.assignment == "hash-of-source":
        if schema is None:
            raise SimulationError("hash-of-source assignment needs the record schema")
        idx = schema.index_of(cfg.hash_column)
        node_of: dict[str, str] = {}  # sources repeat: hash each value once
        out = []
        for rec in records:
            value = rec.values[idx]
            node = node_of.get(value)
            if node is None:
                h = hashlib.sha256(value.encode("utf-8")).digest()
                node = node_of[value] = cfg.nodes[int.from_bytes(h[:8], "big") % n]
            out.append(node)
        return out
    # explicit
    if cfg.explicit_assignment is None:
        raise SimulationError("explicit assignment requires explicit_assignment in the config")
    if len(cfg.explicit_assignment) != len(records):
        raise SimulationError(
            f"explicit assignment has {len(cfg.explicit_assignment)} entries "
            f"for {len(records)} records"
        )
    known = set(cfg.nodes)
    for name in cfg.explicit_assignment:
        if name not in known:
            raise SimulationError(f"explicit assignment names unknown node {name!r}")
    return list(cfg.explicit_assignment)


def replay(
    records: Sequence[FlowRecord],
    cfg: SimulationConfig,
    schema: FeatureSchema | None = None,
) -> SharedStore:
    """Append every record once under its assigned node, with per-node
    sequence numbers from 1 and interval ids of ``interval_size`` records."""
    if not records:
        raise SimulationError("cannot replay an empty record list")
    assignment = _assign_nodes(records, cfg, schema)
    store = SharedStore()
    seq: dict[str, int] = {node: 0 for node in cfg.nodes}
    for rec, node in zip(records, assignment):
        seq[node] += 1
        s = seq[node]
        store.append(
            CaptureMessage(
                node=node,
                seq=s,
                interval_id=(s - 1) // cfg.interval_size + 1,
                values=rec.values,
                truth=rec.truth,
                origin=rec.origin,
            )
        )
    return store


@dataclass(frozen=True)
class NodeResult:
    """One node's outcome. ``error`` says why a failed node failed; for a
    node that recovered on the loopback transport it holds the store
    service's error from a retried attempt, if there was one. ``frames``
    and ``wire_bytes`` count both directions of the successful loopback
    connection, length prefixes included; they are 0 in-process."""

    node: str
    counts: ConfusionCounts | None
    verdicts: tuple[int, ...]
    n_records: int
    failed: bool
    attempts: int
    error: str | None = None
    frames: int = 0
    wire_bytes: int = 0


@dataclass(frozen=True)
class SimulationOutcome:
    node_results: Mapping[str, NodeResult]
    per_node_reports: Mapping[str, MetricsReport]
    aggregate_counts: ConfusionCounts
    aggregate_report: MetricsReport
    failed_nodes: tuple[str, ...]
    partial: bool


def _intervals(messages: Sequence[CaptureMessage]) -> Iterator[Sequence[CaptureMessage]]:
    """Split a node's stream into runs of one interval with consecutive seqs
    (a replay gives every interval consecutive seqs)."""
    start = 0
    while start < len(messages):
        first = messages[start]
        stop = start + 1
        while (
            stop < len(messages)
            and messages[stop].interval_id == first.interval_id
            and messages[stop].seq == first.seq + (stop - start)
        ):
            stop += 1
        yield messages[start:stop]
        start = stop


def _classify_intervals(
    batches: Iterable[Sequence[FlowRecord]],
    preprocess: PreprocessModel,
    profile: NormalProfile,
    det: DetectionConfig,
) -> dict:
    """Classify one node's partition, one interval batch at a time as the
    batches arrive, into the node's result payload (the loopback ``result``
    frame)."""
    verdicts: list[int] = []
    truths: list[int] = []
    for batch in batches:
        flagged = classify_scores(profile.score_matrix(preprocess.apply_records(batch)), profile, det)
        verdicts.extend(int(v) for v in flagged)
        truths.extend(r.truth for r in batch)
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
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _interval_frames(run: Sequence[CaptureMessage]) -> Iterator[bytes]:
    """Encode one interval run as frames of at most ``_MAX_FRAME`` payload
    bytes, halving the run until each part fits."""
    data = _encode_frame({
        "type": "interval",
        "interval_id": run[0].interval_id,
        "first_seq": run[0].seq,
        "values": [m.values for m in run],
        "truth": [m.truth for m in run],
        "origin": [m.origin for m in run],
    })
    if len(data) - 4 <= _MAX_FRAME:
        yield data
    elif len(run) == 1:
        raise TransportError(
            f"record {run[0].origin[0]} row {run[0].origin[1]} needs a frame of "
            f"{len(data) - 4} bytes, over the {_MAX_FRAME} limit"
        )
    else:
        half = len(run) // 2
        yield from _interval_frames(run[:half])
        yield from _interval_frames(run[half:])


def _frame_records(frame: dict) -> list[FlowRecord]:
    """The records of one interval frame, in seq order from ``first_seq``."""
    columns = zip(frame["values"], frame["truth"], frame["origin"])
    return [FlowRecord(tuple(v), t, (o[0], o[1])) for v, t, o in columns]


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


def _received_intervals(channel: _Channel) -> Iterator[list[FlowRecord]]:
    """Yield one batch per interval as its frames arrive, joining the frames
    of a split interval, until the ``end`` frame, whose count must match
    (a short or misaligned frame shows up there)."""
    batch: list[FlowRecord] = []
    interval = None
    received = 0
    while True:
        frame = channel.recv()
        kind = frame.get("type")
        if kind == "end":
            break
        if kind != "interval":
            raise TransportError(f"unexpected frame type {kind!r}")
        records = _frame_records(frame)
        if frame["interval_id"] != interval and batch:
            yield batch
            batch = []
        interval = frame["interval_id"]
        batch.extend(records)
        received += len(records)
    if frame["count"] != received:
        raise TransportError(f"end frame counts {frame['count']} records, {received} received")
    if batch:
        yield batch


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


def _result_from_payload(node: str, payload: dict, attempts: int) -> NodeResult:
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
    )


def _run_nodes(cfg: SimulationConfig, attempt) -> dict[str, NodeResult]:
    """Run ``attempt(node)`` on one thread per node under the crash-stop
    retry loop. ``attempt`` returns the node's result payload. A data error
    in any node is fatal and re-raised once every thread has finished."""
    results: dict[str, NodeResult] = {}
    fatal: list[Exception] = []
    lock = threading.Lock()

    def work(node: str) -> None:
        try:
            payload, attempts, error = _attempt_loop(node, cfg, lambda: attempt(node))
        except Exception as exc:  # data errors are fatal, not node failures
            with lock:
                fatal.append(exc)
            return
        if payload is None:
            result = NodeResult(node, None, (), 0, failed=True, attempts=attempts, error=error)
        else:
            result = _result_from_payload(node, payload, attempts)
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
    server.settimeout(0.2)
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
                messages = store.partition(node)
                for run in _intervals(messages):
                    for data in _interval_frames(run):
                        channel.send_encoded(data)
                channel.send({"type": "end", "count": len(messages)})
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
        while not done.is_set():
            try:
                conn, peer = server.accept()
            except socket.timeout:
                continue
            except OSError:
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
                batches = _received_intervals(channel)
                channel.send(_classify_intervals(batches, preprocess, profile, cfg.w_for(node)))
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
    for node in cfg.nodes:
        for msg in store.partition(node):
            if msg.truth is None:
                raise SimulationError(
                    f"unlabeled row: {msg.origin[0]} row {msg.origin[1]}; metrics need ground truth"
                )
    if cfg.transport == "in-process":

        def attempt(node: str) -> dict:
            batches = ([m.record() for m in run] for run in _intervals(store.partition(node)))
            return _classify_intervals(batches, preprocess, profile, cfg.w_for(node))

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
