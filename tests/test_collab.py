import csv
import hashlib
import importlib.util
import json
import re
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netanom import collab
from netanom.collab import (
    TRANSPORTS,
    SharedStore,
    SimulationConfig,
    SimulationError,
    TransportError,
    replay,
    replay_chunks,
    run_simulation,
    simconfig_from_doc,
    simconfig_to_doc,
)
from netanom.decision import DetectionConfig, classify_scores, train_profile
from netanom.evaluation import ConfusionCounts, confusion
from netanom.gmm import EmConfig
from netanom.ingest import FlowBatch, FlowRecord, SchemaError, batch_of_records, iter_flow_batches
from netanom.preprocess import PreprocessError, fit_preprocess


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sim_records(split):
    _, test = split
    return test[:600]


@pytest.fixture(scope="module")
def fitted_pca(split, schema):
    """(preprocess model, normal profile) for a pca:3 reduction, which reads
    every feature column."""
    train, _ = split
    pp = fit_preprocess(train, schema, "pca:3")
    profile = train_profile(pp.apply_records(train), EmConfig(n_components=3, seed=0), preprocess_digest=pp.digest())
    return pp, profile


@pytest.fixture(scope="module")
def sim_capture(tmp_path_factory, sim_records, schema):
    """The first 120 ``sim_records`` as a capture file."""
    path = tmp_path_factory.mktemp("capture") / "sim.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema.names)
        writer.writerows(r.values for r in sim_records[:120])
    return path


def _replay_batches(path, pp, cfg):
    """The store ``netanom simulate`` fills from ``path``: column batches of
    the modeled columns, each numeric one a float64 array."""
    return replay_chunks(iter_flow_batches(path, pp.schema, pp.columns), pp.columns, cfg)


def _with_value(records, schema, index, column, text):
    """``records`` with one field of record ``index`` replaced."""
    rec = records[index]
    values = list(rec.values)
    values[schema.index_of(column)] = text
    return [*records[:index], FlowRecord(tuple(values), rec.truth, rec.origin), *records[index + 1 :]]


def _columns(records, schema, names):
    """The named columns of ``records``, each as the records' field texts."""
    return {name: [r.values[schema.index_of(name)] for r in records] for name in names}


#: The file every record of the conftest corpus comes from.
CORPUS_FILE = "synthetic.csv"


def _lists(batch):
    """A batch's fields as plain lists, to compare batches field by field."""
    return {
        "columns": {name: c.tolist() if isinstance(c, np.ndarray) else list(c) for name, c in batch.columns.items()},
        "truth": batch.truth.tolist(),
        "file_id": batch.file_id,
        "rows": batch.rows.tolist(),
    }


def _stream(records, schema, names=None):
    """What the store holds for ``records`` of the corpus file, in order, as
    :func:`_lists` gives it: the field texts of ``names`` (default: every
    schema column), the truths (-1 for unlabeled) and the row numbers."""
    assert all(r.origin[0] == CORPUS_FILE for r in records)
    return {
        "columns": _columns(records, schema, schema.names if names is None else names),
        "truth": [-1 if r.truth is None else r.truth for r in records],
        "file_id": CORPUS_FILE,
        "rows": [r.origin[1] for r in records],
    }


def _joined(parts):
    """The :func:`_lists` form of consecutive parts of one file, as one."""
    assert len({part["file_id"] for part in parts}) == 1
    return {
        "columns": {name: [v for part in parts for v in part["columns"][name]] for name in parts[0]["columns"]},
        "truth": [t for part in parts for t in part["truth"]],
        "file_id": parts[0]["file_id"],
        "rows": [row for part in parts for row in part["rows"]],
    }


def _origins(batch):
    """Each record's (file id, row number)."""
    return [(batch.file_id, row) for row in batch.rows.tolist()]


def _cfg(**kwargs):
    defaults = dict(nodes=("A", "B", "C"), assignment="round-robin", interval_size=50, w=2.0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestReplay:
    def test_round_robin_seqs(self, sim_records, schema):
        store = replay(sim_records[:9], _cfg(), schema)
        for i, node in enumerate(("A", "B", "C")):
            # seq n is the n-th record the node received
            assert _lists(store.partition(node)) == _stream(sim_records[i:9:3], schema)

    def test_interval_batching(self, sim_records, schema, fitted):
        pp, _ = fitted
        records = replay(sim_records[:9], _cfg(interval_size=2), schema).partition("A")
        intervals = list(collab._intervals(records, pp, 2))
        runs = [[sim_records[0], sim_records[3]], [sim_records[6]]]
        assert [len(interval) for interval in intervals] == [2, 1]
        # an interval holds its records' modeled columns, truths and origins
        assert [_lists(interval) for interval in intervals] == [_stream(run, schema, pp.columns) for run in runs]

    def test_deterministic(self, sim_records, schema):
        a = replay(sim_records, _cfg(), schema)
        b = replay(sim_records, _cfg(), schema)
        for node in ("A", "B", "C"):
            assert _lists(a.partition(node)) == _lists(b.partition(node))

    def test_every_record_exactly_once(self, sim_records, schema):
        store = replay(sim_records, _cfg(assignment="hash-of-source"), schema)
        spread = [len(store.partition(n)) for n in ("A", "B", "C")]
        assert sum(spread) == len(sim_records)
        origins = Counter(origin for n in ("A", "B", "C") for origin in _origins(store.partition(n)))
        assert all(count == 1 for count in origins.values())
        assert min(spread) > 0  # hash should spread across all three

    def test_hash_of_source_matches_per_record_hash(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        idx = schema.index_of("srcip")
        expected = []
        for rec in sim_records:
            h = hashlib.sha256(rec.values[idx].encode("utf-8")).digest()
            expected.append(cfg.nodes[int.from_bytes(h[:8], "big") % len(cfg.nodes)])
        # one assigner over two chunks: its value -> node memo spans both
        assign = collab._node_assigner(cfg)
        head, tail = (batch_of_records(part, schema, schema.names) for part in (sim_records[:250], sim_records[250:]))
        assert assign(head, 0) + assign(tail, 250) == expected

    def test_hash_of_source_groups_sources(self, sim_records, schema):
        store = replay(sim_records, _cfg(assignment="hash-of-source"), schema)
        source_to_node = {}
        for node in ("A", "B", "C"):
            for src in store.partition(node).columns["srcip"]:
                assert source_to_node.setdefault(src, node) == node

    def test_explicit_assignment(self, sim_records, schema):
        names = ["A", "A", "B"]
        store = replay(sim_records[:3], _cfg(explicit_assignment=tuple(names), assignment="explicit"), schema)
        assert _lists(store.partition("A")) == _stream([sim_records[0], sim_records[1]], schema)
        assert _lists(store.partition("B")) == _stream([sim_records[2]], schema)
        assert _lists(store.partition("C")) == _stream([], schema)

    def test_explicit_unknown_node_rejected(self, sim_records, schema):
        with pytest.raises(SimulationError, match="unknown node"):
            replay(
                sim_records[:2],
                _cfg(explicit_assignment=("A", "Z"), assignment="explicit"),
                schema,
            )

    def test_explicit_length_mismatch(self, sim_records, schema):
        with pytest.raises(SimulationError, match="entries"):
            replay(sim_records[:3], _cfg(explicit_assignment=("A",), assignment="explicit"), schema)

    def test_empty_records_rejected(self, schema):
        with pytest.raises(SimulationError):
            replay([], _cfg(), schema)
        with pytest.raises(SimulationError, match="empty"):
            replay_chunks(iter(()), schema.names, _cfg())

    def test_replay_needs_the_schema_and_the_hash_column(self, sim_records, schema):
        with pytest.raises(TypeError, match="schema"):
            replay(sim_records[:3], _cfg())
        with pytest.raises(SchemaError, match="no column named 'nope'"):
            replay(sim_records[:3], _cfg(assignment="hash-of-source", hash_column="nope"), schema)

    @pytest.mark.parametrize("assignment", ["round-robin", "hash-of-source", "explicit"])
    def test_chunks_replay_like_one_chunk(self, sim_records, schema, assignment):
        records = sim_records[:100]
        names = ("A", "B", "C")
        cfg = _cfg(assignment=assignment, explicit_assignment=tuple(names[(i * 5 + i // 7) % 3] for i in range(100)))
        whole = replay(records, cfg, schema)
        bounds = [0, 1, 8, 40, 41, 100]
        chunks = [batch_of_records(records[a:b], schema, schema.names) for a, b in zip(bounds, bounds[1:])]
        chunked = replay_chunks(iter(chunks), schema.names, cfg)
        assert chunked.nodes() == whole.nodes()
        for node in names:
            assert _lists(chunked.partition(node)) == _lists(whole.partition(node))

    def test_store_keeps_only_its_columns(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        store = replay_chunks([batch_of_records(sim_records[:30], schema, schema.names)], ("tcprtt", "proto"), cfg)
        full = replay(sim_records[:30], cfg, schema)
        assert store.columns == ("tcprtt", "proto")
        for node in cfg.nodes:
            part = _lists(full.partition(node))
            assert _lists(store.partition(node)) == {
                **part,
                "columns": {name: part["columns"][name] for name in ("tcprtt", "proto")},
            }


class TestSharedStore:
    @staticmethod
    def _batch(texts, truth, rows, file_id="f"):
        return FlowBatch({"x": texts}, np.array(truth, dtype=np.int8), file_id, np.array(rows, dtype=np.int64))

    def test_streams_are_independent(self):
        store = SharedStore(("x",))
        store.extend(self._batch(["a", "b", "c"], [0, 1, -1], [1, 2, 3]), ["A", "B", "A"])
        store.extend(self._batch(["d"], [1], [4]), ["B"])
        assert len(store) == 4
        assert store.nodes() == ("A", "B")
        assert _lists(store.partition("A")) == {"columns": {"x": ["a", "c"]}, "truth": [0, -1], "file_id": "f", "rows": [1, 3]}
        assert _lists(store.partition("B")) == {"columns": {"x": ["b", "d"]}, "truth": [1, 1], "file_id": "f", "rows": [2, 4]}
        assert _lists(store.partition("C")) == {"columns": {"x": []}, "truth": [], "file_id": "f", "rows": []}

    def test_store_holds_one_capture_file(self):
        store = SharedStore(("x",))
        store.extend(self._batch(["a"], [0], [1], file_id="f"), ["A"])
        with pytest.raises(SimulationError, match="holds capture 'f'; a batch of 'g' cannot join it"):
            store.extend(self._batch(["b"], [0], [1], file_id="g"), ["B"])
        assert len(store) == 1 and store.nodes() == ("A",)

    def test_partition_read_and_audit_replay(self, sim_records, schema):
        store = replay(sim_records[:30], _cfg(), schema)
        first_pass = _lists(store.partition("A"))
        # the whole stream, in order: round-robin gives A every third record
        assert first_pass == _stream(sim_records[:30:3], schema)
        second_pass = _lists(store.partition("A"))  # reading leaves no state behind
        assert second_pass == first_pass

    @pytest.mark.parametrize(
        # a one-record table1 frame of field texts takes at most about 400 bytes, a 16-record one about 1,385
        "max_frame, splits", [(collab._MAX_FRAME, False), (600, True)], ids=["one-frame", "split"]
    )
    def test_interval_frame_roundtrip(self, sim_records, schema, fitted, monkeypatch, max_frame, splits):
        pp, _ = fitted
        monkeypatch.setattr(collab, "_MAX_FRAME", max_frame)
        stream = replay(sim_records[:40], _cfg(nodes=("A",), interval_size=16), schema).partition("A")
        assert _lists(stream) == _stream(sim_records[:40], schema)
        runs = [sim_records[:16], sim_records[16:32], sim_records[32:40]]
        intervals = list(collab._intervals(stream, pp, 16))
        assert [len(interval) for interval in intervals] == [16, 16, 8]
        for run, interval in zip(runs, intervals):
            parts = []
            frames = list(collab._interval_frames(interval))
            for data in frames:
                assert int.from_bytes(data[:4], "big") == len(data) - 4 <= max_frame
                header, body = collab._decode_frame(data[4:])
                assert list(header) == ["type", "file", "n", "columns", "texts"]
                assert header["type"] == "interval"
                assert tuple(header["columns"]) == pp.columns
                # the replay adapter's store holds field texts: the body is the rows and the truths
                assert list(header["texts"]) == list(pp.columns) and len(body) == 9 * header["n"]
                parts.append(_lists(collab._interval_of(header, body)))
            assert (len(frames) > 1) == splits
            decoded = _joined(parts)
            assert decoded == _stream(run, schema, pp.columns)
            assert decoded == _lists(interval)

    @pytest.mark.parametrize("mode", ["table1", "pca:3"])
    def test_frames_carry_the_model_columns(self, sim_records, schema, fitted, fitted_pca, mode):
        pp, _ = fitted if mode == "table1" else fitted_pca
        records = replay(sim_records[:40], _cfg(nodes=("A",)), schema).partition("A")
        for interval in collab._intervals(records, pp, 16):
            for data in collab._interval_frames(interval):
                assert tuple(collab._decode_frame(data[4:])[0]["columns"]) == pp.columns
        assert pp.columns == (pp.selected if mode == "table1" else schema.feature_names())


def _payload(interval):
    """The payload of ``interval``'s one frame, after its length prefix."""
    (data,) = collab._interval_frames(interval)
    return data[4:]


def _reframe(payload, edit=lambda header: None, cut=lambda body: body):
    """``payload`` with its JSON header passed through ``edit`` and its body
    through ``cut``."""
    (size,) = struct.unpack_from(">I", payload)
    header = json.loads(payload[4 : 4 + size])
    edit(header)
    head = json.dumps(header).encode()
    return struct.pack(">I", len(head)) + head + cut(payload[4 + size :])


def _set(key, value):
    """A header edit that sets ``key`` to ``value``."""
    return lambda header: header.__setitem__(key, value)


def _interval(columns, file_id="f"):
    """A batch of ``columns``, truths 0, 1, 0, ... and rows 1, 2, ..."""
    n = len(next(iter(columns.values())))
    return FlowBatch(columns, np.arange(n, dtype=np.int8) % 2, file_id, np.arange(1, n + 1, dtype=np.int64))


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308]


class TestFrameCodec:
    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EXTREMES)), max_size=80
        ),
    )
    def test_float_columns_come_back_bit_exact(self, values):
        column = np.array(values, dtype=np.float64)
        header, body = collab._decode_frame(_payload(_interval({"x": column, "proto": ["tcp"] * len(values)})))
        assert header == {"type": "interval", "file": "f", "n": len(values), "columns": ["x", "proto"], "texts": {"proto": ["tcp"] * len(values)}}
        decoded = collab._interval_of(header, body)
        assert list(decoded.columns) == ["x", "proto"]
        got = decoded.columns["x"]
        assert got.dtype == np.dtype("<f8") and not got.flags.writeable
        assert got.view(np.uint64).tolist() == column.view(np.uint64).tolist()
        assert decoded.columns["proto"] == ["tcp"] * len(values)
        assert decoded.truth.tolist() == [i % 2 for i in range(len(values))]

    def test_every_wire_dtype_roundtrips(self):
        interval = FlowBatch({"x": np.array([0.5, -2.0, 1e300])}, np.array([1, 0, -1], dtype=np.int8), "f", np.array([2, 2**40, 7]))
        decoded = collab._interval_of(*collab._decode_frame(_payload(interval)))
        assert decoded.columns["x"].dtype == np.dtype("<f8") and decoded.columns["x"].tolist() == [0.5, -2.0, 1e300]
        assert decoded.rows.dtype == np.dtype("<i8") and decoded.rows.tolist() == [2, 2**40, 7]
        assert decoded.truth.dtype == np.dtype("i1") and decoded.truth.tolist() == [1, 0, -1]
        result = {"type": "result", "counts": {"tp": 1, "tn": 0, "fp": 1, "fn": 1}, "n": 3}
        header, verdicts = collab._result_of(*collab._decode_frame(collab._encode_frame(result, np.array([1, 0, 1], dtype=np.int8))[4:]))
        assert header == result
        assert verdicts.dtype == np.dtype("i1") and verdicts.tolist() == [1, 0, 1]

    def test_arrays_without_a_wire_form_rejected(self):
        for array in (np.zeros(2, dtype=np.float32), np.array(["a"], dtype=object), np.zeros((2, 2))):
            with pytest.raises(TypeError, match="no wire form"):
                list(collab._interval_frames(_interval({"x": array})))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: p[:3], "has no header length"),
            (lambda p: struct.pack(">I", len(p)) + p[4:], "runs past the"),
            (lambda p: p[:-1], "frame body holds 271 bytes, its header declares 272"),
            (lambda p: p + b"\0", "frame body holds 273 bytes, its header declares 272"),
            (lambda p: _reframe(p, _set("n", 15)), "frame body holds 272 bytes, its header declares 255"),
            (lambda p: _reframe(p, _set("n", -1)), "n=-1 records"),
            (lambda p: _reframe(p, _set("n", 1.5)), "n=1.5 records"),
            (lambda p: _reframe(p, lambda h: h.pop("n")), "n=None records"),
            (lambda p: _reframe(p, _set("columns", ["x", "x"])), "columns ['x', 'x'] are not unique names"),
            (lambda p: _reframe(p, _set("columns", "x")), "columns 'x' are not unique names"),
            (lambda p: _reframe(p, _set("texts", {"nope": ["tcp"] * 16})), "do not map some of its columns"),
            (lambda p: _reframe(p, _set("texts", {"proto": ["tcp"] * 15})), "not lists of its 16 records"),
            (lambda p: _reframe(p, lambda h: h.pop("texts")), "do not map some of its columns"),
            (lambda p: _reframe(p, lambda h: h.pop("type")), "expected interval frame, got None"),
            (lambda p: p[:4] + b"\xff" + p[5:], "malformed frame header"),
            (lambda p: struct.pack(">I", 200_000) + b"[" * 100_000 + b"]" * 100_000, "malformed frame header: RecursionError"),
            (lambda p: struct.pack(">I", 2) + b"[]" + p[4 + struct.unpack_from(">I", p)[0] :], "malformed frame header: a JSON list"),
        ],
    )
    def test_malformed_payload_raises_retryable_transport_error(self, corrupt, message):
        payload = _payload(_interval({"x": np.arange(16.0), "proto": ["tcp"] * 16}))
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._interval_of(*collab._decode_frame(corrupt(payload)))
        assert isinstance(excinfo.value, collab._RETRYABLE)

    @pytest.mark.parametrize(
        "edit",
        [
            # the body holds x (bytes 0-23), the rows (24-47) and the truths (48-50)
            lambda p: _reframe(p, cut=lambda b: b[:40] + b[48:]),
            lambda p: _reframe(p, cut=lambda b: b[:16] + b[24:]),
            lambda p: _reframe(p, cut=lambda b: b[:48]),
            lambda p: _reframe(p, lambda h: h.pop("file")),
            lambda p: _reframe(p, _set("rows", [1, 2, 3]), cut=lambda b: b[:24] + b[48:]),
            lambda p: _reframe(p, _set("file", 7)),
        ],
        ids=["origin", "column", "no-truth", "no-file", "rows-in-the-header", "file-not-a-string"],
    )
    def test_inconsistent_interval_frame_raises_transport_error(self, edit):
        payload = _payload(_interval({"x": np.arange(3.0)}))
        interval = collab._interval_of(*collab._decode_frame(payload))
        assert _lists(interval) == {"columns": {"x": [0.0, 1.0, 2.0]}, "truth": [0, 1, 0], "file_id": "f", "rows": [1, 2, 3]}
        with pytest.raises(TransportError):
            collab._interval_of(*collab._decode_frame(edit(payload)))

    @pytest.mark.parametrize(
        "counts, n, message",
        [
            ({"tp": 1}, 1, "counts {'tp': 1} do not sum to its 1 records"),
            ({"tp": 1, "tn": 1, "fp": 0, "fn": 0}, 1, "do not sum to its 1 records"),
            ({"tp": 2, "tn": -1, "fp": 0, "fn": 0}, 1, "do not sum to its 1 records"),
            ({"tp": 1.0, "tn": 0, "fp": 0, "fn": 0}, 1, "do not sum to its 1 records"),
            ([1, 0, 0, 0], 1, "do not sum to its 1 records"),
            (None, 1, "counts None do not sum to its 1 records"),
            ({"tp": 1, "tn": 0, "fp": 0, "fn": 0}, "1", "result frame counts n='1' records"),
            ({"tp": 1, "tn": 0, "fp": 0, "fn": 0}, 2, "result frame body holds 1 bytes, its header declares 2"),
        ],
    )
    def test_bad_result_frame_raises_retryable_transport_error(self, counts, n, message):
        payload = collab._encode_frame({"type": "result", "counts": counts, "n": n}, np.ones(1, dtype=np.int8))[4:]
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._result_of(*collab._decode_frame(payload))
        assert isinstance(excinfo.value, collab._RETRYABLE)

    @pytest.mark.parametrize("kind", ["hello", "end", "ack"])
    def test_header_only_frame_with_a_body_raises_retryable_transport_error(self, kind):
        header = {"type": kind, "node": "A", "count": 0}
        assert collab._body(*collab._decode_frame(collab._encode_frame(header)[4:]), kind) == []
        payload = collab._encode_frame(header, np.zeros(1, dtype=np.int8))[4:]
        with pytest.raises(TransportError, match=f"{kind} frame body holds 1 bytes, its header declares 0"):
            collab._body(*collab._decode_frame(payload), kind)

    @pytest.mark.parametrize(
        "end, message",
        [
            ({"type": "end"}, "end frame counts None records, 3 received"),
            ({"type": "end", "count": 3.0}, "end frame counts 3.0 records, 3 received"),
            ({"type": "end", "count": 2}, "end frame counts 2 records, 3 received"),
            ({"type": "ack"}, "expected end frame, got 'ack'"),
        ],
    )
    def test_bad_end_frame_raises_retryable_transport_error(self, end, message):
        frames = [_payload(_interval({"x": np.arange(3.0)})), collab._encode_frame(end)[4:]]

        class Channel:
            def recv(self):
                return collab._decode_frame(frames.pop(0))

        intervals = collab._received_intervals(Channel())
        assert len(next(intervals)) == 3
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            next(intervals)
        assert isinstance(excinfo.value, collab._RETRYABLE)


class TestConfig:
    def test_doc_roundtrip(self):
        cfg = _cfg(transport="loopback-socket", fail_nodes=("B",), node_w={"A": 2.5})
        assert simconfig_from_doc(simconfig_to_doc(cfg)) == cfg

    def test_integer_w_becomes_float(self):
        cfg = simconfig_from_doc({"version": 1, "nodes": ["A", "B"], "w": 2, "node_w": {"A": 3}})
        assert (repr(cfg.w), repr(cfg.node_w["A"])) == ("2.0", "3.0")

    def test_absent_keys_take_the_dataclass_defaults(self):
        assert simconfig_from_doc({"version": 1, "nodes": ["A"]}) == SimulationConfig(nodes=("A",))

    def test_documented_configs_load(self, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = readme.split("A simulation config:\n\n```json\n", 1)[1].split("```", 1)[0]
        cfg = simconfig_from_doc(json.loads(example))
        assert (cfg.nodes, cfg.interval_size, cfg.transport) == (("A", "B", "C"), 500, "loopback-socket")

        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench_run)  # its dataclasses look it up
        spec.loader.exec_module(bench_run)
        cfg = simconfig_from_doc(bench_run.SIM_CONFIG)
        assert (cfg.nodes, cfg.assignment, cfg.interval_size) == (("A", "B"), "hash-of-source", 500)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"version": 1, "nodes": ["A"], "w": True}, "'w' must be a number, got bool"),
            ({"version": 1, "nodes": ["A"], "interval_size": "7"}, "'interval_size' must be an integer, got str"),
            ({"version": 1, "nodes": ["A"], "node_w": ["A"]}, "'node_w' must be an object, got list"),
            ({"version": 1, "nodes": None}, "'nodes' must be a list, got NoneType"),
            ({"version": 1, "nodes": ["A"], "node_w": {"A": "2"}}, "'node_w.A' must be a number, got str"),
            ({"version": 1, "nodes": [["a"]]}, "'nodes[0]' must be a string, got list"),
            ({"version": 1, "nodes": [1, 2]}, "'nodes[0]' must be a string, got int"),
            ({"version": 1, "nodes": ["A"], "fail_nodes": ["A", None]}, "'fail_nodes[1]' must be a string, got NoneType"),
            ({"version": 1, "nodes": ["A"], "explicit_assignment": [True]}, "'explicit_assignment[0]' must be a string, got bool"),
        ],
        ids=[
            "bool-for-number", "str-for-int", "list-for-object", "null-for-list", "str-in-node-w",
            "list-in-nodes", "int-in-nodes", "null-in-fail-nodes", "bool-in-explicit-assignment",
        ],
    )
    def test_wrong_json_type_names_the_key(self, doc, message):
        with pytest.raises(SimulationError, match=re.escape(message)):
            simconfig_from_doc(doc)

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(nodes=())
        with pytest.raises(SimulationError):
            SimulationConfig(nodes=("A", "A"))
        with pytest.raises(SimulationError):
            _cfg(assignment="magic")
        with pytest.raises(SimulationError):
            _cfg(interval_size=0)
        with pytest.raises(SimulationError):
            _cfg(fail_nodes=("Z",))
        with pytest.raises(SimulationError):
            _cfg(transport="carrier-pigeon")
        for port in (-1, 65536, 70000):
            with pytest.raises(SimulationError, match=f"port must be in 0-65535, got {port}"):
                _cfg(port=port)
        assert _cfg(port=65535).port == 65535

    def test_w_range_checked_unless_overridden(self):
        with pytest.raises(Exception):
            _cfg(w=9.0)
        assert _cfg(w=9.0, allow_any_w=True).w == 9.0


class TestRunSimulation:
    def test_single_node_equals_plain_evaluation(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(nodes=("solo",))
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)

        scores = profile.score_matrix(pp.apply_records(sim_records))
        flagged = classify_scores(scores, profile, DetectionConfig(2.0))
        plain = confusion(flagged.astype(int), [r.truth for r in sim_records])
        assert outcome.aggregate_counts == plain
        assert outcome.per_node_reports["solo"].counts == plain
        assert not outcome.partial

    def test_aggregate_is_sum_of_nodes(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg()
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        total = ConfusionCounts(0, 0, 0, 0)
        for node in cfg.nodes:
            total = total + outcome.node_results[node].counts
        assert outcome.aggregate_counts == total

    def test_partition_invariance(self, sim_records, schema, fitted):
        pp, profile = fitted
        one = run_simulation(
            replay(sim_records, _cfg(nodes=("solo",)), schema), profile, pp, _cfg(nodes=("solo",))
        )
        three_cfg = _cfg(assignment="hash-of-source")
        three = run_simulation(replay(sim_records, three_cfg, schema), profile, pp, three_cfg)
        assert three.aggregate_counts == one.aggregate_counts
        # the multiset of (record origin, verdict) pairs is topology-independent
        def verdict_multiset(outcome, store_cfg):
            store = replay(sim_records, store_cfg, schema)
            pairs = []
            for node in store_cfg.nodes:
                origins = _origins(store.partition(node))
                verdicts = outcome.node_results[node].verdicts
                assert len(origins) == len(verdicts)
                pairs.extend(zip(origins, verdicts))
            return Counter(pairs)

        assert verdict_multiset(three, three_cfg) == verdict_multiset(one, _cfg(nodes=("solo",)))

    def test_loopback_agrees_with_in_process(self, sim_records, schema, fitted):
        pp, profile = fitted
        inproc_cfg = _cfg(transport="in-process")
        sock_cfg = _cfg(transport="loopback-socket")
        a = run_simulation(replay(sim_records, inproc_cfg, schema), profile, pp, inproc_cfg)
        b = run_simulation(replay(sim_records, sock_cfg, schema), profile, pp, sock_cfg)
        assert a.aggregate_counts == b.aggregate_counts
        assert a.per_node_reports == b.per_node_reports
        for node in inproc_cfg.nodes:
            assert a.node_results[node].verdicts == b.node_results[node].verdicts

    def test_loopback_agrees_with_in_process_pca(self, sim_records, schema, fitted_pca):
        pp, profile = fitted_pca
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport, assignment="hash-of-source")
            outcomes[transport] = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        a, b = outcomes["in-process"], outcomes["loopback-socket"]
        assert a.per_node_reports == b.per_node_reports
        for node in ("A", "B", "C"):
            assert a.node_results[node].verdicts == b.node_results[node].verdicts
        flagged = classify_scores(profile.score_matrix(pp.apply_records(sim_records)), profile, DetectionConfig(2.0))
        assert a.aggregate_counts == confusion(flagged.astype(int), [r.truth for r in sim_records])

    @pytest.mark.parametrize("text, reason", [("fast", "non-numeric"), ("inf", "non-finite")])
    def test_bad_modeled_value_fails_alike_on_both_transports(self, sim_records, schema, fitted, text, reason):
        pp, profile = fitted
        records = _with_value(sim_records, schema, 37, "tcprtt", text)
        file_id, row = records[37].origin
        messages = {}
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            with pytest.raises(PreprocessError) as excinfo:
                run_simulation(replay(records, cfg, schema), profile, pp, cfg)
            messages[transport] = str(excinfo.value)
        assert messages["in-process"] == messages["loopback-socket"]
        assert messages["in-process"] == f"column 'tcprtt': {reason} value {text!r} in {file_id} row {row}"

    def test_bad_unmodeled_value_changes_no_verdict(self, sim_records, schema, fitted):
        pp, profile = fitted
        assert "sbytes" not in pp.columns
        records = _with_value(sim_records, schema, 37, "sbytes", "fast")
        clean = run_simulation(replay(sim_records, _cfg(), schema), profile, pp, _cfg())
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            outcome = run_simulation(replay(records, cfg, schema), profile, pp, cfg)
            assert outcome.per_node_reports == clean.per_node_reports
            for node in cfg.nodes:
                assert outcome.node_results[node].verdicts == clean.node_results[node].verdicts

    def test_post_run_store_audit(self, sim_records, schema, fitted):
        pp, profile = fitted
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            store = replay(sim_records, cfg, schema)
            before = {n: _lists(store.partition(n)) for n in cfg.nodes}
            run_simulation(store, profile, pp, cfg)
            for node in cfg.nodes:
                assert _lists(store.partition(node)) == before[node]  # nothing mutated or lost
            assert len(store) == len(sim_records)

    def test_injected_failure_excludes_partition(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("B",), retry_budget=1)
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.failed_nodes == ("B",)
        assert outcome.partial
        assert outcome.node_results["B"].failed
        assert outcome.node_results["B"].attempts == 2  # initial + 1 retry
        assert "B" not in outcome.per_node_reports
        expected = outcome.node_results["A"].counts + outcome.node_results["C"].counts
        assert outcome.aggregate_counts == expected
        # the crash leaves the healthy nodes' results untouched
        intact = run_simulation(replay(sim_records, _cfg(), schema), profile, pp, _cfg())
        for node in ("A", "C"):
            assert outcome.node_results[node].counts == intact.node_results[node].counts
            assert outcome.node_results[node].verdicts == intact.node_results[node].verdicts

    def test_failure_over_loopback(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(transport="loopback-socket", fail_nodes=("C",), retry_budget=0)
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.failed_nodes == ("C",)
        healthy = run_simulation(
            replay(sim_records, _cfg(fail_nodes=("C",)), schema), profile, pp, _cfg(fail_nodes=("C",))
        )
        assert outcome.aggregate_counts == healthy.aggregate_counts

    def test_retry_recovers_in_process(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab._classify_intervals
        crashed = []
        cfg = _cfg()
        first_of_b = _origins(replay(sim_records, cfg, schema).partition("B"))[0]

        def flaky(intervals, *args):
            intervals = list(intervals)
            if _origins(intervals[0])[0] == first_of_b and not crashed:
                crashed.append(True)
                raise OSError("transient failure")
            return real(intervals, *args)

        monkeypatch.setattr(collab, "_classify_intervals", flaky)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert crashed
        assert not outcome.partial and outcome.failed_nodes == ()
        assert outcome.node_results["B"].attempts == 2
        assert not outcome.node_results["B"].failed
        assert outcome.node_results["B"].error is None
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    def test_store_service_blocks_in_accept(self, sim_records, schema, fitted, monkeypatch):
        """The accept loop has no poll timeout: it returns once per worker
        connection and once for the wake-up after the last node is done."""
        pp, profile = fitted
        real = collab.socket.socket.accept
        returns = []

        def counting(sock):
            accepted = real(sock)
            returns.append(sock.gettimeout())
            return accepted

        monkeypatch.setattr(collab.socket.socket, "accept", counting)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        assert not outcome.partial
        connections = sum(r.attempts for r in outcome.node_results.values())
        assert returns == [None] * (connections + 1)

    def test_retry_recovers_over_loopback(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab.socket.create_connection
        crashed = []

        def flaky(*args, **kwargs):
            if not crashed:
                crashed.append(True)
                raise OSError("connection refused")
            return real(*args, **kwargs)

        monkeypatch.setattr(collab.socket, "create_connection", flaky)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert crashed
        assert not outcome.partial and outcome.failed_nodes == ()
        # the first connection, whichever node opened it, is the one that failed
        attempts = sorted(r.attempts for r in outcome.node_results.values())
        assert attempts == [1, 1, 2]
        assert not any(r.failed or r.error for r in outcome.node_results.values())
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    def test_store_service_error_recorded_and_retried(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab._Channel.send
        sent_bad = []

        def flaky(channel, header, *arrays):
            if header.get("type") == "hello" and header["node"] == "B" and not sent_bad:
                sent_bad.append(True)
                header = {**header, "type": "capture"}
            real(channel, header, *arrays)

        monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert sent_bad
        b = outcome.node_results["B"]
        assert not b.failed and b.attempts == 2
        assert b.error == "TransportError: expected hello frame, got 'capture'"
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.node_results["A"].error is None
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    @pytest.mark.parametrize(
        "kind, edit, store_error",
        [
            ("end", lambda header: header.pop("count"), None),
            ("result", lambda header: header.__setitem__("counts", {"tp": 1}), "TransportError: result frame counts {'tp': 1} do not sum to its 200 records"),
        ],
    )
    def test_bad_peer_frame_retried(self, sim_records, schema, fitted, monkeypatch, kind, edit, store_error):
        """A peer frame that does not fit its layout is a retryable
        TransportError on the side that reads it, never a crash."""
        pp, profile = fitted
        real = collab._Channel.send
        sent_bad = []

        def flaky(channel, header, *arrays):
            if header["type"] == kind and not sent_bad:
                sent_bad.append(True)
                header = dict(header)
                edit(header)
            real(channel, header, *arrays)

        monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket", nodes=("A", "B"), interval_size=64)
        outcome = run_simulation(replay(sim_records[:400], cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records[:400], cfg, schema), profile, pp, cfg)
        assert sent_bad and not outcome.partial
        assert sorted(r.attempts for r in outcome.node_results.values()) == [1, 2]
        assert sorted(str(r.error) for r in outcome.node_results.values()) == sorted(["None", str(store_error)])
        for node in cfg.nodes:
            assert outcome.node_results[node].verdicts == clean.node_results[node].verdicts
        assert outcome.aggregate_counts == clean.aggregate_counts

    @pytest.mark.parametrize("always", [False, True])
    def test_truncated_stream_retried(self, sim_records, schema, fitted, monkeypatch, always):
        pp, profile = fitted
        real = collab._interval_frames
        dropped = []
        cfg = _cfg(transport="loopback-socket", retry_budget=1)
        of_b = set(_origins(replay(sim_records, cfg, schema).partition("B")))

        def truncating(interval):
            if _origins(interval)[0] in of_b and (always or not dropped):
                dropped.append(True)
                return iter(())
            return real(interval)

        monkeypatch.setattr(collab, "_interval_frames", truncating)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        b = outcome.node_results["B"]
        assert b.attempts == 2
        if always:
            assert b.failed and outcome.failed_nodes == ("B",)
            assert b.error.startswith("TransportError: end frame counts 200 records, ")
            return
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert not b.failed and not outcome.partial
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert b.verdicts == clean.node_results["B"].verdicts

    @pytest.mark.parametrize("always", [False, True])
    def test_corrupt_frame_body_retried(self, sim_capture, fitted, monkeypatch, always):
        """An interval frame that loses its last body byte (its length prefix
        still matching) fails to decode on the worker, which retries."""
        pp, profile = fitted
        real = collab._interval_frames
        corrupted = []
        cfg = _cfg(transport="loopback-socket", retry_budget=1, interval_size=16)
        of_b = set(_origins(_replay_batches(sim_capture, pp, cfg).partition("B")))

        def corrupting(interval):
            for data in real(interval):
                if _origins(interval)[0] in of_b and (always or not corrupted):
                    corrupted.append(True)
                    data = struct.pack(">I", len(data) - 5) + data[4:-1]
                yield data

        monkeypatch.setattr(collab, "_interval_frames", corrupting)
        outcome = run_simulation(_replay_batches(sim_capture, pp, cfg), profile, pp, cfg)
        monkeypatch.undo()
        b = outcome.node_results["B"]
        assert corrupted and b.attempts == 2
        if always:
            assert b.failed and outcome.failed_nodes == ("B",)
            assert b.error.startswith("TransportError: ") and "frame body holds" in b.error
            return
        clean = run_simulation(_replay_batches(sim_capture, pp, cfg), profile, pp, cfg)
        assert not b.failed and not outcome.partial
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert b.verdicts == clean.node_results["B"].verdicts
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]

    def test_all_failed_rejected(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("A", "B", "C"), retry_budget=0)
        store = replay(sim_records, cfg, schema)
        with pytest.raises(SimulationError, match="no healthy node"):
            run_simulation(store, profile, pp, cfg)

    def test_digest_mismatch_rejected(self, sim_records, schema, fitted, split):
        from netanom.preprocess import fit_preprocess

        _, profile = fitted
        train, _ = split
        other_pp = fit_preprocess(train, schema, "pca:3")
        cfg = _cfg()
        store = replay(sim_records, cfg, schema)
        with pytest.raises(Exception, match="digest|bound"):
            run_simulation(store, profile, other_pp, cfg)

    def test_unlabeled_records_rejected(self, schema, fitted):
        pp, profile = fitted
        width = schema.width
        rec = FlowRecord(tuple(["0"] * width), None, ("f", 1))
        cfg = _cfg(nodes=("solo",))
        store = replay([rec], cfg, schema)
        with pytest.raises(SimulationError, match="truth"):
            run_simulation(store, profile, pp, cfg)

    def test_store_without_the_modeled_columns_rejected(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg()
        store = replay_chunks([batch_of_records(sim_records[:30], schema, schema.names)], ("srcip", "tcprtt"), cfg)
        with pytest.raises(SimulationError, match="lacks the modeled columns"):
            run_simulation(store, profile, pp, cfg)

    def test_per_node_w_overrides(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(node_w={"A": 3.0})
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.per_node_reports["A"].w == 3.0
        assert outcome.per_node_reports["B"].w == 2.0
        assert outcome.aggregate_report.w is None  # mixed w across nodes


class TestRunnerProperty:
    @settings(max_examples=10)
    @given(data=st.data())
    def test_transports_agree_on_random_topologies(self, data, sim_records, sim_capture, schema, fitted):
        pp, profile = fitted
        records = sim_records[:120]
        # Field texts fill the store as the replay adapter does; column
        # batches as `netanom simulate` does, numeric columns as float64
        # arrays, which travel as buffers.
        batches = data.draw(st.booleans(), label="column batches")
        n_nodes = data.draw(st.integers(1, 4), label="nodes")
        nodes = tuple("ABCD"[:n_nodes])
        explicit = data.draw(
            st.lists(st.sampled_from(nodes), min_size=len(records), max_size=len(records)),
            label="explicit",
        )
        interval = data.draw(st.integers(1, 64), label="interval_size")
        # 400 bytes holds a one-record interval frame of field texts (at most
        # 399) or of float64 buffers (at most 294), and the result frame for
        # 120 records (191). A 64-record interval frame takes about 4,500
        # (texts) or 5,600 (buffers), so most draws split intervals across
        # frames.
        max_frame = data.draw(st.integers(400, 6_000), label="max_frame")
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(
                nodes=nodes,
                assignment="explicit",
                explicit_assignment=tuple(explicit),
                interval_size=interval,
                transport=transport,
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(collab, "_MAX_FRAME", max_frame)
                store = _replay_batches(sim_capture, pp, cfg) if batches else replay(records, cfg, schema)
                held = [column for node in store.nodes() for column in store.partition(node).columns.values()]
                assert any(isinstance(column, np.ndarray) for column in held) == batches
                outcomes[transport] = run_simulation(store, profile, pp, cfg)
        a, b = outcomes["in-process"], outcomes["loopback-socket"]
        for node in nodes:
            assert a.node_results[node].verdicts == b.node_results[node].verdicts
            assert a.node_results[node].counts == b.node_results[node].counts
        assert a.per_node_reports == b.per_node_reports
        assert a.aggregate_report == b.aggregate_report
        assert not b.failed_nodes

        flagged = classify_scores(profile.score_matrix(pp.apply_records(records)), profile, DetectionConfig(2.0))
        assert a.aggregate_counts == confusion(flagged.astype(int), [r.truth for r in records])
