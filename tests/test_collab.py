import csv
import hashlib
import importlib.util
import json
import re
import struct
import sys
import threading
from collections import Counter
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netanom import collab
from netanom.collab import (
    TRANSPORTS,
    SimulationConfig,
    SimulationError,
    TransportError,
    replay,
    run_simulation,
    simconfig_from_doc,
    simconfig_to_doc,
)
from netanom.decision import DetectionConfig, classify_scores, train_profile
from netanom.evaluation import ConfusionCounts, confusion
from netanom.gmm import EmConfig
from netanom.ingest import ColumnSpec, FeatureSchema, FlowBatch, FlowRecord, ParseError, SchemaError, batch_of_records, iter_flow_batches
from netanom.preprocess import PreprocessError, fit_preprocess

from conftest import assert_same_verdicts


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


def _capture_source(path, pp, cfg):
    """The batch source ``netanom simulate`` reads from ``path``: batches of
    the modeled columns and, for hash-of-source, the hash column, each
    numeric one a float64 array."""
    hashed = (cfg.hash_column,) if cfg.assignment == "hash-of-source" else ()
    return lambda: iter_flow_batches(path, pp.schema, pp.columns + hashed)


def _source(*batches):
    """A batch source whose every pass yields ``batches``."""

    def source():
        yield from batches

    return source


def _counted(source):
    """``source``, and a list that gains an entry each time it is called."""
    calls = []

    def counting():
        calls.append(len(calls))
        return source()

    return counting, calls


def _received(source, cfg, columns):
    """Each node's intervals over ``columns`` in one pass over ``source``, as
    the store cuts them, in order; a node without records gets none."""
    store = collab._Store(cfg, columns, cfg.nodes)
    received = {node: [] for node in cfg.nodes}
    with closing(source()) as batches:
        for node, interval in store.intervals(batches):
            received[node].append(interval)
    return received


def _streams(source, cfg, columns):
    """Each node's records in one pass over ``source``, in the form
    :func:`_joined` gives: its intervals joined, or None without records."""
    return {node: _joined([_lists(i) for i in intervals]) if intervals else None for node, intervals in _received(source, cfg, columns).items()}


def _origins_of(source, cfg, node):
    """The (file id, row number) of each record ``source`` gives ``node``."""
    return {origin for interval in _received(source, cfg, ())[node] for origin in _origins(interval)}


def _with_value(records, schema, index, column, text):
    """``records`` with one field of record ``index`` replaced."""
    rec = records[index]
    values = list(rec.values)
    values[schema.index_of(column)] = text
    return [*records[:index], FlowRecord(tuple(values), rec.truth, rec.origin), *records[index + 1 :]]


def _columns(records, schema, names):
    """The named columns of ``records`` as the reader makes them, in the
    form :func:`_lists` gives: a numeric one as floats, any other as the
    records' field texts."""
    columns = {name: [r.values[schema.index_of(name)] for r in records] for name in names}
    return {
        name: np.asarray(texts, dtype=np.float64).tolist() if schema.kind_of(name) == "numeric" else texts
        for name, texts in columns.items()
    }


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
    """What a stream holds for ``records`` of the corpus file, in order, as
    :func:`_lists` gives it: the columns ``names`` (default: every schema
    column) as :func:`_columns` gives them, the truths (-1 for unlabeled)
    and the row numbers."""
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
        streams = _streams(replay(sim_records[:9], _cfg(), schema), _cfg(), schema.names)
        for i, node in enumerate(("A", "B", "C")):
            # seq n is the n-th record the node received
            assert streams[node] == _stream(sim_records[i:9:3], schema)

    def test_interval_batching(self, sim_records, schema, fitted):
        pp, _ = fitted
        cfg = _cfg(interval_size=2)
        intervals = _received(replay(sim_records[:9], cfg, schema), cfg, pp.columns)["A"]
        runs = [[sim_records[0], sim_records[3]], [sim_records[6]]]
        assert [len(interval) for interval in intervals] == [2, 1]
        # an interval holds its records' modeled columns, truths and origins
        assert [_lists(interval) for interval in intervals] == [_stream(run, schema, pp.columns) for run in runs]

    def test_deterministic(self, sim_records, schema):
        a = _streams(replay(sim_records, _cfg(), schema), _cfg(), schema.names)
        b = _streams(replay(sim_records, _cfg(), schema), _cfg(), schema.names)
        assert a == b and len(a) == 3

    def test_every_record_exactly_once(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        streams = _streams(replay(sim_records, cfg, schema), cfg, schema.names)
        spread = [len(streams[n]["rows"]) for n in ("A", "B", "C")]
        assert sum(spread) == len(sim_records)
        origins = Counter((streams[n]["file_id"], row) for n in ("A", "B", "C") for row in streams[n]["rows"])
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
        indices = np.concatenate([assign(head, 0), assign(tail, 250)])
        assert indices.dtype == np.intp
        assert [cfg.nodes[i] for i in indices] == expected

    def test_hash_of_source_groups_sources(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        streams = _streams(replay(sim_records, cfg, schema), cfg, schema.names)
        source_to_node = {}
        for node in ("A", "B", "C"):
            for src in streams[node]["columns"]["srcip"]:
                assert source_to_node.setdefault(src, node) == node

    def test_explicit_assignment(self, sim_records, schema):
        cfg = _cfg(explicit_assignment=("A", "A", "B"), assignment="explicit")
        intervals = _received(replay(sim_records[:3], cfg, schema), cfg, schema.names)
        assert [_lists(interval) for interval in intervals["A"]] == [_stream([sim_records[0], sim_records[1]], schema)]
        assert [_lists(interval) for interval in intervals["B"]] == [_stream([sim_records[2]], schema)]
        assert intervals["C"] == []  # a node without records gets no interval

    def test_explicit_unknown_node_rejected(self, sim_records, schema):
        with pytest.raises(SimulationError, match="unknown node"):
            replay(
                sim_records[:2],
                _cfg(explicit_assignment=("A", "Z"), assignment="explicit"),
                schema,
            )

    def test_explicit_length_mismatch(self, sim_records, schema):
        for entries, message in ((("A",), "has 1 entries for 3 records"), (("A",) * 4, "has 4 entries for 3 records")):
            cfg = _cfg(explicit_assignment=entries, assignment="explicit")
            with pytest.raises(SimulationError, match=message):
                _received(replay(sim_records[:3], cfg, schema), cfg, schema.names)

    def test_short_explicit_assignment_fails_at_the_first_batch_it_does_not_cover(self, sim_records, schema):
        read = []

        def source():
            for a, b in ((0, 4), (4, 8), (8, 12)):
                read.append(b)
                yield batch_of_records(sim_records[a:b], schema, schema.names)

        cfg = _cfg(explicit_assignment=("A", "B") * 3, assignment="explicit", interval_size=1)
        seen = []
        with pytest.raises(SimulationError, match=re.escape("explicit assignment has 6 entries for 8 records")):
            for node, interval in collab._Store(cfg, schema.names, cfg.nodes).intervals(source()):
                seen.append((node, interval.rows.tolist()))
        assert read == [4, 8]  # the third batch is never read
        # the first batch's intervals are cut as they fill, before the second batch is read
        rows = [r.origin[1] for r in sim_records[:4]]
        assert seen == [("A", [rows[0]]), ("A", [rows[2]]), ("B", [rows[1]]), ("B", [rows[3]])]

    def test_empty_records_rejected(self, schema):
        cfg = _cfg()
        for source in (replay([], cfg, schema), _source()):
            with pytest.raises(SimulationError, match="^test file has no records$"):
                _received(source, cfg, schema.names)

    def test_replay_needs_the_schema_and_the_hash_column(self, sim_records, schema):
        with pytest.raises(TypeError, match="schema"):
            replay(sim_records[:3], _cfg())
        with pytest.raises(SchemaError, match="no column named 'nope'"):
            replay(sim_records[:3], _cfg(assignment="hash-of-source", hash_column="nope"), schema)

    @pytest.mark.parametrize("assignment", ["round-robin", "hash-of-source", "explicit"])
    def test_chunks_replay_like_one_chunk(self, sim_records, schema, assignment):
        """Batch bounds move no interval bound: each node's intervals are cut
        from its records in file order, across batches."""
        records = sim_records[:100]
        names = ("A", "B", "C")
        cfg = _cfg(assignment=assignment, interval_size=7, explicit_assignment=tuple(names[(i * 5 + i // 7) % 3] for i in range(100)))
        whole = _received(replay(records, cfg, schema), cfg, schema.names)
        bounds = [0, 1, 8, 40, 41, 100]
        chunked = _received(_source(*(batch_of_records(records[a:b], schema, schema.names) for a, b in zip(bounds, bounds[1:]))), cfg, schema.names)
        assert tuple(chunked) == tuple(whole) == names
        for node in names:
            assert [_lists(interval) for interval in chunked[node]] == [_lists(interval) for interval in whole[node]]
            sizes = [len(interval) for interval in whole[node]]
            assert sizes[:-1] == [7] * (len(sizes) - 1) and 1 <= sizes[-1] <= 7

    def test_store_keeps_only_its_columns(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        source = replay(sim_records[:30], cfg, schema)
        kept = _received(source, cfg, ("tcprtt", "proto"))
        assert all(tuple(interval.columns) == ("tcprtt", "proto") for intervals in kept.values() for interval in intervals)
        full = _streams(source, cfg, schema.names)
        for node in cfg.nodes:
            part = full[node]
            assert _joined([_lists(interval) for interval in kept[node]]) == {
                **part,
                "columns": {name: part["columns"][name] for name in ("tcprtt", "proto")},
            }


class TestNodeStreams:
    @staticmethod
    def _batch(texts, truth, rows, file_id="f"):
        return FlowBatch({"x": texts}, np.array(truth, dtype=np.int8), file_id, np.array(rows, dtype=np.int64))

    def test_streams_are_independent(self):
        cfg = _cfg(assignment="explicit", explicit_assignment=("A", "B", "A", "B"))
        batches = [self._batch(["a", "b", "c"], [0, 1, 0], [1, 2, 3]), self._batch(["d"], [1], [4])]
        store = collab._Store(cfg, ("x",), cfg.nodes)
        intervals = list(store.intervals(iter(batches)))
        assert store.n_records == 4
        assert [node for node, _ in intervals] == ["A", "B"]  # the remainders, in topology order; C has none
        assert _lists(intervals[0][1]) == {"columns": {"x": ["a", "c"]}, "truth": [0, 0], "file_id": "f", "rows": [1, 3]}
        assert _lists(intervals[1][1]) == {"columns": {"x": ["b", "d"]}, "truth": [1, 1], "file_id": "f", "rows": [2, 4]}
        assert {node: truth.tolist() for node, truth in store.truth.items()} == {"A": [0, 0], "B": [1, 1], "C": []}

    def test_unlabeled_record_named_once_the_capture_is_read(self):
        """Intervals are cut as they fill; the unlabeled row 3 is named only
        once every batch is in, before any remainder is flushed."""
        cfg = _cfg(assignment="explicit", explicit_assignment=("A", "B", "A", "B"), interval_size=1)
        batches = [self._batch(["a", "b", "c"], [0, 1, -1], [1, 2, 3]), self._batch(["d"], [1], [4])]
        seen = []
        with pytest.raises(SimulationError, match=re.escape("unlabeled row: f row 3; metrics need ground truth")):
            for node, interval in collab._Store(cfg, ("x",), cfg.nodes).intervals(iter(batches)):
                seen.append((node, interval.rows.tolist()))
        assert seen == [("A", [1]), ("A", [3]), ("B", [2]), ("B", [4])]

    def test_store_holds_one_capture_file(self):
        read = []

        def batches():
            for file_id in ("f", "g", "f"):
                read.append(file_id)
                yield self._batch(["a"], [0], [len(read)], file_id=file_id)

        cfg = _cfg(assignment="explicit", explicit_assignment=("A", "B", "A"))
        with pytest.raises(SimulationError, match="holds capture 'f'; a batch of 'g' cannot join it"):
            _received(batches, cfg, ("x",))
        assert read == ["f", "g"]  # the pass stops at the other file's batch

    def test_partition_read_and_audit_replay(self, sim_records, schema):
        source = replay(sim_records[:30], _cfg(), schema)
        first_pass = _streams(source, _cfg(), schema.names)["A"]
        # the whole stream, in order: round-robin gives A every third record
        assert first_pass == _stream(sim_records[:30:3], schema)
        second_pass = _streams(source, _cfg(), schema.names)["A"]  # a pass leaves no state behind
        assert second_pass == first_pass

    @pytest.mark.parametrize(
        # a one-record table1 frame takes about 300 bytes, a 16-record one about 1,560
        "max_frame, splits", [(collab._MAX_FRAME, False), (600, True)], ids=["one-frame", "split"]
    )
    def test_interval_frame_roundtrip(self, sim_records, schema, fitted, monkeypatch, max_frame, splits):
        pp, _ = fitted
        monkeypatch.setattr(collab, "_MAX_FRAME", max_frame)
        cfg = _cfg(nodes=("A",), interval_size=16)
        intervals = _received(replay(sim_records[:40], cfg, schema), cfg, pp.columns)["A"]
        assert _joined([_lists(interval) for interval in intervals]) == _stream(sim_records[:40], schema, pp.columns)
        runs = [sim_records[:16], sim_records[16:32], sim_records[32:40]]
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
                # texts only for the text columns; the body is the float64 columns and the rows, no truths
                floats = [name for name in pp.columns if schema.kind_of(name) == "numeric"]
                assert list(header["texts"]) == [name for name in pp.columns if name not in floats]
                assert len(body) == (8 * len(floats) + 8) * header["n"]
                parts.append(_lists(collab._interval_of(header, body, schema)))
            assert (len(frames) > 1) == splits
            decoded = _joined(parts)
            # the node is not told the labels: every truth comes back -1 (unknown)
            assert decoded == {**_stream(run, schema, pp.columns), "truth": [-1] * len(run)}
            assert decoded == {**_lists(interval), "truth": [-1] * len(interval)}

    @pytest.mark.parametrize("mode", ["table1", "pca:3"])
    def test_frames_carry_the_model_columns(self, sim_records, schema, fitted, fitted_pca, mode):
        pp, _ = fitted if mode == "table1" else fitted_pca
        cfg = _cfg(nodes=("A",), interval_size=16)
        for interval in _received(replay(sim_records[:40], cfg, schema), cfg, pp.columns)["A"]:
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


#: The kinds of the columns the codec tests send.
_CODEC_SCHEMA = FeatureSchema(
    (ColumnSpec("x", "numeric"), ColumnSpec("proto", "categorical"), ColumnSpec("label", "label")), "label", "1"
)


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
        decoded = collab._interval_of(header, body, _CODEC_SCHEMA)
        assert list(decoded.columns) == ["x", "proto"]
        got = decoded.columns["x"]
        assert got.dtype == np.dtype("<f8") and not got.flags.writeable
        assert got.view(np.uint64).tolist() == column.view(np.uint64).tolist()
        assert decoded.columns["proto"] == ["tcp"] * len(values)
        assert decoded.truth.dtype == np.dtype("i1") and decoded.truth.tolist() == [-1] * len(values)

    def test_every_wire_dtype_roundtrips(self):
        interval = FlowBatch({"x": np.array([0.5, -2.0, 1e300])}, np.array([1, 0, -1], dtype=np.int8), "f", np.array([2, 2**40, 7]))
        decoded = collab._interval_of(*collab._decode_frame(_payload(interval)), _CODEC_SCHEMA)
        assert decoded.columns["x"].dtype == np.dtype("<f8") and decoded.columns["x"].tolist() == [0.5, -2.0, 1e300]
        assert decoded.rows.dtype == np.dtype("<i8") and decoded.rows.tolist() == [2, 2**40, 7]
        assert decoded.truth.dtype == np.dtype("i1") and decoded.truth.tolist() == [-1, -1, -1]  # truths stay with the store
        payload = collab._encode_frame({"type": "result", "n": 3}, np.array([1, 0, 1], dtype=np.int8))[4:]
        (verdicts,) = collab._body(*collab._decode_frame(payload), "result", collab._I1)
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
            # the body is x's 16 floats (128 bytes) and the 16 rows (128 bytes)
            (lambda p: p[:-1], "frame body holds 255 bytes, its header declares 256"),
            (lambda p: p + b"\0", "frame body holds 257 bytes, its header declares 256"),
            (lambda p: _reframe(p, _set("n", 15)), "frame body holds 256 bytes, its header declares 240"),
            (lambda p: _reframe(p, _set("n", -1)), "n=-1 records"),
            (lambda p: _reframe(p, _set("n", 1.5)), "n=1.5 records"),
            (lambda p: _reframe(p, lambda h: h.pop("n")), "n=None records"),
            (lambda p: _reframe(p, _set("columns", ["x", "x"])), "columns ['x', 'x'] are not unique names"),
            (lambda p: _reframe(p, _set("columns", "x")), "columns 'x' are not unique names"),
            (lambda p: _reframe(p, _set("texts", {"nope": ["tcp"] * 16})), "do not map exactly its text columns ['proto']"),
            (lambda p: _reframe(p, _set("texts", {"proto": ["tcp"] * 15})), "not lists of its 16 records"),
            (lambda p: _reframe(p, lambda h: h.pop("texts")), "do not map exactly its text columns ['proto']"),
            # a numeric column as texts (x's 16 values are the body's first 128 bytes), a text one as floats
            (lambda p: _reframe(p, lambda h: h["texts"].update(x=["1.0"] * 16), cut=lambda b: b[128:]), "do not map exactly its text columns ['proto']"),
            (lambda p: _reframe(p, _set("texts", {}), cut=lambda b: b[:128] + bytes(128) + b[128:]), "do not map exactly its text columns ['proto']"),
            (lambda p: _reframe(p, _set("texts", {"proto": [[1]] + ["tcp"] * 15})), "texts are not all strings"),
            (lambda p: _reframe(p, _set("texts", {"proto": ["tcp"] * 15 + [None]})), "texts are not all strings"),
            (lambda p: _reframe(p, _set("texts", {"proto": [6] * 16})), "texts are not all strings"),
            (lambda p: _reframe(p, lambda h: h.pop("type")), "expected interval frame, got None"),
            (lambda p: p[:4] + b"\xff" + p[5:], "malformed frame header"),
            (lambda p: struct.pack(">I", 200_000) + b"[" * 100_000 + b"]" * 100_000, "malformed frame header: RecursionError"),
            (lambda p: struct.pack(">I", 2) + b"[]" + p[4 + struct.unpack_from(">I", p)[0] :], "malformed frame header: a JSON list"),
        ],
    )
    def test_malformed_payload_raises_retryable_transport_error(self, corrupt, message):
        payload = _payload(_interval({"x": np.arange(16.0), "proto": ["tcp"] * 16}))
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._interval_of(*collab._decode_frame(corrupt(payload)), _CODEC_SCHEMA)
        assert isinstance(excinfo.value, collab._RETRYABLE)

    @pytest.mark.parametrize(
        "edit",
        [
            # the body holds x (bytes 0-23) and the rows (24-47)
            lambda p: _reframe(p, cut=lambda b: b[:40]),
            lambda p: _reframe(p, cut=lambda b: b[:16] + b[24:]),
            lambda p: _reframe(p, cut=lambda b: b[:24]),
            lambda p: _reframe(p, lambda h: h.pop("file")),
            lambda p: _reframe(p, _set("rows", [1, 2, 3]), cut=lambda b: b[:24]),
            lambda p: _reframe(p, _set("file", 7)),
        ],
        ids=["origin", "column", "no-rows", "no-file", "rows-in-the-header", "file-not-a-string"],
    )
    def test_inconsistent_interval_frame_raises_transport_error(self, edit):
        payload = _payload(_interval({"x": np.arange(3.0)}))
        interval = collab._interval_of(*collab._decode_frame(payload), _CODEC_SCHEMA)
        assert _lists(interval) == {"columns": {"x": [0.0, 1.0, 2.0]}, "truth": [-1, -1, -1], "file_id": "f", "rows": [1, 2, 3]}
        with pytest.raises(TransportError):
            collab._interval_of(*collab._decode_frame(edit(payload)), _CODEC_SCHEMA)

    @pytest.mark.parametrize(
        "n, message",
        [
            ("1", "result frame counts n='1' records"),
            (-1, "result frame counts n=-1 records"),
            (None, "result frame counts n=None records"),
            (2, "result frame body holds 1 bytes, its header declares 2"),
            (0, "result frame body holds 1 bytes, its header declares 0"),
        ],
    )
    def test_bad_result_frame_raises_retryable_transport_error(self, n, message):
        header = {"type": "result"} if n is None else {"type": "result", "n": n}
        payload = collab._encode_frame(header, np.ones(1, dtype=np.int8))[4:]
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._body(*collab._decode_frame(payload), "result", collab._I1)
        assert isinstance(excinfo.value, collab._RETRYABLE)

    @pytest.mark.parametrize(
        "verdicts, n, message",
        [
            ([1, 0], 3, "holds 2 verdicts for a stream of 3 records"),
            ([1, 0, 2], 3, "verdicts are not all 0 or 1"),
            ([0], 0, "holds 1 verdicts for a stream of 0 records"),
        ],
    )
    def test_result_checked_against_the_stream_length(self, verdicts, n, message):
        collab._check_result(np.array([1, 0, 0], dtype=np.int8), 3)
        collab._check_result(np.empty(0, dtype=np.int8), 0)
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._check_result(np.array(verdicts, dtype=np.int8), n)
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
        """The node's end checks the end frame after an interval of 3 records."""
        interval = collab._interval_of(*collab._decode_frame(_payload(_interval({"x": np.arange(3.0)}))), _CODEC_SCHEMA)
        collab._check_end(*collab._decode_frame(collab._encode_frame({"type": "end", "count": 3})[4:]), len(interval))
        with pytest.raises(TransportError, match=re.escape(message)) as excinfo:
            collab._check_end(*collab._decode_frame(collab._encode_frame(end)[4:]), len(interval))
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

    def test_explicit_assignment_checked_when_built(self):
        with pytest.raises(SimulationError, match="^explicit assignment requires explicit_assignment in the config$"):
            _cfg(assignment="explicit")
        with pytest.raises(SimulationError, match="^explicit assignment names unknown node 'Z'$"):
            _cfg(assignment="explicit", explicit_assignment=("A", "Z", "Y"))
        assert _cfg(assignment="explicit", explicit_assignment=()).explicit_assignment == ()

    def test_w_range_checked_unless_overridden(self):
        with pytest.raises(Exception):
            _cfg(w=9.0)
        assert _cfg(w=9.0, allow_any_w=True).w == 9.0


class TestRunSimulation:
    def test_single_node_equals_plain_evaluation(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(nodes=("solo",))
        streams = replay(sim_records, cfg, schema)
        outcome = run_simulation(streams, profile, pp, cfg)

        scores = profile.score_matrix(pp.apply_records(sim_records))
        flagged = classify_scores(scores, profile, DetectionConfig(2.0))
        plain = confusion(flagged.astype(int), [r.truth for r in sim_records])
        assert outcome.aggregate_report.counts == plain
        assert outcome.per_node_reports["solo"].counts == plain
        assert not outcome.partial

    def test_aggregate_is_sum_of_nodes(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg()
        streams = replay(sim_records, cfg, schema)
        outcome = run_simulation(streams, profile, pp, cfg)
        total = ConfusionCounts(0, 0, 0, 0)
        for node in cfg.nodes:
            total = total + outcome.node_results[node].counts
        assert outcome.aggregate_report.counts == total

    def test_partition_invariance(self, sim_records, schema, fitted):
        pp, profile = fitted
        one = run_simulation(
            replay(sim_records, _cfg(nodes=("solo",)), schema), profile, pp, _cfg(nodes=("solo",))
        )
        three_cfg = _cfg(assignment="hash-of-source")
        three = run_simulation(replay(sim_records, three_cfg, schema), profile, pp, three_cfg)
        assert three.aggregate_report.counts == one.aggregate_report.counts
        # the multiset of (record origin, verdict) pairs is topology-independent
        def verdict_multiset(outcome, store_cfg):
            streams = _streams(replay(sim_records, store_cfg, schema), store_cfg, ())
            pairs = []
            for node in store_cfg.nodes:
                origins = [(streams[node]["file_id"], row) for row in streams[node]["rows"]]
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
        assert a.aggregate_report.counts == b.aggregate_report.counts
        assert a.per_node_reports == b.per_node_reports
        for node in inproc_cfg.nodes:
            assert_same_verdicts(a.node_results[node].verdicts, b.node_results[node].verdicts)

    def test_loopback_agrees_with_in_process_pca(self, sim_records, schema, fitted_pca):
        pp, profile = fitted_pca
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport, assignment="hash-of-source")
            outcomes[transport] = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        a, b = outcomes["in-process"], outcomes["loopback-socket"]
        assert a.per_node_reports == b.per_node_reports
        for node in ("A", "B", "C"):
            assert_same_verdicts(a.node_results[node].verdicts, b.node_results[node].verdicts)
        flagged = classify_scores(profile.score_matrix(pp.apply_records(sim_records)), profile, DetectionConfig(2.0))
        assert a.aggregate_report.counts == confusion(flagged.astype(int), [r.truth for r in sim_records])

    @pytest.mark.parametrize("text, reason", [("fast", "non-numeric"), ("inf", "non-finite")])
    def test_bad_modeled_value_fails_alike_on_both_transports(self, sim_records, sim_capture, schema, fitted, text, reason, tmp_path):
        """A bad modeled value fails the read with :class:`ParseError`: the
        records adapter's when it is built, and the run's, through the
        reader, on both transports."""
        pp, profile = fitted
        records = _with_value(sim_records, schema, 37, "tcprtt", text)
        file_id, row = records[37].origin
        lines = sim_capture.read_text().splitlines()
        fields = lines[row].split(",")  # lines[0] is the header
        fields[schema.index_of("tcprtt")] = text
        lines[row] = ",".join(fields)
        capture = tmp_path / "bad.csv"
        capture.write_text("\n".join(lines) + "\n")
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            with pytest.raises(ParseError) as excinfo:
                replay(records, cfg, schema)
            assert str(excinfo.value) == f"{file_id}, row {row}: column 'tcprtt': {reason} value {text!r}"
            with pytest.raises(ParseError) as excinfo:
                run_simulation(_capture_source(capture, pp, cfg), profile, pp, cfg)
            assert str(excinfo.value) == f"bad.csv, row {row}: column 'tcprtt': {reason} value {text!r}"

    def test_first_bad_value_in_file_order_is_named(self, sim_records, schema):
        """Round-robin puts record 400 and record 401, both with a bad value,
        on different nodes. The read names record 400's value, the first in
        file order, whichever node comes first in the topology, on both
        transports: it fails before any node runs."""
        records = _with_value(_with_value(sim_records, schema, 400, "tcprtt", "fast"), schema, 401, "tcprtt", "slow")
        file_id, row = records[400].origin
        for nodes in (("A", "B"), ("B", "A")):
            for transport in TRANSPORTS:
                with pytest.raises(ParseError) as excinfo:
                    replay(records, _cfg(nodes=nodes, transport=transport), schema)
                assert str(excinfo.value) == f"{file_id}, row {row}: column 'tcprtt': non-numeric value 'fast'"

    def test_bad_unmodeled_value_changes_no_verdict(self, sim_records, schema, fitted):
        """Reading only the modeled columns never parses the bad ``sbytes``."""
        pp, profile = fitted
        assert "sbytes" not in pp.columns
        records = _with_value(sim_records, schema, 37, "sbytes", "fast")
        clean = run_simulation(replay(sim_records, _cfg(), schema), profile, pp, _cfg())
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            outcome = run_simulation(_source(batch_of_records(records, schema, pp.columns)), profile, pp, cfg)
            assert outcome.per_node_reports == clean.per_node_reports
            for node in cfg.nodes:
                assert_same_verdicts(outcome.node_results[node].verdicts, clean.node_results[node].verdicts)

    def test_post_run_store_audit(self, sim_records, schema, fitted):
        pp, profile = fitted
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            (batch,) = replay(sim_records, cfg, schema)()
            before = _lists(batch)
            outcome = run_simulation(_source(batch), profile, pp, cfg)
            assert _lists(batch) == before  # nothing mutated or lost
            assert outcome.n_records == sum(r.n_records for r in outcome.node_results.values()) == len(sim_records)

    def test_injected_failure_excludes_partition(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("B",), retry_budget=1)
        streams = replay(sim_records, cfg, schema)
        outcome = run_simulation(streams, profile, pp, cfg)
        assert outcome.failed_nodes == ("B",)
        assert outcome.partial
        assert outcome.node_results["B"].failed
        assert outcome.node_results["B"].attempts == 2  # initial + 1 retry
        assert "B" not in outcome.per_node_reports
        expected = outcome.node_results["A"].counts + outcome.node_results["C"].counts
        assert outcome.aggregate_report.counts == expected
        # the crash leaves the healthy nodes' results untouched
        intact = run_simulation(replay(sim_records, _cfg(), schema), profile, pp, _cfg())
        for node in ("A", "C"):
            assert outcome.node_results[node].counts == intact.node_results[node].counts
            assert_same_verdicts(outcome.node_results[node].verdicts, intact.node_results[node].verdicts)

    def test_failure_over_loopback(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(transport="loopback-socket", fail_nodes=("C",), retry_budget=0)
        streams = replay(sim_records, cfg, schema)
        outcome = run_simulation(streams, profile, pp, cfg)
        assert outcome.failed_nodes == ("C",)
        healthy = run_simulation(
            replay(sim_records, _cfg(fail_nodes=("C",)), schema), profile, pp, _cfg(fail_nodes=("C",))
        )
        assert outcome.aggregate_report.counts == healthy.aggregate_report.counts

    def test_retry_recovers_in_process(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab._classify
        crashed = []
        cfg = _cfg()
        first_of_b = sim_records[1].origin  # round-robin: B's first record

        def flaky(interval, *args):
            if _origins(interval)[0] == first_of_b and not crashed:
                crashed.append(True)
                raise OSError("transient failure")
            return real(interval, *args)

        monkeypatch.setattr(collab, "_classify", flaky)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert crashed
        assert not outcome.partial and outcome.failed_nodes == ()
        assert outcome.node_results["B"].attempts == 2
        assert not outcome.node_results["B"].failed
        assert outcome.node_results["B"].errors == ("OSError: transient failure",)
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts
        assert outcome.per_node_reports == clean.per_node_reports

    @pytest.mark.parametrize("retried", [False, True])
    def test_one_accept_per_attempt(self, sim_records, schema, fitted, monkeypatch, retried):
        """Each pass accepts one connection for each node it streams, with no
        poll timeout on the listener, and nothing else accepts: no wake-up
        connection. A node's retry is one more pass and one more accept."""
        pp, profile = fitted
        real, real_send = collab.socket.socket.accept, collab._Channel.send
        returns, sent_bad = [], []

        def counting(sock):
            accepted = real(sock)
            returns.append(sock.gettimeout())
            return accepted

        def flaky(channel, header, *arrays):
            if retried and header.get("type") == "hello" and header["node"] == "B" and not sent_bad:
                sent_bad.append(True)
                header = {**header, "type": "capture"}
            real_send(channel, header, *arrays)

        monkeypatch.setattr(collab.socket.socket, "accept", counting)
        monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        assert not outcome.partial
        assert [r.attempts for r in outcome.node_results.values()] == [1, 1 + retried, 1]
        connections = sum(r.attempts for r in outcome.node_results.values())
        assert returns == [None] * connections == [None] * (3 + retried)

    @pytest.mark.parametrize("retried", [False, True])
    def test_threads_started(self, sim_records, schema, fitted, monkeypatch, retried):
        """On both transports a pass runs on the calling thread and starts
        no thread, over loopback whether or not a node is retried."""
        pp, profile = fitted
        real_start, real_send, started, sent_bad = threading.Thread.start, collab._Channel.send, [], []

        def counting(thread):
            started.append(thread)
            real_start(thread)

        def flaky(channel, header, *arrays):
            if retried and header.get("type") == "hello" and header["node"] == "B" and not sent_bad:
                sent_bad.append(True)
                header = {**header, "type": "capture"}
            real_send(channel, header, *arrays)

        monkeypatch.setattr(threading.Thread, "start", counting)
        monkeypatch.setattr(collab._Channel, "send", flaky)
        for transport in TRANSPORTS:
            started.clear()
            cfg = _cfg(transport=transport)
            outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
            assert not outcome.partial and tuple(outcome.node_results) == cfg.nodes
            assert started == []
            if transport == "loopback-socket":
                assert [r.attempts for r in outcome.node_results.values()] == [1, 1 + retried, 1]
        assert bool(sent_bad) == retried

    def test_eight_nodes_each_accept_their_own_connection(self, sim_records, schema, fitted):
        """Eight nodes each open a connection in turn, and each attempt
        accepts the connection it made: a crossed one would fail the
        store's hello check and show up as a retry."""
        pp, profile = fitted
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(nodes=tuple("ABCDEFGH"), transport=transport, interval_size=16)
            outcomes[transport] = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        loopback = outcomes["loopback-socket"]
        assert [r.attempts for r in loopback.node_results.values()] == [1] * 8
        assert not any(r.errors for r in loopback.node_results.values())
        for node in cfg.nodes:
            assert_same_verdicts(loopback.node_results[node].verdicts, outcomes["in-process"].node_results[node].verdicts)

    @pytest.mark.parametrize("case", ["clean", "retried store error", "fatal PreprocessError"])
    def test_loopback_leaves_no_thread_behind(self, sim_records, schema, fitted, monkeypatch, case):
        """A pass leaves no thread running, whether its nodes succeed, one
        is retried or a node hits a fatal data error."""
        pp, profile = fitted
        records, real, sent_bad = sim_records, collab._Channel.send, []
        retried = case == "retried store error"
        if retried:

            def flaky(channel, header, *arrays):
                if header.get("type") == "hello" and header["node"] == "B" and not sent_bad:
                    sent_bad.append(True)
                    header = {**header, "type": "capture"}
                real(channel, header, *arrays)

            monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket")
        (batch,) = replay(records, cfg, schema)()
        if case == "fatal PreprocessError":
            # No read makes a non-finite value, but apply still rejects one on the node.
            tcprtt = batch.columns["tcprtt"].copy()
            tcprtt[16] = np.inf  # round-robin: B's sixth record
            batch = replace(batch, columns={**batch.columns, "tcprtt": tcprtt})
        before = threading.enumerate()
        if case == "fatal PreprocessError":
            with pytest.raises(PreprocessError):
                run_simulation(_source(batch), profile, pp, cfg)
        else:
            outcome = run_simulation(_source(batch), profile, pp, cfg)
            assert not outcome.partial
            assert [outcome.node_results[n].attempts for n in cfg.nodes] == [1, 1 + retried, 1]
        assert threading.enumerate() == before

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
        assert not any(r.failed for r in outcome.node_results.values())
        assert sorted(r.errors for r in outcome.node_results.values()) == [(), (), ("OSError: connection refused",)]
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts
        assert outcome.per_node_reports == clean.per_node_reports

    def test_store_error_recorded_and_retried(self, sim_records, schema, fitted, monkeypatch):
        """A bad hello fails B's attempt on the store's end, with that one reason."""
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
        assert b.errors == ("TransportError: expected hello frame, got 'capture'",)
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.node_results["A"].errors == ()
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts
        assert outcome.per_node_reports == clean.per_node_reports

    @pytest.mark.parametrize(
        "kind, edit, reason",
        [
            ("end", lambda header, arrays: header.pop("count"), "TransportError: end frame counts None records, 200 received"),
            ("hello", lambda header, arrays: header.__setitem__("node", "Z"), "TransportError: hello frame names node 'Z'"),
            ("result", lambda header, arrays: arrays.__setitem__(0, np.full_like(arrays[0], 7)), "TransportError: result frame verdicts are not all 0 or 1"),
        ],
    )
    def test_bad_peer_frame_retried(self, sim_records, schema, fitted, monkeypatch, kind, edit, reason):
        """A peer frame that does not fit its layout is a retryable
        TransportError on the end that reads it, never a crash: the node's
        end for the end frame, the store's for the hello and the result."""
        pp, profile = fitted
        real = collab._Channel.send
        sent_bad = []

        def flaky(channel, header, *arrays):
            if header["type"] == kind and not sent_bad:
                sent_bad.append(True)
                header, arrays = dict(header), list(arrays)
                edit(header, arrays)
            real(channel, header, *arrays)

        monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket", nodes=("A", "B"), interval_size=64)
        outcome = run_simulation(replay(sim_records[:400], cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records[:400], cfg, schema), profile, pp, cfg)
        assert sent_bad and not outcome.partial
        assert sorted(r.attempts for r in outcome.node_results.values()) == [1, 2]
        intact, (retried,) = sorted(r.errors for r in outcome.node_results.values())
        assert intact == ()
        assert retried == reason
        for node in cfg.nodes:
            assert_same_verdicts(outcome.node_results[node].verdicts, clean.node_results[node].verdicts)
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts

    def test_frame_far_larger_than_an_unread_connection_holds(self, sim_records, schema, fitted):
        """One interval of 2,000 records whose service texts are 8 KiB each,
        about 16.5 MB on the wire in 5 frames, far more than a loopback
        connection holds unread: the store's end sends the interval frame in
        pieces that the node's end reads as they come, so the one attempt
        completes and agrees with the in-process run."""
        pp, profile = fitted
        service = schema.index_of("service")
        records = []
        for i in range(2000):
            record = sim_records[i % len(sim_records)]
            values = list(record.values)
            values[service] = f"{i:04d}".ljust(8192, "s")
            records.append(FlowRecord(tuple(values), record.truth, ("big.csv", i + 1)))
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(nodes=("solo",), interval_size=2000, transport=transport, retry_budget=0)
            outcomes[transport] = run_simulation(replay(records, cfg, schema), profile, pp, cfg)
        solo = outcomes["loopback-socket"].node_results["solo"]
        assert (solo.attempts, solo.errors, solo.frames) == (1, (), 5)
        assert solo.wire_bytes > 16_000_000
        assert_same_verdicts(solo.verdicts, outcomes["in-process"].node_results["solo"].verdicts)

    def test_empty_node_reports_no_counts(self, sim_records, schema, fitted):
        """Node C has no records: on both transports it succeeds at once
        with no verdicts and no counts, and has no report."""
        pp, profile = fitted
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport, assignment="explicit", explicit_assignment=("A", "B", "A", "B"))
            outcome = run_simulation(replay(sim_records[:4], cfg, schema), profile, pp, cfg)
            c = outcome.node_results["C"]
            assert (c.attempts, c.failed, c.errors, c.counts, c.n_records) == (1, False, (), None, 0)
            assert "C" not in outcome.per_node_reports and not outcome.partial

    @pytest.mark.parametrize("text", [[1], None, 6], ids=["list", "null", "number"])
    def test_non_string_field_text_retried(self, sim_records, schema, fitted, monkeypatch, text):
        """An interval frame whose field texts are not all strings is a
        retryable TransportError on the node's end, not a data error."""
        pp, profile = fitted
        real = collab._interval_frames
        sent_bad = []
        cfg = _cfg(transport="loopback-socket")
        of_b = _origins_of(replay(sim_records, cfg, schema), cfg, "B")

        def editing(interval):
            for data in real(interval):
                if _origins(interval)[0] in of_b and not sent_bad:
                    sent_bad.append(True)
                    payload = _reframe(data[4:], lambda header: header["texts"]["proto"].__setitem__(0, text))
                    data = struct.pack(">I", len(payload)) + payload
                yield data

        monkeypatch.setattr(collab, "_interval_frames", editing)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert sent_bad and not outcome.partial
        assert [outcome.node_results[n].attempts for n in cfg.nodes] == [1, 2, 1]
        assert outcome.node_results["B"].errors == ("TransportError: interval frame texts are not all strings",)
        for node in cfg.nodes:
            assert_same_verdicts(outcome.node_results[node].verdicts, clean.node_results[node].verdicts)
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts

    @pytest.mark.parametrize("always", [False, True])
    def test_truncated_stream_retried(self, sim_records, schema, fitted, monkeypatch, always):
        pp, profile = fitted
        real = collab._interval_frames
        dropped = []
        cfg = _cfg(transport="loopback-socket", retry_budget=1)
        of_b = _origins_of(replay(sim_records, cfg, schema), cfg, "B")

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
            assert len(b.errors) == 2
            assert all(error.startswith("TransportError: end frame counts 200 records, ") for error in b.errors)
            return
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert not b.failed and not outcome.partial
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts
        assert_same_verdicts(b.verdicts, clean.node_results["B"].verdicts)

    @pytest.mark.parametrize("always", [False, True])
    def test_corrupt_frame_body_retried(self, sim_capture, fitted, monkeypatch, always):
        """An interval frame that loses its last body byte (its length prefix
        still matching) fails to decode on the node's end, which retries."""
        pp, profile = fitted
        real = collab._interval_frames
        corrupted = []
        cfg = _cfg(transport="loopback-socket", retry_budget=1, interval_size=16)
        of_b = _origins_of(_capture_source(sim_capture, pp, cfg), cfg, "B")

        def corrupting(interval):
            for data in real(interval):
                if _origins(interval)[0] in of_b and (always or not corrupted):
                    corrupted.append(True)
                    data = struct.pack(">I", len(data) - 5) + data[4:-1]
                yield data

        monkeypatch.setattr(collab, "_interval_frames", corrupting)
        outcome = run_simulation(_capture_source(sim_capture, pp, cfg), profile, pp, cfg)
        monkeypatch.undo()
        b = outcome.node_results["B"]
        assert corrupted and b.attempts == 2
        if always:
            assert b.failed and outcome.failed_nodes == ("B",)
            assert len(b.errors) == 2
            assert all(error.startswith("TransportError: ") and "frame body holds" in error for error in b.errors)
            return
        clean = run_simulation(_capture_source(sim_capture, pp, cfg), profile, pp, cfg)
        assert not b.failed and not outcome.partial
        assert outcome.aggregate_report.counts == clean.aggregate_report.counts
        assert_same_verdicts(b.verdicts, clean.node_results["B"].verdicts)
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]

    def test_all_failed_rejected(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("A", "B", "C"), retry_budget=0)
        streams = replay(sim_records, cfg, schema)
        with pytest.raises(SimulationError, match="no healthy node"):
            run_simulation(streams, profile, pp, cfg)

    def test_digest_mismatch_rejected(self, sim_records, schema, fitted, split):
        from netanom.preprocess import fit_preprocess

        _, profile = fitted
        train, _ = split
        other_pp = fit_preprocess(train, schema, "pca:3")
        cfg = _cfg()
        streams = replay(sim_records, cfg, schema)
        with pytest.raises(Exception, match="digest|bound"):
            run_simulation(streams, profile, other_pp, cfg)

    def test_unlabeled_records_rejected(self, schema, fitted):
        pp, profile = fitted
        width = schema.width
        rec = FlowRecord(tuple(["0"] * width), None, ("f", 1))
        cfg = _cfg(nodes=("solo",))
        store = replay([rec], cfg, schema)
        with pytest.raises(SimulationError, match="truth"):
            run_simulation(store, profile, pp, cfg)

    def test_first_unlabeled_row_in_file_order(self, sim_records, schema, fitted):
        """Round-robin puts data row 2 on node B and row 3 on node A: the
        error names row 2, the file's first unlabeled row, on both transports."""
        pp, profile = fitted
        records = [FlowRecord(r.values, None if i in (1, 2) else r.truth, ("u.csv", i + 1)) for i, r in enumerate(sim_records[:10])]
        for transport in TRANSPORTS:
            cfg = _cfg(nodes=("A", "B"), transport=transport)
            with pytest.raises(SimulationError, match=re.escape("unlabeled row: u.csv row 2;")):
                run_simulation(replay(records, cfg, schema), profile, pp, cfg)

    def test_store_without_the_modeled_columns_rejected(self, sim_records, schema, fitted):
        pp, profile = fitted
        source = _source(batch_of_records(sim_records[:30], schema, ("srcip", "tcprtt")))
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            with pytest.raises(SimulationError, match="lacks the modeled columns"):
                run_simulation(source, profile, pp, cfg)

    def test_per_node_w_overrides(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(node_w={"A": 3.0})
        streams = replay(sim_records, cfg, schema)
        outcome = run_simulation(streams, profile, pp, cfg)
        assert outcome.per_node_reports["A"].w == 3.0
        assert outcome.per_node_reports["B"].w == 2.0
        assert outcome.aggregate_report.w is None  # mixed w across nodes


class TestRunnerProperty:
    @settings(max_examples=10)
    @given(data=st.data())
    def test_transports_agree_on_random_topologies(self, data, sim_records, sim_capture, schema, fitted):
        pp, profile = fitted
        records = sim_records[:120]
        # Batches of every column, as the replay adapter gives them, or of
        # the modeled columns, as `netanom simulate` reads them; numeric
        # columns are float64 arrays either way, which travel as buffers.
        batches = data.draw(st.booleans(), label="column batches")
        n_nodes = data.draw(st.integers(1, 4), label="nodes")
        nodes = tuple("ABCD"[:n_nodes])
        explicit = data.draw(
            st.lists(st.sampled_from(nodes), min_size=len(records), max_size=len(records)),
            label="explicit",
        )
        interval = data.draw(st.integers(1, 64), label="interval_size")
        # 400 bytes holds a one-record interval frame (at most 299) and the
        # result frame for 120 records (149). A 64-record interval frame
        # takes about 5,600, so most draws split intervals across frames.
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
                source = _capture_source(sim_capture, pp, cfg) if batches else replay(records, cfg, schema)
                held = [(name, column) for batch in source() for name, column in batch.columns.items()]
                assert all(isinstance(column, np.ndarray) == (schema.kind_of(name) == "numeric") for name, column in held)
                outcomes[transport] = run_simulation(source, profile, pp, cfg)
        a, b = outcomes["in-process"], outcomes["loopback-socket"]
        for node in nodes:
            assert_same_verdicts(a.node_results[node].verdicts, b.node_results[node].verdicts)
            assert a.node_results[node].counts == b.node_results[node].counts
        assert a.per_node_reports == b.per_node_reports
        assert a.aggregate_report == b.aggregate_report
        assert not b.failed_nodes

        flagged = classify_scores(profile.score_matrix(pp.apply_records(records)), profile, DetectionConfig(2.0))
        assert a.aggregate_report.counts == confusion(flagged.astype(int), [r.truth for r in records])


#: The error each injected fault leaves in the faulted attempt's ``errors``
#: entry, by fault kind.
_FAULT_REASONS = {
    "drop": re.compile(r"frame body holds|runs past the"),
    "type": re.compile(r"got 'bogus'"),
    "close": re.compile(r"connection closed"),
}


def _faulted(data, fault):
    """The frame ``data`` with ``fault`` applied: its last payload byte
    dropped (the length prefix kept consistent) or its type changed."""
    if fault == "drop":
        return struct.pack(">I", len(data) - 5) + data[4:-1]
    payload = _reframe(data[4:], _set("type", "bogus"))
    return struct.pack(">I", len(payload)) + payload


class TestPasses:
    """A run reads the capture once per round of attempts: a clean run calls
    its source once, a round of retries once more, and a round with no node
    left to stream not at all."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_clean_run_calls_the_source_once(self, sim_capture, fitted, transport):
        pp, profile = fitted
        cfg = _cfg(transport=transport, interval_size=16)
        source, calls = _counted(_capture_source(sim_capture, pp, cfg))
        outcome = run_simulation(source, profile, pp, cfg)
        assert len(calls) == 1
        assert [r.attempts for r in outcome.node_results.values()] == [1, 1, 1]
        assert outcome.n_records == sum(r.n_records for r in outcome.node_results.values()) == 120

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_one_shot_fault_makes_one_more_pass(self, sim_capture, fitted, transport):
        """A fault on B's first interval: B alone streams in a second pass,
        and the run equals a clean one."""
        pp, profile = fitted
        cfg = _cfg(transport=transport, interval_size=16)
        clean = run_simulation(_capture_source(sim_capture, pp, cfg), profile, pp, cfg)
        of_b = _origins_of(_capture_source(sim_capture, pp, cfg), cfg, "B")
        source, calls = _counted(_capture_source(sim_capture, pp, cfg))
        real, fired = collab._classify, []

        def flaky(interval, *args):  # the node classifies on both transports
            if _origins(interval)[0] in of_b and not fired:
                fired.append(True)
                raise OSError("injected fault")
            return real(interval, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(collab, "_classify", flaky)
            outcome = run_simulation(source, profile, pp, cfg)
        assert len(calls) == 2
        assert [outcome.node_results[n].attempts for n in cfg.nodes] == [1, 2, 1]
        assert outcome.node_results["B"].errors == ("OSError: injected fault",)
        assert outcome.per_node_reports == clean.per_node_reports and not outcome.partial
        for node in cfg.nodes:
            assert_same_verdicts(outcome.node_results[node].verdicts, clean.node_results[node].verdicts)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_crashing_nodes_read_nothing(self, sim_capture, fitted, transport):
        """``fail_nodes`` crash before a pass reads: with B crashing, only the
        first pass reads; with every node crashing, none does."""
        pp, profile = fitted
        cfg = _cfg(transport=transport, fail_nodes=("B",), retry_budget=2)
        source, calls = _counted(_capture_source(sim_capture, pp, cfg))
        outcome = run_simulation(source, profile, pp, cfg)
        assert len(calls) == 1
        assert [outcome.node_results[n].attempts for n in cfg.nodes] == [1, 3, 1]
        assert outcome.failed_nodes == ("B",) and outcome.n_records == 120
        cfg = _cfg(transport=transport, fail_nodes=cfg.nodes, retry_budget=2)
        source, calls = _counted(_capture_source(sim_capture, pp, cfg))
        with pytest.raises(SimulationError, match="no healthy node"):
            run_simulation(source, profile, pp, cfg)
        assert calls == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_pass_whose_every_node_failed_reads_no_further(self, sim_records, schema, fitted, monkeypatch, transport):
        """On both transports the store drops a node as its attempt fails."""
        pp, profile = fitted
        read = []

        def source():
            for start in range(0, 60, 20):
                read.append(start)
                yield batch_of_records(sim_records[start : start + 20], schema, pp.columns)

        def failing(interval, *args):
            raise OSError("injected fault")

        monkeypatch.setattr(collab, "_classify", failing)
        cfg = _cfg(nodes=("solo",), interval_size=5, retry_budget=0, transport=transport)
        with pytest.raises(SimulationError, match="no healthy node"):
            run_simulation(source, profile, pp, cfg)
        assert read == [0]  # the first interval failed the only node: the second batch is never read


class TestFaultInjection:
    """ROADMAP item 8: a fault injected at any frame position of one node is
    retried in the next pass, names its cause, and leaves the run as a
    clean one leaves it; a fault on every attempt fails the node alone."""

    NODES = ("A", "B", "C")  # round-robin over 120 records: 40 each, 3 intervals of at most 16

    @staticmethod
    def _run(sim_capture, pp, profile, transport, retry_budget):
        """A function that runs ``sim_capture``'s nodes, and the list of the
        passes its source has started."""
        cfg = _cfg(nodes=TestFaultInjection.NODES, interval_size=16, transport=transport, retry_budget=retry_budget)
        source, passes = _counted(_capture_source(sim_capture, pp, cfg))
        return passes, lambda: run_simulation(source, profile, pp, cfg)

    def _check(self, outcome, clean, node, always, retry_budget, reason, passes):
        """``outcome`` against the ``clean`` run, after a fault on ``node``
        once or on every attempt, in ``passes`` passes; each entry of its
        errors matches ``reason``."""
        faulted = outcome.node_results[node]
        others = [n for n in self.NODES if n != node]
        assert passes == (retry_budget + 1 if always else 2)
        assert [outcome.node_results[n].attempts for n in others] == [1, 1]
        assert not any(outcome.node_results[n].errors for n in others)
        assert all(reason.search(error) for error in faulted.errors), faulted.errors
        for n in others if always else self.NODES:
            assert_same_verdicts(outcome.node_results[n].verdicts, clean.node_results[n].verdicts)
            assert outcome.node_results[n].counts == clean.node_results[n].counts
        if always:
            assert faulted.failed and faulted.attempts == len(faulted.errors) == retry_budget + 1
            assert outcome.partial and outcome.failed_nodes == (node,)
            assert outcome.per_node_reports == {n: clean.per_node_reports[n] for n in others}
            return
        assert not faulted.failed and faulted.attempts == 2 and len(faulted.errors) == 1
        assert not outcome.partial
        assert outcome.per_node_reports == clean.per_node_reports
        assert outcome.aggregate_report == clean.aggregate_report

    def _loopback_fault(self, sim_capture, fitted, node, frame, fault, always, retry_budget):
        """Run the loopback nodes with ``fault`` on ``node``'s ``frame``
        (a kind and, for an interval, its index on the connection), once or
        on every attempt, and check the run."""
        pp, profile = fitted
        passes, run = self._run(sim_capture, pp, profile, "loopback-socket", retry_budget)
        clean = run()
        real_send, real_recv = collab._Channel.send_encoded, collab._Channel.recv
        kind, index = frame
        # Each connection's node, by either end's channel: the node's sends
        # the hello, the store's receives it.
        owner, intervals, fired = {}, Counter(), []

        def receiving(channel):
            header, body = real_recv(channel)
            if header.get("type") == "hello":
                owner[channel] = header.get("node")
            return header, body

        def injecting(channel, data):
            header = collab._decode_frame(data[4:])[0]
            if header["type"] == "hello":
                owner[channel] = header["node"]
            seen = intervals[channel]
            intervals[channel] += header["type"] == "interval"
            hit = owner.get(channel) == node and header["type"] == kind and (kind != "interval" or seen == index)
            if hit and (always or not fired):
                fired.append(kind)
                if fault == "close":
                    channel.sock.close()
                    raise ConnectionAbortedError("connection closed in place of the frame")
                data = _faulted(data, fault)
            real_send(channel, data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(collab._Channel, "send_encoded", injecting)
            mp.setattr(collab._Channel, "recv", receiving)
            outcome = run()
        assert len(fired) == (retry_budget + 1 if always else 1)
        self._check(outcome, clean, node, always, retry_budget, _FAULT_REASONS[fault], len(passes) - 1)

    @settings(max_examples=25, deadline=None)
    @given(
        node=st.sampled_from(NODES),
        frame=st.sampled_from([("interval", 0), ("interval", 1), ("interval", 2), ("end", 0), ("result", 0)]),
        fault=st.sampled_from(sorted(_FAULT_REASONS)),
        always=st.booleans(),
        retry_budget=st.integers(1, 2),
    )
    def test_loopback_fault_at_any_frame(self, sim_capture, fitted, node, frame, fault, always, retry_budget):
        self._loopback_fault(sim_capture, fitted, node, frame, fault, always, retry_budget)

    @pytest.mark.parametrize("always", [False, True], ids=["once", "always"])
    @pytest.mark.parametrize("node", NODES)
    def test_connection_closed_in_place_of_the_result_frame(self, sim_capture, fitted, node, always):
        """The node's end closing in place of its result frame raises an
        ``OSError`` (``ConnectionAbortedError``) on the calling thread,
        which is retried like any other transport fault. The property above
        draws this case too rarely to be sure to catch its loss (CHANGES
        FOUND 60)."""
        self._loopback_fault(sim_capture, fitted, node, ("result", 0), "close", always, retry_budget=1)

    @settings(max_examples=25, deadline=None)
    @given(node=st.sampled_from(NODES), at=st.integers(0, 2), always=st.booleans(), retry_budget=st.integers(1, 2))
    def test_in_process_fault_at_any_interval(self, sim_capture, fitted, node, at, always, retry_budget):
        pp, profile = fitted
        passes, run = self._run(sim_capture, pp, profile, "in-process", retry_budget)
        clean = run()
        cfg = _cfg(nodes=self.NODES, interval_size=16)
        ours = _origins_of(_capture_source(sim_capture, pp, cfg), cfg, node)
        real = collab._classify
        seen, fired = Counter(), []  # the node's intervals classified in each pass

        def injecting(interval, *args):
            if _origins(interval)[0] in ours:
                k = seen[len(passes)]
                seen[len(passes)] += 1
                if k == at and (always or not fired):
                    fired.append(k)
                    raise OSError(f"injected fault at interval {k}")
            return real(interval, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(collab, "_classify", injecting)
            outcome = run()
        assert len(fired) == (retry_budget + 1 if always else 1)
        reason = re.compile(re.escape(f"OSError: injected fault at interval {at}"))
        self._check(outcome, clean, node, always, retry_budget, reason, len(passes) - 1)
