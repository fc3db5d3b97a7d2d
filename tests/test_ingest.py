import contextlib
import csv
import io
import json
import math
import os
import pickle
import signal
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netanom import ingest
from netanom.ingest import (
    ColumnSpec,
    FeatureSchema,
    FlowBatch,
    FlowRecord,
    IngestError,
    ParseError,
    SampleError,
    SamplePlan,
    SchemaError,
    batch_of_records,
    default_schema,
    iter_flow_batches,
    load_schema,
    parse_flow_csv,
    save_schema,
    schema_from_doc,
    schema_to_doc,
    stratified_sample,
)

TINY = FeatureSchema(
    columns=(
        ColumnSpec("proto", "categorical"),
        ColumnSpec("bytes", "numeric"),
        ColumnSpec("label", "label"),
    ),
    label_column="label",
    positive_label_value="1",
)


def _rec(values, truth, row=1):
    return FlowRecord(tuple(values), truth, ("test", row))


def _csv_text(rows, schema, *, header=True) -> str:
    """Rows of field texts as ``csv.writer`` writes them, after the
    schema's header line unless ``header`` is false."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(schema.names)
    writer.writerows(rows)
    return buf.getvalue()


class TestSchema:
    def test_default_schema_shape(self):
        schema = default_schema()
        assert schema.width == 49
        assert schema.label_column == "label"
        assert sum(1 for c in schema.columns if c.kind == "label") == 1
        assert schema.kind_of("attack_cat") == "meta"
        # the curated feature selection must resolve against the default layout
        from netanom.preprocess import CURATED_FEATURES

        schema.validate_selection(CURATED_FEATURES)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FeatureSchema(
                (ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric"), ColumnSpec("y", "label")),
                "y",
                "1",
            )

    def test_exactly_one_label_column(self):
        with pytest.raises(SchemaError, match="label"):
            FeatureSchema((ColumnSpec("a", "numeric"),), "a", "1")
        with pytest.raises(SchemaError, match="label"):
            FeatureSchema(
                (ColumnSpec("x", "label"), ColumnSpec("y", "label")), "x", "1"
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            FeatureSchema((ColumnSpec("a", "widget"), ColumnSpec("y", "label")), "y", "1")

    def test_selection_must_exist(self):
        with pytest.raises(SchemaError, match="nope"):
            TINY.validate_selection(["proto", "nope"])

    def test_doc_roundtrip(self, tmp_path):
        doc = schema_to_doc(TINY)
        assert schema_from_doc(doc) == TINY
        path = tmp_path / "schema.json"
        save_schema(TINY, path)
        assert load_schema(path) == TINY
        assert schema_from_doc(json.loads(path.read_text())) == TINY

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(b"{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_schema(path)
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError, match="JSON object"):
            load_schema(path)

    def test_bad_version_rejected(self):
        doc = schema_to_doc(TINY)
        doc["version"] = 99
        with pytest.raises(SchemaError, match="version"):
            schema_from_doc(doc)


class TestParse:
    def test_parse_basic(self):
        recs = parse_flow_csv(io.StringIO("tcp,100,0\nudp,200,1\n"), TINY)
        assert [r.values for r in recs] == [("tcp", "100", "0"), ("udp", "200", "1")]
        assert [r.truth for r in recs] == [0, 1]
        assert [r.origin for r in recs] == [("<memory>", 1), ("<memory>", 2)]

    def test_header_autodetected(self):
        with_header = parse_flow_csv(io.StringIO("proto,bytes,label\ntcp,100,0\n"), TINY)
        without = parse_flow_csv(io.StringIO("tcp,100,0\n"), TINY)
        assert [r.values for r in with_header] == [r.values for r in without]
        assert with_header[0].origin[1] == 1

    def test_empty_source(self, tmp_path):
        assert parse_flow_csv(io.StringIO(""), TINY) == []
        (tmp_path / "empty.csv").write_text("")
        assert parse_flow_csv(tmp_path / "empty.csv", TINY) == []
        assert list(iter_flow_batches(tmp_path / "empty.csv", TINY, ("proto",))) == []

    def test_label_rule(self):
        recs = parse_flow_csv(io.StringIO("tcp,1,1\ntcp,1,0\ntcp,1,attack\ntcp,1,\n"), TINY)
        assert [r.truth for r in recs] == [1, 0, 0, None]

    def test_short_row_strict_names_row(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("tcp,100,0\nudp,200\nicmp,300,1\n")
        with pytest.raises(ParseError) as err:
            parse_flow_csv(path, TINY)
        assert err.value.row == 2
        assert err.value.file_id == "three.csv"

    def test_parse_error_survives_pickling(self):
        error = pickle.loads(pickle.dumps(ParseError("three.csv", 2, "expected 3 fields, got 2"), protocol=5))
        assert type(error) is ParseError
        assert str(error) == "three.csv, row 2: expected 3 fields, got 2"
        assert (error.file_id, error.row, error.reason) == ("three.csv", 2, "expected 3 fields, got 2")

    # The re-read that finds the line decodes 1 MiB blocks; the second case
    # puts a two-byte character across the first block's end.
    @pytest.mark.parametrize(
        "before, bad, after",
        [
            (b"", b"\xff", b"roto,bytes,label\ntcp,1,0\n"),
            (b"proto,bytes,label\n" + b"tcp,1,0\n" * 131_068 + b"tcp,111111,0\n\xc3\xa9,1,0\n", b"\xfe", b"cp,2,0\n"),
            (b"\xc3\xa9,1,0\r\n" * 3 + b"tcp,1,0\n", b"\xc3", b""),
        ],
        ids=["header", "after-a-block-edge", "truncated-at-the-end"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, before, bad, after):
        path = tmp_path / "flows.csv"
        path.write_bytes(before + bad + after)
        if bad == b"\xfe":
            assert before.index(b"\xc3") == (1 << 20) - 1
        reason = "unexpected end of data" if bad == b"\xc3" else "invalid start byte"
        line = before.count(b"\n") + 1
        message = f"flows.csv line {line}: not UTF-8 text (byte 0x{bad[0]:02x}: {reason})"
        for read in (lambda: list(iter_flow_batches(path, TINY, ("proto",))), lambda: parse_flow_csv(path, TINY)):
            with pytest.raises(IngestError) as err:
                read()
            assert type(err.value) is IngestError and str(err.value) == message

    def test_multiple_files_concatenate(self, tmp_path):
        paths = []
        for i in range(4):
            p = tmp_path / f"part{i}.csv"
            p.write_text(f"tcp,{i},0\nudp,{i},1\n")
            paths.append(p)
        out = tmp_path / "all.csv"
        ingest.copy_rows(paths, TINY, [(out, np.arange(8))])  # rows are indexed across the files in order
        recs = parse_flow_csv(out, TINY)
        assert [r.values for r in recs] == [(proto, str(i), label) for i in range(4) for proto, label in (("tcp", "0"), ("udp", "1"))]

    def test_path_input(self, tmp_path):
        p = tmp_path / "flows.csv"
        p.write_text("proto,bytes,label\ntcp,5,1\n")
        recs = parse_flow_csv(p, TINY)
        assert recs[0].origin == ("flows.csv", 1)
        assert recs[0].truth == 1

    def test_str_with_comma_is_a_path(self, tmp_path):
        p = tmp_path / "a,b" / "t.csv"
        p.parent.mkdir()
        p.write_text("tcp,5,1\nudp,6,0\n")
        recs = parse_flow_csv(str(p), TINY)
        assert [r.origin for r in recs] == [("t.csv", 1), ("t.csv", 2)]
        assert [r.truth for r in recs] == [1, 0]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abc,\"'\n x", max_size=8),
                st.integers(0, 10**6).map(str),
                st.sampled_from(["0", "1", "weird"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_write_parse_roundtrip(self, rows):
        reparsed = parse_flow_csv(io.StringIO(_csv_text(rows, TINY)), TINY)
        assert [r.values for r in reparsed] == rows
        assert [r.truth for r in reparsed] == [1 if row[2] == "1" else 0 for row in rows]


class TestBatches:
    @settings(max_examples=30)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(alphabet="ab,\"\n x", max_size=6),
                st.integers(0, 10**6).map(str),
                st.sampled_from(["0", "1", "weird", ""]),
            ),
            max_size=25,
        ),
        header=st.booleans(),
        batch_rows=st.sampled_from([1, 2, 7, 8192]),
        columns=st.sampled_from([(), ("bytes",), ("label", "proto"), ("proto", "bytes", "label")]),
    )
    def test_batches_concatenate_to_the_parse(self, rows, header, batch_rows, columns):
        text = _csv_text(rows, TINY, header=header).replace("\n", "\n\n", 1)  # one blank line
        parsed = parse_flow_csv(io.StringIO(text), TINY)
        with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
            batches = list(iter_flow_batches(io.StringIO(text), TINY, columns))
        assert all(0 < len(b.rows) <= batch_rows for b in batches)
        assert all(list(b.columns) == list(columns) for b in batches)
        assert all(b.file_id == "<memory>" and b.truth.dtype == np.int8 for b in batches)
        for name in columns:
            expected = [r.values[TINY.index_of(name)] for r in parsed]
            got = [b.columns[name] for b in batches]
            if TINY.kind_of(name) == "numeric":  # every generated value is an integer text
                assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in got)
                assert np.concatenate([np.empty(0), *got]).tobytes() == np.asarray(expected, dtype=np.float64).tobytes()
            else:
                assert [t for c in got for t in c] == expected
        assert [t for b in batches for t in b.truth.tolist()] == [-1 if r.truth is None else r.truth for r in parsed]
        assert all(b.rows.dtype == np.int64 for b in batches)
        assert [(b.file_id, row) for b in batches for row in b.rows.tolist()] == [r.origin for r in parsed]

    def test_bad_row_raises_after_earlier_batches(self, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 2)
        text = "tcp,1,0\ntcp,2,0\ntcp,3,1\nudp\n"
        batches = iter_flow_batches(io.StringIO(text), TINY, ("bytes",))
        first = next(batches).columns
        assert list(first) == ["bytes"] and first["bytes"].dtype == np.float64
        assert first["bytes"].tolist() == [1.0, 2.0]
        with pytest.raises(ParseError) as err:
            next(batches)
        assert (err.value.file_id, err.value.row) == ("<memory>", 4)

    def test_path_file_id_and_closed_when_abandoned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 1)
        path = tmp_path / "flows.csv"
        path.write_text("proto,bytes,label\ntcp,5,1\nudp,6,0\n")
        batches = iter_flow_batches(path, TINY, ("proto",))
        first = next(batches)
        assert (first.file_id, first.rows.tolist(), first.truth.tolist()) == ("flows.csv", [1], [1])
        batches.close()  # closes the file; a leak fails the suite as a ResourceWarning

    @pytest.mark.parametrize("text", ["tcp,1,0\n", '"tcp",1,0\n'], ids=["plain", "quoted"])
    def test_a_column_asked_for_twice_is_read_once(self, text):
        (batch,) = iter_flow_batches(io.StringIO(text), TINY, ("proto", "proto", "bytes"))
        assert list(batch.columns) == ["proto", "bytes"]
        assert batch.columns["proto"] == ["tcp"] and batch.columns["bytes"].tolist() == [1.0]

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError, match="nope"):
            list(iter_flow_batches(io.StringIO("tcp,1,0\n"), TINY, ("nope",)))

    def test_open_text_streams_are_read_as_consumed(self, tmp_path):
        """An open text stream is decoded as it is read: the first batch
        peaks near what it peaks at from the path, not at the size of the
        capture, and the caller's stream stays open. Bytes and binary
        streams are refused."""
        from netanom.synth import write_synthetic_csv

        path = tmp_path / "capture.csv"
        write_synthetic_csv(path, 20_000, seed=3)  # about 5.3 MB
        schema = default_schema()

        def first_batch(source):
            tracemalloc.start()
            try:
                batches = iter_flow_batches(source, schema, ("proto",))
                batch = next(batches)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            batches.close()
            return batch, peak

        reference, path_peak = first_batch(path)
        with path.open("r", encoding="utf-8", newline="") as text:
            batch, peak = first_batch(text)
            assert peak < 1.5 * path_peak, f"{peak} bytes against {path_peak} from the path"
            assert batch.columns == reference.columns and batch.file_id == "<memory>"
            assert batch.rows.tolist() == reference.rows.tolist()
            assert batch.truth.tolist() == reference.truth.tolist()
            assert not text.closed and text.readline()
        with path.open("rb") as binary:
            for source in (binary, path.read_bytes(), bytearray(b"tcp,1,0\n")):
                with pytest.raises(IngestError, match="unsupported source type"):
                    next(iter_flow_batches(source, schema, ("proto",)))
                with pytest.raises(IngestError, match="unsupported source type"):
                    parse_flow_csv(source, schema)
            assert not binary.closed and binary.tell() == 0


def _same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a.columns) == list(b.columns) and a.file_id == b.file_id
        assert all(_same_column(a.columns[name], b.columns[name]) for name in a.columns)
        assert a.truth.dtype == np.int8 and a.truth.tolist() == b.truth.tolist()
        assert a.rows.dtype == np.int64 and a.rows.tolist() == b.rows.tolist()


class TestReadAhead:
    """``_read_ahead`` yields the batches ``iter_flow_batches`` reads, from
    one forked reader process, and reaps it however the generator is
    closed."""

    def test_clean_end(self, tmp_path, monkeypatch, forked):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 3)
        path = tmp_path / "flows.csv"
        rows = [("tcp" if i % 3 else "udp", str(i), "" if i == 4 else str(i % 2)) for i in range(10)]
        rows[7] = ('"quoted", tcp', "7", "1")  # one batch goes to the csv reader
        path.write_text(_csv_text(rows, TINY))
        with contextlib.closing(ingest._read_ahead(path, TINY, ("proto", "bytes"))) as batches:
            got = [next(batches)]
            (pid,) = forked
            assert forked[pid] is None  # not reaped while batches remain
            got.extend(batches)
            assert forked == {pid: 0}  # reaped once the batches run out
        _same_batches(got, list(iter_flow_batches(path, TINY, ("proto", "bytes"))))
        for batch in got:  # the pickle keeps one object per distinct text
            assert len({id(t) for t in batch.columns["proto"]}) == len(set(batch.columns["proto"]))
        assert forked == {pid: 0}

    def test_parse_error_in_a_later_batch(self, tmp_path, monkeypatch, forked):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 2)
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\ntcp,2,0\ntcp,3,1\ntcp,4,0\nudp\ntcp,6,0\n")
        got = []
        with pytest.raises(ParseError) as err:
            with contextlib.closing(ingest._read_ahead(path, TINY, ("bytes",))) as batches:
                got.extend(batch.columns["bytes"].tolist() for batch in batches)
        assert got == [[1.0, 2.0], [3.0, 4.0]]
        assert type(err.value) is ParseError and str(err.value) == "flows.csv, row 5: expected 3 fields, got 1"
        assert (err.value.file_id, err.value.row, err.value.reason) == ("flows.csv", 5, "expected 3 fields, got 1")
        assert list(forked.values()) == [0]  # the child sent the error and exited

    @pytest.mark.parametrize("leave", ["break", "raise"])
    def test_caller_that_stops_after_one_batch(self, tmp_path, monkeypatch, forked, leave):
        """A caller that leaves after the first batch, or raises there, ends
        the child, which is still reading: the capture's pickles are far
        more than the pipe holds."""
        monkeypatch.setattr(ingest, "BATCH_ROWS", 100)
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\n" * 50_000)
        with pytest.raises(KeyError) if leave == "raise" else contextlib.nullcontext():
            with contextlib.closing(ingest._read_ahead(path, TINY, ("proto", "bytes"))) as batches:
                first = next(batches)
                if leave == "raise":
                    raise KeyError("the caller's own error")
        assert first.rows.tolist() == list(range(1, 101))
        assert list(forked.values()) == [-signal.SIGKILL]

    def test_a_reader_that_dies_is_an_error(self, tmp_path, monkeypatch, forked):
        """A child that ends without the end pickle, as when it is killed,
        raises after the batches it did send."""

        def dies_after_one(batches, sink):
            ingest._send(sink, next(batches))
            os._exit(3)

        monkeypatch.setattr(ingest, "BATCH_ROWS", 1)
        monkeypatch.setattr(ingest, "_serve_batches", dies_after_one)
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\nudp,2,1\n")
        got = []
        with pytest.raises(IngestError, match="^the reader process ended before the capture did$"):
            with contextlib.closing(ingest._read_ahead(path, TINY, ("bytes",))) as batches:
                got.extend(batch.rows.tolist() for batch in batches)
        assert got == [[1]] and list(forked.values()) == [3]

    def test_a_reader_that_dies_within_a_pickle_is_an_error(self, tmp_path, monkeypatch, forked):
        """A child that ends halfway through a batch's pickle raises the
        same error, and is not killed: it has already exited."""

        def dies_within_one(batches, sink):
            data = pickle.dumps(next(batches), protocol=5)
            sink.write(data[: len(data) // 2])
            sink.flush()
            os._exit(3)

        monkeypatch.setattr(ingest, "_serve_batches", dies_within_one)
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\nudp,2,1\n")
        with pytest.raises(IngestError, match="^the reader process ended before the capture did$"):
            with contextlib.closing(ingest._read_ahead(path, TINY, ("proto", "bytes"))) as batches:
                next(batches)
        assert list(forked.values()) == [3]

    def test_a_missing_file_raises_before_any_fork(self, tmp_path, forked):
        batches = ingest._read_ahead(tmp_path / "ghost.csv", TINY, ("bytes",))
        with pytest.raises(FileNotFoundError):
            next(batches)
        assert forked == {}

    def test_closed_before_the_first_batch_forks_nothing(self, tmp_path, forked):
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\n")
        ingest._read_ahead(path, TINY, ("bytes",)).close()
        assert forked == {}

    def test_without_fork_reads_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 2)
        path = tmp_path / "flows.csv"
        path.write_text("tcp,1,0\nudp,2,1\ntcp,3,\n")
        monkeypatch.delattr(os, "fork")
        with contextlib.closing(ingest._read_ahead(path, TINY, ("proto", "bytes"))) as batches:
            got = list(batches)
        _same_batches(got, list(iter_flow_batches(path, TINY, ("proto", "bytes"))))


class TestFlowBatch:
    BATCH = FlowBatch(
        {"bytes": np.array([1.0, 2.0, 3.0, 4.0]), "proto": ["tcp", "udp", "icmp", "tcp"]},
        np.array([0, 1, -1, 0], dtype=np.int8),
        "f.csv",
        np.array([2, 3, 5, 8], dtype=np.int64),
    )

    @pytest.mark.parametrize("index", [slice(1, 3), slice(3, 9), slice(0, 0), np.array([3, 0, 1]), np.array([], dtype=np.int64)])
    def test_take_picks_the_rows_of_every_field(self, index):
        batch = self.BATCH
        part = batch.take(index)
        picks = np.arange(len(batch))[index].tolist()
        assert len(part) == len(picks)
        assert isinstance(part.columns["bytes"], np.ndarray) and part.columns["bytes"].tolist() == [1.0 + i for i in picks]
        assert part.columns["proto"] == [batch.columns["proto"][i] for i in picks]
        assert part.truth.dtype == np.int8 and part.truth.tolist() == [batch.truth[i] for i in picks]
        assert part.file_id == "f.csv" and part.rows.tolist() == [batch.rows[i] for i in picks]

    def test_batches_compare_by_identity(self):
        # a value comparison of the array fields would raise
        assert self.BATCH == self.BATCH and self.BATCH != self.BATCH.take(slice(None))

    def test_batch_of_records(self):
        records = [_rec(["tcp", "7", "1"], 1, row=4), _rec(["udp", "1e-3", ""], None, row=9)]
        batch = batch_of_records(records, TINY, ("bytes", "proto"))
        assert list(batch.columns) == ["bytes", "proto"] and batch.columns["proto"] == ["tcp", "udp"]
        assert batch.columns["bytes"].dtype == np.float64 and batch.columns["bytes"].tolist() == [7.0, 1e-3]
        assert batch.truth.dtype == np.int8 and batch.truth.tolist() == [1, -1]
        assert batch.file_id == "test" and batch.rows.dtype == np.int64 and batch.rows.tolist() == [4, 9]
        empty = batch_of_records([], TINY, ("proto", "bytes"))
        assert len(empty) == 0 and empty.columns["proto"] == [] and empty.columns["bytes"].dtype == np.float64

    @pytest.mark.parametrize("text, reason", [("x", "non-numeric"), ("-inf", "non-finite")])
    def test_batch_of_records_converts_as_the_reader_does(self, text, reason):
        records = [_rec(["tcp", "7", "1"], 1, row=4), _rec(["udp", text, "0"], 0, row=9)]
        with pytest.raises(ParseError) as excinfo:
            batch_of_records(records, TINY, ("proto", "bytes"))
        assert str(excinfo.value) == f"test, row 9: column 'bytes': {reason} value {text!r}"
        assert batch_of_records(records, TINY, ("proto",)).columns == {"proto": ["tcp", "udp"]}  # an unread column is never parsed

    def test_batch_of_records_holds_one_file(self):
        records = [_rec(["tcp", "7", "1"], 1), FlowRecord(("udp", "8", "0"), 0, ("other", 1))]
        with pytest.raises(IngestError, match=r"one file, not of \['other', 'test'\]"):
            batch_of_records(records, TINY, ("proto",))


WIDE = FeatureSchema(
    columns=(
        ColumnSpec("proto", "categorical"),
        ColumnSpec("bytes", "numeric"),
        ColumnSpec("rate", "numeric"),
        ColumnSpec("label", "label"),
        ColumnSpec("note", "meta"),  # after the label, so no read needs the last column
    ),
    label_column="label",
    positive_label_value="1",
)

# Field texts on which np.loadtxt, float() and the csv module are known to
# differ, or which a careless fast reader would mangle.
_TRICKY_FIELDS = [
    "0", "1", "+1", "-0", "1.5", ".5", "1e3", "1_0", "nan", "inf", "-inf", "1e999", "\u0663", "\u0661\u0662",
    "\uff11", " 2", "2 ", "\t3", "#4", "\ufeff5", "\x1c6", "7\x1f", "", " ", "tcp", "udp", "a" * 40,
    "\u00e9" * 33, "0x1", '"q,uoted"', '"two\nlines"', 'x"y', "1\x00", "\x85", "label",
]
_FIELD = st.one_of(st.sampled_from(_TRICKY_FIELDS), st.text(alphabet='ab1.e+-_# "\t\ufeff\x1c\u0663', max_size=8))
_PLAIN_FIELD = st.one_of(
    st.sampled_from([f for f in _TRICKY_FIELDS if not set(f) & set('",\r\n')]),
    st.text(alphabet="ab1.e+-_# \t\ufeff\x1c\u0663", max_size=8),
)


def _joined(fields, end="\n"):
    return ",".join(fields) + end


# Lines with no quote, no carriage return and five fields: what a plain
# batch is made of, with field texts a fast reader could misread.
_PLAIN_LINE = st.lists(_PLAIN_FIELD, min_size=5, max_size=5).map(_joined)
# Runs of lines that must not be read as plain.
_ODD_LINES = st.one_of(
    st.just(["\n"]),
    # A short and a long line hold as many commas as two good ones.
    st.tuples(st.lists(_PLAIN_FIELD, min_size=4, max_size=4), st.lists(_PLAIN_FIELD, min_size=6, max_size=6)).map(
        lambda pair: [_joined(pair[0]), _joined(pair[1])]
    ),
    st.just(["proto,bytes,rate,label,note\n"]),  # the header again, as a data row
    st.tuples(st.lists(_FIELD, min_size=0, max_size=8), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda line: [_joined(*line)]
    ),
)


@st.composite
def _captures(draw):
    """A flow CSV text: plain lines with a few odd runs put in."""
    lines = draw(st.lists(_PLAIN_LINE, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_ODD_LINES)
    header = draw(st.sampled_from(["", "proto,bytes,rate,label,note\n", "\ufeffPROTO, bytes,rate,label,note\n", "\n"]))
    text = header + "".join(lines)
    return text if draw(st.booleans()) else text.removesuffix("\n")


def _bad_value(text):
    """Why ``text`` cannot be a float64 field: "non-numeric", "non-finite",
    or None when ``float`` reads it as a finite float."""
    try:
        value = float(text)
    except ValueError:
        return "non-numeric"
    return None if math.isfinite(value) else "non-finite"


def _same_column(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return list(a) == list(b)


def _read_batches(text, columns):
    batches, error = [], None
    try:
        for batch in iter_flow_batches(io.StringIO(text, newline=""), WIDE, columns):
            batches.append(batch)
    except ParseError as exc:
        error = str(exc)
    return batches, error


class TestPlainReader:
    """Batches read by np.loadtxt equal what the csv reader reads."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=_captures(),
        batch_rows=st.sampled_from([1, 2, 3, 8192]),
        columns=st.sampled_from([(), ("bytes",), ("rate", "proto"), ("proto", "bytes", "rate", "label")]),
    )
    # The known traps, each tried on every run.
    @example(text="tcp,1,2,0\nudp,1,2,0,n,x\n", batch_rows=8192, columns=("bytes",))  # ragged
    @example(text="tcp,\x1c6,2,0,n\n", batch_rows=8192, columns=("bytes",))  # float() rejects
    @example(text="tcp,1_0,\u0663,0,n\n", batch_rows=8192, columns=("bytes", "rate"))  # loadtxt rejects
    @example(text="tcp,1,nan,0,n\nudp,2,1e999,1,n\n", batch_rows=1, columns=("rate",))  # non-finite
    @example(text="tcp,1,2,0,n\r\nudp,2,1,1,n\n", batch_rows=8192, columns=("proto",))
    @example(text="tcp,x,2,0,n\nudp,1\n", batch_rows=8192, columns=("bytes",))  # bad field before a short row
    @example(text="tcp,1,2,0,n\nudp,y,z,0,n\n", batch_rows=8192, columns=("rate", "bytes"))  # file's column order
    @example(text="\nproto,bytes,rate,label,note\ntcp,1,2,0,n\nproto,bytes,rate,label,note\n", batch_rows=1,
             columns=("proto",))  # the header is decided once
    def test_batches_equal_the_csv_reading(self, text, batch_rows, columns):
        with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
            got, error = _read_batches(text, columns)
            with mock.patch.object(ingest._LineBatches, "is_plain", lambda self, lines: False):
                exact, exact_error = _read_batches(text, columns)

        # The oracle: _read_rows over the whole text, cut into batches. The
        # read fails at the first row of the wrong width, or at the first
        # field of a float64 column that is not a finite float, by row and
        # then by column position, whichever comes first.
        rows, oracle_error = [], None
        try:
            rows.extend(ingest._read_rows(io.StringIO(text, newline=""), WIDE, "<memory>", tuple))
        except ParseError as exc:
            oracle_error = str(exc)
        floats = [name for name in WIDE.names if name in columns and WIDE.kind_of(name) == "numeric"]
        for k, (row, _, fields) in enumerate(rows):
            bad = [(name, reason) for name in floats if (reason := _bad_value(fields[WIDE.index_of(name)]))]
            if bad:
                name, reason = bad[0]
                oracle_error = f"<memory>, row {row}: column {name!r}: {reason} value {fields[WIDE.index_of(name)]!r}"
                del rows[k:]
                break
        cut = len(rows) if oracle_error is None else len(rows) - len(rows) % batch_rows
        expected = [rows[i : i + batch_rows] for i in range(0, cut, batch_rows)]

        assert error == exact_error == oracle_error
        assert len(got) == len(exact) == len(expected)
        for batch, other, want in zip(got, exact, expected):
            assert batch.rows.tolist() == other.rows.tolist() == [row for row, _, _ in want]
            assert batch.truth.tolist() == other.truth.tolist() == [truth for _, truth, _ in want]
            assert list(batch.columns) == list(columns)
            for name in columns:
                texts = [fields[WIDE.index_of(name)] for _, _, fields in want]
                reference = np.asarray(texts, dtype=np.float64) if name in floats else texts
                assert _same_column(batch.columns[name], reference), name
                assert _same_column(other.columns[name], reference), name

    @settings(max_examples=150, deadline=None)
    @given(text=_captures(), batch_rows=st.sampled_from([1, 3, 8192]), data=st.data())
    def test_copy_rows_writes_what_csv_writer_writes(self, tmp_path_factory, text, batch_rows, data):
        try:
            rows = [fields for _, _, fields in ingest._read_rows(io.StringIO(text, newline=""), WIDE, "<memory>", list)]
        except ParseError:
            return
        picks = data.draw(st.lists(st.integers(-1, 1), min_size=len(rows), max_size=len(rows)))
        tmp = tmp_path_factory.mktemp("copy")
        source = tmp / "in.csv"
        source.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
            ingest.copy_rows(
                [source], WIDE, [(tmp / f"out{k}.csv", np.flatnonzero(np.array(picks, dtype=int) == k)) for k in (0, 1)]
            )
        for k in (0, 1):
            want = io.StringIO()
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(WIDE.names)
            writer.writerows(fields for fields, pick in zip(rows, picks) if pick == k)
            assert (tmp / f"out{k}.csv").read_bytes() == want.getvalue().encode("utf-8")

    def test_plain_check_copies_no_whole_batch(self):
        """is_plain finds a csv-only character anywhere in a full batch, and
        its scan allocates far less than the batch's text."""
        schema = default_schema()
        lines = [",".join([f"{i:07d}"] * schema.width) + "\n" for i in range(ingest.BATCH_ROWS)]
        batches = ingest._LineBatches(io.StringIO(""), schema, "x")
        size = sum(map(len, lines))
        tracemalloc.start()
        try:
            assert batches.is_plain(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 8, f"{peak} bytes traced for a {size}-byte batch"
        for char in ingest._CSV_ONLY:
            for at in (0, 700, len(lines) - 1):
                marked = [*lines[:at], char + lines[at], *lines[at + 1 :]]
                assert not batches.is_plain(marked), (char, at)

    def test_synth_traffic_takes_the_plain_path(self, tmp_path, monkeypatch):
        """A synth capture never needs the csv reader: reading every column,
        and copying rows out of it, work with the csv reader made to fail."""
        from netanom.synth import write_synthetic_csv

        path = tmp_path / "capture.csv"
        write_synthetic_csv(path, 3_000, seed=4)
        schema = default_schema()
        reference = parse_flow_csv(path, schema)

        def refuse(self, lines, project):
            raise AssertionError("a batch of synth traffic went to the csv reader")

        monkeypatch.setattr(ingest._LineBatches, "reread", refuse)
        monkeypatch.setattr(ingest, "BATCH_ROWS", 1000)
        batches = list(iter_flow_batches(path, schema, schema.names))
        assert [len(b.rows) for b in batches] == [1000, 1000, 1000]
        for name in schema.names:
            numeric = schema.kind_of(name) == "numeric"
            got = [b.columns[name] for b in batches]
            texts = [r.values[schema.index_of(name)] for r in reference]
            if numeric:
                assert np.concatenate(got).tobytes() == np.asarray(texts, dtype=np.float64).tobytes(), name
            else:
                assert [t for c in got for t in c] == texts, name
        picked = np.arange(0, 3_000, 7)
        ingest.copy_rows([path], schema, [(tmp_path / "copy.csv", picked)])
        want = _csv_text([reference[i].values for i in picked], schema)
        assert (tmp_path / "copy.csv").read_text(encoding="utf-8") == want

    def test_text_columns_hold_one_object_per_distinct_text(self, monkeypatch):
        """In a plain batch and in one the csv reader reads, every text
        column holds one object for each distinct text. Every text is longer than one character: CPython
        shares one-character strings anyway."""
        plain = ["tcp,10,1.5,0,aa\n", "udp,20,2.5,1,bb\n", "tcp,10,3.5,0,aa\n", "tcp,20,4.5,0,aa\n"]
        quoted = ['"tcp",10,5.5,0,aa\n', "udp,10,6.5,1,bb\n", "udp,20,5.5,0,bb\n", "tcp,10,6.5,0,aa\n"]
        plain_checks = []
        is_plain = ingest._LineBatches.is_plain

        def recorded(self, lines):
            plain_checks.append(is_plain(self, lines))
            return plain_checks[-1]

        monkeypatch.setattr(ingest._LineBatches, "is_plain", recorded)
        monkeypatch.setattr(ingest, "BATCH_ROWS", 4)
        text = "".join(plain + quoted)
        columns = ("proto", "bytes", "rate", "note")
        batches, error = _read_batches(text, columns)
        assert error is None and plain_checks == [True, False]
        reference = list(ingest._read_rows(io.StringIO(text, newline=""), WIDE, "<memory>", tuple))
        assert [len(b) for b in batches] == [4, 4]
        assert all(isinstance(batch.columns[name], np.ndarray) for batch in batches for name in ("bytes", "rate"))
        for batch, want in zip(batches, (reference[:4], reference[4:])):
            for name in ("proto", "note"):
                column = batch.columns[name]
                assert column == [fields[WIDE.index_of(name)] for _, _, fields in want], name
                assert {type(t) for t in column} == {str}, name
                assert len({id(t) for t in column}) == len(set(column)), name


def _make_records(n_normal, n_attack):
    recs = []
    for i in range(n_normal):
        recs.append(_rec(("tcp", str(i), "0"), 0, i + 1))
    for i in range(n_attack):
        recs.append(_rec(("udp", str(i), "1"), 1, n_normal + i + 1))
    return recs


class TestStratifiedSample:
    def test_counts(self):
        recs = _make_records(700, 400)
        train, test = stratified_sample(recs, SamplePlan(1000, 0.65, 0.6, seed=7))
        n_normal_total = sum(1 for r in train) + sum(1 for r in test if r.truth == 0)
        assert n_normal_total == 650  # round(1000 * 0.65)
        assert len(train) == 390  # round(650 * 0.6)
        assert len(test) == 260 + 350

    def test_train_is_pure_and_disjoint(self):
        recs = _make_records(500, 300)
        train, test = stratified_sample(recs, SamplePlan(600, 0.6, 0.5, seed=3))
        assert all(r.truth == 0 for r in train)
        train_keys = {r.origin for r in train}
        test_keys = {r.origin for r in test}
        assert not train_keys & test_keys

    def test_same_seed_identical(self):
        recs = _make_records(300, 200)
        plan = SamplePlan(400, 0.7, 0.5, seed=11)
        a = stratified_sample(recs, plan)
        b = stratified_sample(recs, plan)
        assert a == b

    def test_different_seed_differs(self):
        recs = _make_records(300, 200)
        a = stratified_sample(recs, SamplePlan(400, 0.7, 0.5, seed=1))
        b = stratified_sample(recs, SamplePlan(400, 0.7, 0.5, seed=2))
        assert a != b

    def test_input_order_preserved(self):
        recs = _make_records(100, 50)
        train, test = stratified_sample(recs, SamplePlan(120, 0.6, 0.5, seed=5))
        for part in (train, test):
            rows = [r.origin[1] for r in part]
            assert rows == sorted(rows)

    def test_shortfall_errors_state_amounts(self):
        recs = _make_records(10, 10)
        with pytest.raises(SampleError, match="13 normal records, only 10"):
            stratified_sample(recs, SamplePlan(20, 0.65, 0.5, seed=0))
        with pytest.raises(SampleError, match="attack"):
            stratified_sample(recs, SamplePlan(20, 0.2, 0.5, seed=0))

    def test_infeasible_total(self):
        recs = _make_records(5, 5)
        with pytest.raises(SampleError):
            stratified_sample(recs, SamplePlan(100, 0.5, 0.5, seed=0))

    def test_unlabeled_rejected(self):
        recs = [_rec(("tcp", "1", ""), None)]
        with pytest.raises(SampleError, match="truth"):
            stratified_sample(recs, SamplePlan(1, 1.0, 1.0, seed=0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplePlan(0, 0.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            SamplePlan(10, 1.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            SamplePlan(10, 0.5, -0.1, seed=0)
