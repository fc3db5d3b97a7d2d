"""Flow-record ingestion: feature schemas, CSV parsing, and seeded sampling.

A :class:`FeatureSchema` describes the column layout of a flow CSV. A capture
is read as a stream of :class:`FlowBatch` that holds only the requested
columns, each an array: numeric columns as float64 values, the others as
int32 codes into the batch's distinct texts of the column.

Batches are read at C speed by ``np.loadtxt`` when their lines are plain:
no quote, carriage return or blank line, and the schema's width on every
line. Any other batch, or one ``np.loadtxt`` rejects, is re-read by the
``csv`` module, which also decides every error message and row number, so
the two readers never disagree on what a batch holds.

Every command reads a capture through :func:`iter_flow_batches`, whose
forked reader process parses the next batch while the command works on
this one. A source is always a path: a child forked to read a caller's
open stream would advance only its own copy of it.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import pickle
import signal
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from ._docjson import parse_json, pretty_dumps

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

    def __reduce__(self):
        # The three fields rebuild the error, so it survives the pipe of
        # the reader process (see :func:`iter_flow_batches`).
        return type(self), (self.file_id, self.row, self.reason)


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

    Records are the whole-file adapter of :func:`parse_flow_csv`;
    ``bench/tracing.py`` is their only caller outside tests, and ROADMAP
    item 3 deletes them after item 2.
    """

    values: tuple[str, ...]
    truth: int | None
    origin: tuple[str, int]


#: Rows per batch that :func:`iter_flow_batches` yields.
BATCH_ROWS = 8192


@dataclass(frozen=True, eq=False)
class FlowBatch:
    """Data rows of one file, in file order, held as columns: the one shape
    records take from the reader through preprocessing, the simulation's
    node intervals and its loopback frames.

    ``columns`` maps each requested column name to an array of the rows'
    values: a float64 array of finite values for a numeric column (see
    :func:`_as_floats`), else int32 codes into ``texts[name]``, the tuple of
    the column's distinct texts, which the reader numbers in the order the
    rows first use them (a batch :meth:`take` cuts keeps them all).
    ``truth`` is an int8 array: 1 for attack, 0 for normal, -1 for an empty
    label field. ``rows`` holds the 1-based data-row numbers, an int64
    array. Batches do not compare equal by value: compare their fields.
    """

    columns: dict[str, np.ndarray]
    truth: np.ndarray
    file_id: str
    rows: np.ndarray
    texts: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, index: slice | np.ndarray) -> FlowBatch:
        """The rows at ``index``, a slice, an integer array or a boolean
        mask, as a batch with the same texts."""
        columns = {name: column[index] for name, column in self.columns.items()}
        return FlowBatch(columns, self.truth[index], self.file_id, self.rows[index], self.texts)


def batch_of_records(records: Sequence[FlowRecord], schema: FeatureSchema, names: Iterable[str]) -> FlowBatch:
    """``records``, all of one file, as one batch of the named columns, read
    as :func:`iter_flow_batches` reads them; records of two files raise
    :class:`IngestError`. The records adapters build their batch here:
    ``bench/tracing.py`` is their only caller outside tests, and ROADMAP
    item 3 deletes them after item 2."""
    files = sorted({r.origin[0] for r in records})
    if len(files) > 1:
        raise IngestError(f"a batch holds the rows of one file, not of {files}")
    names = tuple(dict.fromkeys(names))
    index = [schema.index_of(name) for name in names]
    rows = ((r.origin[1], -1 if r.truth is None else r.truth, tuple(r.values[i] for i in index)) for r in records)
    floats = [name for name in schema.names if name in names and schema.kind_of(name) == "numeric"]
    return _csv_batch(rows, names, floats, files[0] if files else "")


def schema_to_doc(schema: FeatureSchema) -> dict:
    return {
        "version": SCHEMA_FORMAT_VERSION,
        "columns": [{"name": c.name, "kind": c.kind} for c in schema.columns],
        "label_column": schema.label_column,
        "positive_label_value": schema.positive_label_value,
    }


def schema_from_doc(doc: dict) -> FeatureSchema:
    if not isinstance(doc, dict):
        raise SchemaError(f"schema document must be a JSON object, not {type(doc).__name__}")
    if doc.get("version") != SCHEMA_FORMAT_VERSION:
        raise SchemaError(f"unsupported schema document version: {doc.get('version')!r}")
    try:
        columns = tuple(ColumnSpec(c["name"], c["kind"]) for c in doc["columns"])
        return FeatureSchema(columns, doc["label_column"], doc["positive_label_value"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc


def load_schema(path) -> FeatureSchema:
    """Load a schema from a JSON file; for JSON text, use ``json.loads``
    and ``schema_from_doc``."""
    return schema_from_doc(parse_json(Path(path).read_bytes(), SchemaError, "schema"))


def save_schema(schema: FeatureSchema, path) -> None:
    Path(path).write_text(pretty_dumps(schema_to_doc(schema)), encoding="utf-8")


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


@contextmanager
def _open_text(source):
    """Yield (text stream, file id) for the flow CSV at ``source``, a
    ``str`` or path-like; the file id is the file's name."""
    if not isinstance(source, (str, os.PathLike)):
        raise IngestError(f"unsupported source type: {type(source)!r}")
    path = Path(source)
    with path.open("r", encoding="utf-8", newline="") as stream:
        try:
            yield stream, path.name
        except UnicodeDecodeError:
            # The stream decodes a chunk at a time, so its error names a
            # position in the chunk, not in the file.
            error = _not_utf8(path)
            if error is None:
                raise
            raise error from None


def _not_utf8(path: Path) -> IngestError | None:
    """An error naming the physical line of the first byte of ``path`` that
    is not UTF-8, or None when every byte decodes. The file is re-read as
    bytes, a block at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with path.open("rb") as raw:
        try:
            while block := raw.read(1 << 20):
                decoder.decode(block)
                line += block.count(b"\n")
            decoder.decode(b"", final=True)
        except UnicodeDecodeError as exc:
            # exc.object is the decoder's pending bytes, which hold no
            # newline, followed by the block.
            line += exc.object.count(b"\n", 0, exc.start)
            return IngestError(
                f"{path.name} line {line}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            )
    return None


def _truth_of(label: str, positive: str) -> int:
    """-1 for an empty label field, 1 for the positive value, else 0."""
    label = label.strip()
    return -1 if label == "" else 1 if label == positive else 0


def _read_rows(
    lines, schema: FeatureSchema, fid: str, project, *, row_no: int = 0, header: bool = True
) -> Iterator[tuple[int, int, tuple]]:
    """Yield ``(row number, truth, project(fields))`` for each data row of
    flow CSV text given as an iterable of lines, in file order.

    While ``header`` holds, the first row that is not blank may be a header:
    it is skipped if it matches the schema's column names. Blank lines are
    skipped. Rows are numbered from ``row_no + 1``, counting data rows only.
    A row of the wrong width raises :class:`ParseError`. Truth is -1 for an
    empty label field, 1 for the schema's positive value and 0 for anything
    else.
    """
    label_idx = schema.label_index
    positive = schema.positive_label_value
    width = schema.width
    for fields in csv.reader(lines):
        if not fields:
            continue  # blank line
        if header:
            header = False
            if _is_header(fields, schema):
                continue
        row_no += 1
        if len(fields) != width:
            raise ParseError(fid, row_no, f"expected {width} fields, got {len(fields)}")
        yield row_no, _truth_of(fields[label_idx], positive), project(fields)


def _is_header(fields: Sequence[str], schema: FeatureSchema) -> bool:
    return [f.strip().lstrip("\ufeff").lower() for f in fields] == [n.lower() for n in schema.names]


#: Characters that send a batch to the csv reader: the quote and carriage
#: return, and the separators \x1c-\x1f, which ``np.loadtxt`` skips around
#: a number as whitespace while ``float`` rejects them.
_CSV_ONLY = '"\r\x1c\x1d\x1e\x1f'

#: Lines joined at a time when a batch is scanned for :data:`_CSV_ONLY`.
_SCAN_LINES = 256


class _LineBatches:
    """A flow CSV text stream cut into batches of :data:`BATCH_ROWS` data
    rows, with the header, row numbering and label rules of
    :func:`_read_rows`.

    :meth:`take` returns the raw lines of the next batch, without the
    header. When :meth:`is_plain` holds for them, each line is one data row
    of the schema's width whose fields are the text between its commas, and
    :meth:`plain_rows` numbers them. Any batch may instead be re-read by
    :meth:`reread`, which reads on into the stream where a quoted field
    spans lines or blank lines are skipped, so that every batch but the
    last holds :data:`BATCH_ROWS` data rows whichever way it is read.
    """

    def __init__(self, stream, schema: FeatureSchema, fid: str):
        self.schema = schema
        self.fid = fid
        self._lines = iter(stream)
        self._row_no = 0  # data rows before the next batch
        self._header = True  # the first non-blank row is still to come

    def take(self) -> list[str]:
        lines = list(islice(self._lines, BATCH_ROWS))
        if self._header and lines and lines[0] != "\n" and not any(c in lines[0] for c in _CSV_ONLY):
            self._header = False
            if _is_header(lines[0].rstrip("\n").split(","), self.schema):
                lines = lines[1:] + list(islice(self._lines, 1))
        return lines

    def is_plain(self, lines: list[str]) -> bool:
        # A bounded slice at a time: a copy of the whole batch would add its
        # size to the peak.
        for start in range(0, len(lines), _SCAN_LINES):
            text = "".join(lines[start : start + _SCAN_LINES])
            if any(c in text for c in _CSV_ONLY):
                return False
        return "\n" not in lines and set(map(str.count, lines, repeat(","))) == {self.schema.width - 1}

    def plain_rows(self, n: int) -> np.ndarray:
        """Row numbers of the ``n`` lines of a plain batch."""
        rows = np.arange(self._row_no + 1, self._row_no + n + 1, dtype=np.int64)
        self._row_no += n
        return rows

    def reread(self, lines: list[str], project) -> Iterator[tuple[int, int, tuple]]:
        """:func:`_read_rows` over the batch that starts at ``lines``."""
        rows = _read_rows(
            chain(lines, self._lines), self.schema, self.fid, project, row_no=self._row_no, header=self._header
        )
        self._header = False
        for row in islice(rows, BATCH_ROWS):
            self._row_no = row[0]
            yield row


def parse_flow_csv(source, schema: FeatureSchema) -> list[FlowRecord]:
    """Parse a whole flow CSV into records, in file order.

    ``source`` is a path (a ``str`` or path-like, never CSV text). The
    header row is optional and auto-detected by matching the schema's
    column names. The first malformed row raises :class:`ParseError`.

    Labels parse as: empty field -> unlabeled (None); field equal to the
    schema's positive value -> 1; anything else -> 0.

    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2. Commands read
    :func:`iter_flow_batches`.
    """
    with _open_text(source) as (stream, fid):
        return [
            FlowRecord(values, None if truth < 0 else truth, (fid, row))
            for row, truth, values in _read_rows(stream, schema, fid, tuple)
        ]


def _stream_batches(stream, fid: str, schema: FeatureSchema, columns: Sequence[str]) -> Iterator[FlowBatch]:
    """The batches :func:`iter_flow_batches` reads, parsed in this process
    from an open text stream named ``fid``."""
    names = tuple(dict.fromkeys(columns))  # a name asked for twice is read once
    index = [schema.index_of(name) for name in names]
    positions = dict(zip(names, index))
    floats = [name for name in schema.names if name in positions and schema.kind_of(name) == "numeric"]
    # itemgetter returns a bare field, not a 1-tuple, for a single index.
    project = itemgetter(*index) if len(index) > 1 else lambda fields: tuple(fields[i] for i in index)
    # One structured loadtxt read per plain batch: the requested columns and
    # the label, named by column index, the text ones as codes.
    dtype = np.dtype(
        [(str(i), np.float64 if schema.columns[i].name in floats else np.int32) for i in sorted({*index, schema.label_index})]
    )
    batches = _LineBatches(stream, schema, fid)
    while lines := batches.take():
        batch = _plain_batch(lines, batches, positions, dtype) if batches.is_plain(lines) else None
        if batch is None:
            batch = _csv_batch(batches.reread(lines, project), names, floats, fid)
        del lines
        if not len(batch):
            return
        yield batch


def iter_flow_batches(path, schema: FeatureSchema, columns: Sequence[str]) -> Iterator[FlowBatch]:
    """Read the flow CSV at ``path`` (a ``str`` or path-like, never CSV
    text) as batches of up to :data:`BATCH_ROWS` rows, in file order, each
    holding only ``columns``, with the header, row numbering and label rules
    of :func:`_read_rows`. Numeric columns are read as float64 (see
    :class:`FlowBatch`).

    A plain batch is parsed by ``np.loadtxt``; any other batch, or one with
    a value ``np.loadtxt`` rejects or reads as non-finite, is read by the
    ``csv`` module, a row at a time, and each row is cut down to
    ``columns`` as it is read. The first malformed row, or field of a
    float64 column that is not a finite float, raises :class:`ParseError`
    after the batches before it are yielded; a byte that is not UTF-8
    raises :class:`IngestError` naming its file and line.

    The batches are parsed one ahead by a reader process. The first
    ``next`` opens the path, so a missing file raises before any fork. The
    forked child reads the inherited stream and writes each batch to a pipe
    as a pickle, so batch i+1 is parsed while the caller works on batch i;
    the pipe's back-pressure keeps about one batch in flight. The child runs
    no BLAS routine, so the BLAS threads the fork does not copy are never
    missed. An error the child raises is raised here, with its type and
    message. Closing the generator reaps the child, after killing it if its
    last pickle (the end, None, or the error) was not read, so a child still
    writing ends by the kill, not by EPIPE. Where ``os.fork`` is missing,
    the batches are read in this process.
    """
    with _open_text(path) as (stream, fid):
        if not hasattr(os, "fork"):
            yield from _stream_batches(stream, fid, schema, columns)
            return
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as pipe:
            with open(write_fd, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    pipe.close()  # so a child whose parent has died gets EPIPE, not a full pipe
                    _serve_batches(_stream_batches(stream, fid, schema, columns), sink)
            ended = False
            try:
                while True:
                    try:
                        item = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the pipe closed before or within a pickle
                        raise IngestError("the reader process ended before the capture did") from None
                    if not isinstance(item, FlowBatch):
                        break
                    yield item
                ended = True
            finally:
                if not ended:
                    os.kill(pid, signal.SIGKILL)  # the caller left before the end; the child may still be reading
                pipe.close()
                os.waitpid(pid, 0)
            if item is not None:
                raise item


def _serve_batches(batches: Iterator[FlowBatch], sink) -> NoReturn:
    """The reader process: write a pickle of each of ``batches`` to
    ``sink``, then one of None, or of the exception the read raised.

    It leaves only through ``os._exit``, so it runs no exit handler and
    flushes no buffer it inherited: ``detect``'s open ``<out>.tmp`` already
    holds the header when the fork happens."""
    status = 1
    try:
        try:
            for batch in batches:
                _send(sink, batch)
            end = None
        except Exception as exc:
            end = exc
        _send(sink, end)
        status = 0
    finally:
        os._exit(status)


def _send(sink, item) -> None:
    pickle.dump(item, sink, protocol=5)
    sink.flush()


def _plain_batch(lines: list[str], batches: _LineBatches, index: dict[str, int], dtype: np.dtype) -> FlowBatch | None:
    """The batch of a plain run of lines, read by ``np.loadtxt`` as the
    fields of ``dtype``: float64 ones as arrays, int32 ones as codes that
    the field's :class:`_TextPool` hands out. None when a float field
    holds a value ``np.loadtxt`` rejects or reads as non-finite."""
    pools = {i: _TextPool() for i in dtype.names if dtype[i] == np.int32}
    try:
        # encoding=None hands the converters ``str``: numpy 1.x's default,
        # 'bytes', would hand them latin-1 ``bytes`` instead.
        table = np.loadtxt(
            lines, delimiter=",", usecols=[int(i) for i in dtype.names], dtype=dtype, comments=None, quotechar=None, ndmin=1,
            converters={int(i): pool.__getitem__ for i, pool in pools.items()}, encoding=None,
        )
    except ValueError:
        return None
    columns = {name: np.ascontiguousarray(table[str(i)]) for name, i in index.items()}
    if not all(np.isfinite(columns[name]).all() for name, i in index.items() if str(i) not in pools):
        return None
    label = str(batches.schema.label_index)
    truth_of = np.array([_truth_of(text, batches.schema.positive_label_value) for text in pools[label]], np.int8)
    return FlowBatch(
        columns=columns,
        truth=truth_of[table[label]],
        file_id=batches.fid,
        rows=batches.plain_rows(len(lines)),
        texts={name: tuple(pools[str(i)]) for name, i in index.items() if str(i) in pools},
    )


def _csv_batch(rows: Iterable[tuple[int, int, tuple]], names: Sequence[str], floats: Sequence[str], fid: str) -> FlowBatch:
    """The batch of ``rows`` from :meth:`_LineBatches.reread`, empty when
    there are none: the ``floats`` columns, named in file order, as float64
    (see :func:`_as_floats`) and the others as codes from a :class:`_TextPool`. A
    malformed row that ``rows`` raises is raised once the rows before it are
    checked, so the first bad field or row in file order is named."""
    # Appending field by field leaves no per-row object alive past its
    # line, so the read allocates nothing for cyclic GC to scan.
    row_nos, truths = [], []
    texts = {name: [] for name in names}
    appends = [column.append for column in texts.values()]
    malformed = None
    try:
        for row_no, truth, projected in rows:
            row_nos.append(row_no)
            truths.append(truth)
            for append, text in zip(appends, projected):
                append(text)
    except ParseError as exc:
        malformed = exc
    values = _as_floats({name: texts[name] for name in floats}, fid, row_nos)
    if malformed is not None:
        raise malformed
    pools = {name: _TextPool() for name in texts if name not in floats}
    return FlowBatch(
        columns={
            name: values[name] if name in floats else np.fromiter(map(pools[name].__getitem__, column), np.int32, len(column))
            for name, column in texts.items()
        },
        truth=np.array(truths, dtype=np.int8),
        file_id=fid,
        rows=np.array(row_nos, dtype=np.int64),
        texts={name: tuple(pool) for name, pool in pools.items()},
    )


def _as_floats(columns: dict[str, list[str]], fid: str, rows: Sequence[int]) -> dict[str, np.ndarray]:
    """Each column of field texts, of data rows ``rows`` of ``fid``, as
    float64 with the bits ``np.asarray(texts, np.float64)`` gives. The first
    text that is not a finite float, by row and then in the order of
    ``columns``, raises :class:`ParseError`."""
    values = {}
    for name, texts in columns.items():
        with suppress(ValueError):  # np.asarray parses a text as float does
            values[name] = np.asarray(texts, dtype=np.float64)
    bad = [name for name in columns if name not in values or not np.isfinite(values[name]).all()]
    for i, row in enumerate(rows if bad else ()):
        for name in bad:
            text = columns[name][i]
            try:
                reason = None if math.isfinite(float(text)) else "non-finite"
            except ValueError:
                reason = "non-numeric"
            if reason:
                raise ParseError(fid, row, f"column {name!r}: {reason} value {text!r}")
    return values


class _TextPool(dict):
    """The distinct texts of one column of one batch: ``pool[text]`` is the
    code of ``text``, the number of distinct texts the pool was given
    before it, and ``tuple(pool)`` lists the texts in code order.
    ``np.loadtxt`` calls ``pool[text]`` as it reads each field, so a
    repeated text is freed as soon as it is made."""

    def __missing__(self, text: str) -> int:
        code = self[text] = len(self)
        return code


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


def stratified_indices(truth: np.ndarray, plan: SamplePlan) -> tuple[np.ndarray, np.ndarray]:
    """Draw (train_normal, test) row indices without replacement,
    deterministically, from the rows' truths (1 attack, 0 normal, -1
    unlabeled; as in :attr:`FlowBatch.truth`).

    Per class, indices are shuffled with a generator seeded from the plan and
    prefixes are taken; the train indices are all normal rows and are
    disjoint from the test ones. Both arrays are sorted.
    """
    truth = np.asarray(truth)
    unlabeled = int(np.count_nonzero(truth < 0))
    if unlabeled:
        raise SampleError(f"{unlabeled} records lack a truth label; sampling needs labeled data")

    normal_idx = np.flatnonzero(truth == 0)
    attack_idx = np.flatnonzero(truth == 1)

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
    return train_ids, test_ids


def stratified_sample(
    records: Sequence[FlowRecord], plan: SamplePlan
) -> tuple[list[FlowRecord], list[FlowRecord]]:
    """Draw (train_normal, test) records as :func:`stratified_indices` draws
    their indices. Output lists preserve the input ordering.

    ``bench/tracing.py`` is the only caller outside tests; ROADMAP item 3
    deletes this adapter after item 2."""
    truth = np.array([-1 if r.truth is None else r.truth for r in records], dtype=np.int8)
    train_ids, test_ids = stratified_indices(truth, plan)
    return [records[i] for i in train_ids], [records[i] for i in test_ids]


def copy_rows(paths: Sequence, schema: FeatureSchema, picks: Sequence[tuple[object, np.ndarray]]) -> None:
    """Write, for each ``(dest, indices)`` of ``picks``, a flow CSV of the
    data rows of ``paths`` at ``indices``, in file order.

    Rows are indexed from 0 across the files in order, as a concatenation of
    their :attr:`FlowBatch.truth` arrays is. Each file is read a batch at a
    time, and the output bytes are those a ``csv.writer`` with Unix line
    endings writes for the schema's header and the same rows: a row of a
    plain batch is copied as its input line, which ``csv.writer`` would
    write unchanged, and any other row is written by ``csv.writer``.
    """
    owner = np.full(max((int(ids.max()) + 1 for _, ids in picks if ids.size), default=0), -1, dtype=np.int8)
    for k, (_, ids) in enumerate(picks):
        owner[ids] = k
    with ExitStack() as stack:
        streams, writers = [], []
        for dest, _ in picks:
            stream = stack.enter_context(Path(dest).open("w", encoding="utf-8", newline=""))
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(schema.names)
            streams.append(stream)
            writers.append(writer.writerow)
        start = 0  # index of the next row
        for path in paths:
            with _open_text(path) as (stream, fid):
                batches = _LineBatches(stream, schema, fid)
                while start < owner.size and (lines := batches.take()):
                    if batches.is_plain(lines):
                        batches.plain_rows(len(lines))  # numbers the rows a later reread reports
                        if not lines[-1].endswith("\n"):
                            lines[-1] += "\n"
                        owners = owner[start : start + len(lines)]
                        for k, out in enumerate(streams):
                            out.writelines([lines[i] for i in np.flatnonzero(owners == k).tolist()])
                        start += len(lines)
                    else:
                        for _, _, fields in batches.reread(lines, lambda fields: fields):
                            if start < owner.size and owner[start] >= 0:
                                writers[owner[start]](fields)
                            start += 1
