"""Every command survives arbitrary byte edits to every file it reads.

A few random byte edits go into one input file: a capture, a training
file, a profile, its preprocessing document or a simulation config. The
command that reads it, run through ``cli.main``, must then exit 0, 1 or 2.
An exit of 1 prints exactly one ``error:`` line and writes nothing, and
every reader process the command forked has been reaped. When a command
exits 0 on an edited capture, its manifest's ``records`` is the number of
data rows a plain ``csv`` reading of the file counts.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netanom.cli import main

from conftest import written

#: Bytes an insertion or a replacement draws from: separators, quotes,
#: line ends, NUL, number syntax, bytes that are not UTF-8 on their own,
#: and the letters of nan and INF.
_ALPHABET = b',\n"\r\x000x9-.eE+ \t\xff\xc3nanINF'


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 40-row labeled capture, a 60-row training file, the profile and
    preprocessing document trained on it, and a loopback hash-of-source
    simulation config."""
    root = tmp_path_factory.mktemp("corruption")
    assert main(["synth", "--rows", "600", "--seed", "7", "--out", str(root / "data.csv")]) == 0
    assert main(["sample", "--input", str(root / "data.csv"), "--size", "400", "--seed", "2", "--out", str(root / "split")]) == 0
    for name, source, rows in (("capture.csv", "test.csv", 40), ("train.csv", "train_normal.csv", 60)):
        lines = (root / "split" / source).read_text().splitlines(keepends=True)
        (root / name).write_text("".join(lines[: rows + 1]))
    assert main(["train", "--train", str(root / "train.csv"), "--components", "2", "--seed", "0",
                 "--out", str(root / "profile.json")]) == 0
    (root / "sim.json").write_text(json.dumps({
        "version": 1, "nodes": ["A", "B"], "assignment": "hash-of-source", "interval_size": 8, "w": 2.0,
        "transport": "loopback-socket",
    }, indent=2))
    return root


def _argv(files, command, out):
    """argv for ``command`` on ``files`` (a name -> path map), writing under ``out``."""
    pipeline = ["--profile", str(files["profile.json"]), "--preprocess", str(files["profile.preprocess.json"])]
    return {
        "detect": ["detect", *pipeline, "--input", str(files["capture.csv"]), "--w", "2", "--out", str(out / "v.csv")],
        "roc": ["roc", *pipeline, "--test", str(files["capture.csv"]), "--w-grid", "1.5:3:0.5", "--out", str(out / "roc")],
        "simulate": ["simulate", "--config", str(files["sim.json"]), *pipeline, "--test", str(files["capture.csv"]),
                     "--out", str(out)],
        "sample": ["sample", "--input", str(files["capture.csv"]), "--size", "10", "--seed", "1", "--out", str(out)],
        "train": ["train", "--train", str(files["train.csv"]), "--components", "2", "--max-iter", "10",
                  "--out", str(out / "p.json")],
    }[command]


#: The commands that read each input file.
_READERS = {
    "capture.csv": ["detect", "roc", "simulate", "sample"],
    "train.csv": ["train"],
    "profile.json": ["detect", "roc", "simulate"],
    "profile.preprocess.json": ["detect", "roc", "simulate"],
    "sim.json": ["simulate"],
}

#: Where each command's manifest puts the records it read; sample's holds
#: only the records it drew.
_RECORDS = {
    "detect": lambda out: json.loads((out / "v.manifest.json").read_text())["records"],
    "roc": lambda out: json.loads((out / "roc.manifest.json").read_text())["records"],
    "simulate": lambda out: json.loads((out / "manifest.json").read_text())["parameters"]["records"],
}


@st.composite
def _edited(draw, original: bytes) -> bytes:
    """``original`` after 1-3 edits: a deleted byte, 1-3 inserted or
    replacing bytes, or a duplicated run of up to 80 bytes."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate"]))
        if kind == "delete":
            del data[at : at + 1]
        elif kind == "duplicate":
            data[at:at] = data[at : at + draw(st.integers(1, 80))]
        else:
            piece = bytes(draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=3)))
            data[at : at + (kind == "replace")] = piece
    return bytes(data)


def _data_rows(path: Path, names: list[str]) -> int:
    """Data rows of a capture: blank lines are skipped, and the first row
    that is not blank is a header, skipped, when its fields match the
    column names once stripped of spaces and a leading BOM, in any case."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [fields for fields in csv.reader(fh) if fields]
    if rows and [f.strip().lstrip("\ufeff").lower() for f in rows[0]] == [n.lower() for n in names]:
        rows = rows[1:]
    return len(rows)


@pytest.mark.parametrize("name", list(_READERS))
@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_an_edited_input_fails_cleanly_or_is_read_whole(inputs, forked, name, data):
    original = (inputs / name).read_bytes()
    edited = data.draw(_edited(original), label="edited")
    command = data.draw(st.sampled_from(_READERS[name]), label="command")
    forked.clear()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {other: inputs / other for other in _READERS}
        files[name] = tmp / name
        files[name].write_bytes(edited)
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(_argv(files, command, out))
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), stderr.getvalue()
        assert None not in forked.values(), f"a reader process was left unreaped: {forked}"
        if code == 1:
            (line,) = stderr.getvalue().splitlines()
            assert line.startswith("error: ")
            assert written(out) == []
        elif code == 0 and name == "capture.csv" and command in _RECORDS:
            header = (inputs / name).read_text().split("\n", 1)[0].split(",")
            assert _RECORDS[command](out) == _data_rows(files[name], header)
