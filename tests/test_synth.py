import io

import pytest
from hypothesis import given, settings, strategies as st

from netanom import synth
from netanom.ingest import FlowRecord, default_schema, parse_flow_csv, write_flow_csv
from netanom.synth import generate_records, write_synthetic_csv


def _reference_csv(n, seed, attack_fraction) -> bytes:
    """The row path the column writer replaced: format every value on its
    own, build one list per row, wrap the rows in records and write them
    with ``write_flow_csv``."""
    schema = default_schema()
    columns = synth._generate_columns(n, seed, attack_fraction)

    def _format(name, arr):
        if name in synth._INT_COLUMNS:
            return [str(int(v)) for v in arr]
        if arr.dtype == object or arr.dtype.kind in "US":
            return [str(v) for v in arr]
        return [f"{float(v):.6f}" for v in arr]

    rows = [list(row) for row in zip(*(_format(name, columns[name]) for name in schema.names))]
    label_idx = schema.label_index
    records = [FlowRecord(tuple(row), 1 if row[label_idx] == "1" else 0, ("ref", i + 1)) for i, row in enumerate(rows)]
    buf = io.StringIO()
    write_flow_csv(records, schema, buf)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=10)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    attack_fraction=st.floats(0.0, 1.0),
)
def test_written_bytes_equal_the_row_path(tmp_path_factory, n, seed, attack_fraction):
    path = tmp_path_factory.mktemp("synth") / "flows.csv"
    write_synthetic_csv(path, n, seed, attack_fraction)
    assert path.read_bytes() == _reference_csv(n, seed, attack_fraction)


def test_rows_match_schema_width():
    schema = default_schema()
    records = generate_records(200, seed=1)
    assert len(records) == 200
    assert all(len(r.values) == schema.width for r in records)
    assert [r.origin for r in records] == [("synthetic", i) for i in range(1, 201)]


def test_deterministic_per_seed():
    assert generate_records(300, seed=9) == generate_records(300, seed=9)
    assert generate_records(300, seed=9) != generate_records(300, seed=10)


def test_attack_fraction_respected():
    records = generate_records(2000, seed=3, attack_fraction=0.25)
    attacks = sum(r.truth for r in records)
    assert attacks == round(2000 * 0.25)


def test_labels_consistent_with_category():
    schema = default_schema()
    cat_idx = schema.index_of("attack_cat")
    for rec in generate_records(500, seed=4):
        category = rec.values[cat_idx]
        assert (rec.truth == 1) == (category != "")


def test_written_csv_parses_back(tmp_path):
    schema = default_schema()
    path = tmp_path / "flows.csv"
    summary = write_synthetic_csv(path, 400, seed=2, attack_fraction=0.4)
    records = parse_flow_csv(path, schema)
    assert len(records) == 400
    assert sum(r.truth for r in records) == summary["attack"]
    assert [r.values for r in records] == [r.values for r in generate_records(400, seed=2, attack_fraction=0.4)]


def test_numeric_columns_parse_as_floats():
    schema = default_schema()
    numeric = [schema.index_of(c.name) for c in schema.columns if c.kind == "numeric"]
    for rec in generate_records(100, seed=6):
        for idx in numeric:
            float(rec.values[idx])


def test_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        generate_records(0, seed=1)
    with pytest.raises(ValueError):
        generate_records(10, seed=1, attack_fraction=1.5)
    with pytest.raises(ValueError):
        write_synthetic_csv(tmp_path / "never.csv", 0, seed=1)
    assert not (tmp_path / "never.csv").exists()
