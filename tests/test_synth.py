import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from netanom import synth
from netanom.ingest import default_schema, parse_flow_csv
from netanom.synth import write_synthetic_csv


def _reference_rows(n, seed, attack_fraction) -> list[list[str]]:
    """The row path the column writer replaced: every value formatted on
    its own, one list per row."""
    columns = synth._generate_columns(n, seed, attack_fraction)

    def _format(name, arr):
        if name in synth._INT_COLUMNS:
            return [str(int(v)) for v in arr]
        if arr.dtype == object or arr.dtype.kind in "US":
            return [str(v) for v in arr]
        return [f"{float(v):.6f}" for v in arr]

    return [list(row) for row in zip(*(_format(name, columns[name]) for name in default_schema().names))]


def _reference_csv(n, seed, attack_fraction) -> bytes:
    """The header and the reference rows as ``csv.writer`` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(default_schema().names)
    writer.writerows(_reference_rows(n, seed, attack_fraction))
    return buf.getvalue().encode("utf-8")


def _records(tmp_path, n, seed, attack_fraction=0.35):
    """The records of a written synthetic CSV named ``flows.csv``."""
    path = tmp_path / "flows.csv"
    write_synthetic_csv(path, n, seed, attack_fraction)
    return parse_flow_csv(path, default_schema())


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


def test_rows_match_schema_width(tmp_path):
    schema = default_schema()
    records = _records(tmp_path, 200, seed=1)
    assert len(records) == 200
    assert all(len(r.values) == schema.width for r in records)
    assert [r.origin for r in records] == [("flows.csv", i) for i in range(1, 201)]


def test_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        (tmp_path / name).mkdir()
        write_synthetic_csv(tmp_path / name / "flows.csv", 300, seed)
    assert (tmp_path / "a" / "flows.csv").read_bytes() == (tmp_path / "b" / "flows.csv").read_bytes()
    assert (tmp_path / "a" / "flows.csv").read_bytes() != (tmp_path / "c" / "flows.csv").read_bytes()


def test_attack_fraction_respected(tmp_path):
    records = _records(tmp_path, 2000, seed=3, attack_fraction=0.25)
    attacks = sum(r.truth for r in records)
    assert attacks == round(2000 * 0.25)


def test_labels_consistent_with_category(tmp_path):
    schema = default_schema()
    cat_idx = schema.index_of("attack_cat")
    for rec in _records(tmp_path, 500, seed=4):
        category = rec.values[cat_idx]
        assert (rec.truth == 1) == (category != "")


def test_written_csv_parses_back(tmp_path):
    schema = default_schema()
    path = tmp_path / "flows.csv"
    summary = write_synthetic_csv(path, 400, seed=2, attack_fraction=0.4)
    records = parse_flow_csv(path, schema)
    assert len(records) == 400
    assert sum(r.truth for r in records) == summary["attack"]
    assert [list(r.values) for r in records] == _reference_rows(400, seed=2, attack_fraction=0.4)


def test_numeric_columns_parse_as_floats(tmp_path):
    schema = default_schema()
    numeric = [schema.index_of(c.name) for c in schema.columns if c.kind == "numeric"]
    for rec in _records(tmp_path, 100, seed=6):
        for idx in numeric:
            float(rec.values[idx])


def test_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        write_synthetic_csv(tmp_path / "never.csv", 0, seed=1)
    with pytest.raises(ValueError):
        write_synthetic_csv(tmp_path / "never.csv", 10, seed=1, attack_fraction=1.5)
    assert not (tmp_path / "never.csv").exists()
