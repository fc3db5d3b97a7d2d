import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netanom import synth
from netanom.cli import main
from netanom.ingest import default_schema, parse_flow_csv
from netanom.synth import write_synthetic_csv


def _reference_rows(n, seed, attack_fraction) -> list[list[str]]:
    """The row path the column writer replaced: every value formatted on
    its own, one list per row."""
    columns = synth._generate_columns(n, seed, attack_fraction)

    def _format(name, arr):
        if name in synth._POOLS:
            return [synth._POOLS[name][code] for code in arr]
        if arr.dtype.kind == "f":
            return [f"{float(v):.6f}" for v in arr]
        return [str(int(v)) for v in arr]

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


def _cell_texts(name, values) -> list[str]:
    """The field texts the writer makes of one column's values, less the
    NUL padding; each leaves its last byte free for the separator."""
    rows = np.stack(synth._column_words(name, np.asarray(values)), axis=1).view(np.uint8)
    assert not rows[:, -1].any()
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


# k / 2**7 for odd k: the exact x * 10**6 ends in .5, a tie "%.6f" rounds to even.
_TIES = [k / 2**7 for k in range(-301, 301, 2)] + [(2**39 + 2 * j + 1) / 2**7 for j in range(5)]
_NEAR_2_52 = [math.nextafter(2.0**e / 1e6, to) for e in (52, 53, 54) for to in (0.0, math.inf)] + [
    (2.0**52 + d) / 1e6 for d in range(-4, 5)
]
_FIXED_EDGES = _TIES + _NEAR_2_52 + [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 5e-7, 4.9999999999999996e-07, 5.000000000000001e-07,
    1.0000005, -5e-7, -1.5, -1e-9, 1e16, 1e300, -1e300, math.inf, -math.inf, math.nan,
]


def test_fixed_point_texts_at_the_edges():
    assert _cell_texts("dur", _FIXED_EDGES) == [f"{v:.6f}" for v in _FIXED_EDGES]


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.floats(),
            st.floats(0.0, 2.0**55 / 1e6),
            st.integers(-(2**40), 2**40).map(lambda k: k / 2**7),
            st.integers(0, 2**52).map(lambda k: (k + 0.5) / 1e6),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_fixed_point_texts_equal_the_format(values):
    assert _cell_texts("dur", values) == [f"{v:.6f}" for v in values]


def test_integer_texts_equal_str():
    values = [-1, 0, 999, 1000, 65_535, 65_536, 2**31, 2**62, 2**63 - 1, -(2**63)]
    assert _cell_texts("sport", np.array(values, dtype=np.int64)) == [str(v) for v in values]


@settings(max_examples=200)
@given(
    st.lists(
        st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**7), 10**7), st.sampled_from([0, 10**3, 10**6, 10**9])),
        min_size=1,
        max_size=64,
    )
)
def test_any_int64_texts_equal_str(values):
    assert _cell_texts("sport", np.array(values, dtype=np.int64)) == [str(v) for v in values]


def test_pool_texts_need_no_quoting_and_hold_no_padding():
    """NUL pads the writer's words, and no field may need quoting."""
    for name, pool in synth._POOLS.items():
        assert len(pool) == len(set(pool)) <= 256, name  # distinct uint8 codes
        for text in pool:
            assert text.isascii() and not set(text) & set('\0,"\r\n'), (name, text)
            assert text or name == "attack_cat", name


@pytest.mark.parametrize(
    "n, seed, attack_fraction, digest",
    [
        (1, 0, 0.35, "2f8cb9cddd27e5552274d2ea2d797ab51e5d13896d43ac51dc2348eb4d54a680"),
        (8191, 7, 1.0, "9d063d3c2fc9d85574ed70e853d3b3e69c16e5884637994b67caa094babf60f0"),
        (8193, 2**32 - 1, 0.0, "c9e15567a150e6e9dc39a6a27cc64a720acb7b9f681ee3001da881258fe321a7"),
        (20000, 11, 0.35, "01526e63831c606f0f1873697edc143815332ec9b1957f9547f2bfc7b0e1def0"),
    ],
)
def test_corpus_bytes_are_pinned(tmp_path, n, seed, attack_fraction, digest):
    """Generation and writing together, across slice edges and with one
    traffic class only; the digests predate the byte writer."""
    path = tmp_path / "flows.csv"
    write_synthetic_csv(path, n, seed, attack_fraction)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_bench_corpus_bytes_are_pinned(tmp_path):
    """The corpus the benchmark builds, ``synth --rows 160000 --seed 1``."""
    out = tmp_path / "corpus.csv"
    assert main(["synth", "--rows", "160000", "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "e03d705d2d0cd1a37bc76cc60e16698c42ddaa1ec451b5948a4d677dcafe8208"


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
