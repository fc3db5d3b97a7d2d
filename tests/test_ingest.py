import io

import pytest
from hypothesis import given, strategies as st

from netanom.ingest import (
    ColumnSpec,
    FeatureSchema,
    FlowRecord,
    ParseError,
    RowIssue,
    SampleError,
    SamplePlan,
    SchemaError,
    default_schema,
    load_schema,
    parse_flow_csv,
    parse_flow_csvs,
    save_schema,
    schema_from_doc,
    schema_to_doc,
    stratified_sample,
    write_flow_csv,
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
        assert load_schema(path.read_text()) == TINY

    def test_bad_version_rejected(self):
        doc = schema_to_doc(TINY)
        doc["version"] = 99
        with pytest.raises(SchemaError, match="version"):
            schema_from_doc(doc)


class TestParse:
    def test_parse_basic(self):
        recs = parse_flow_csv(io.StringIO("tcp,100,0\nudp,200,1\n"), TINY, file_id="f")
        assert [r.values for r in recs] == [("tcp", "100", "0"), ("udp", "200", "1")]
        assert [r.truth for r in recs] == [0, 1]
        assert [r.origin for r in recs] == [("f", 1), ("f", 2)]

    def test_header_autodetected(self):
        with_header = parse_flow_csv(io.StringIO("proto,bytes,label\ntcp,100,0\n"), TINY)
        without = parse_flow_csv(io.StringIO("tcp,100,0\n"), TINY)
        assert [r.values for r in with_header] == [r.values for r in without]
        assert with_header[0].origin[1] == 1

    def test_empty_source(self):
        assert parse_flow_csv(io.StringIO(""), TINY) == []
        assert parse_flow_csv(io.BytesIO(b""), TINY) == []

    def test_label_rule(self):
        recs = parse_flow_csv(io.StringIO("tcp,1,1\ntcp,1,0\ntcp,1,attack\ntcp,1,\n"), TINY)
        assert [r.truth for r in recs] == [1, 0, 0, None]

    def test_short_row_strict_names_row(self):
        text = "tcp,100,0\nudp,200\nicmp,300,1\n"
        with pytest.raises(ParseError) as err:
            parse_flow_csv(io.StringIO(text), TINY, file_id="three.csv")
        assert err.value.row == 2
        assert err.value.file_id == "three.csv"

    def test_short_row_lenient_keeps_others(self):
        text = "tcp,100,0\nudp,200\nicmp,300,1\n"
        issues: list[RowIssue] = []
        recs = parse_flow_csv(io.StringIO(text), TINY, file_id="three.csv", strict=False, issues=issues)
        assert [r.origin[1] for r in recs] == [1, 3]
        assert len(issues) == 1 and issues[0].row == 2

    def test_multiple_files_concatenate(self, tmp_path):
        paths = []
        for i in range(4):
            p = tmp_path / f"part{i}.csv"
            p.write_text(f"tcp,{i},0\nudp,{i},1\n")
            paths.append(p)
        recs = parse_flow_csvs(paths, TINY)
        assert len(recs) == 8
        assert recs[0].origin == ("part0.csv", 1)
        assert recs[-1].origin == ("part3.csv", 2)

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
        records = [_rec(row, None if row[2] == "" else (1 if row[2] == "1" else 0), i + 1)
                   for i, row in enumerate(rows)]
        buf = io.StringIO()
        write_flow_csv(records, TINY, buf)
        reparsed = parse_flow_csv(io.StringIO(buf.getvalue()), TINY)
        assert [r.values for r in reparsed] == [r.values for r in records]
        assert [r.truth for r in reparsed] == [r.truth for r in records]


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
