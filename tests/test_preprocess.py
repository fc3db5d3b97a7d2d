import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netanom.ingest import ColumnSpec, FeatureSchema, FlowRecord
from netanom.preprocess import (
    CURATED_FEATURES,
    STD_FLOOR,
    PreprocessError,
    _encode_columns,
    fit_pca,
    fit_preprocess,
    fit_preprocess_batches,
    fit_zscore,
    load_preprocess,
    parse_reduction_mode,
    preprocess_from_doc,
    preprocess_to_doc,
    save_preprocess,
)

PROTO_SCHEMA = FeatureSchema(
    columns=(
        ColumnSpec("proto", "categorical"),
        ColumnSpec("bytes", "numeric"),
        ColumnSpec("note", "meta"),
        ColumnSpec("label", "label"),
    ),
    label_column="label",
    positive_label_value="1",
)


def _rec(proto, size, row=1):
    return FlowRecord((proto, str(size), "", "0"), 0, ("test", row))


def _encoder(protos):
    """The category codes of a one-batch fit on rows with these protocols
    (pca:1 over proto and bytes, so one or two rows suffice)."""
    columns = {"proto": list(protos), "bytes": [str(i) for i in range(len(protos))]}
    origins = [("test", i + 1) for i in range(len(protos))]
    return fit_preprocess_batches([(columns, origins)], PROTO_SCHEMA, "pca:1")[0].encoder


class TestEncoders:
    def test_first_seen_order(self):
        enc = _encoder(["TCP", "UDP", "TCP", "ICMP"])
        assert enc.codes["proto"] == {"TCP": 1, "UDP": 2, "ICMP": 3}

    def test_singleton_category(self):
        enc = _encoder(["sctp", "sctp"])
        assert enc.codes["proto"] == {"sctp": 1}

    def test_unseen_maps_to_zero(self):
        enc = _encoder(["tcp", "tcp"])
        encoded = _encode_columns({"proto": ["sctp", "tcp"]}, [("t", 1), ("t", 2)], PROTO_SCHEMA, enc, ("proto",))
        assert encoded[:, 0].tolist() == [0.0, 1.0]

    def test_meta_columns_not_encoded(self):
        enc = _encoder(["tcp", "tcp"])
        assert "note" not in enc.codes

    def test_empty_train_rejected(self):
        with pytest.raises(PreprocessError, match="empty training set"):
            fit_preprocess_batches([], PROTO_SCHEMA, "pca:1")
        with pytest.raises(PreprocessError, match="empty training set"):
            fit_preprocess([], PROTO_SCHEMA, "pca:1")


class TestPca:
    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, [2.0, 1.0, 0.1], size=(4000, 3))
        model = fit_pca(x, k=2)

        # independent oracle: dense eigendecomposition of the sample covariance
        cov = np.cov(x, rowvar=False)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        assert np.allclose(model.explained_variance, evals[order][:2], atol=1e-8)
        assert model.explained_variance == pytest.approx([4.0, 1.0], rel=0.15)
        for i, axis in enumerate(np.eye(3)[:2]):
            assert abs(model.projection[i] @ axis) > 0.99

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 7))
        model = fit_pca(x, k=5)
        gram = model.projection @ model.projection.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-9

    def test_full_basis_reconstructs(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 4))
        model = fit_pca(x, k=4)
        centered = x - model.mean
        recon = model.transform(x) @ model.projection
        assert np.max(np.abs(recon - centered)) < 1e-10

    def test_eigenvalues_match_oracle_up_to_20d(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 11, 20):
            x = rng.normal(size=(60, d)) @ rng.normal(size=(d, d))
            model = fit_pca(x, k=d)
            evals = np.sort(np.linalg.eigh(np.cov(x, rowvar=False))[0])[::-1]
            assert np.max(np.abs(model.explained_variance - evals)) < 1e-8
            assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_rank_deficient_allowed(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        model = fit_pca(x, k=2)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(PreprocessError, match="N=1|at least 2"):
            fit_pca(np.ones((1, 3)), k=1)
        with pytest.raises(PreprocessError, match="k="):
            fit_pca(np.ones((5, 3)), k=4)

    def test_mean_record_projects_to_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        model = fit_pca(x, k=2)
        assert model.transform(model.mean[None, :]) == pytest.approx(np.zeros((1, 2)), abs=1e-12)


class TestZScore:
    def test_small_fixture(self):
        params = fit_zscore(np.array([[1.0], [2.0], [3.0]]))
        assert params.mean[0] == pytest.approx(2.0)
        assert params.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))  # population convention

    def test_constant_column_floors(self):
        params = fit_zscore(np.full((4, 1), 5.0))
        assert params.mean[0] == 5.0
        assert params.std[0] == STD_FLOOR

    def test_single_row(self):
        params = fit_zscore(np.array([[3.0, -1.0]]))
        assert params.mean.tolist() == [3.0, -1.0]
        assert params.std.tolist() == [STD_FLOOR, STD_FLOOR]

    @given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 10_000))
    def test_normalized_matrix_is_standard(self, n, d, seed):
        x = np.random.default_rng(seed).normal(size=(n, d)) * 3.0 + 1.0
        params = fit_zscore(x)
        z = params.normalize(x)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9


class TestPipeline:
    def test_curated_mode_dimension(self, split, schema):
        train, _ = split
        model = fit_preprocess(train, schema, "table1")
        assert model.output_dim == 10
        assert model.selected == CURATED_FEATURES

    def test_training_matrix_standardized(self, split, schema):
        train, _ = split
        model = fit_preprocess(train, schema, "table1")
        z = model.apply_records(train)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        non_floored = model.zscore.std > STD_FLOOR
        assert np.max(np.abs(z.std(axis=0)[non_floored] - 1.0)) < 1e-9

    def test_pca_mode(self, split, schema):
        train, _ = split
        model = fit_preprocess(train, schema, "pca:5")
        assert model.output_dim == 5
        z = model.apply_records(train)
        assert z.shape == (len(train), 5)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9

    def test_apply_single_equals_batch(self, split, schema):
        train, _ = split
        model = fit_preprocess(train, schema, "table1")
        batch = model.apply_records(train[:5])
        for i in range(5):
            assert np.array_equal(model.apply_records([train[i]])[0], batch[i])

    def test_apply_is_pure(self, split, schema):
        train, _ = split
        model = fit_preprocess(train, schema, "table1")
        a = model.apply_records(train[:1])
        b = model.apply_records(train[:1])
        assert np.array_equal(a, b)

    def test_non_numeric_value_names_column(self):
        train = [_rec("tcp", 10, 1), _rec("udp", 20, 2)]
        model = fit_preprocess(train, PROTO_SCHEMA, "pca:1")
        bad = FlowRecord(("tcp", "garbage", "", "0"), 0, ("test", 9))
        with pytest.raises(PreprocessError, match="'bytes'.* in test row 9$"):
            model.apply_records([bad])

    def test_non_finite_value_rejected(self):
        train = [_rec("tcp", 10, 1), _rec("udp", 20, 2)]
        model = fit_preprocess(train, PROTO_SCHEMA, "pca:1")
        for junk in ("nan", "inf", "-inf"):
            bad = FlowRecord(("tcp", junk, "", "0"), 0, ("test", 9))
            with pytest.raises(PreprocessError, match="non-finite.* in test row 9$"):
                model.apply_records([bad])

    def test_unseen_category_uses_reserved_code(self):
        train = [_rec("tcp", 10, 1), _rec("udp", 30, 2)]
        model = fit_preprocess(train, PROTO_SCHEMA, "pca:2")
        seen = model.apply_records([FlowRecord(("tcp", "10", "", "0"), 0, ("t", 1))])[0]
        unseen = model.apply_records([FlowRecord(("sctp", "10", "", "0"), 0, ("t", 2))])[0]
        assert not np.array_equal(seen, unseen)

    def test_apply_columns_reads_only_the_model_columns(self):
        train = [_rec("tcp", 10, 1), _rec("udp", 20, 2), _rec("tcp", 40, 3)]
        model = fit_preprocess(train, PROTO_SCHEMA, "pca:1")
        assert model.columns == ("proto", "bytes")
        columns = {"proto": ["udp", "tcp"], "bytes": ["20", "40"]}
        expected = model.apply_records(train[1:])
        assert np.array_equal(model.apply_columns(columns, [("t", 1), ("t", 2)]), expected)
        with pytest.raises(PreprocessError, match="column 'bytes' holds 0 values for 2 records"):
            model.apply_columns({"proto": ["udp", "tcp"]}, [("t", 1), ("t", 2)])
        with pytest.raises(PreprocessError, match="column 'proto' holds 1 values for 2 records"):
            model.apply_columns({**columns, "proto": ["udp"]}, [("t", 1), ("t", 2)])

    def test_mode_parsing(self):
        assert parse_reduction_mode("table1") == ("table1", None)
        assert parse_reduction_mode("pca:7") == ("pca", 7)
        for bad in ("pca:x", "pca:0", "tablex"):
            with pytest.raises(PreprocessError):
                parse_reduction_mode(bad)


class TestSerialization:
    @pytest.mark.parametrize("mode", ["table1", "pca:4"])
    def test_roundtrip_preserves_outputs(self, split, schema, mode, tmp_path):
        train, test = split
        model = fit_preprocess(train, schema, mode)
        path = tmp_path / "preprocess.json"
        save_preprocess(model, path)
        reloaded = load_preprocess(path)
        assert reloaded.digest() == model.digest()
        a = model.apply_records(test[:50])
        b = reloaded.apply_records(test[:50])
        assert np.array_equal(a, b)

    def test_bad_version_rejected(self, split, schema):
        train, _ = split
        doc = preprocess_to_doc(fit_preprocess(train, schema, "table1"))
        doc["version"] = 42
        with pytest.raises(PreprocessError, match="version"):
            preprocess_from_doc(doc)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.preprocess.json"
        path.write_bytes(b"{not json")
        with pytest.raises(PreprocessError):
            load_preprocess(path)
        path.write_text("[1, 2]")
        with pytest.raises(PreprocessError, match="JSON object"):
            load_preprocess(path)
