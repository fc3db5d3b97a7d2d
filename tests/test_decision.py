import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netanom.decision import (
    BindingError,
    DecisionError,
    DetectionConfig,
    NormalProfile,
    ProfileFormatError,
    classify_scores,
    ensure_bound,
    load_profile,
    profile_to_doc,
    quartile,
    save_profile,
    train_profile,
)
from netanom.gmm import EmConfig, MixtureModel, score_records


def _toy_profile(lower, upper, d=1):
    """Profile with a hand-set band; the embedded model is irrelevant."""
    model = MixtureModel(np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))
    return NormalProfile(
        model=model, lower=lower, upper=upper, iqr=upper - lower, preprocess_digest="x"
    )


class TestQuartile:
    def test_four_point_fixture(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quartile(values, 1) == pytest.approx(1.75, abs=1e-15)
        assert quartile(values, 3) == pytest.approx(3.25, abs=1e-15)
        assert quartile(values, 3) - quartile(values, 1) == pytest.approx(1.5, abs=1e-15)

    def test_singleton(self):
        assert quartile([7.0], 1) == 7.0
        assert quartile([7.0], 3) == 7.0

    def test_constant_list(self):
        values = [2.5] * 9
        assert quartile(values, 3) - quartile(values, 1) == 0.0

    def test_unsorted_input(self):
        assert quartile([4.0, 1.0, 3.0, 2.0], 1) == pytest.approx(1.75)

    def test_empty_rejected(self):
        with pytest.raises(DecisionError):
            quartile([], 1)

    def test_q_must_be_1_or_3(self):
        with pytest.raises(DecisionError):
            quartile([1.0], 2)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 500))
    def test_matches_percentile_oracle(self, seed, size):
        values = np.random.default_rng(seed).normal(scale=10.0, size=size)
        assert quartile(values, 1) == pytest.approx(np.percentile(values, 25, method="linear"), abs=1e-12)
        assert quartile(values, 3) == pytest.approx(np.percentile(values, 75, method="linear"), abs=1e-12)


class TestDetectionConfig:
    def test_range_enforced_by_default(self):
        DetectionConfig(1.5)
        DetectionConfig(3.0)
        with pytest.raises(DecisionError):
            DetectionConfig(0.5)
        with pytest.raises(DecisionError):
            DetectionConfig(4.0)

    def test_override(self):
        assert DetectionConfig(0.0, enforce_range=False).w == 0.0

    def test_negative_rejected_even_overridden(self):
        with pytest.raises(DecisionError):
            DetectionConfig(-1.0, enforce_range=False)

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_non_finite_rejected_even_overridden(self, w):
        with pytest.raises(DecisionError, match="finite"):
            DetectionConfig(w, enforce_range=False)


class TestClassify:
    def test_band_fixture(self):
        profile = _toy_profile(-10.0, -6.0)  # iqr = 4
        w15 = DetectionConfig(1.5)
        assert profile.band(w15) == (-16.0, 0.0)
        assert classify_scores(np.array([-17.0]), profile, w15).tolist() == [True]
        assert classify_scores(np.array([-8.0]), profile, w15).tolist() == [False]
        w3 = DetectionConfig(3.0)
        assert profile.band(w3) == (-22.0, 6.0)
        assert classify_scores(np.array([-17.0]), profile, w3).tolist() == [False]

    def test_boundary_score_is_normal(self):
        profile = _toy_profile(0.0, 1.0)  # iqr = 1
        cfg = DetectionConfig(1.5)
        assert profile.band(cfg) == (-1.5, 2.5)
        assert classify_scores(np.array([-1.5, 2.5]), profile, cfg).tolist() == [False, False]
        assert classify_scores(np.array([np.nextafter(-1.5, -2)]), profile, cfg).tolist() == [True]

    def test_zero_iqr_band(self):
        profile = _toy_profile(2.0, 2.0)
        cfg = DetectionConfig(3.0)
        assert classify_scores(np.array([2.0]), profile, cfg).tolist() == [False]
        assert classify_scores(np.array([2.0 + 1e-12, 2.0 - 1e-12]), profile, cfg).tolist() == [True, True]

    def test_upper_tail_flagged(self):
        profile = _toy_profile(0.0, 1.0)
        cfg = DetectionConfig(1.5)
        assert classify_scores(np.array([2.6]), profile, cfg).tolist() == [True]

    def test_classify_single_record(self):
        # standard normal at x=0 scores log(1/sqrt(2*pi)) ~ -0.919
        profile = _toy_profile(-3.0, -1.0)  # iqr = 2, band at w=1.5: (-6, 2)
        cfg = DetectionConfig(1.5)
        assert profile.band(cfg) == (-6.0, 2.0)
        (score,) = profile.score_matrix(np.array([0.0])[None, :])
        assert score == pytest.approx(-0.9189385332046727)
        assert classify_scores(np.array([score]), profile, cfg).tolist() == [False]
        (far,) = profile.score_matrix(np.array([10.0])[None, :])
        assert far < -6.0
        assert classify_scores(np.array([far]), profile, cfg).tolist() == [True]

    def test_dimension_mismatch(self):
        profile = _toy_profile(0.0, 1.0, d=2)
        with pytest.raises(Exception):
            classify_scores(profile.score_matrix(np.array([0.0])[None, :]), profile, DetectionConfig(1.5))

    @given(st.integers(0, 2**32 - 1))
    def test_band_nesting(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=50)
        profile = _toy_profile(-0.5, 0.5)
        w1, w2 = sorted(rng.uniform(0.0, 4.0, size=2))
        flag_w2 = classify_scores(scores, profile, DetectionConfig(w2, enforce_range=False))
        flag_w1 = classify_scores(scores, profile, DetectionConfig(w1, enforce_range=False))
        assert np.all(flag_w1 | ~flag_w2)  # flagged at w2 => flagged at w1


class TestTrainProfile:
    def test_quartiles_and_coverage(self, fitted, split):
        pp, profile = fitted
        train, _ = split
        scores = profile.score_matrix(pp.apply_records(train))
        # brute-force sorted list is the oracle
        assert profile.lower == pytest.approx(np.percentile(scores, 25, method="linear"), abs=1e-12)
        assert profile.upper == pytest.approx(np.percentile(scores, 75, method="linear"), abs=1e-12)
        assert profile.lower < profile.upper
        assert np.mean(scores <= profile.lower) >= 0.25
        assert profile.iqr == profile.upper - profile.lower

    def test_identical_rows_zero_iqr(self):
        data = np.full((30, 2), 1.5)
        profile = train_profile(data, EmConfig(n_components=1, seed=0))
        assert profile.lower == profile.upper
        assert profile.iqr == 0.0

    def test_two_cluster_training_band(self):
        rng = np.random.default_rng(123)
        data = np.vstack([
            rng.normal(-5.0, 1.0, size=(500, 2)),
            rng.normal(+5.0, 1.0, size=(500, 2)),
        ])
        profile = train_profile(data, EmConfig(n_components=2, seed=0))
        scores = np.sort(score_records(data, profile.model))
        assert profile.lower < profile.upper
        # brute-force sorted score list is the oracle for the quartile band
        assert np.mean(scores <= profile.lower) >= 0.25
        assert np.mean(scores >= profile.upper) >= 0.25

    def test_at_most_half_of_training_flagged(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(401, 3))
        profile = train_profile(data, EmConfig(n_components=2, seed=0))
        scores = score_records(data, profile.model)
        for w in (0.0, 0.25, 1.0, 1.5, 3.0):
            flagged = classify_scores(scores, profile, DetectionConfig(w, enforce_range=False))
            assert flagged.mean() <= 0.5

    def test_profile_invariants(self):
        with pytest.raises(DecisionError):
            _toy_profile(1.0, 0.0)


class TestPersistence:
    def test_roundtrip_preserves_everything(self, fitted):
        _, profile = fitted
        blob = save_profile(profile)
        back = load_profile(blob)
        assert back.lower == profile.lower
        assert back.upper == profile.upper
        assert back.iqr == profile.iqr
        assert back.preprocess_digest == profile.preprocess_digest
        assert profile_to_doc(back) == profile_to_doc(profile)
        assert profile_to_doc(back)["score_space"] == "log-density"
        assert np.array_equal(back.model.weights, profile.model.weights)
        assert np.array_equal(back.model.means, profile.model.means)
        assert np.array_equal(back.model.variances, profile.model.variances)
        assert back.em_config == profile.em_config
        assert back.fit_report == profile.fit_report

    def test_reloaded_profile_classifies_identically(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, _ = labeled_test_set
        back = load_profile(save_profile(profile))
        cfg = DetectionConfig(2.0)
        a = classify_scores(profile.score_matrix(matrix), profile, cfg)
        b = classify_scores(back.score_matrix(matrix), back, cfg)
        assert np.array_equal(a, b)

    def test_truncated_document_rejected(self, fitted):
        _, profile = fitted
        blob = save_profile(profile)
        with pytest.raises(ProfileFormatError):
            load_profile(blob[: len(blob) // 2])

    def test_corruption_detected_by_checksum(self, fitted):
        _, profile = fitted
        doc = profile_to_doc(profile)
        doc["lower"] = doc["lower"] - 1.0  # tamper after checksumming
        with pytest.raises(ProfileFormatError, match="checksum"):
            load_profile(json.dumps(doc))

    def test_unknown_version_rejected(self, fitted):
        _, profile = fitted
        doc = profile_to_doc(profile)
        doc["version"] = 99
        with pytest.raises(ProfileFormatError, match="version"):
            load_profile(json.dumps(doc))

    @pytest.mark.parametrize("field", ["variances", "means"])
    def test_invalid_mixture_rejected(self, fitted, field):
        from netanom._docjson import digest_of

        _, profile = fitted
        doc = profile_to_doc(profile)
        if field == "variances":
            doc["variances"][0][0] = 1e-9  # below the floor
        else:
            doc["means"] = doc["means"][:-1]  # one component short
        doc["checksum"] = digest_of({k: v for k, v in doc.items() if k != "checksum"})
        with pytest.raises(ProfileFormatError, match="malformed"):
            load_profile(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ProfileFormatError):
            load_profile(b"\x00\x01binary junk")

    def test_other_score_space_rejected(self, fitted):
        from netanom._docjson import digest_of

        _, profile = fitted
        doc = profile_to_doc(profile)
        doc["score_space"] = "density"
        doc["checksum"] = digest_of({k: v for k, v in doc.items() if k != "checksum"})
        with pytest.raises(ProfileFormatError, match="score space"):
            load_profile(json.dumps(doc))


class TestBinding:
    def test_matching_digest_passes(self, fitted):
        pp, profile = fitted
        ensure_bound(profile, pp)

    def test_mismatch_rejected(self, fitted):
        pp, profile = fitted
        stale = NormalProfile(
            model=profile.model,
            lower=profile.lower,
            upper=profile.upper,
            iqr=profile.iqr,
            preprocess_digest="0" * 64,
        )
        with pytest.raises(BindingError):
            ensure_bound(stale, pp)
