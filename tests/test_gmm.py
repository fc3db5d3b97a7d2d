import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netanom import gmm
from netanom.gmm import (
    LOG_2PI,
    VARIANCE_FLOOR,
    EmConfig,
    GmmError,
    MixtureModel,
    _SCORE_CHUNK,
    _expanded_log_terms,
    _log_normalize,
    _m_step,
    fit_em,
    score_records,
)


def gaussian_logpdf_1d(x, mean, var):
    """Closed-form log-density of the univariate Gaussian at x; ``var`` is
    delta^2."""
    return -0.5 * (LOG_2PI + math.log(var)) - (x - mean) ** 2 / (2.0 * var)


def _score_one(x, model):
    """Mixture log-density of one observation, scored as a one-row batch."""
    return score_records(np.asarray(x, dtype=np.float64)[None, :], model)[0]


def _model(weights, means, variances):
    return MixtureModel(
        np.asarray(weights, dtype=np.float64),
        np.asarray(means, dtype=np.float64),
        np.asarray(variances, dtype=np.float64),
    )


def _mpmath_mixture_logpdf(x, weights, means, variances):
    """High-precision direct summation: log sum_k a_k prod_j N(x_j)."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for k in range(len(weights)):
            term = mpmath.mpf(weights[k])
            for j in range(len(x)):
                v = mpmath.mpf(variances[k][j])
                diff = mpmath.mpf(x[j]) - mpmath.mpf(means[k][j])
                term *= mpmath.exp(-(diff**2) / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v)
            total += term
        return float(mpmath.log(total))


def _logpdf_1d(x, mean, var):
    """Log-density of a one-component, one-dimensional mixture at x."""
    return _score_one([x], _model([1.0], [[mean]], [[var]]))


class TestGaussianLogpdf:
    def test_at_the_mode(self):
        # standard normal peak: 1/sqrt(2*pi) = 0.39894228...
        assert _logpdf_1d(0.0, 0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-15)

    def test_one_sigma_out(self):
        # density 0.24197072451914337 at x=1
        assert _logpdf_1d(1.0, 0.0, 1.0) == pytest.approx(-1.4189385332046727, abs=1e-15)
        assert math.exp(_logpdf_1d(1.0, 0.0, 1.0)) == pytest.approx(0.24197072451914337)

    @given(
        st.floats(-50, 50),
        st.floats(-10, 10),
        st.floats(0.01, 100),
    )
    def test_symmetry_around_mean(self, a, mean, var):
        # mean +/- a round differently, so allow rounding-level slack
        left = _logpdf_1d(mean - a, mean, var)
        right = _logpdf_1d(mean + a, mean, var)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(GmmError):
            _logpdf_1d(0.0, 0.0, 0.0)
        with pytest.raises(GmmError):
            _logpdf_1d(0.0, 0.0, -1.0)


class TestMixtureLogpdf:
    def test_single_component_is_sum_of_1d(self):
        model = _model([1.0], [[0.5, -2.0, 3.0]], [[1.0, 0.5, 2.0]])
        x = [0.1, 0.2, 0.3]
        expected = sum(
            gaussian_logpdf_1d(x[j], model.means[0, j], model.variances[0, j])
            for j in range(3)
        )
        assert _score_one(x, model) == pytest.approx(expected, rel=1e-14)

    def test_duplicate_components_collapse(self):
        one = _model([1.0], [[1.0, 2.0]], [[0.5, 1.5]])
        two = _model([0.5, 0.5], [[1.0, 2.0], [1.0, 2.0]], [[0.5, 1.5], [0.5, 1.5]])
        for x in ([0.0, 0.0], [5.0, -3.0]):
            assert _score_one(x, two) == pytest.approx(_score_one(x, one), rel=1e-13)

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(7)
        weights = np.array([0.2, 0.5, 0.3])
        means = rng.normal(size=(3, 2))
        variances = rng.uniform(0.2, 2.0, size=(3, 2))
        model = _model(weights, means, variances)
        for _ in range(20):
            x = rng.normal(scale=3.0, size=2)
            got = _score_one(x, model)
            want = _mpmath_mixture_logpdf(x, weights, means, variances)
            assert got == pytest.approx(want, abs=1e-10)

    def test_far_outlier_stays_finite(self):
        model = _model([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        score = _score_one([1e4], model)
        assert math.isfinite(score) and score < -1e7

    def test_extreme_spread_no_overflow(self):
        # one very tight and one very wide component; log-space must not overflow
        model = _model([0.5, 0.5], [[0.0], [0.0]], [[1e-6], [1e6]])
        assert math.isfinite(_score_one([0.0], model))
        assert math.isfinite(_score_one([1e3], model))

    def test_dimension_mismatch(self):
        model = _model([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(GmmError):
            _score_one([0.0], model)

    @given(st.integers(0, 2**32 - 1))
    def test_component_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(k))
        w = w / w.sum()
        means = rng.normal(size=(k, d))
        variances = rng.uniform(0.1, 3.0, size=(k, d))
        perm = rng.permutation(k)
        a = _model(w, means, variances)
        b = _model(w[perm], means[perm], variances[perm])
        x = rng.normal(size=d)
        assert _score_one(x, a) == pytest.approx(_score_one(x, b), rel=1e-12, abs=1e-12)

    def test_split_component_invariance(self):
        base = _model([0.6, 0.4], [[0.0], [3.0]], [[1.0], [0.5]])
        split = _model(
            [0.3, 0.3, 0.4], [[0.0], [0.0], [3.0]], [[1.0], [1.0], [0.5]]
        )
        for x in ([-1.0], [0.0], [2.5], [10.0]):
            assert _score_one(x, split) == pytest.approx(_score_one(x, base), rel=1e-12)

    def test_density_normalizes_1d(self):
        mu, var = 0.7, 2.3
        model = _model([1.0], [[mu]], [[var]])
        sd = math.sqrt(var)
        xs = np.linspace(mu - 12 * sd, mu + 12 * sd, 100_000)
        dens = np.exp(score_records(xs[:, None], model))
        integral = np.trapezoid(dens, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestScoreRecords:
    def test_scores_are_record_local_bitwise(self):
        rng = np.random.default_rng(4)
        k, d = 6, 5
        model = _model(
            rng.dirichlet(np.ones(k)), rng.normal(size=(k, d)), 10.0 ** rng.uniform(-6, 1, size=(k, d))
        )
        x = rng.normal(scale=2.0, size=(20_000, d))  # spans more than two score chunks
        whole = score_records(x, model)
        for size in (1, 7, _SCORE_CHUNK - 1, _SCORE_CHUNK + 1):
            parts = [score_records(x[i : i + size], model) for i in range(0, 20_000, size)[:50]]
            assert np.array_equal(np.concatenate(parts), whole[: sum(p.size for p in parts)])
        rows = rng.choice(20_000, size=30, replace=False)
        assert np.array_equal([_score_one(x[i], model) for i in rows], whole[rows])


def _broadcast_scores(x, model):
    """The broadcasting form of the score: (K, N, d) centred terms summed by
    ``np.sum`` along their last axis, then the mixture's log-sum-exp."""
    diff = x[None, :, :] - model.means[:, None, :]
    quad = np.sum(diff * diff / model.variances[:, None, :], axis=2)
    logdet = np.sum(np.log(model.variances), axis=1)
    terms = np.log(model.weights)[:, None] + -0.5 * (x.shape[1] * LOG_2PI + logdet[:, None] + quad)
    return _log_normalize(terms)


def _score_case(d, k, n, seed):
    """n records of d dimensions and a k-component model, drawn from
    ``seed`` over many orders of magnitude, with some variances floored."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2, 4, size=(n, d)), -1e4, 1e4)
    means = np.clip(rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-2, 4, size=(k, d)), -1e4, 1e4)
    variances = 10.0 ** rng.uniform(-6, 2, size=(k, d))
    variances[rng.random((k, d)) < 0.3] = VARIANCE_FLOOR
    return x, _model(rng.dirichlet(np.ones(k)), means, variances)


class TestScoreKernel:
    """score_records sums the centred terms per dimension in numpy's pairwise
    order, so its scores have the bits of the broadcasting form."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 20),
        k=st.integers(1, 12),
        n=st.integers(1, 300),
        chunk=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bitwise_equal_to_the_broadcasting_form(self, d, k, n, chunk, seed, data):
        x, model = _score_case(d, k, n, seed)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4), label="cuts"))
        want = _broadcast_scores(x, model)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmm, "_SCORE_CHUNK", chunk)
            parts = [score_records(x[a:b], model) for a, b in zip([0, *cuts], [*cuts, n])]
        assert np.concatenate(parts).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_a_record_scored_alone_has_the_bits_it_has_in_a_batch(self):
        """With 8 or more components, np.sum adds the terms of a one-record
        chunk, a (K, 1) array, in pairwise order, but those of a chunk of
        two or more records row by row; the log-sum-exp adds row by row for
        both."""
        x, model = _score_case(d=1, k=8, n=102, seed=0)
        whole = score_records(x, model)
        alone = np.concatenate([score_records(row[None, :], model) for row in x])
        assert alone.view(np.uint64).tolist() == whole.view(np.uint64).tolist()

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_pairwise_sum_matches_np_sum(self, d):
        terms = np.random.default_rng(d).random((3, 50, d)) * 10.0 ** np.random.default_rng(d + 1).uniform(-8, 8, (3, 50, d))
        want = np.sum(terms, axis=2)
        got = gmm._pairwise_sum(np.ascontiguousarray(terms.transpose(2, 0, 1)))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _two_cluster_data(seed=123, n_per=500, d=2, sep=5.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=-sep, scale=1.0, size=(n_per, d))
    b = rng.normal(loc=+sep, scale=1.0, size=(n_per, d))
    data = np.vstack([a, b])
    return data[rng.permutation(data.shape[0])]


class TestFitEm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 3)) * 2.0 + 1.0
        model, report = fit_em(x, EmConfig(n_components=1, seed=0))
        assert model.weights.tolist() == [1.0]
        assert model.means[0] == pytest.approx(x.mean(axis=0), abs=1e-12)
        assert model.variances[0] == pytest.approx(x.var(axis=0), abs=1e-12)
        assert report.converged

    def test_two_cluster_recovery(self):
        data = _two_cluster_data()
        model, report = fit_em(data, EmConfig(n_components=2, seed=0))
        means = model.means
        # match each fitted mean to its nearest generator mean
        order = np.argsort(means[:, 0])
        assert means[order[0]] == pytest.approx(np.full(2, -5.0), abs=0.2)
        assert means[order[1]] == pytest.approx(np.full(2, +5.0), abs=0.2)
        assert model.weights == pytest.approx([0.5, 0.5], abs=0.05)
        assert report.converged

    def test_simplex_after_every_m_step(self):
        data = _two_cluster_data(seed=9, n_per=120)
        observed = []

        def on_m_step(iteration, weights):
            observed.append((iteration, weights))

        fit_em(data, EmConfig(n_components=3, seed=1), on_m_step=on_m_step)
        assert observed
        for _, w in observed:
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_trace_non_decreasing(self):
        data = _two_cluster_data(seed=21, n_per=200)
        _, report = fit_em(data, EmConfig(n_components=2, seed=3))
        diffs = np.diff(report.trace)
        assert np.all(diffs >= -1e-9)
        assert report.final_log_likelihood == report.trace[-1]

    def test_reported_log_likelihood_is_the_mean_score(self):
        # The fit's expanded-form log-likelihood agrees with the centred-form
        # scores of the model it returns, record by record summed.
        data = _two_cluster_data(seed=8, n_per=300, d=3)
        model, report = fit_em(data, EmConfig(n_components=3, seed=2))
        brute = math.fsum(score_records(data, model)) / len(data)
        assert report.final_log_likelihood == pytest.approx(brute, rel=1e-9)

    def test_deterministic_bitwise(self):
        data = _two_cluster_data(seed=33, n_per=150)
        cfg = EmConfig(n_components=4, seed=77)
        m1, r1 = fit_em(data, cfg)
        m2, r2 = fit_em(data, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.variances, m2.variances)
        assert r1.trace == r2.trace

    def test_deterministic_bitwise_at_threaded_size(self):
        # 20,000 x 10 with K=10 is far above OpenBLAS's single-thread cutoff
        # for GEMM, so on a multi-core host the EM products run threaded.
        rng = np.random.default_rng(2024)
        data = rng.normal(size=(20_000, 10)) + rng.integers(0, 4, size=(20_000, 1))
        cfg = EmConfig(n_components=10, seed=5, max_iter=5)
        m1, r1 = fit_em(data, cfg)
        m2, r2 = fit_em(data, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.variances, m2.variances)
        assert r1.trace == r2.trace

    def test_identical_rows_floor_variance(self):
        x = np.ones((20, 2)) * 7.0
        model, _ = fit_em(x, EmConfig(n_components=2, seed=0))
        assert np.all(model.variances == 1e-6)
        scores = score_records(x, model)
        assert np.all(scores == scores[0])

    def test_too_few_records(self):
        with pytest.raises(GmmError, match="N=2 < K=3"):
            fit_em(np.ones((2, 2)), EmConfig(n_components=3))

    def test_config_validation(self):
        with pytest.raises(GmmError):
            EmConfig(n_components=0)
        with pytest.raises(GmmError):
            EmConfig(n_components=1, max_iter=0)
        with pytest.raises(GmmError):
            EmConfig(n_components=1, tol=0.0)

    @settings(max_examples=15)
    @given(st.integers(0, 10_000))
    def test_random_fits_keep_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 120))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        model, report = fit_em(data, EmConfig(n_components=k, seed=seed, max_iter=60))
        assert abs(model.weights.sum() - 1.0) < 1e-12
        assert np.all(model.weights >= 0)
        assert np.all(model.variances >= 1e-6 * (1 - 1e-12))
        if report.reseeds == 0:
            assert np.all(np.diff(report.trace) >= -1e-9)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(GmmError):
            _model([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(GmmError):
            _model([1.5, -0.5], [[0.0], [1.0]], [[1.0], [1.0]])

    def test_dimensions_must_agree(self):
        with pytest.raises(GmmError):
            MixtureModel(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 2)))


def _reference_log_terms(x, logw, means, variances):
    """The broadcast E-step the expanded kernel replaced: (N, K) centred form."""
    diff = x[:, None, :] - means[None, :, :]
    quad = np.sum(diff * diff / variances[None, :, :], axis=2)
    logdet = np.sum(np.log(variances), axis=1)
    return logw[None, :] - 0.5 * (x.shape[1] * LOG_2PI + logdet[None, :] + quad)


def _reference_m_step(resp, x, floor):
    """The per-component M-step the matrix product replaced, with the centred
    variance; ``resp`` is (K, N)."""
    means = np.empty((resp.shape[0], x.shape[1]))
    variances = np.empty_like(means)
    for i, r in enumerate(resp):
        mass = r.sum()
        mu = r @ x / mass
        centered = x - mu
        means[i] = mu
        variances[i] = np.maximum(r @ (centered * centered) / mass, floor)
    return means, variances


def _feats(x):
    return np.ascontiguousarray(np.hstack([x * x, x]).T)


def _expanded(x, logw, means, variances):
    return _expanded_log_terms(_feats(x), logw, means, variances)


def _new_m_step(resp, x, floor=VARIANCE_FLOOR):
    return _m_step(resp, resp.sum(axis=1), _feats(x), floor)


class TestKernelOracles:
    """The matrix-product EM kernels against the centred forms they replaced."""

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_e_step_matches_centred(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(1, 60)), int(rng.integers(1, 12)), int(rng.integers(1, 6))
        # z-scored scale, variances from 1e-2 to 1e2
        x = rng.normal(scale=3.0, size=(n, d))
        means = rng.normal(scale=3.0, size=(k, d))
        variances = 10.0 ** rng.uniform(-2, 2, size=(k, d))
        logw = np.log(rng.dirichlet(np.ones(k)))
        got = _expanded(x, logw, means, variances)
        want = _reference_log_terms(x, logw, means, variances).T
        # relative to 1e-9; atol covers terms that happen to sit near zero
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_m_step_matches_centred(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(2, 80)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        centre = rng.uniform(-10, 10, size=d)
        spread = 10.0 ** rng.uniform(-1, 1, size=d)
        x = centre + spread * rng.normal(size=(n, d))
        resp = rng.dirichlet(np.ones(k), size=n).T
        got_means, got_vars = _new_m_step(resp, x)
        want_means, want_vars = _reference_m_step(resp, x, VARIANCE_FLOOR)
        np.testing.assert_allclose(got_means, want_means, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got_vars, want_vars, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3))
    def test_floored_variance_error_bound(self, seed, centre):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(2, 400)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        # spread far below the floor: every component is floored
        x = centre + 10.0 ** rng.uniform(-7, -4) * rng.normal(size=(n, d))
        resp = rng.dirichlet(np.ones(k), size=n).T
        _, got_vars = _new_m_step(resp, x)
        _, want_vars = _reference_m_step(resp, x, VARIANCE_FLOOR)
        assert np.all(want_vars == VARIANCE_FLOOR)
        assert np.max(np.abs(got_vars - want_vars)) < VARIANCE_FLOOR / 10
        # the bound holds before the floor hides it, too
        _, raw_got = _new_m_step(resp, x, 0.0)
        _, raw_want = _reference_m_step(resp, x, 0.0)
        assert np.max(np.abs(raw_got - raw_want)) < VARIANCE_FLOOR / 10

    def test_empty_component_gets_finite_rows(self):
        x = np.arange(10.0).reshape(5, 2)
        resp = np.vstack([np.ones(5), np.zeros(5)])  # the second component is empty
        with np.errstate(all="raise"):
            means, variances = _new_m_step(resp, x)
        assert np.all(np.isfinite(means)) and np.all(variances >= VARIANCE_FLOOR)
        assert np.array_equal(means[0], x.mean(axis=0))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_outliers_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(2, 60)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        x[rows] = 1e4 * rng.choice([-1.0, 1.0], size=(rows.size, d))
        means = rng.normal(size=(k, d))
        means[0] = x[rows[0]]  # one component sits on the outliers
        variances = 10.0 ** rng.uniform(-6, 0, size=(k, d))
        logw = np.log(rng.dirichlet(np.ones(k)))
        terms = _expanded(x, logw, means, variances)
        # The expansion cancels: the error is bounded by ulps of the summed
        # magnitudes, (x^2 + 2|x m| + m^2) / var, not of (x - m)^2 / var.
        prec = 1.0 / variances
        scale = (x * x) @ prec.T + 2.0 * np.abs(x) @ (np.abs(means) * prec).T
        scale += np.sum(means * means * prec, axis=1)
        want = _reference_log_terms(x, logw, means, variances)
        bound = (2 * d + 4) * np.finfo(float).eps * (scale + np.abs(want))
        assert np.all(np.abs(terms.T - want) <= bound)
        lse = _log_normalize(terms)
        assert np.all(np.isfinite(lse)) and np.all(np.isfinite(terms))
        got_means, got_vars = _new_m_step(terms, x)
        assert np.all(np.isfinite(got_means)) and np.all(got_vars >= VARIANCE_FLOOR)
