"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The full-pipeline criteria run on a seeded synthetic sample in the stock
49-column layout (the real capture corpus is not redistributable); the
statistical and algorithmic criteria are corpus-independent.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from netanom import synth
from netanom._docjson import pretty_dumps
from netanom.cli import main
from netanom.collab import SimulationConfig, replay, run_simulation
from netanom.decision import (
    DetectionConfig,
    classify_scores,
    load_profile,
    quartile,
    save_profile,
    train_profile,
)
from netanom.evaluation import ConfusionCounts, confusion, metrics, report_to_doc, sweep
from netanom.gmm import EmConfig, fit_em, score_records
from netanom.ingest import ColumnSpec, FeatureSchema, FlowBatch, SamplePlan, default_schema, parse_flow_csv, stratified_sample
from netanom.preprocess import STD_FLOOR, fit_pca, fit_preprocess, fit_preprocess_batches

W_GRID = [1.5, 2.0, 2.5, 3.0]
RUNTIME_BUDGET_SECONDS = 300.0


@contextmanager
def criterion(number: int, name: str, details: dict):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    suffix = "; ".join(f"{k}={v}" for k, v in details.items())
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS" + (f" [{suffix}]" if suffix else ""))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline over a 100,000-record sample (60-70% normal), timed."""
    started = time.perf_counter()
    path = tmp_path_factory.mktemp("acceptance") / "corpus.csv"
    synth.write_synthetic_csv(path, 130_000, seed=20260810, attack_fraction=0.35)
    schema = default_schema()
    corpus = parse_flow_csv(path, schema)
    plan = SamplePlan(total_size=100_000, normal_fraction=0.65, train_fraction_of_normal=0.6, seed=7)
    train, test = stratified_sample(corpus, plan)
    pp = fit_preprocess(train, schema, "table1")
    train_matrix = pp.apply_records(train)
    profile = train_profile(
        train_matrix, EmConfig(n_components=10, seed=0), preprocess_digest=pp.digest()
    )
    test_matrix = pp.apply_records(test)
    truths = np.array([r.truth for r in test])
    scores = profile.score_matrix(test_matrix)
    points = sweep(scores, truths, profile, W_GRID)
    duration = time.perf_counter() - started
    return {
        "schema": schema,
        "train": train,
        "test": test,
        "preprocess": pp,
        "train_matrix": train_matrix,
        "profile": profile,
        "scores": scores,
        "truths": truths,
        "points": points,
        "duration": duration,
    }


@pytest.fixture(scope="module")
def random_fits():
    """100 seeded random EM fits with per-M-step weight snapshots."""
    fits = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 160))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        centers = rng.normal(scale=4.0, size=(max(k, 1), d))
        assign = rng.integers(0, centers.shape[0], size=n)
        data = centers[assign] + rng.normal(size=(n, d))
        weight_trace = []
        model, report = fit_em(
            data,
            EmConfig(n_components=k, seed=seed, max_iter=80),
            on_m_step=lambda it, w: weight_trace.append(w),
        )
        fits.append((model, report, weight_trace))
    return fits


def test_criterion_1_sample_run_band_nesting_and_operating_point(pipeline):
    details = {}
    with criterion(1, "sampled-run band nesting and operating point", details):
        points = pipeline["points"]
        scores = pipeline["scores"]
        profile = pipeline["profile"]
        truths = pipeline["truths"]

        # (a) exact set containment of flagged records as the band widens
        flagged = {
            w: classify_scores(scores, profile, DetectionConfig(w)) for w in (1.5, 3.0)
        }
        assert np.all(flagged[1.5] | ~flagged[3.0]), "flagged set at w=3 must nest in w=1.5"
        by_w = {p.w: p for p in points}
        assert by_w[3.0].false_positive_rate <= by_w[1.5].false_positive_rate

        # (b) best w on the grid: max DR subject to FPR <= 15%
        eligible = [p for p in points if p.false_positive_rate is not None and p.false_positive_rate <= 0.15]
        assert eligible, f"no grid point reaches FPR <= 15%: {[(p.w, p.false_positive_rate) for p in points]}"
        best = max(eligible, key=lambda p: (p.detection_rate, -p.w))
        assert best.detection_rate >= 0.70, f"best w={best.w} reaches DR {best.detection_rate:.3f} < 0.70"

        assert pipeline["duration"] < RUNTIME_BUDGET_SECONDS
        n_test = len(pipeline["test"])
        details.update(
            {
                "records": f"{len(pipeline['train']) + n_test}",
                "best_w": best.w,
                "DR": f"{best.detection_rate:.4f}",
                "FPR": f"{best.false_positive_rate:.4f}",
                "fpr_w1.5": f"{by_w[1.5].false_positive_rate:.4f}",
                "fpr_w3": f"{by_w[3.0].false_positive_rate:.4f}",
                "runtime_s": f"{pipeline['duration']:.1f}",
            }
        )


def test_criterion_2_em_recovers_synthetic_clusters(random_fits):
    details = {}
    with criterion(2, "EM correctness on the two-cluster fixture", details):
        rng = np.random.default_rng(123)
        a = rng.normal(loc=-5.0, scale=1.0, size=(500, 2))
        b = rng.normal(loc=+5.0, scale=1.0, size=(500, 2))
        data = np.vstack([a, b])[rng.permutation(1000)]
        model, report = fit_em(data, EmConfig(n_components=2, seed=0))
        means = model.means
        order = np.argsort(means[:, 0])
        err_low = np.max(np.abs(means[order[0]] - (-5.0)))
        err_high = np.max(np.abs(means[order[1]] - 5.0))
        assert err_low < 0.2 and err_high < 0.2
        assert np.max(np.abs(model.weights - 0.5)) < 0.05

        for _, rep, _ in random_fits:
            assert rep.reseeds == 0  # fixtures must exercise pure EM updates
            assert np.all(np.diff(rep.trace) >= -1e-9)
        details.update(
            {
                "mean_err": f"{max(err_low, err_high):.3f}",
                "weights": np.round(model.weights, 3).tolist(),
                "random_fits": len(random_fits),
            }
        )


def test_criterion_3_density_normalization():
    details = {}
    with criterion(3, "density normalization (d=1, K=1)", details):
        mu, var = 1.3, 4.7
        data = np.random.default_rng(0).normal(mu, math.sqrt(var), size=(400, 1))
        model, _ = fit_em(data, EmConfig(n_components=1, seed=0))
        sd = math.sqrt(model.variances[0, 0])
        center = model.means[0, 0]
        xs = np.linspace(center - 12 * sd, center + 12 * sd, 100_000)
        integral = np.trapezoid(np.exp(score_records(xs[:, None], model)), xs)
        assert abs(integral - 1.0) < 1e-6
        details["integral"] = f"{integral:.9f}"


def test_criterion_4_weight_simplex_after_every_m_step(random_fits):
    details = {}
    with criterion(4, "mixture-weight simplex after every M-step", details):
        checked = 0
        for model, _, weight_trace in random_fits:
            assert weight_trace
            for w in weight_trace:
                assert np.all(w >= 0)
                assert abs(float(w.sum()) - 1.0) < 1e-12
                checked += 1
            assert abs(float(model.weights.sum()) - 1.0) < 1e-12
        details["m_steps_checked"] = checked


def test_criterion_5_quartile_oracle():
    details = {}
    with criterion(5, "quartile vs brute-force oracle", details):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quartile(values, 1) == pytest.approx(1.75, abs=1e-15)
        assert quartile(values, 3) == pytest.approx(3.25, abs=1e-15)
        assert quartile(values, 3) - quartile(values, 1) == pytest.approx(1.5, abs=1e-15)

        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(1000):
            size = int(rng.integers(1, 501))
            data = rng.normal(scale=10.0, size=size)
            for q, pct in ((1, 25), (3, 75)):
                mine = quartile(data, q)
                oracle = float(np.percentile(data, pct, method="linear"))
                worst = max(worst, abs(mine - oracle))
        assert worst < 1e-12
        details.update({"lists": 1000, "max_abs_err": f"{worst:.2e}"})


def test_criterion_6_metrics_formulas():
    details = {}
    with criterion(6, "metrics formulas vs independent recount", details):
        rep = metrics(ConfusionCounts(tp=95, tn=885, fp=5, fn=15), w=1.5)
        assert rep.accuracy == pytest.approx(0.980, abs=1e-15)
        assert rep.detection_rate == pytest.approx(0.8636, abs=5e-5)
        assert rep.false_positive_rate == pytest.approx(0.005618, abs=5e-7)

        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            preds = rng.integers(0, 2, size=n).tolist()
            truths = rng.integers(0, 2, size=n).tolist()
            counts = confusion(preds, truths)
            tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
            for p, t in zip(preds, truths):
                tally[("t" if p == t else "f") + ("p" if p else "n")] += 1
            assert (counts.tp, counts.tn, counts.fp, counts.fn) == (
                tally["tp"], tally["tn"], tally["fp"], tally["fn"],
            )
            got = metrics(counts)
            assert got.accuracy == (counts.tp + counts.tn) / n
            if counts.tp + counts.fn:
                assert got.detection_rate == counts.tp / (counts.tp + counts.fn)
            else:
                assert got.detection_rate is None
            if counts.fp + counts.tn:
                assert got.false_positive_rate == counts.fp / (counts.fp + counts.tn)
            else:
                assert got.false_positive_rate is None
        details["fixtures"] = 1000


def test_criterion_7_preprocessing_contracts(pipeline):
    details = {}
    with criterion(7, "preprocessing contracts", details):
        # z-score of the training matrix
        z = pipeline["train_matrix"]
        pp = pipeline["preprocess"]
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        non_floored = pp.zscore.std > STD_FLOOR
        assert np.max(np.abs(z.std(axis=0)[non_floored] - 1.0)) < 1e-9

        # PCA: orthonormal projections matching a dense eigendecomposition oracle
        rng = np.random.default_rng(77)
        worst = 0.0
        for d in range(2, 21):
            x = rng.normal(size=(80, d)) @ rng.normal(size=(d, d))
            model = fit_pca(x, k=d)
            gram = model.projection @ model.projection.T
            assert np.max(np.abs(gram - np.eye(d))) < 1e-9
            evals = np.sort(np.linalg.eigh(np.cov(x, rowvar=False))[0])[::-1]
            worst = max(worst, float(np.max(np.abs(model.explained_variance - evals))))
        assert worst < 1e-8

        # first-seen categorical coding
        schema = FeatureSchema(
            (ColumnSpec("proto", "categorical"), ColumnSpec("label", "label")), "label", "1"
        )
        train = FlowBatch({"proto": ["TCP", "UDP", "ICMP"]}, np.zeros(3, dtype=np.int8), "t", np.arange(1, 4))
        enc = fit_preprocess_batches([train], schema, "pca:1")[0].encoder
        assert enc["proto"] == {"TCP": 1, "UDP": 2, "ICMP": 3}
        details.update({"pca_max_eig_err": f"{worst:.2e}", "dims": "2..20"})


def test_criterion_8_collaborative_partition_invariance(pipeline):
    details = {}
    with criterion(8, "collaborative partition invariance", details):
        schema = pipeline["schema"]
        pp = pipeline["preprocess"]
        profile = pipeline["profile"]
        records = pipeline["test"][:10_000]

        def outcome(nodes, transport):
            cfg = SimulationConfig(
                nodes=nodes, assignment="round-robin", interval_size=256, w=2.0,
                transport=transport,
            )
            return run_simulation(replay(records, cfg, schema), profile, pp, cfg)

        three = outcome(("A", "B", "C"), "in-process")
        one = outcome(("solo",), "in-process")
        assert three.aggregate_report.counts == one.aggregate_report.counts

        summed = ConfusionCounts(0, 0, 0, 0)
        for node in ("A", "B", "C"):
            summed = summed + three.node_results[node].counts
        assert three.aggregate_report.counts == summed

        sock = outcome(("A", "B", "C"), "loopback-socket")
        for node in ("A", "B", "C"):
            a = pretty_dumps(report_to_doc(three.per_node_reports[node])).encode()
            b = pretty_dumps(report_to_doc(sock.per_node_reports[node])).encode()
            assert a == b
        agg_a = pretty_dumps(report_to_doc(three.aggregate_report)).encode()
        agg_b = pretty_dumps(report_to_doc(sock.aggregate_report)).encode()
        assert agg_a == agg_b
        c = three.aggregate_report.counts
        details.update({"records": len(records), "aggregate": f"tp={c.tp},tn={c.tn},fp={c.fp},fn={c.fn}"})


def test_criterion_9_determinism_and_persistence(pipeline, tmp_path):
    details = {}
    with criterion(9, "determinism and persistence", details):
        # save/load flips no verdict on a 1,000-record fixture
        profile = pipeline["profile"]
        reloaded = load_profile(save_profile(profile))
        matrix_scores = pipeline["scores"][:1000]
        for w in W_GRID:
            cfg = DetectionConfig(w)
            assert np.array_equal(
                classify_scores(matrix_scores, profile, cfg),
                classify_scores(matrix_scores, reloaded, cfg),
            )

        # CLI rerun reproduces byte-identical profiles and reports
        data = tmp_path / "flows.csv"
        assert main(["synth", "--rows", "4000", "--seed", "3", "--out", str(data)]) == 0
        assert main([
            "sample", "--input", str(data), "--size", "3000", "--normal-frac", "0.65",
            "--train-frac", "0.6", "--seed", "2", "--out", str(tmp_path / "split"),
        ]) == 0
        train_csv = tmp_path / "split" / "train_normal.csv"
        test_csv = tmp_path / "split" / "test.csv"
        for run in ("r1", "r2"):
            assert main([
                "train", "--train", str(train_csv), "--components", "5", "--seed", "11",
                "--out", str(tmp_path / run / "profile.json"),
            ]) == 0
            assert main([
                "evaluate", "--profile", str(tmp_path / run / "profile.json"),
                "--test", str(test_csv), "--w", "2", "--out", str(tmp_path / run / "report"),
            ]) == 0
            assert main([
                "roc", "--profile", str(tmp_path / run / "profile.json"),
                "--test", str(test_csv), "--w-grid", "1.5:3:0.5",
                "--out", str(tmp_path / run / "roc"),
            ]) == 0
        for name in (
            "profile.json", "profile.preprocess.json",
            "report.json", "report.txt", "roc.csv", "roc.json", "roc.txt",
        ):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical reruns"
        details.update({"verdict_fixture": 1000, "rerun_files_compared": 7})
