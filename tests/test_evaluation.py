import pytest
from hypothesis import given, strategies as st

from netanom.decision import DetectionConfig, classify_scores
from netanom.evaluation import (
    ConfusionCounts,
    EvaluationError,
    confusion,
    metrics,
    render_table,
    report_from_doc,
    report_to_doc,
    roc_csv,
    summarize_reports,
    sweep,
)


class TestConfusion:
    def test_perfect_all_attack(self):
        counts = confusion([1] * 8, [1] * 8)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (8, 0, 0, 0)

    def test_inverted_classifier(self):
        truths = [0, 1, 0, 1, 1]
        preds = [1 - t for t in truths]
        counts = confusion(preds, truths)
        assert counts.tp == 0 and counts.tn == 0
        assert counts.fp == 2 and counts.fn == 3

    def test_hand_tally(self):
        preds = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
        truths = [1, 0, 0, 1, 1, 0, 1, 1, 0, 0]
        counts = confusion(preds, truths)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 3, 2, 2)
        assert counts.total == 10

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            confusion([], [])

    def test_non_binary_rejected(self):
        with pytest.raises(EvaluationError):
            confusion([2, 0], [1, 0])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200))
    def test_matches_brute_recount(self, pairs):
        preds = [p for p, _ in pairs]
        truths = [t for _, t in pairs]
        counts = confusion(preds, truths)
        # independent recount
        tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for p, t in pairs:
            key = ("t" if p == t else "f") + ("p" if p == 1 else "n")
            tally[key] += 1
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (
            tally["tp"], tally["tn"], tally["fp"], tally["fn"],
        )
        assert counts.total == len(pairs)


class TestMetrics:
    def test_reference_fixture(self):
        rep = metrics(ConfusionCounts(tp=95, tn=885, fp=5, fn=15), w=1.5)
        assert rep.accuracy == pytest.approx(0.980, abs=1e-15)
        assert rep.detection_rate == pytest.approx(95 / 110)
        assert rep.detection_rate == pytest.approx(0.8636, abs=5e-5)
        assert rep.false_positive_rate == pytest.approx(5 / 890)
        assert rep.false_positive_rate == pytest.approx(0.005618, abs=5e-7)

    def test_accuracy_is_exact(self):
        rep = metrics(ConfusionCounts(tp=1, tn=3, fp=0, fn=0))
        assert rep.accuracy == 1.0
        rep = metrics(ConfusionCounts(tp=1, tn=1, fp=1, fn=1))
        assert rep.accuracy == 0.5

    def test_undefined_dr_marker(self):
        rep = metrics(ConfusionCounts(tp=0, tn=9, fp=1, fn=0))
        assert rep.detection_rate is None
        assert rep.accuracy == pytest.approx(0.9)

    def test_undefined_fpr_marker(self):
        rep = metrics(ConfusionCounts(tp=5, tn=0, fp=0, fn=5))
        assert rep.false_positive_rate is None

    def test_perfect_classifier(self):
        rep = metrics(ConfusionCounts(tp=4, tn=4, fp=0, fn=0))
        assert rep.accuracy == 1.0
        assert rep.false_positive_rate == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(EvaluationError):
            metrics(ConfusionCounts(0, 0, 0, 0))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=100))
    def test_formulas_exact(self, pairs):
        preds = [p for p, _ in pairs]
        truths = [t for _, t in pairs]
        c = confusion(preds, truths)
        rep = metrics(c)
        assert rep.accuracy == (c.tp + c.tn) / c.total
        if c.tp + c.fn:
            assert rep.detection_rate == c.tp / (c.tp + c.fn)
        if c.fp + c.tn:
            assert rep.false_positive_rate == c.fp / (c.fp + c.tn)

    def test_counts_validation(self):
        with pytest.raises(EvaluationError):
            ConfusionCounts(-1, 0, 0, 0)

    def test_counts_addition(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        assert a + b == ConfusionCounts(11, 22, 33, 44)


class TestRocSweep:
    def test_paper_grid_gives_four_points(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        reports = sweep(profile.score_matrix(matrix), truths, profile, [1.5, 2.0, 2.5, 3.0])
        assert [r.w for r in reports] == [1.5, 2.0, 2.5, 3.0]

    def test_singleton_grid_matches_direct_metrics(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        scores = profile.score_matrix(matrix)
        (report,) = sweep(scores, truths, profile, [2.0])
        flagged = classify_scores(scores, profile, DetectionConfig(2.0))
        rep = metrics(confusion(flagged.astype(int), truths), w=2.0)
        assert report.detection_rate == rep.detection_rate
        assert report.false_positive_rate == rep.false_positive_rate
        assert report.accuracy == rep.accuracy

    def test_fpr_non_increasing_in_w(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        reports = sweep(profile.score_matrix(matrix), truths, profile, grid)
        fprs = [r.false_positive_rate for r in reports]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        drs = [r.detection_rate for r in reports]
        assert all(a >= b for a, b in zip(drs, drs[1:]))

    def test_rethresholding_equals_reclassification(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        reports = sweep(profile.score_matrix(matrix), truths, profile, [1.5, 3.0])
        for report in reports:
            cfg = DetectionConfig(report.w)
            flagged = classify_scores(profile.score_matrix(matrix), profile, cfg)
            rep = metrics(confusion(flagged.astype(int), truths), w=report.w)
            assert (report.detection_rate, report.false_positive_rate, report.accuracy) == (
                rep.detection_rate, rep.false_positive_rate, rep.accuracy,
            )

    def test_empty_grid_rejected(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        with pytest.raises(EvaluationError):
            sweep(profile.score_matrix(matrix), truths, profile, [])

    def test_negative_w_rejected(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        with pytest.raises(EvaluationError, match="non-negative"):
            sweep(profile.score_matrix(matrix), truths, profile, [1.5, -0.5])

    def test_csv_emission(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        reports = sweep(profile.score_matrix(matrix), truths, profile, [1.5, 2.0])
        text = roc_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "w,dr,fpr,accuracy"
        assert len(lines) == 3
        w, dr, fpr, acc = lines[1].split(",")
        assert float(w) == 1.5
        assert float(dr) == reports[0].detection_rate
        assert float(fpr) == reports[0].false_positive_rate
        assert float(acc) == reports[0].accuracy

    def test_csv_marks_undefined(self):
        rep = metrics(ConfusionCounts(tp=0, tn=9, fp=1, fn=0), w=2.0)
        assert roc_csv([rep]).split("\n")[1] == "2.0,undefined,0.1,0.9"


class TestReports:
    def test_doc_roundtrip(self):
        rep = metrics(ConfusionCounts(9, 90, 1, 0), w=2.5)
        assert report_from_doc(report_to_doc(rep)) == rep

    def test_undefined_survives_roundtrip(self):
        rep = metrics(ConfusionCounts(0, 9, 1, 0), w=1.5)
        back = report_from_doc(report_to_doc(rep))
        assert back.detection_rate is None

    def test_table_mentions_reference_rows(self):
        rep = metrics(ConfusionCounts(9, 90, 1, 0), w=2.0)
        text = render_table([rep], include_reference=True)
        assert "not reproduced" in text
        for name in ("TANN", "EDM", "MCA"):
            assert name in text

    def test_table_renders_undefined(self):
        rep = metrics(ConfusionCounts(0, 9, 1, 0), w=1.5)
        text = render_table([rep])
        assert "undefined" in text

    def test_summaries_micro_vs_macro(self):
        a = metrics(ConfusionCounts(tp=50, tn=50, fp=0, fn=0), w=2.0)  # accuracy 1.0
        b = metrics(ConfusionCounts(tp=0, tn=150, fp=25, fn=25), w=2.0)  # accuracy 0.75
        summary = summarize_reports([a, b])
        assert summary["samples"] == 2
        # micro pools the counts: (50+0+50+150)/300
        assert summary["micro_pooled_records"]["accuracy"] == pytest.approx(250 / 300)
        # macro averages the per-sample ratios
        assert summary["macro_mean_over_samples"]["accuracy"] == pytest.approx(0.875)
