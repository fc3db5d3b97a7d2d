import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netanom.decision import DetectionConfig, classify_scores, sides
from netanom.evaluation import (
    BandTally,
    ConfusionCounts,
    EvaluationError,
    confusion,
    metrics,
    render_table,
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
        reports = sweep([(profile.score_matrix(matrix), truths)], profile, [1.5, 2.0, 2.5, 3.0])
        assert [r.w for r in reports] == [1.5, 2.0, 2.5, 3.0]

    def test_singleton_grid_matches_direct_metrics(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        scores = profile.score_matrix(matrix)
        (report,) = sweep([(scores, truths)], profile, [2.0])
        flagged = classify_scores(scores, profile, DetectionConfig(2.0))
        rep = metrics(confusion(flagged.astype(int), truths), w=2.0)
        assert report.detection_rate == rep.detection_rate
        assert report.false_positive_rate == rep.false_positive_rate
        assert report.accuracy == rep.accuracy

    def test_fpr_non_increasing_in_w(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        reports = sweep([(profile.score_matrix(matrix), truths)], profile, grid)
        fprs = [r.false_positive_rate for r in reports]
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        drs = [r.detection_rate for r in reports]
        assert all(a >= b for a, b in zip(drs, drs[1:]))

    def test_rethresholding_equals_reclassification(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        reports = sweep([(profile.score_matrix(matrix), truths)], profile, [1.5, 3.0])
        for report in reports:
            cfg = DetectionConfig(report.w)
            flagged = classify_scores(profile.score_matrix(matrix), profile, cfg)
            rep = metrics(confusion(flagged.astype(int), truths), w=report.w)
            assert (report.detection_rate, report.false_positive_rate, report.accuracy) == (
                rep.detection_rate, rep.false_positive_rate, rep.accuracy,
            )

    @settings(max_examples=300)
    @given(
        data=st.data(),
        quartiles=st.sampled_from([(-2.0, -2.0), (-2.0, -1.5), (-1.5, 1.5), (0.0, 3.0), (float("-inf"), 1.0)]),
        grid=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=8),
    )
    def test_sorted_sweep_counts_what_classify_and_confusion_count(self, fitted, data, quartiles, grid):
        """The sweep's counts at each w are those of classify_scores and
        confusion at that w: with duplicated scores, scores exactly on a band
        edge, -inf, NaN, w=0, a NaN band edge (0 * inf) and a class with no
        records, whichever way the scores are split into non-empty batches,
        from one batch to one a record."""
        lower, upper = quartiles
        profile = dataclasses.replace(fitted[1], lower=lower, upper=upper, iqr=upper - lower)
        edges = [edge for w in grid for edge in profile.band(DetectionConfig(w, enforce_range=False))]
        pool = st.one_of(
            st.sampled_from([e for e in edges if np.isfinite(e)] or [0.0]),
            st.sampled_from([float("-inf"), float("inf"), float("nan"), -100.0, 0.25, 100.0]),
            st.floats(-10, 10),
        )
        scores = np.array(data.draw(st.lists(pool, min_size=1, max_size=40)))
        truths = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
        cut_after = data.draw(st.lists(st.booleans(), min_size=len(scores) - 1, max_size=len(scores) - 1))
        bounds = [0, *(i + 1 for i, cut in enumerate(cut_after) if cut), len(scores)]
        reports = sweep([(scores[a:b], truths[a:b]) for a, b in zip(bounds, bounds[1:])], profile, grid)
        for w, report in zip(grid, reports):
            flagged = classify_scores(scores, profile, DetectionConfig(w, enforce_range=False))
            assert report == metrics(confusion(flagged.astype(int), truths), w=w)

    def test_sweep_checks_the_truths(self, fitted):
        _, profile = fitted
        with pytest.raises(EvaluationError, match="truths must be binary"):
            sweep([(np.zeros(3), [0, 2, 1])], profile, [1.5, 2.0])
        with pytest.raises(EvaluationError, match="shape mismatch"):
            sweep([(np.zeros(3), [0, 1])], profile, [1.5])
        with pytest.raises(EvaluationError, match="empty"):
            sweep([(np.zeros(0), [])], profile, [1.5])

    def test_empty_grid_rejected(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        with pytest.raises(EvaluationError):
            sweep([(profile.score_matrix(matrix), truths)], profile, [])

    def test_negative_w_rejected(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        with pytest.raises(EvaluationError, match="non-negative"):
            sweep([(profile.score_matrix(matrix), truths)], profile, [1.5, -0.5])

    def test_csv_emission(self, fitted, labeled_test_set):
        _, profile = fitted
        matrix, truths = labeled_test_set
        reports = sweep([(profile.score_matrix(matrix), truths)], profile, [1.5, 2.0])
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


def _split(data, n):
    """``(start, end)`` of each batch of a drawn split of ``n`` records into non-empty batches."""
    cut_after = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    bounds = [0, *(i + 1 for i, cut in enumerate(cut_after) if cut), n]
    return list(zip(bounds, bounds[1:]))


class TestBandTally:
    @settings(max_examples=300)
    @given(
        data=st.data(),
        quartiles=st.sampled_from([(-2.0, -2.0), (-1.5, 1.5), (float("-inf"), 1.0), (0.0, float("inf"))]),
        w=st.sampled_from([0.0, 0.5, 1.5, 3.0]),
        labeled=st.booleans(),
    )
    def test_sorted_feed_and_sides_feed_tally_alike(self, fitted, data, quartiles, w, labeled):
        """Scores fed sorted, by binary search at the band edges, and the
        same scores' sides fed record by record give the same tally, each
        under its own split into batches: with scores on an edge, +-inf,
        NaN, a NaN lower edge (-inf - 0 * inf), a NaN upper edge
        (inf + 0 * inf) and records without truths. Both count what a
        direct comparison with the edges counts."""
        lower, upper = quartiles
        profile = dataclasses.replace(fitted[1], lower=lower, upper=upper, iqr=upper - lower)
        det = DetectionConfig(w, enforce_range=False)
        lo, hi = profile.band(det)
        pool = st.one_of(
            st.sampled_from([e for e in (lo, hi) if np.isfinite(e)] or [0.0]),
            st.sampled_from([float("-inf"), float("inf"), float("nan"), -100.0, 100.0]),
            st.floats(-10, 10),
        )
        scores = np.array(data.draw(st.lists(pool, min_size=1, max_size=40)))
        truths = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))))
        by_search, by_sides = BandTally([w], profile), BandTally([w])
        for a, b in _split(data, len(scores)):
            by_search.add(scores[a:b], truths[a:b] if labeled else None)
        for a, b in _split(data, len(scores)):
            by_sides.add_sides(sides(scores[a:b], profile, det), truths[a:b] if labeled else None)
        none, every = np.zeros(len(scores), bool), np.ones(len(scores), bool)
        classes = [truths == 0, truths == 1, none] if labeled else [none, none, every]  # normal, attack, unlabeled
        for tally in (by_search, by_sides):
            assert tally.seen.tolist() == [int(c.sum()) for c in classes]
            assert tally.below[:, 0].tolist() == [int(np.sum(c & (scores < lo))) for c in classes]
            assert tally.above[:, 0].tolist() == [int(np.sum(c & (scores > hi))) for c in classes]

    def test_tallies_add_and_keep_only_a_shared_w(self):
        a, b = BandTally([2.0]), BandTally([3.0])
        a.add_sides(np.array([-1, 0, 1, 1], np.int8), [0, 0, 1, 0])
        b.add_sides(np.array([0, -1], np.int8), [1, 1])
        total = a + b
        assert (total.ws, (a + a).ws) == ((None,), (2.0,))
        assert total.edges() == [{"w": None, "below": {"normal": 1, "attack": 1}, "above": {"normal": 1, "attack": 1}}]
        assert total.reports()[0].counts == ConfusionCounts(tp=2, tn=1, fp=2, fn=1)

    def test_sides_checked_like_scores(self):
        tally = BandTally([2.0])
        with pytest.raises(EvaluationError, match="empty"):
            tally.add_sides(np.zeros(0, np.int8))
        with pytest.raises(EvaluationError, match="shape mismatch"):
            tally.add_sides(np.zeros(2, np.int8), [0])
        tally.add_sides(np.array([1, -1], np.int8))
        assert tally.edges() == [{"w": 2.0, "below": {"unlabeled": 1}, "above": {"unlabeled": 1}}]
        with pytest.raises(EvaluationError, match="test file has no records"):
            tally.reports()


class TestReports:
    def test_undefined_survives_roundtrip(self):
        rep = metrics(ConfusionCounts(0, 9, 1, 0), w=1.5)
        assert report_to_doc(rep)["detection_rate"] is None

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
