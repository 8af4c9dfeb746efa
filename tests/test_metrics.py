"""Tests for length-based recall/precision metrics."""

import tracemalloc

import numpy as np
import pytest

from linemap.geometry import Segment3D, point_segment_distances
import linemap.metrics
from linemap.metrics import evaluate_segments, min_distance_to_segments, sample_segments

from support import (
    reference_inlier_percentage,
    reference_length_precision,
    reference_length_recall,
)


def seg(a, b):
    return Segment3D(np.array(a, dtype=float), np.array(b, dtype=float))


class TestSampling:
    def test_weights_sum_to_length(self):
        segs = [seg([0, 0, 0], [1, 0, 0]), seg([0, 0, 0], [0, 2.5, 0])]
        pts, w = sample_segments(segs, spacing=0.01)
        assert abs(w.sum() - 3.5) < 1e-9
        gaps = np.linalg.norm(np.diff(pts[:101], axis=0), axis=1)
        assert gaps.max() <= 0.01 + 1e-12

    def test_empty(self):
        pts, w = sample_segments([], 0.1)
        assert len(pts) == 0 and len(w) == 0


class TestMinDistance:
    def test_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(0)
        targets = [
            seg(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(6)
        ]
        queries = rng.uniform(-1.5, 1.5, size=(40, 3))
        got = min_distance_to_segments(queries, targets)
        # oracle: dense sampling of every target segment
        dense = []
        for s in targets:
            ts = np.linspace(0, 1, 4001)[:, None]
            dense.append(s.start[None] + ts * (s.end - s.start)[None])
        dense = np.concatenate(dense)
        for qi, q in enumerate(queries):
            oracle = np.linalg.norm(dense - q, axis=1).min()
            assert got[qi] <= oracle + 1e-12
            assert oracle - got[qi] < 1e-3

    def test_endpoint_clamping(self):
        d = min_distance_to_segments(
            np.array([[2.0, 1.0, 0.0]]), [seg([0, 0, 0], [1, 0, 0])]
        )
        assert abs(d[0] - np.sqrt(2.0)) < 1e-12

    def test_no_targets(self):
        d = min_distance_to_segments(np.zeros((3, 3)), [])
        assert np.isinf(d).all()

    def test_memory_is_bounded_by_blocks_of_rows(self):
        # one dense (points, segments, 3) array would take 24 MB here
        rng = np.random.default_rng(2)
        points = rng.uniform(-1, 1, size=(20_000, 3))
        targets = random_segments(rng, 50)
        dense_bytes = points.nbytes * len(targets)
        tracemalloc.start()
        try:
            got = min_distance_to_segments(points, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2
        starts = np.stack([s.start for s in targets])
        ends = np.stack([s.end for s in targets])
        expect = point_segment_distances(points, starts, ends).min(axis=1)
        np.testing.assert_array_equal(got, expect)


def recall(gt, pred, tau):
    return evaluate_segments(gt, pred, taus=(tau,)).recall[0]


def precision(pred, gt, tau):
    return evaluate_segments(gt, pred, taus=(tau,)).precision[0]


class TestRecallPrecision:
    def test_identical_sets(self):
        gt = [seg([0, 0, 0], [1, 0, 0]), seg([0, 1, 0], [0, 1, 2])]
        assert recall(gt, gt, 0.01) == 1.0
        assert precision(gt, gt, 0.01) == 1.0

    def test_offset_crosses_threshold(self):
        gt = [seg([0, 0, 0], [1, 0, 0])]
        pred = [seg([0, 0.02, 0], [1, 0.02, 0])]
        assert recall(gt, pred, 0.05) == 1.0
        assert recall(gt, pred, 0.01) == 0.0

    def test_partial_coverage(self):
        gt = [seg([0, 0, 0], [1, 0, 0])]
        pred = [seg([0, 0, 0], [0.5, 0, 0])]
        r = recall(gt, pred, 0.01)
        assert abs(r - 0.5) < 0.02
        assert precision(pred, gt, 0.01) == 1.0

    def test_spurious_prediction_hits_precision_not_recall(self):
        gt = [seg([0, 0, 0], [1, 0, 0])]
        pred = [seg([0, 0, 0], [1, 0, 0]), seg([5, 5, 5], [6, 5, 5])]
        assert recall(gt, pred, 0.01) == 1.0
        assert abs(precision(pred, gt, 0.01) - 0.5) < 0.02

    def test_empty_prediction(self):
        gt = [seg([0, 0, 0], [1, 0, 0])]
        assert recall(gt, [], 0.1) == 0.0
        assert precision([], gt, 0.1) == 0.0


def random_segments(rng, n):
    return [seg(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(n)]


class TestOnePass:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("aggregate", ["mean", "max"])
    def test_equals_per_metric_reference(self, seed, aggregate):
        rng = np.random.default_rng(seed)
        gt = random_segments(rng, 5)
        # near-copies of some ground truth plus strays, so every threshold splits them
        jitter = lambda: rng.normal(0, 0.03, 3)  # noqa: E731
        pred = [seg(g.start + jitter(), g.end + jitter()) for g in gt[:3]]
        pred += random_segments(rng, 3)
        taus = (0.02, 0.05, 0.1)
        spacing = min(taus) / 4.0
        for g, p in ((gt, pred), ([], pred), (gt, []), (gt, pred[:1])):
            rep = evaluate_segments(g, p, taus=taus, aggregate=aggregate)
            assert rep.recall == tuple(reference_length_recall(g, p, t, spacing) for t in taus)
            assert rep.precision == tuple(
                reference_length_precision(p, g, t, spacing) for t in taus
            )
            assert rep.inlier_pct == tuple(
                reference_inlier_percentage(p, g, t, spacing, aggregate) for t in taus
            )

    @pytest.mark.parametrize("taus", [(0.05,), (0.01, 0.025, 0.05), (0.02, 0.04, 0.08, 0.16)])
    @pytest.mark.parametrize("n_pred", [1, 7])
    def test_two_distance_tables_per_call(self, monkeypatch, taus, n_pred):
        calls = []

        def counted(points, segments):
            calls.append(len(points))
            return min_distance_to_segments(points, segments)

        monkeypatch.setattr(linemap.metrics, "min_distance_to_segments", counted)
        rng = np.random.default_rng(1)
        evaluate_segments(random_segments(rng, 4), random_segments(rng, n_pred), taus=taus)
        assert len(calls) == 2


class TestReport:
    def test_evaluate_report(self):
        gt = [seg([0, 0, 0], [1, 0, 0])]
        pred = [seg([0, 0.02, 0], [1, 0.02, 0])]
        rep = evaluate_segments(gt, pred, taus=(0.01, 0.05))
        assert rep.recall == (0.0, 1.0)
        assert rep.precision == (0.0, 1.0)
        assert rep.n_gt == 1 and rep.n_pred == 1
        text = rep.format()
        assert "tau=0.01" in text and "tau=0.05" in text


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
