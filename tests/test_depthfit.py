"""Tests for depth-map segment fitting."""

import math

import numpy as np
import pytest

from linemap.depthfit import DepthMap, backproject_samples, fit_segment_to_depth
from linemap.geometry import CameraView, Segment2D, intrinsics_matrix, sample_segment

from support import intrinsics


def frontal_view(width=640, height=480, f=600.0):
    K = intrinsics_matrix(f, width / 2, height / 2)
    return CameraView(K=K, R=np.eye(3), t=np.zeros(3), width=width, height=height)


class TestDepthMap:
    def test_bilinear_exact_on_ramp(self):
        h, w = 20, 30
        yy, xx = np.mgrid[0:h, 0:w]
        dm = DepthMap((2.0 + 0.1 * xx + 0.05 * yy).astype(np.float32))
        pts = np.array([[3.25, 4.5], [10.0, 10.0], [0.5, 0.5]])
        got = dm.sample_bilinear(pts)
        want = 2.0 + 0.1 * pts[:, 0] + 0.05 * pts[:, 1]
        assert np.abs(got - want).max() < 1e-5

    def test_bilinear_rejects_nan_neighbors_and_borders(self):
        data = np.full((10, 10), 5.0, dtype=np.float32)
        data[4, 4] = np.nan
        dm = DepthMap(data)
        vals = dm.sample_bilinear(np.array([[3.5, 3.5], [6.5, 6.5], [9.5, 5.0], [-0.5, 2.0]]))
        assert np.isnan(vals[0])  # 2x2 stencil touches the NaN pixel
        assert vals[1] == 5.0
        assert np.isnan(vals[2])  # off the right edge
        assert np.isnan(vals[3])


class TestSampling:
    def test_spacing_at_most_one_pixel(self):
        seg = Segment2D([10.0, 20.0], [110.0, 95.0])
        pts = sample_segment(seg, 1.0)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() <= 1.0 + 1e-9
        assert np.allclose(pts[0], seg.start) and np.allclose(pts[-1], seg.end)

    def test_short_segment_still_two_samples(self):
        seg = Segment2D([5.0, 5.0], [5.3, 5.0])
        assert len(sample_segment(seg, 1.0)) == 2

    def test_backprojection_depth_consistency(self):
        view = frontal_view()
        px = np.array([[320.0, 240.0], [100.0, 50.0]])
        depths = np.array([2.0, 3.5])
        pts = backproject_samples(view, px, depths)
        assert np.abs(pts[:, 2] - depths).max() < 1e-12
        for i in range(2):
            assert np.allclose(view.project_point(pts[i]), px[i], atol=1e-9)


class TestFitting:
    def plane_depth(self, view, z0):
        return DepthMap(np.full((view.height, view.width), z0, dtype=np.float32))

    def test_clean_plane_recovers_segment(self):
        view = frontal_view()
        dm = self.plane_depth(view, 4.0)
        seg = Segment2D([100.0, 120.0], [500.0, 300.0])
        fit = fit_segment_to_depth(seg, view, dm, seed=3)
        assert fit is not None
        assert fit.inlier_ratio > 0.999
        expect = backproject_samples(view, seg.endpoints(), np.array([4.0, 4.0]))
        got = sorted(fit.segment.endpoints(), key=lambda p: p[0])
        want = sorted(expect, key=lambda p: p[0])
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) < 1e-5

    def test_occluded_band_is_rejected(self):
        view = frontal_view()
        data = np.full((view.height, view.width), 5.0, dtype=np.float32)
        data[:, 260:380] = 2.0  # a nearer occluder crossing the segment
        dm = DepthMap(data)
        seg = Segment2D([80.0, 240.0], [560.0, 240.0])
        fit = fit_segment_to_depth(seg, view, dm, seed=5)
        assert fit is not None
        assert 0.5 <= fit.inlier_ratio < 1.0
        assert abs(fit.segment.start[2] - 5.0) < 1e-5
        assert abs(fit.segment.end[2] - 5.0) < 1e-5

    def test_majority_corruption_fails(self):
        view = frontal_view()
        data = np.full((view.height, view.width), 5.0, dtype=np.float32)
        rng = np.random.default_rng(0)
        noise_cols = rng.choice(view.width, size=int(view.width * 0.7), replace=False)
        data[:, noise_cols] = rng.uniform(1.0, 9.0, size=(view.height, len(noise_cols))).astype(
            np.float32
        )
        dm = DepthMap(data)
        seg = Segment2D([50.0, 100.0], [600.0, 400.0])
        assert fit_segment_to_depth(seg, view, dm, seed=2) is None

    def test_invalid_depth_everywhere_fails(self):
        view = frontal_view()
        dm = DepthMap(np.full((view.height, view.width), np.nan, dtype=np.float32))
        assert fit_segment_to_depth(Segment2D([10, 10], [200, 200]), view, dm) is None

    def test_deterministic_given_seed(self):
        view = frontal_view()
        data = np.full((view.height, view.width), 5.0, dtype=np.float32)
        data[:, 300:360] = 2.5
        dm = DepthMap(data)
        seg = Segment2D([80.0, 200.0], [560.0, 280.0])
        a = fit_segment_to_depth(seg, view, dm, seed=11)
        b = fit_segment_to_depth(seg, view, dm, seed=11)
        assert a is not None and b is not None
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert np.allclose(a.segment.endpoints(), b.segment.endpoints())

    def test_threshold_scales_with_depth(self):
        view = frontal_view()
        seg = Segment2D([100.0, 100.0], [500.0, 380.0])
        near = fit_segment_to_depth(seg, view, self.plane_depth(view, 2.0))
        far = fit_segment_to_depth(seg, view, self.plane_depth(view, 20.0))
        assert near is not None and far is not None
        assert math.isclose(far.threshold / near.threshold, 10.0, rel_tol=1e-6)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
