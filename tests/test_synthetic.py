"""Tests for the synthetic Manhattan scene generator."""

import numpy as np
import pytest

from linemap.geometry import plucker_from_segment, point_line_distance_3d
from linemap.synthetic import (
    ObservationConfig,
    SceneConfig,
    build_scene,
    make_depth_scene,
    observe_scene,
)


@pytest.fixture(scope="module")
def scene():
    return build_scene(SceneConfig())


class TestScene:
    def test_segment_count_and_axes(self, scene):
        assert len(scene.segments3d) == 40
        assert scene.segment_axis.shape == (40,)
        for seg, axis in zip(scene.segments3d, scene.segment_axis):
            d = np.abs(seg.direction)
            assert d[axis] > 0.999999
            assert np.delete(d, axis).max() < 1e-9

    def test_vp_directions_are_axes(self, scene):
        assert np.allclose(scene.vp_directions, np.eye(3))

    def test_junctions_lie_on_their_two_segments(self, scene):
        assert len(scene.junctions) >= 27
        by_junction = {}
        for j, s in scene.junction_edges:
            by_junction.setdefault(j, []).append(s)
        for j, segs in by_junction.items():
            assert len(segs) == 2
            p = scene.junctions[j]
            for si in segs:
                line = plucker_from_segment(scene.segments3d[si])
                assert point_line_distance_3d(p, line) < 1e-9
                seg = scene.segments3d[si]
                t = (p - seg.start) @ seg.direction
                assert 0.0 < t < seg.length

    def test_deterministic(self):
        a = build_scene(SceneConfig(seed=3))
        b = build_scene(SceneConfig(seed=3))
        for sa, sb in zip(a.segments3d, b.segments3d):
            assert np.array_equal(sa.endpoints(), sb.endpoints())

    def test_unplaceable_segment_count_raises(self):
        with pytest.raises(ValueError, match=r"placed \d+ of 160 requested"):
            build_scene(SceneConfig(n_segments=160))

    def test_struts_keep_their_clearance(self):
        scene = build_scene(SceneConfig(n_segments=76))
        assert len(scene.segments3d) == 76
        for k in range(30, 76):  # struts follow the 12 edges and 18 grid lines
            line = plucker_from_segment(scene.segments3d[k])
            for s in scene.segments3d[:k]:
                assert point_line_distance_3d(s.start, line) >= 0.15
                assert point_line_distance_3d(s.end, line) >= 0.15

    def test_every_segment_widely_visible(self, scene):
        obs = observe_scene(scene, ObservationConfig(seed=0))
        cover = np.zeros(len(scene.segments3d), dtype=int)
        for img in scene.views:
            for gid in set(obs.det_gt[img]):
                cover[gid] += 1
        assert cover.min() >= 4


class TestObservations:
    def test_zero_noise_fragments_are_collinear_with_projection(self, scene):
        obs = observe_scene(scene, ObservationConfig(seed=1))
        checked = 0
        for img, view in scene.views.items():
            for det, gid in zip(obs.detections[img], obs.det_gt[img]):
                gt = scene.segments3d[gid]
                a = view.project_point(gt.start)
                b = view.project_point(gt.end)
                line = np.cross(np.append(a, 1.0), np.append(b, 1.0))
                line = line / np.linalg.norm(line[:2])
                for p in (det.start, det.end):
                    assert abs(line @ np.append(p, 1.0)) < 1e-6
                checked += 1
        assert checked > 100

    def test_matches_reference_same_ground_truth_line(self, scene):
        obs = observe_scene(scene, ObservationConfig(seed=2))
        for img in scene.views:
            for di, row in enumerate(obs.matches[img]):
                gid = obs.det_gt[img][di]
                assert row, "every detection should have candidate matches"
                for other, dj in row:
                    assert other != img
                    assert obs.det_gt[other][dj] == gid

    def test_outlier_matches_injected(self, scene):
        obs = observe_scene(scene, ObservationConfig(outlier_fraction=0.5, seed=3))
        wrong = 0
        total = 0
        for img in scene.views:
            for di, row in enumerate(obs.matches[img]):
                gid = obs.det_gt[img][di]
                total += len(row)
                wrong += sum(1 for other, dj in row if obs.det_gt[other][dj] != gid)
        assert wrong > 0
        assert wrong < 0.3 * total

    def test_fragments_overlap_along_the_line(self, scene):
        obs = observe_scene(scene, ObservationConfig(seed=4))
        found_pair = False
        for img in scene.views:
            spans = {}
            for det, gid in zip(obs.detections[img], obs.det_gt[img]):
                spans.setdefault(gid, []).append(det)
            for gid, dets in spans.items():
                if len(dets) < 2:
                    continue
                d = dets[0].direction
                iv = []
                for det in dets:
                    t1, t2 = det.start @ d, det.end @ d
                    iv.append((min(t1, t2), max(t1, t2)))
                iv.sort()
                if iv[0][1] > iv[1][0]:
                    found_pair = True
        assert found_pair

    def test_noise_perturbs_but_stays_bounded(self, scene):
        noisy = observe_scene(scene, ObservationConfig(noise_px=1.0, seed=5))
        perp = []
        for img, view in scene.views.items():
            for det, gid in zip(noisy.detections[img], noisy.det_gt[img]):
                gt = scene.segments3d[gid]
                a = view.project_point(gt.start)
                b = view.project_point(gt.end)
                line = np.cross(np.append(a, 1.0), np.append(b, 1.0))
                line = line / np.linalg.norm(line[:2])
                for p in (det.start, det.end):
                    perp.append(abs(line @ np.append(p, 1.0)))
        perp = np.array(perp)
        assert perp.max() > 0.2  # noise actually applied
        assert perp.max() < 6.0  # but bounded by a few sigma

    def test_points_projected_with_indices(self, scene):
        obs = observe_scene(scene, ObservationConfig(seed=6))
        for img, view in scene.views.items():
            assert len(obs.points2d[img]) > 0
            for pi, px in obs.points2d[img]:
                expect = view.project_point(scene.junctions[pi])
                assert np.linalg.norm(px - expect) < 1e-9


class TestDepthScene:
    def test_occlusion_fraction_in_band(self):
        rng = np.random.default_rng(8)
        from linemap.geometry import sample_segment

        for _ in range(5):
            view, dm, seg2d, gt3d = make_depth_scene(rng, occluded_fraction=0.3)
            samples = sample_segment(seg2d, 1.0)
            depths = dm.sample_bilinear(samples)
            # reconstruct which samples are occluded: much nearer than the ends
            end_depth = 0.5 * (depths[0] + depths[-1])
            frac = np.mean(depths < 0.75 * end_depth)
            assert 0.1 <= frac <= 0.45

    def test_ground_truth_reprojects_onto_segment(self):
        rng = np.random.default_rng(9)
        view, dm, seg2d, gt3d = make_depth_scene(rng)
        assert np.linalg.norm(view.project_point(gt3d.start) - seg2d.start) < 1e-6
        assert np.linalg.norm(view.project_point(gt3d.end) - seg2d.end) < 1e-6


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
