"""Tests for two-view covariance propagation and the degeneracy sweep."""

import numpy as np
import pytest

from linemap.geometry import Segment3D, project_segment
from linemap.triangulation import triangulate_algebraic
from linemap.uncertainty import (
    _endpoint_system,
    _line_system,
    endpoint_triangulation_covariance,
    largest_eigenvalue,
    line_triangulation_covariance,
    ray_directions_and_jacobians,
    run_degeneracy_experiment,
    triangulate_endpoint_pairs,
    triangulate_line_endpoints,
)

from support import make_view, two_view


def random_pairs(rng, ref, match, n=6):
    segs = []
    while len(segs) < n:
        a = rng.uniform(-0.6, 0.6, 3)
        b = rng.uniform(-0.6, 0.6, 3)
        if np.linalg.norm(a - b) < 0.4:
            continue
        segs.append(Segment3D(a, b))
    ref_px = np.array([[project_segment(s, ref).start, project_segment(s, ref).end] for s in segs])
    match_px = np.array(
        [[project_segment(s, match).start, project_segment(s, match).end] for s in segs]
    )
    gt = np.array([[s.start, s.end] for s in segs])
    return segs, ref_px, match_px, gt


@pytest.fixture
def rig():
    ref = make_view(np.array([-1.5, 0.3, -3.0]), np.zeros(3))
    match = make_view(np.array([1.2, -0.4, -3.1]), np.zeros(3))
    return ref, match


class TestTriangulationConstructions:
    def test_ray_jacobian_matches_finite_differences(self, rig):
        ref, _ = rig
        rng = np.random.default_rng(2)
        px = rng.uniform(50, 500, size=(10, 2))
        d, J = ray_directions_and_jacobians(ref, px)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
        h = 1e-6
        for col in range(2):
            dp = px.copy()
            dp[:, col] += h
            dm = px.copy()
            dm[:, col] -= h
            fd = (
                ray_directions_and_jacobians(ref, dp)[0]
                - ray_directions_and_jacobians(ref, dm)[0]
            ) / (2 * h)
            assert np.abs(J[:, :, col] - fd).max() < 1e-7

    def test_exact_correspondences_recover_endpoints(self, rig):
        ref, match = rig
        rng = np.random.default_rng(0)
        _, ref_px, match_px, gt = random_pairs(rng, ref, match)
        assert np.abs(triangulate_endpoint_pairs(ref, match, ref_px, match_px) - gt).max() < 1e-9
        assert np.abs(triangulate_line_endpoints(ref, match, ref_px, match_px) - gt).max() < 1e-9

    def test_line_construction_matches_algebraic_triangulation(self, rig):
        ref, match = rig
        rng = np.random.default_rng(4)
        segs, ref_px, match_px, _ = random_pairs(rng, ref, match)
        pts = triangulate_line_endpoints(ref, match, ref_px, match_px)
        for i, s in enumerate(segs):
            recon = triangulate_algebraic(
                two_view(project_segment(s, ref), ref, project_segment(s, match), match)
            )
            assert np.linalg.norm(recon.start - pts[i, 0]) < 1e-9
            assert np.linalg.norm(recon.end - pts[i, 1]) < 1e-9


class TestJacobians:
    @pytest.mark.parametrize("which", ["endpoint", "line"])
    def test_matches_finite_differences(self, rig, which):
        ref, match = rig
        rng = np.random.default_rng(7)
        _, ref_px, match_px, _ = random_pairs(rng, ref, match)
        system = _endpoint_system if which == "endpoint" else _line_system
        tri = triangulate_endpoint_pairs if which == "endpoint" else triangulate_line_endpoints
        _, J = system(ref, match, ref_px, match_px)
        h = 1e-5
        J_fd = np.zeros_like(J)
        for col in range(8):

            def shifted(sign):
                rp = ref_px.copy()
                mp = match_px.copy()
                if col < 4:
                    rp[:, col // 2, col % 2] += sign * h
                else:
                    mp[:, (col - 4) // 2, (col - 4) % 2] += sign * h
                return tri(ref, match, rp, mp).reshape(-1, 6)

            J_fd[:, :, col] = (shifted(1) - shifted(-1)) / (2 * h)
        err = np.abs(J - J_fd).max() / max(1.0, np.abs(J).max())
        assert err < 1e-4

    def test_covariance_shape_and_symmetry(self, rig):
        ref, match = rig
        rng = np.random.default_rng(9)
        _, ref_px, match_px, _ = random_pairs(rng, ref, match)
        for cov in (
            endpoint_triangulation_covariance(ref, match, ref_px, match_px),
            line_triangulation_covariance(ref, match, ref_px, match_px),
        ):
            assert cov.shape == (6, 6) or cov.shape[1:] == (6, 6)
            assert np.abs(cov - np.transpose(cov, (0, 2, 1))).max() < 1e-12
            assert (largest_eigenvalue(cov) > 0).all()


class TestDegeneracyExperiment:
    def test_line_uncertainty_explodes_near_parallel(self):
        rows = run_degeneracy_experiment(angles_deg=[2, 30, 90], n_lines=1500, seed=1)
        by_angle = {r.angle_deg: r for r in rows}
        assert by_angle[2].median_line / by_angle[90].median_line > 100.0
        ratio = by_angle[2].median_endpoint / by_angle[90].median_endpoint
        assert ratio < 2.0
        assert by_angle[30].median_line < by_angle[2].median_line
        assert by_angle[90].median_line < by_angle[30].median_line

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_degeneracy_experiment(angles_deg=[10, 45], n_lines=200, out_csv=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,median_endpoint,median_line"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 10.0
        assert abs(float(first[1]) - rows[0].median_endpoint) < 1e-6 * rows[0].median_endpoint
        assert abs(float(first[2]) - rows[0].median_line) < 1e-6 * rows[0].median_line


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
