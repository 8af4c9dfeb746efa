"""Shared synthetic two-view fixtures for the test suite."""

import numpy as np

from linemap.config import PipelineConfig
from linemap.geometry import CameraView, Segment2D, Segment3D, normalized, project_segment
from linemap.scoring import selection_pair_score
from linemap.triangulation import ray_plane_form


def intrinsics(f=600.0, cx=320.0, cy=240.0):
    return np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])


def look_at_rotation(center, target, up=(0.0, -1.0, 0.0)):
    """World-to-camera rotation for a camera at ``center`` looking at ``target``."""
    z = normalized(np.asarray(target, float) - np.asarray(center, float))
    up = np.asarray(up, float)
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
    x = normalized(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def make_view(center, target=(0.0, 0.0, 0.0), f=600.0, width=640, height=480):
    center = np.asarray(center, float)
    R = look_at_rotation(center, target)
    return CameraView(intrinsics(f, width / 2.0, height / 2.0), R, -R @ center, width, height)


def identity_view(f=600.0, width=640, height=480):
    return CameraView(intrinsics(f, width / 2.0, height / 2.0), np.eye(3), np.zeros(3), width, height)


def endpoint_rays(seg, view):
    """A detection's endpoint rays in normalized coordinates, as in the pipeline's ray table."""
    return view.pixel_to_normalized(seg.start), view.pixel_to_normalized(seg.end)


def selection_score(a, b, ref_view, view_a, view_b, config=PipelineConfig()):
    """`selection_pair_score` of proposals triangulated from ``view_a`` and ``view_b``.

    Projects both proposals into both views as proposal selection does (None
    behind a view) and hands the two pairs to the score.
    """
    pairs = tuple((project_segment(a, v), project_segment(b, v)) for v in (view_a, view_b))
    return selection_pair_score(a, b, ref_view, pairs, config)


def two_view(ref_seg, ref_view, match_seg, match_view):
    """The ray-plane form of one match, built as the pipeline builds it."""
    return ray_plane_form(
        ref_view, endpoint_rays(ref_seg, ref_view), match_view, endpoint_rays(match_seg, match_view)
    )


def visible(view, p, margin=0.0):
    try:
        px = view.project_point(p)
    except ValueError:
        return False
    return (
        margin <= px[0] <= view.width - margin and margin <= px[1] <= view.height - margin
    )


def random_two_view_segment(rng, min_plane_angle_deg=3.0, max_tries=200):
    """A random well-conditioned two-view configuration with one GT segment.

    Returns (ref_view, match_view, gt_segment, ref_seg2d, match_seg2d) with
    both endpoint rays at least ``min_plane_angle_deg`` from the plane that
    the matched segment back-projects to.
    """
    for _ in range(max_tries):
        c1 = normalized(rng.normal(size=3)) * rng.uniform(2.5, 4.0)
        c2 = normalized(rng.normal(size=3)) * rng.uniform(2.5, 4.0)
        if np.linalg.norm(c1 - c2) < 1.0:
            continue
        ref = make_view(c1)
        match = make_view(c2)
        a = rng.uniform(-0.8, 0.8, size=3)
        b = rng.uniform(-0.8, 0.8, size=3)
        if np.linalg.norm(b - a) < 0.4:
            continue
        gt = Segment3D(a, b)
        if not all(visible(v, p, margin=5) for v in (ref, match) for p in (a, b)):
            continue
        # reject configurations close to the triangulation degeneracy
        n = np.cross(match.R @ a + match.t, match.R @ b + match.t)
        n = n / np.linalg.norm(n)
        ok = True
        for p in (a, b):
            ray = match.R @ normalized(p - c1)  # ref endpoint ray in match coordinates
            s = abs(float(ray @ n))
            if np.degrees(np.arcsin(min(1.0, s))) < min_plane_angle_deg:
                ok = False
        if not ok:
            continue
        return ref, match, gt, project_segment(gt, ref), project_segment(gt, match)
    raise RuntimeError("failed to sample a two-view configuration")


def weak_degenerate_pair(rng, angle_lo_deg=0.3, angle_hi_deg=0.45, max_tries=100):
    """Two-view pair where exactly one reference endpoint ray is degenerate.

    The reference camera sits at the origin, the matched camera at (1,0,0).
    The matched segment back-projects to a plane through both 3D endpoints
    and the matched center; the far endpoint's ray is placed within the
    requested angle band of that plane, while the near endpoint's angle is
    larger by the endpoint distance ratio (~4x) and stays non-degenerate.

    The plane is chosen in closed form from the pencil of planes through the
    matched center and the far endpoint, then the near endpoint is picked
    inside that plane at the desired depth.
    """
    ref = identity_view()
    match = CameraView(intrinsics(), np.eye(3), np.array([-1.0, 0.0, 0.0]), 640, 480)
    M = np.array([1.0, 0.0, 0.0])

    for _ in range(max_tries):
        z_far = rng.uniform(13.0, 16.0)
        z_near = rng.uniform(2.8, 3.2)
        A0 = np.array([z_far * rng.uniform(-0.12, 0.12), z_far * rng.uniform(-0.09, 0.09), z_far])
        target = np.radians(rng.uniform(angle_lo_deg, angle_hi_deg))

        e1 = normalized(A0 - M)
        aux = np.array([0.0, 1.0, 0.0])
        w1 = normalized(np.cross(e1, aux))
        w2 = np.cross(e1, w1)
        a_hat = normalized(A0)
        c1, c2 = a_hat @ w1, a_hat @ w2
        rho = np.hypot(c1, c2)
        if rho < np.sin(target) * 1.5:
            continue
        phi = np.arctan2(c2, c1) + np.arccos(np.sin(target) / rho)
        n_hat = np.cos(phi) * w1 + np.sin(phi) * w2  # plane normal through M and A0

        if not (visible(ref, A0, 20) and visible(match, A0, 20)):
            continue

        # near endpoint: intersect a frustum ray from the reference center
        # with the plane; sin(angle of that ray to the plane) then equals
        # dist(center, plane) / |B|, i.e. ~|A0|/|B| times the far angle.
        found = None
        for px in rng.permutation(np.linspace(-0.35, 0.35, 15)):
            for py in rng.permutation(np.linspace(-0.25, 0.25, 9)):
                r = np.array([px, py, 1.0])
                denom = n_hat @ r
                if abs(denom) < 1e-9:
                    continue
                s = (n_hat @ M) / denom
                if not (2.2 <= s <= 4.5):
                    continue
                B = s * r
                if not (visible(ref, B, 20) and visible(match, B, 20)):
                    continue
                if np.linalg.norm(B - A0) < 6.0:
                    continue
                n_chk = np.cross(A0 - M, B - M)
                n_chk = n_chk / np.linalg.norm(n_chk)
                ang_far = np.degrees(np.arcsin(min(1.0, abs(normalized(A0) @ n_chk))))
                ang_near = np.degrees(np.arcsin(min(1.0, abs(normalized(B) @ n_chk))))
                if ang_far < 0.5 and ang_near > 1.15:
                    found = B
                    break
            if found is not None:
                break
        if found is None:
            continue
        gt = Segment3D(A0, found)
        return ref, match, gt, project_segment(gt, ref), project_segment(gt, match)
    raise RuntimeError("failed to construct a weakly degenerate pair")
