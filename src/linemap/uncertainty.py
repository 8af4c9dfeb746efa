"""Covariance propagation for two-view segment triangulation.

Pixel endpoint noise (unit isotropic on all eight coordinates of a
segment pair) is pushed through two alternative constructions of the 3D
segment:

* endpoint construction: each endpoint is triangulated on its own as the
  midpoint of the common perpendicular between the two corresponding
  viewing rays (a 2x2 normal system per endpoint);
* line construction: each reference endpoint ray is intersected with the
  plane spanned by the matched segment's rays (a 3x3 system per
  endpoint), which is how two-view line triangulation actually works and
  degrades when the line nears that plane.

Covariances are reported for the stacked 6-vector of both 3D endpoints;
the scalar summary is the largest eigenvalue.  ``run_degeneracy_experiment``
sweeps the angle between a line and the baseline-aligned direction on a
fronto-parallel plane and reports median uncertainties per angle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraView, intrinsics_matrix

__all__ = [
    "ray_directions_and_jacobians",
    "triangulate_endpoint_pairs",
    "triangulate_line_endpoints",
    "endpoint_triangulation_covariance",
    "line_triangulation_covariance",
    "largest_eigenvalue",
    "run_degeneracy_experiment",
]


def ray_directions_and_jacobians(view: CameraView, px: np.ndarray):
    """Unit world ray directions for pixels plus 3x2 Jacobians w.r.t. pixels.

    ``px`` has shape (N, 2).  Returns ``d`` (N, 3) and ``J`` (N, 3, 2)
    where ``J = (I - d d^T) / |g|  @  R^T K^{-1}[:, :2]`` with ``g`` the
    unnormalized ray.
    """
    px = np.asarray(px, dtype=np.float64)
    n = px.shape[0]
    hom = np.concatenate([px, np.ones((n, 1))], axis=1)
    Kinv = np.linalg.inv(view.K)
    g = hom @ (view.R.T @ Kinv).T  # rows are R^T K^{-1} (u, v, 1)
    norms = np.linalg.norm(g, axis=1)
    d = g / norms[:, None]
    proj = np.eye(3)[None] - d[:, :, None] * d[:, None, :]
    base = view.R.T @ Kinv[:, :2]  # 3x2, pixel columns
    J = np.einsum("nij,jk->nik", proj / norms[:, None, None], base)
    return d, J


def _stack_pixels(ref_px, match_px):
    ref_px = np.asarray(ref_px, dtype=np.float64).reshape(-1, 2, 2)
    match_px = np.asarray(match_px, dtype=np.float64).reshape(-1, 2, 2)
    if ref_px.shape != match_px.shape:
        raise ValueError("segment pixel arrays must have matching shapes")
    return ref_px, match_px


def _endpoint_system(ref_view, match_view, ref_px, match_px):
    ref_px, match_px = _stack_pixels(ref_px, match_px)
    n = ref_px.shape[0]
    Cr = ref_view.camera_center
    Cm = match_view.camera_center
    delta = Cm - Cr
    points = np.zeros((n, 2, 3))
    J = np.zeros((n, 6, 8))
    for i in (0, 1):
        dr, Jr = ray_directions_and_jacobians(ref_view, ref_px[:, i])
        dm, Jm = ray_directions_and_jacobians(match_view, match_px[:, i])
        c = np.einsum("nj,nj->n", dr, dm)
        det = 1.0 - c * c
        # closest points: [1 -c; -c 1] [a, b]^T = [dr.delta, -dm.delta]
        r1 = dr @ delta
        r2 = -(dm @ delta)
        a = (r1 + c * r2) / det
        b = (c * r1 + r2) / det
        points[:, i] = 0.5 * (Cr + a[:, None] * dr + Cm + b[:, None] * dm)
        # sensitivity of (a, b) to the two ray directions
        i00 = 1.0 / det
        i01 = c / det
        k = i00 * b + i01 * a  # multiplies dc inside da
        l_ = i01 * b + i00 * a  # multiplies dc inside db
        ga_dr = i00[:, None] * delta[None, :] + k[:, None] * dm
        ga_dm = -i01[:, None] * delta[None, :] + k[:, None] * dr
        gb_dr = i01[:, None] * delta[None, :] + l_[:, None] * dm
        gb_dm = -i00[:, None] * delta[None, :] + l_[:, None] * dr
        eye = np.eye(3)[None]
        dX_ddr = 0.5 * (
            a[:, None, None] * eye
            + dr[:, :, None] * ga_dr[:, None, :]
            + dm[:, :, None] * gb_dr[:, None, :]
        )
        dX_ddm = 0.5 * (
            b[:, None, None] * eye
            + dr[:, :, None] * ga_dm[:, None, :]
            + dm[:, :, None] * gb_dm[:, None, :]
        )
        rows = slice(3 * i, 3 * i + 3)
        J[:, rows, 2 * i : 2 * i + 2] = np.einsum("nij,njk->nik", dX_ddr, Jr)
        J[:, rows, 4 + 2 * i : 6 + 2 * i] = np.einsum("nij,njk->nik", dX_ddm, Jm)
    return points, J


def _line_system(ref_view, match_view, ref_px, match_px):
    ref_px, match_px = _stack_pixels(ref_px, match_px)
    n = ref_px.shape[0]
    Cr = ref_view.camera_center
    Cm = match_view.camera_center
    delta = np.broadcast_to(Cm - Cr, (n, 3))
    dm1, Jm1 = ray_directions_and_jacobians(match_view, match_px[:, 0])
    dm2, Jm2 = ray_directions_and_jacobians(match_view, match_px[:, 1])
    points = np.zeros((n, 2, 3))
    J = np.zeros((n, 6, 8))
    e0 = np.broadcast_to(np.array([1.0, 0.0, 0.0]), (n, 3))
    for i in (0, 1):
        dr, Jr = ray_directions_and_jacobians(ref_view, ref_px[:, i])
        A = np.stack([dr, -dm1, -dm2], axis=2)  # columns
        u = np.linalg.solve(A, delta[..., None])[..., 0]
        lam, alpha, beta = u[:, 0], u[:, 1], u[:, 2]
        # first row of A^{-1}
        r0 = np.linalg.solve(np.transpose(A, (0, 2, 1)), e0[..., None])[..., 0]
        points[:, i] = Cr + lam[:, None] * dr
        eye = np.eye(3)[None]
        outer = dr[:, :, None] * r0[:, None, :]
        dX_ddr = lam[:, None, None] * (eye - outer)
        dX_ddm1 = alpha[:, None, None] * outer
        dX_ddm2 = beta[:, None, None] * outer
        rows = slice(3 * i, 3 * i + 3)
        J[:, rows, 2 * i : 2 * i + 2] = np.einsum("nij,njk->nik", dX_ddr, Jr)
        J[:, rows, 4:6] = np.einsum("nij,njk->nik", dX_ddm1, Jm1)
        J[:, rows, 6:8] = np.einsum("nij,njk->nik", dX_ddm2, Jm2)
    return points, J


def triangulate_endpoint_pairs(ref_view, match_view, ref_px, match_px) -> np.ndarray:
    """Midpoints of the common perpendicular between corresponding rays."""
    return _endpoint_system(ref_view, match_view, ref_px, match_px)[0]


def triangulate_line_endpoints(ref_view, match_view, ref_px, match_px) -> np.ndarray:
    """Reference endpoint rays intersected with the matched segment's plane."""
    return _line_system(ref_view, match_view, ref_px, match_px)[0]


def endpoint_triangulation_covariance(ref_view, match_view, ref_px, match_px) -> np.ndarray:
    _, J = _endpoint_system(ref_view, match_view, ref_px, match_px)
    return np.einsum("nij,nkj->nik", J, J)


def line_triangulation_covariance(ref_view, match_view, ref_px, match_px) -> np.ndarray:
    _, J = _line_system(ref_view, match_view, ref_px, match_px)
    return np.einsum("nij,nkj->nik", J, J)


def largest_eigenvalue(cov: np.ndarray) -> np.ndarray:
    """Largest eigenvalue per stacked covariance matrix."""
    return np.linalg.eigvalsh(cov)[..., -1]


@dataclass(frozen=True)
class DegeneracyRow:
    angle_deg: float
    median_endpoint: float
    median_line: float


_BASELINE_HALF = 2.0
_PLANE_Z = 10.0
_FOCAL = 700.0
_HALF_LENGTH = 1.0


def _experiment_view(center: np.ndarray) -> CameraView:
    K = intrinsics_matrix(_FOCAL, 0.0, 0.0)
    R = np.eye(3)
    return CameraView(K=K, R=R, t=-R @ center, width=0, height=0)


def run_degeneracy_experiment(
    angles_deg=None,
    n_lines: int = 10000,
    seed: int = 0,
    out_csv: str | None = None,
) -> list[DegeneracyRow]:
    """Sweep line-vs-baseline angle on a fronto-parallel plane.

    Lines live on the plane ``z = _PLANE_Z`` with direction
    ``(cos a, sin a, 0)``; the two cameras sit at ``(+-_BASELINE_HALF, 0, 0)``
    looking down +z.  At small ``a`` the line nearly contains the epipolar
    direction, which degrades line triangulation but not per-endpoint
    point triangulation.  Medians of the largest covariance eigenvalue
    are reported per angle; optionally written as CSV.
    """
    if angles_deg is None:
        angles_deg = list(range(1, 91))
    rng = np.random.default_rng(seed)
    ref = _experiment_view(np.array([-_BASELINE_HALF, 0.0, 0.0]))
    match = _experiment_view(np.array([_BASELINE_HALF, 0.0, 0.0]))

    def project(view, pts):
        Xc = pts - view.camera_center  # R = I
        hom = Xc @ view.K.T
        return hom[:, :2] / hom[:, 2:3]

    rows = []
    for a in angles_deg:
        rad = math.radians(float(a))
        direction = np.array([math.cos(rad), math.sin(rad), 0.0])
        mid = np.zeros((n_lines, 3))
        mid[:, :2] = rng.uniform(-1.0, 1.0, size=(n_lines, 2))
        mid[:, 2] = _PLANE_Z
        p1 = mid - _HALF_LENGTH * direction
        p2 = mid + _HALF_LENGTH * direction
        ref_px = np.stack([project(ref, p1), project(ref, p2)], axis=1)
        match_px = np.stack([project(match, p1), project(match, p2)], axis=1)
        cov_e = endpoint_triangulation_covariance(ref, match, ref_px, match_px)
        cov_l = line_triangulation_covariance(ref, match, ref_px, match_px)
        rows.append(
            DegeneracyRow(
                angle_deg=float(a),
                median_endpoint=float(np.median(largest_eigenvalue(cov_e))),
                median_line=float(np.median(largest_eigenvalue(cov_l))),
            )
        )
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["angle_deg", "median_endpoint", "median_line"])
            for row in rows:
                writer.writerow(
                    [
                        f"{row.angle_deg:.6g}",
                        f"{row.median_endpoint:.6g}",
                        f"{row.median_line:.6g}",
                    ]
                )
    return rows
