"""Dimension-generic convex geometry: hulls, ray queries, inradii, volumes.

Everything here works for 2 <= d <= 6 and treats flat (degenerate) point sets
as first-class values: a polytope that does not span the full space has an
affine_rank below dim, carries no vertices or facets, and all ball-radius
quantities on it are zero.  Facet halfspaces use the convention
normal . x <= offset with unit normals, so offsets are geometric distances
from the origin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import HullError, InvalidInputError, unit_rows

logger = logging.getLogger(__name__)

# Rank cutoff: singular values above this fraction of the largest count.
RANK_REL_TOL = 1e-9
# Facet normals closer to perpendicular than this to a ray direction are
# treated as not bounding the ray.
_RAY_DOT_MIN = 1e-12


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex body as qhull builds it, or the affine rank of a flat one.

    vertices holds qhull's extreme points.  facet_normals / facet_offsets
    are qhull's distinct facet planes with unit normals, and volume is
    qhull's hypervolume of the hull.  Flat polytopes carry no vertices or
    facets, and volume 0.
    """

    dim: int
    vertices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    affine_rank: int
    volume: float = 0.0

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_rank == self.dim


def affine_rank_of(points: np.ndarray) -> int:
    """Rank of the centered point matrix with a relative singular-value cutoff."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= 1:
        return 0
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_REL_TOL * svals[0]))


def _distinct_planes(equations: np.ndarray):
    """qhull's facet planes as unit normals and offsets, each plane once.

    Qt triangulation repeats the plane of every merged facet; the rows are
    sorted lexicographically (column 0 first) and exact repeats dropped.
    """
    lens = np.linalg.norm(equations[:, :-1], axis=1)
    rows = np.column_stack([equations[:, :-1], -equations[:, -1]]) / lens[:, None]
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    rows = rows[fresh]
    return rows[:, :-1], rows[:, -1]


def _qhull(pts: np.ndarray):
    """qhull's hull of pts, retried on joggled input when qhull fails.

    The options tried, in order: none, then "QJ Qx" in 5-6D or "QJ" below,
    then "QJ" in 5-6D.  Raises HullError when every attempt fails.
    """
    n, d = pts.shape
    attempts = (None, "QJ Qx", "QJ") if d > 4 else (None, "QJ")
    for i, opts in enumerate(attempts):
        try:
            return ConvexHull(pts, qhull_options=opts)
        except QhullError as exc:
            if i + 1 == len(attempts):
                reason = str(exc).strip().split("\n", 1)[0]
                raise HullError(f"qhull failed on {n} points in {d}D: {reason}") from exc
        logger.info("qhull failed on %d points in %dD; retrying with joggled input (%s)",
                    n, d, attempts[i + 1])


def convex_hull(points, dim: int | None = None) -> Polytope:
    """qhull's convex hull of a point set in R^d, 2 <= d <= 6.

    Full-rank inputs get qhull's vertices, its distinct facet planes and
    its volume; a joggled retry returns the hull (and volume) of the
    joggled input.  Flat inputs get their affine rank only: no vertices or
    facets, volume 0, and no qhull call.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError("points must be a nonempty (n, d) array")
    d = pts.shape[1] if dim is None else int(dim)
    if pts.shape[1] != d:
        raise InvalidInputError(f"points have dimension {pts.shape[1]}, expected {d}")
    if not (2 <= d <= 6):
        raise InvalidInputError(f"dimension {d} outside supported range [2, 6]")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("non-finite coordinates in point set")

    rank = affine_rank_of(pts)
    if rank < d:
        return Polytope(dim=d, vertices=np.zeros((0, d)), facet_normals=np.zeros((0, d)),
                        facet_offsets=np.zeros(0), affine_rank=rank)

    hull = _qhull(pts)
    normals, offsets = _distinct_planes(hull.equations)
    return Polytope(
        dim=d,
        vertices=pts[hull.vertices],
        facet_normals=normals,
        facet_offsets=offsets,
        affine_rank=d,
        volume=float(hull.volume),
    )


def ray_exit_distances(poly: Polytope, directions) -> np.ndarray:
    """Distance from the origin to the boundary of poly along each unit ray.

    Zero when the origin lies outside poly (that direction is already lost),
    and negative roundoff is clamped to zero.  Degenerate polytopes have no
    exit distance and raise.
    """
    if not poly.is_full_dimensional:
        raise InvalidInputError("ray exit undefined for a flat polytope")
    if poly.facet_offsets.shape[0] == 0:
        raise InvalidInputError("polytope has no facets")
    dirs = unit_rows(directions, "directions", poly.dim)
    offs = poly.facet_offsets
    scale = max(1.0, float(np.max(np.abs(offs))))
    if float(offs.min()) < -1e-9 * scale:
        return np.zeros(dirs.shape[0])
    dots = dirs @ poly.facet_normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(dots > _RAY_DOT_MIN, offs[None, :] / dots, np.inf)
    return np.maximum(steps.min(axis=1), 0.0)


def min_facet_distance(poly: Polytope) -> float:
    """Radius of the largest origin-centered ball inside poly.

    Zero when the origin is on or outside the boundary, and zero for
    degenerate polytopes (a flat wrench hull resists no ball of
    disturbances).
    """
    if not poly.is_full_dimensional or poly.facet_offsets.shape[0] == 0:
        return 0.0
    m = float(poly.facet_offsets.min())
    return m if m > 0.0 else 0.0


def polytope_volume(poly: Polytope) -> float:
    """qhull's hypervolume of poly, 0 for a flat polytope."""
    return poly.volume

