"""Grasp quality metrics on the contact-centered wrench space.

Three per-frame metrics: epsilon (largest origin-centered ball inside the
wrench hull), volume (hull hypervolume), and a gravity-resistant quality
that measures, over a set of sampled gravity directions, the smallest
boundary distance of the wrench hull capped by the physical gravity wrench
magnitude.  An analytic instability proxy (mean resistible acceleration)
serves as benchmark ground truth, compared via rank correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import TrajectoryFrame, WrenchSpaceConfig, build_gws, contact_centroid
from .errors import InvalidInputError, check_fields, finite, integer, unit_rows
from .geom import Polytope, min_facet_distance, polytope_volume, ray_exit_distances

METRIC_NAMES = ("epsilon", "volume", "gravity")
# A trace counts as saturated once later values stop exceeding the current
# one by more than this relative margin.
SATURATION_REL_MARGIN = 0.01


def fibonacci_sphere(count: int) -> np.ndarray:
    """count near-uniform unit directions on S^2 (deterministic lattice)."""
    if count < 1:
        raise InvalidInputError("need at least one direction")
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


@dataclass(frozen=True)
class GravityConfig:
    """How gravity directions are sampled and scaled.

    custom_directions, when given, replaces the Fibonacci-sphere lattice of
    num_directions directions, and num_directions becomes its row count.
    directions holds the sampled directions, built once here.
    """

    num_directions: int = 16
    gravity_accel: float = 9.81
    custom_directions: np.ndarray | None = None
    directions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, finite, "gravity_accel", above=0.0)
        if self.custom_directions is not None:
            check_fields(self, unit_rows, "custom_directions", dim=3)
            object.__setattr__(self, "num_directions", self.custom_directions.shape[0])
        check_fields(self, integer, "num_directions", least=4)
        dirs = self.custom_directions
        if dirs is None:
            dirs = fibonacci_sphere(self.num_directions)
        object.__setattr__(self, "directions", dirs)


@dataclass(frozen=True)
class FrameQuality:
    """The metrics of one frame plus the size of its wrench hull.

    values maps each metric name to its value.  A contact-free frame has no
    hull: every metric is zero and so are the counts.
    """

    values: dict
    vertices: int
    facets: int
    affine_rank: int


def _inertial_exits(gws: Polytope, arm: np.ndarray, dirs: np.ndarray, rho: float):
    """Hull exit distances along the unit 6D rays (d, (arm x d)/rho), plus the
    rays' pre-normalization norms."""
    v = np.hstack([dirs, np.cross(np.broadcast_to(arm, dirs.shape), dirs) / rho])
    norms = np.linalg.norm(v, axis=1)
    return ray_exit_distances(gws, v / norms[:, None]), norms


def frame_quality(
    frame: TrajectoryFrame,
    cfg: WrenchSpaceConfig,
    gcfg: GravityConfig,
    proxy_dirs=None,
) -> FrameQuality:
    """Every metric of one frame from its single wrench hull.

    values holds epsilon, volume and gravity, plus proxy (the mean hull exit
    distance along proxy_dirs, over the mass) when proxy_dirs is given.
    Flat hulls and contact-free frames score zero on every metric.
    """
    if proxy_dirs is None:
        values = dict.fromkeys(METRIC_NAMES, 0.0)
    else:
        proxy_dirs = unit_rows(proxy_dirs, "proxy_dirs", 3)
        values = dict.fromkeys(METRIC_NAMES + ("proxy",), 0.0)
    if len(frame.contacts) == 0:
        return FrameQuality(values, vertices=0, facets=0, affine_rank=0)
    gws = build_gws(frame, cfg)
    if gws.is_full_dimensional:
        arm = frame.com - contact_centroid(frame)
        rho = cfg.torque_scale_rho
        exits, norms = _inertial_exits(gws, arm, gcfg.directions, rho)
        values["epsilon"] = min_facet_distance(gws)
        values["volume"] = polytope_volume(gws)
        values["gravity"] = float(np.min(np.minimum(exits, frame.mass * gcfg.gravity_accel * norms)))
        if proxy_dirs is not None:
            exits, _ = _inertial_exits(gws, arm, proxy_dirs, rho)
            values["proxy"] = float(np.mean(exits) / frame.mass)
    return FrameQuality(
        values,
        vertices=gws.vertices.shape[0],
        facets=gws.facet_offsets.shape[0],
        affine_rank=gws.affine_rank,
    )


def monotonicity(metric_values, ground_truth) -> float:
    """Spearman rank correlation scaled to [-100, 100], average-rank ties.

    Constant input on either side leaves ranks undefined: that returns NaN,
    which the caller reports (bench prints it in its table).
    """
    a = np.asarray(metric_values, dtype=float)
    b = np.asarray(ground_truth, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 3:
        raise InvalidInputError("need two equal-length series of at least 3 values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("non-finite values in series")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return float("nan")
    return float(np.corrcoef(np.stack([_average_ranks(a), _average_ranks(b)]))[1, 0] * 100.0)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each run of equal values given its mean rank."""
    order = np.argsort(x, kind="stable")
    ranked = x[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def saturation_index(values: np.ndarray) -> int | None:
    """First index whose later values never exceed it by the relative margin.

    The last frame alone never counts (nothing after it to witness the
    plateau), so a trace still rising at the end reports no saturation.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        return None
    suffix_max = np.maximum.accumulate(v[::-1])[::-1]
    for i in range(n - 1):
        later = suffix_max[i + 1]
        if v[i] > 0.0:
            if later <= v[i] * (1.0 + SATURATION_REL_MARGIN):
                return i
        elif later <= 0.0:
            return i
    return None


def desired_force_index(trajectory, desired_force: float) -> int | None:
    """Index of the first frame whose squeeze force reaches the target."""
    for i, frame in enumerate(trajectory):
        if frame.squeeze_force >= desired_force:
            return i
    return None
