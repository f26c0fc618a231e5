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
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .contact import TrajectoryFrame, WrenchSpaceConfig, build_gws, contact_centroid
from .errors import InvalidInputError, UndefinedCorrelationWarning
from .geom import Polytope, _unit_rows, min_facet_distance, polytope_volume, ray_exit_distances

METRIC_NAMES = ("epsilon", "volume", "gravity")
TRACE_METRICS = METRIC_NAMES + ("proxy",)
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
    """

    num_directions: int = 16
    gravity_accel: float = 9.81
    custom_directions: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.gravity_accel) and self.gravity_accel > 0.0):
            raise InvalidInputError("gravity_accel must be > 0")
        if self.custom_directions is not None:
            dirs = _unit_rows(self.custom_directions, 3, "custom_directions")
            object.__setattr__(self, "custom_directions", dirs)
            object.__setattr__(self, "num_directions", dirs.shape[0])
        if int(self.num_directions) < 4:
            raise InvalidInputError("need at least 4 gravity directions")
        object.__setattr__(self, "num_directions", int(self.num_directions))


def gravity_directions(gcfg: GravityConfig) -> np.ndarray:
    if gcfg.custom_directions is None:
        return fibonacci_sphere(gcfg.num_directions)
    return gcfg.custom_directions


@dataclass(frozen=True)
class FrameQuality:
    """Requested metrics of one frame plus the size of its wrench hull.

    values maps each requested metric name to its value.  A contact-free
    frame has no hull: every metric is zero and so are the counts.
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
    metrics=TRACE_METRICS,
    proxy_dirs=None,
) -> FrameQuality:
    """Every requested metric of one frame from a single wrench hull.

    metrics is any subset of epsilon | volume | gravity | proxy; only the
    requested ones are computed.  Proxy directions default to the gravity
    directions.  Flat hulls and contact-free frames score zero on every
    metric.
    """
    names = tuple(metrics)
    unknown = [m for m in names if m not in TRACE_METRICS]
    if unknown:
        raise InvalidInputError(f"unknown metric {unknown[0]!r}, expected one of {TRACE_METRICS}")
    inertial = "gravity" in names or "proxy" in names
    if "proxy" in names:
        dirs = gravity_directions(gcfg) if proxy_dirs is None else _unit_rows(proxy_dirs, 3, "proxy_dirs")

    if len(frame.contacts) == 0:
        return FrameQuality({m: 0.0 for m in names}, vertices=0, facets=0, affine_rank=0)
    gws = build_gws(frame, cfg)
    values = dict.fromkeys(names, 0.0)
    if gws.is_full_dimensional:
        if "epsilon" in names:
            values["epsilon"] = min_facet_distance(gws)
        if "volume" in names:
            values["volume"] = polytope_volume(gws)
        if inertial:
            arm = frame.com - contact_centroid(frame)
            rho = cfg.torque_scale_rho
            if "gravity" in names:
                exits, norms = _inertial_exits(gws, arm, gravity_directions(gcfg), rho)
                caps = frame.mass * gcfg.gravity_accel * norms
                values["gravity"] = float(np.min(np.minimum(exits, caps)))
            if "proxy" in names:
                exits, _ = _inertial_exits(gws, arm, dirs, rho)
                values["proxy"] = float(np.mean(exits) / frame.mass)
    return FrameQuality(
        values,
        vertices=gws.vertices.shape[0],
        facets=gws.facet_offsets.shape[0],
        affine_rank=gws.affine_rank,
    )


def monotonicity(metric_values, ground_truth) -> float:
    """Spearman rank correlation scaled to [-100, 100], average-rank ties.

    Constant input on either side leaves ranks undefined: that returns NaN
    and raises UndefinedCorrelationWarning instead of failing.
    """
    # not a module-level import: scipy.stats adds ~0.8 s and ~32 MiB to the
    # start of every command, and only bench ranks
    from scipy import stats

    a = np.asarray(metric_values, dtype=float)
    b = np.asarray(ground_truth, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 3:
        raise InvalidInputError("need two equal-length series of at least 3 values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("non-finite values in series")
    if np.all(a == a[0]) or np.all(b == b[0]):
        warnings.warn(
            "rank correlation undefined for a constant series",
            UndefinedCorrelationWarning,
            stacklevel=2,
        )
        return float("nan")
    return float(stats.spearmanr(a, b).statistic * 100.0)


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


PROC_CGROUP = "/proc/self/cgroup"
CGROUP_MOUNT = "/sys/fs/cgroup"


def _cgroup_cpu_limit() -> float | None:
    """CPUs' worth of run time a cgroup CPU quota grants this process
    (v2 cpu.max, v1 cpu.cfs_quota_us / cpu.cfs_period_us), None without one.

    The affinity mask does not show such a quota, and threads beyond it
    only add contention and malloc arenas.  The quota file is looked up in
    the process's own cgroup, then at the mount's root, which is where a
    container without a cgroup namespace sees its own cgroup.
    """
    try:
        with open(PROC_CGROUP) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return None
    for _, controllers, path in entries:
        if controllers == "":
            mount, files = CGROUP_MOUNT, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            mount, files = f"{CGROUP_MOUNT}/{controllers}", ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        for base in (mount + path, mount):
            try:
                fields = []
                for name in files:
                    with open(os.path.join(base, name)) as fh:
                        fields += fh.read().split()
                quota, period = fields[:2]
                return None if quota in ("max", "-1") else int(quota) / int(period)
            except (OSError, ValueError):
                continue
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one,
    capped by a cgroup CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return cpus if limit is None else max(1, min(cpus, math.ceil(limit)))


def _map_frames(func, frames) -> list:
    """[func(f) for f in frames], scored on every CPU the process may use.

    Frames are independent and a wrench hull's qhull call releases the GIL,
    so min(len(frames), CPUs) threads score them: the calling thread and
    workers - 1 helpers, each claiming the next unclaimed frame, so one
    worker starts no thread.  Results come back in frame order.
    When frames fail, the exception of the lowest-index failing frame is
    raised, as a serial loop would: indices are claimed in increasing order,
    so once a frame fails every lower index is already claimed, and no
    further frame is started.
    """
    frames = list(frames)
    workers = min(len(frames), _usable_cpus())
    results = [None] * len(frames)
    errors = {}
    lock = threading.Lock()
    pending = iter(range(len(frames)))

    def work():
        while True:
            with lock:
                i = None if errors else next(pending, None)
            if i is None:
                return
            try:
                results[i] = func(frames[i])
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors[i] = exc
                return

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        # an interrupt in the calling thread leaves the helpers nothing to claim
        with lock:
            for _ in pending:
                pass
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
