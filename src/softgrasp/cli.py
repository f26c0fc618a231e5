"""Command line front end: simulate | metric | rank | bench | hull-info.

Data tables go to stdout (tab-separated, '#' for summary lines); diagnostics
go to stderr as logging records, "LEVEL logger: message": one per failed or
empty candidate and per normalized grasp axis, and with -v also qhull's
joggle retries.  The library layers return outcomes; the commands report
them, each once.  Exit codes: 0 success, 1 partial per-item failure, 2 config
or I/O error.  simulate, rank and bench squeeze through fem.squeeze_frames,
and a rank or bench candidate whose squeeze or wrench hull fails
(SolverError, HullError) is a failed row.  When qhull cannot build a
frame's wrench hull even from joggled input, metric and hull-info print
"error: ..." to stderr, nothing to stdout, and exit 1.  All sampling is
seeded, so equal inputs and seeds produce byte-identical outputs,
regardless of --jobs, at a fixed BLAS thread count (CI and pipebench set
OPENBLAS_NUM_THREADS=1).  The squeeze's dense solves sum in a
thread-dependent order: pipebench's 24 seed-0 rank-midair candidates print
byte-identical rows on one and two BLAS threads, but its seed-0
squeeze-platform candidate box/00 converges on one thread and fails on two.
Work is spread over the caller and helpers: --jobs N runs candidates in
the calling process and min(N, candidates) - 1 worker processes, and
metric and hull-info score frames on the calling thread and one pool
thread per other CPU in the affinity mask; a CPU quota does not shrink the
mask, so under one, bound the threads with taskset.  multiprocessing loads
when a map starts a worker process and scipy.sparse.linalg (SuperLU) at
the first mesh assembly, so metric and hull-info load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .contact import WrenchSpaceConfig, default_torque_scale, orthonormal_tangents
from .errors import ConfigError, HullError, InvalidInputError, ParseError, SolverError, check_fields, finite, integer
from .fem import (
    GraspCandidate,
    MaterialParams,
    SimConfig,
    TetMesh,
    assemble_model,
    generate_primitive_mesh,
    mesh_center_of_mass,
    squeeze_frames,
)
from .metrics import (
    METRIC_NAMES,
    GravityConfig,
    desired_force_index,
    fibonacci_sphere,
    frame_quality,
    monotonicity,
    saturation_index,
)

logger = logging.getLogger("softgrasp.cli")  # __name__ is "__main__" under python -m


# ---------------------------------------------------------------------------
# Run configuration (flat key=value file).


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline with its default.

    material, sim and gravity are the configs of the squeeze and gravity
    stages, which declare their own tunables; the fields after them are the
    wrench-space and run settings no stage config declares.
    torque_scale_rho None means "auto": the maximum distance from the first
    contact centroid to any mesh node, resolved per trajectory.
    """

    material: MaterialParams = field(default_factory=MaterialParams)
    sim: SimConfig = field(default_factory=SimConfig)
    gravity: GravityConfig = field(default_factory=GravityConfig)
    cone_edges: int = 8
    torque_scale_rho: float | None = None
    force_normalization: str = "unit-edge"
    desired_force: float = 5.0
    proxy_directions: int = 32
    seed: int = 0

    def __post_init__(self):
        try:
            # the wrench-space fields are checked, and stored converted, by
            # the WrenchSpaceConfig they build
            wcfg = self.wrench_config(1.0 if self.torque_scale_rho is None else self.torque_scale_rho)
            object.__setattr__(self, "cone_edges", wcfg.cone_edges)
            if self.torque_scale_rho is not None:
                object.__setattr__(self, "torque_scale_rho", wcfg.torque_scale_rho)
            check_fields(self, integer, "proxy_directions", least=1)
            check_fields(self, integer, "seed", least=0)
            check_fields(self, finite, "desired_force", above=0.0)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None

    def wrench_config(self, rho: float) -> WrenchSpaceConfig:
        return WrenchSpaceConfig(
            friction_mu=self.material.friction_mu,
            cone_edges=self.cone_edges,
            torque_scale_rho=rho,
            force_normalization=self.force_normalization,
        )

    def resolve_rho(self, mesh_nodes, centroid) -> float:
        if self.torque_scale_rho is not None:
            return self.torque_scale_rho
        return default_torque_scale(mesh_nodes, centroid)


# The stage configs RunConfig holds, by field name.
_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(RunConfig)
    if f.default_factory is not dataclasses.MISSING
}
# Each flat config key -> (the section whose dataclass declares it, or None
# for RunConfig's own fields; that field's default).  custom_directions, an
# array, has no flat form, and a field derived in __post_init__ is no key.
_KEYS = {f.name: (None, f.default) for f in dataclasses.fields(RunConfig) if f.name not in _SECTIONS}
_KEYS.update(
    (g.name, (name, g.default))
    for name, cls in _SECTIONS.items()
    for g in dataclasses.fields(cls)
    if g.init and g.default is not None
)


def parse_run_config(text: str) -> RunConfig:
    """Parse the flat key=value config format ('#' comments, last key wins).

    A value takes the type of its field's default; torque_scale_rho also
    takes "auto".
    """
    groups = {name: {} for name in (None, *_SECTIONS)}
    for lineno_raw, raw in enumerate(text.splitlines()):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        lineno = lineno_raw + 1
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, default = _KEYS[key]
        try:
            if key == "torque_scale_rho":
                groups[section][key] = None if value == "auto" else float(value)
            else:
                groups[section][key] = type(default)(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key}") from None
    try:
        for name, cls in _SECTIONS.items():
            groups[None][name] = cls(**groups[name])
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(**groups[None])


def load_run_config(path) -> RunConfig:
    return parse_run_config(fileio.read_text(path))


# ---------------------------------------------------------------------------
# Shared evaluation plumbing.


@dataclass
class GraspEvaluation:
    """Metrics of one candidate at its evaluation frame; a failed or empty
    candidate was never measured and scores 0."""

    index: int
    status: str = "ok"  # ok | empty | failed
    reached: bool = False
    eval_force: float = 0.0
    epsilon: float = 0.0
    volume: float = 0.0
    gravity: float = 0.0
    proxy: float = 0.0
    message: str = ""


def evaluate_frames(centroid, frame, mesh_nodes, rc: RunConfig, index: int) -> GraspEvaluation:
    """Score a squeeze at its last frame.

    The squeeze stops at the first frame that reaches the desired force, so
    that frame is the one scored; a squeeze that stops short of it is scored
    at its last frame and marked not reached.  centroid is the contact
    centroid of the squeeze's first frame, which fixes the torque scale.
    """
    rho = rc.resolve_rho(mesh_nodes, centroid)
    q = frame_quality(
        frame, rc.wrench_config(rho), rc.gravity,
        proxy_dirs=fibonacci_sphere(rc.proxy_directions),
    )
    return GraspEvaluation(
        index=index,
        reached=frame.squeeze_force >= rc.desired_force,
        eval_force=frame.squeeze_force,
        **q.values,
    )


def _run_candidate(payload) -> GraspEvaluation:
    """Squeeze a rank or bench candidate up to the frame they score, and score it.

    That is the first frame to reach desired_force, so the squeeze stops
    there, and squeeze_frames builds that frame alone.  Only the driver
    holds the model (its sparse factor) and the squeeze (its compliance
    columns), so both are freed before the hull is built.  A SolverError,
    from assembly or a step, or a HullError makes a failed candidate.
    """
    index, mesh, cand, rc = payload
    grasp = dataclasses.replace(cand, max_force=min(cand.max_force, rc.desired_force))
    try:
        frames, centroid = squeeze_frames(assemble_model(mesh, rc.material), grasp, rc.sim, every_frame=False)
    except SolverError as exc:
        return GraspEvaluation(index, "failed", message=str(exc))
    if not frames:
        return GraspEvaluation(index, "empty", message="no contact frames")
    try:
        return evaluate_frames(centroid, frames[0], mesh.nodes, rc, index)
    except HullError as exc:
        return GraspEvaluation(index, "failed", message=str(exc))


def _log_failed_candidates(outcomes, prefix: str = "") -> int:
    """Log one warning per failed or empty candidate, in the order given, and
    return how many there were.  outcomes holds (index, status, message)."""
    failures = [outcome for outcome in outcomes if outcome[1] != "ok"]
    for index, status, message in failures:
        logger.warning("%scandidate %d: %s (%s)", prefix, index, status, message)
    return len(failures)


# ---------------------------------------------------------------------------
# Spreading work: candidates over --jobs processes, frames over CPU threads.


def _map(pool, func, items, workers: int) -> list:
    """[func(x) for x in items] on w = min(workers, len(items)) workers: the
    calling thread and pool(w - 1), a concurrent.futures executor of w - 1
    workers; w <= 1 runs the plain loop and never calls pool.

    Every item is submitted to the pool, which starts them from the front;
    the caller walks them from the back and runs each one it can still
    cancel, until one of its own raises, so no worker waits idle and the
    pool never receives the items the caller runs.  Results are read in
    item order, so a failure raises the exception of the lowest failing
    index, as the loop would, and the items not yet started are cancelled
    when one fails or the caller is interrupted.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [func(x) for x in items]
    with pool(workers - 1) as executor:
        futures = [executor.submit(func, x) for x in items]
        try:
            for i in reversed(range(len(items))):
                if not futures[i].cancel():
                    break  # the pool has taken this item and every one before it
                futures[i] = Future()  # holds the caller's own outcome
                try:
                    futures[i].set_result(func(items[i]))
                except Exception as exc:
                    futures[i].set_exception(exc)
                    break
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


def _process_pool(workers: int):
    """multiprocessing loads here, when a map starts a worker process."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _map_jobs(func, payloads, jobs: int):
    """Run payloads through func, in order, on the calling process and up to
    jobs - 1 worker processes; one job or one payload starts no process."""
    return _map(_process_pool, func, payloads, jobs)


def _usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask, or
    os.cpu_count() where the OS has no mask.  A CPU quota does not shrink
    the mask, so under one, bound the count with taskset."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_frames(func, frames) -> list:
    """[func(f) for f in frames], on the calling thread and one pool thread
    per other usable CPU, min(len(frames), usable CPUs) threads in all.

    Frames are independent and a wrench hull's qhull call releases the GIL,
    so threads score them side by side; the output does not depend on the
    CPU count.
    """
    return _map(ThreadPoolExecutor, func, frames, _usable_cpus())


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _emit(columns) -> None:
    print("\t".join(_fmt(c) for c in columns))


# ---------------------------------------------------------------------------
# simulate


def _simulate_worker(payload):
    index, mesh, cand, rc, out_path, object_name = payload
    try:
        model = assemble_model(mesh, rc.material)
        frames, centroid = squeeze_frames(model, cand, rc.sim)
    except SolverError as exc:
        return (index, "failed", 0, str(exc), "")
    if centroid is None:
        centroid = mesh_center_of_mass(mesh.nodes, mesh.tets)
    rho = rc.resolve_rho(mesh.nodes, centroid)
    header = fileio.TrajectoryHeader(
        object_name=object_name, mass=model.mass, material=model.mat, torque_scale_rho=rho
    )
    fileio.save_trajectory(out_path, frames, header)
    status = "ok" if frames else "empty"
    message = "" if frames else "no contact frames"
    return (index, status, len(frames), message, str(out_path))


def cmd_simulate(args, rc: RunConfig) -> int:
    mesh = fileio.load_tet_mesh(args.node, args.ele)
    candidates = fileio.load_grasp_candidates(args.grasps)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    object_name = args.object_name or Path(args.node).stem
    payloads = [
        (i, mesh, cand, rc, out_dir / f"grasp_{i:03d}.jsonl", object_name)
        for i, cand in enumerate(candidates)
    ]
    results = _map_jobs(_simulate_worker, payloads, args.jobs)
    failures = _log_failed_candidates((index, status, message) for index, status, _, message, _ in results)
    _emit(("candidate", "status", "frames", "file"))
    for index, status, n_frames, _, path in results:
        _emit((index, status, n_frames, path))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# metric


def _score_trajectory(path, rc: RunConfig):
    """A trajectory file's frames, and each frame's FrameQuality (the metric
    and hull-info commands).

    The torque scale is the config's torque_scale_rho, or, when that is
    auto, the one the trajectory header recorded.
    """
    traj = fileio.load_trajectory(path)
    rho = traj.header.torque_scale_rho if rc.torque_scale_rho is None else rc.torque_scale_rho
    wcfg = rc.wrench_config(rho)
    frames = list(traj.frames)
    return frames, _map_frames(lambda f: frame_quality(f, wcfg, rc.gravity), frames)


def cmd_metric(args, rc: RunConfig) -> int:
    frames, qualities = _score_trajectory(args.trajectory, rc)
    names = list(METRIC_NAMES) if args.metric == "all" else [args.metric]
    if not frames:
        print("# empty trajectory", file=sys.stdout)
        return 0
    values = [q.values for q in qualities]
    desired = rc.desired_force
    _emit(["frame", "time", "squeeze_force"] + names)
    for i, frame in enumerate(frames):
        _emit([i, frame.time, frame.squeeze_force] + [values[i][n] for n in names])
    idx = desired_force_index(frames, desired)
    print(f"# desired_force\t{_fmt(float(desired))}")
    print(f"# desired_force_frame\t{idx if idx is not None else 'none'}")
    for name in names:
        at = values[idx][name] if idx is not None else float("nan")
        sat = saturation_index([v[name] for v in values])
        sat_force = _fmt(frames[sat].squeeze_force) if sat is not None else "none"
        print(f"# {name}_at_desired\t{_fmt(at)}")
        print(f"# {name}_saturation_force\t{sat_force}")
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args, rc: RunConfig) -> int:
    mesh = fileio.load_tet_mesh(args.node, args.ele)
    candidates = fileio.load_grasp_candidates(args.grasps)
    payloads = [(i, mesh, cand, rc) for i, cand in enumerate(candidates)]
    evals = _map_jobs(_run_candidate, payloads, args.jobs)
    key = args.metric
    order = sorted(evals, key=lambda e: (-getattr(e, key), e.index))
    _emit((
        "rank", "candidate", "center_x", "center_y", "center_z",
        "axis_x", "axis_y", "axis_z", "epsilon", "volume", "gravity", "proxy",
        "eval_force", "reached", "status",
    ))
    # an unmeasured candidate scores 0, so the rows list them in index order too
    failures = _log_failed_candidates((e.index, e.status, e.message) for e in evals)
    for rank, ev in enumerate(order):
        cand = candidates[ev.index]
        _emit(
            [rank, ev.index]
            + [float(v) for v in cand.grasp_center]
            + [float(v) for v in cand.approach_axis]
            + [ev.epsilon, ev.volume, ev.gravity, ev.proxy, ev.eval_force,
               int(ev.reached), ev.status]
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench


BENCH_OBJECTS = {
    # resolutions keep node spacing under half the smallest sampled pad span,
    # otherwise pads often trap a single line of nodes (flat wrench sets)
    "box": ("box", (0.06, 0.06, 0.06), 6),
    "slab": ("box", (0.10, 0.07, 0.025), 5),
    "cylinder": ("cylinder", (0.03, 0.08), 3),
    "sphere": ("sphere-ish", (0.035,), 5),
}


def bench_mesh(name: str) -> TetMesh:
    if name not in BENCH_OBJECTS:
        raise ConfigError(
            f"unknown bench object {name!r} (available: {', '.join(sorted(BENCH_OBJECTS))})"
        )
    kind, dims, resolution = BENCH_OBJECTS[name]
    mesh = generate_primitive_mesh(kind, dims, resolution)
    # seat the object on the platform plane z = 0
    lift = -float(mesh.nodes[:, 2].min())
    return mesh.translated((0.0, 0.0, lift))


def sample_grasps(mesh: TetMesh, count: int, rng, rc: RunConfig) -> list[GraspCandidate]:
    """Seeded antipodal candidates: surface point, jittered outward axis.

    The grasp center sits mid-span along the approach line with tangential
    jitter up to a full pad halfwidth, so the sampled centers spread around
    the center of mass; pad sizes vary, covering contact geometries from
    full-face pinches to corner grips.
    """
    faces = mesh.surface_faces
    corners = mesh.nodes[faces]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    normals = cross / (2.0 * areas[:, None])
    probs = areas / areas.sum()
    # pads sized against the second-smallest extent: sizing against the
    # smallest leaves flat objects with pads thinner than a mesh cell
    extents = np.sort(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0))
    base_half = 0.45 * float(extents[1])

    out = []
    for _ in range(count):
        fi = int(rng.choice(len(faces), p=probs))
        # random barycentric point on the face, biased toward the centroid
        bary = rng.dirichlet((2.0, 2.0, 2.0))
        point = bary @ corners[fi]
        axis = normals[fi]
        t1, t2 = orthonormal_tangents(axis)
        tilt1, tilt2 = rng.uniform(-0.15, 0.15, size=2)
        axis = axis + tilt1 * t1 + tilt2 * t2
        axis = axis / np.linalg.norm(axis)
        proj = (mesh.nodes - point) @ axis
        center = point + axis * (float(proj.min()) + float(proj.max())) / 2.0
        t1, t2 = orthonormal_tangents(axis)
        halfwidth = base_half * rng.uniform(0.5, 1.1)
        center = center + t1 * rng.uniform(-1.0, 1.0) * halfwidth
        center = center + t2 * rng.uniform(-1.0, 1.0) * halfwidth
        out.append(
            GraspCandidate(
                grasp_center=center,
                approach_axis=axis,
                finger_halfwidth=halfwidth,
                max_force=rc.desired_force * 1.5,
            )
        )
    return out


def run_bench(object_names, grasps_per_object: int, rc: RunConfig, jobs: int = 1):
    """Monotonicity table rows (object, grasps, failed, empty, eps, vol, grav)
    plus the number of objects whose metrics are ordered.

    Only ok candidates enter the rank correlations: a failed or empty
    candidate was never measured, and scoring it 0 on both sides would add
    ties.  An object with fewer than 3 ok candidates gets NaN correlations
    and does not count as ordered.
    """
    # candidates are squeezed mid-air: the protocol compares grasps on a held
    # object, so no platform sits under it
    rc = dataclasses.replace(rc, sim=dataclasses.replace(rc.sim, platform_height=-1.0))
    # bench_mesh rejects an unknown name before any candidate is squeezed
    meshes = [bench_mesh(name) for name in object_names]
    rows = []
    for obj_idx, (name, mesh) in enumerate(zip(object_names, meshes)):
        rng = np.random.default_rng([rc.seed, obj_idx])
        candidates = sample_grasps(mesh, grasps_per_object, rng, rc)
        payloads = [(i, mesh, cand, rc) for i, cand in enumerate(candidates)]
        evals = _map_jobs(_run_candidate, payloads, jobs)
        _log_failed_candidates(((e.index, e.status, e.message) for e in evals), f"bench {name} ")
        measured = [e for e in evals if e.status == "ok"]
        failed = sum(e.status == "failed" for e in evals)
        empty = sum(e.status == "empty" for e in evals)
        proxy = np.array([e.proxy for e in measured])
        scores = dict.fromkeys(METRIC_NAMES, float("nan"))
        if len(measured) < 3:
            logger.warning("bench %s: %d measured grasps, too few to rank", name, len(measured))
        else:
            for metric in METRIC_NAMES:
                vals = np.array([getattr(e, metric) for e in measured])
                scores[metric] = monotonicity(vals, proxy)
        rows.append(
            (name, len(evals), failed, empty, scores["epsilon"], scores["volume"], scores["gravity"])
        )
    # a NaN correlation compares false, so its object is not ordered
    ordered = sum(1 for (*_, eps, vol, grav) in rows if grav >= vol >= eps)
    return rows, ordered


def cmd_bench(args, rc: RunConfig) -> int:
    names = [n.strip() for n in args.objects.split(",") if n.strip()]
    if not names:
        raise ConfigError("no bench objects given")
    if args.grasps_per_object < 3:
        raise ConfigError("--grasps-per-object must be >= 3 (rank correlation needs 3 grasps)")
    rows, ordered = run_bench(names, args.grasps_per_object, rc, jobs=args.jobs)
    _emit(("object", "grasps", "failed", "empty", "epsilon", "volume", "gravity"))
    for row in rows:
        _emit(row)
    print(f"# ordering gravity>=volume>=epsilon on {ordered}/{len(rows)} objects")
    return 0


# ---------------------------------------------------------------------------
# hull-info


def cmd_hull_info(args, rc: RunConfig) -> int:
    frames, qualities = _score_trajectory(args.trajectory, rc)
    _emit(("frame", "time", "contacts", "vertices", "facets", "affine_rank") + METRIC_NAMES)
    for i, (frame, q) in enumerate(zip(frames, qualities)):
        _emit(
            [i, frame.time, len(frame.contacts), q.vertices, q.facets, q.affine_rank]
            + [q.values[name] for name in METRIC_NAMES]
        )
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse reads it
    and leaves no value behind in it, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="softgrasp",
        description="Wrench-space grasp quality for deformable objects",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("-v", "--verbose", action="store_true", help="info-level diagnostics")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="squeeze grasps, write trajectories")
    p.add_argument("--node", required=True, help="tetgen .node file")
    p.add_argument("--ele", required=True, help="tetgen .ele file")
    p.add_argument("--grasps", required=True, help="grasp candidate JSONL file")
    p.add_argument("--out-dir", required=True, help="directory for trajectory files")
    p.add_argument("--object-name", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metric", parents=[common], help="evaluate metrics on a trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--metric", default="all", choices=("all",) + METRIC_NAMES)
    p.add_argument("--desired-force", type=float, default=None)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("rank", parents=[common], help="rank grasp candidates on a mesh")
    p.add_argument("--node", required=True)
    p.add_argument("--ele", required=True)
    p.add_argument("--grasps", required=True)
    p.add_argument("--metric", default="gravity", choices=METRIC_NAMES)
    p.add_argument("--desired-force", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("bench", parents=[common], help="metric monotonicity benchmark")
    p.add_argument("--objects", default="box,slab,cylinder,sphere")
    p.add_argument("--grasps-per-object", type=int, default=15)
    p.add_argument("--desired-force", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hull-info", parents=[common], help="per-frame wrench hull statistics")
    p.add_argument("--trajectory", required=True)
    p.set_defaults(func=cmd_hull_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        rc = load_run_config(args.config) if args.config else RunConfig()
        for key in ("seed", "desired_force"):
            value = getattr(args, key, None)
            if value is not None:
                rc = dataclasses.replace(rc, **{key: value})
        return args.func(args, rc)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
