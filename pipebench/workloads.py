"""The three workloads: their operations, output parsing and output checks.

Every operation drives the program through `softgrasp.cli.main([...])`
in-process with stdout captured, exactly as a user's `softgrasp ...` call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError

import inputs
from softgrasp import cli
from softgrasp.fem import generate_primitive_mesh

# Reference tolerances.  FEM outputs may move by the solver's residual
# tolerance (RunConfig.convergence_tol = 1e-3 N), the same allowance as the
# "contact forces within convergence_tol" gate for a solver rewrite;
# statuses, frame counts and which frame is evaluated must not change.
FORCE_ABS_TOL = 1e-3  # N
FEM_METRIC_REL_TOL = 1e-6
# metric-trace has no FEM: identical input files must give the same values
# up to floating-point summation order and the 10 printed digits
TRACE_REL_TOL = 1e-7
ABS_TOL = 1e-12
# the independent qhull oracle on metric-trace frames
ORACLE_REL_TOL = 1e-6
# RunConfig's defaults, copied because the metric calls pass no --config
ORACLE_MU = 0.8
ORACLE_CONE_EDGES = 8
ORACLE_DIRECTIONS = 16
ORACLE_G = 9.81


@dataclass
class Call:
    tag: str
    argv: list


@dataclass
class Op:
    key: str
    calls: list
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One operation's result: parsed outputs, time per call, what went wrong."""

    key: str
    outputs: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    error: str = ""
    status_failed: bool = False
    violations: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    recovered: bool = False

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    @property
    def failed(self) -> bool:
        return bool(self.error or self.status_failed or self.violations or self.mismatches or self.oracle)

    @property
    def incorrect(self) -> bool:
        """Crashed, inconsistent, or different from the reference or an earlier run.

        Disagreeing with the independent oracle fails the operation but is
        a property of the program at the reference commit too, so it is
        reported on its own rather than as a regression.
        """
        return bool(self.error or self.violations or self.mismatches)


def call_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_op(op: Op, parse, tracer=None) -> Outcome:
    """Run an operation's CLI calls, timing each; parsing happens after."""
    outcome = Outcome(op.key)
    raw = {}
    for call in op.calls:
        if tracer is not None:
            tracer.tag = call.tag
        t0 = time.perf_counter()
        try:
            raw[call.tag] = call_cli(call.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed benchmark
            outcome.seconds[call.tag] = time.perf_counter() - t0
            outcome.error = f"{call.tag}: {type(exc).__name__}: {exc}"
            return outcome
        outcome.seconds[call.tag] = time.perf_counter() - t0
    try:
        parse(op, raw, outcome)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        outcome.error = f"unparsable output: {type(exc).__name__}: {exc}"
    return outcome


def _table(text: str):
    """Tab-separated table after its header line, plus '# key<TAB>value' lines."""
    lines = [line for line in text.splitlines() if line]
    data = [line for line in lines if not line.startswith("#")]
    summary = dict(line[2:].split("\t", 1) for line in lines if line.startswith("# ") and "\t" in line)
    header = data[0].split("\t")
    return header, [row.split("\t") for row in data[1:]], summary


def _close(a: float, b: float, rel: float, abs_tol: float = ABS_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# rank-midair


class RankMidair:
    name = "rank-midair"
    kind = "candidates"
    # nominal seconds per operation (2 vCPUs of a Xeon at 2.1 GHz); a 40 s
    # run then makes 20 operations, 5 per object
    op_seconds = 2.0

    def setup(self, seed: int, work: Path) -> list:
        cfg = work / "run.cfg"
        work.mkdir(parents=True, exist_ok=True)
        cfg.write_text(inputs.MIDAIR_CONFIG, encoding="utf-8")
        return [
            Op(g.key, [Call("rank", ["rank", "--node", str(g.node), "--ele", str(g.ele), "--grasps", str(g.grasps),
                                     "--config", str(cfg), "--jobs", "1"])])
            for g in inputs.grasp_inputs(work, seed, inputs.MIDAIR_MAX_FORCE, inputs.MIDAIR_POOL_PER_OBJECT,
                                         jitter=True)
        ]

    def warmup(self, work: Path) -> list:
        return self._tiny(work, "rank", [])

    @staticmethod
    def _tiny(work: Path, command: str, extra: list) -> list:
        """A small box and one grasp, to load every code path once."""
        work.mkdir(parents=True, exist_ok=True)
        mesh = generate_primitive_mesh("box", (0.03, 0.03, 0.03), 2)
        node, ele = inputs.write_mesh(mesh, work, "tiny")
        cand = inputs.seeded_candidates(mesh, 0, 0, 1)[0]
        grasps = work / "tiny.jsonl"
        grasps.write_text(inputs.fileio.write_grasp_candidates([cand]), encoding="utf-8")
        cfg = work / "run.cfg"
        cfg.write_text(inputs.MIDAIR_CONFIG, encoding="utf-8")
        argv = [command, "--node", str(node), "--ele", str(ele), "--grasps", str(grasps), "--config", str(cfg)]
        return [Op("tiny", [Call(command, argv + extra)], {"axis": tuple(cand.approach_axis)})]

    def parse(self, op, raw, outcome):
        code, text = raw["rank"]
        header, rows, _ = _table(text)
        row = dict(zip(header, rows[0]))
        out = {k: float(row[k]) for k in ("eval_force", "epsilon", "volume", "gravity", "proxy")}
        out["status"] = row["status"]
        out["reached"] = int(row["reached"])
        outcome.outputs = out
        outcome.status_failed = out["status"] == "failed"
        outcome.frames["rank"] = 1 if out["status"] == "ok" else 0

    def check(self, op, outcome):
        out = outcome.outputs
        bad = []
        if out["status"] not in ("ok", "empty", "failed"):
            bad.append(f"unknown status {out['status']!r}")
        values = [out[k] for k in ("eval_force", "epsilon", "volume", "gravity", "proxy")]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            bad.append(f"negative or non-finite value in {values}")
        if out["status"] == "ok" and (out["eval_force"] >= inputs.BENCH_FORCE) != bool(out["reached"]):
            bad.append("reached flag disagrees with eval_force")
        return bad

    def compare(self, expected, actual):
        bad = []
        for key in ("status", "reached"):
            if expected[key] != actual[key]:
                bad.append(f"{key} {actual[key]!r} != reference {expected[key]!r}")
        if not _close(actual["eval_force"], expected["eval_force"], 0.0, FORCE_ABS_TOL):
            bad.append(f"eval_force {actual['eval_force']} != reference {expected['eval_force']}")
        for key in ("epsilon", "volume", "gravity", "proxy"):
            if not _close(actual[key], expected[key], FEM_METRIC_REL_TOL):
                bad.append(f"{key} {actual[key]} != reference {expected[key]}")
        return bad


# ---------------------------------------------------------------------------
# squeeze-platform


class SqueezePlatform:
    name = "squeeze-platform"
    kind = "candidates"
    op_seconds = 4.0

    def setup(self, seed: int, work: Path) -> list:
        cfg = work / "run.cfg"
        work.mkdir(parents=True, exist_ok=True)
        cfg.write_text(inputs.PLATFORM_CONFIG, encoding="utf-8")
        ops = []
        for g in inputs.grasp_inputs(work, seed, inputs.PLATFORM_MAX_FORCE, inputs.PLATFORM_POOL_PER_OBJECT):
            out_dir = work / "out" / g.key.replace("/", "_")
            argv = ["simulate", "--node", str(g.node), "--ele", str(g.ele), "--grasps", str(g.grasps),
                    "--out-dir", str(out_dir), "--object-name", g.object_name, "--config", str(cfg), "--jobs", "1"]
            ops.append(Op(g.key, [Call("simulate", argv)], {"axis": g.axis}))
        return ops

    def warmup(self, work: Path) -> list:
        return RankMidair._tiny(work, "simulate", ["--out-dir", str(work / "out")])

    def parse(self, op, raw, outcome):
        code, text = raw["simulate"]
        header, rows, _ = _table(text)
        row = dict(zip(header, rows[0]))
        out = {"status": row["status"], "frames": int(row["frames"]), "final_force": 0.0}
        if row["file"]:
            path = Path(row["file"])
            lines = path.read_text(encoding="utf-8").splitlines()
            frames = [json.loads(line) for line in lines[1:]]
            if frames:
                out["final_force"] = float(frames[-1]["squeeze_force"])
            outcome.info = {"file_frames": frames}
            path.unlink()
        outcome.outputs = out
        outcome.status_failed = out["status"] == "failed"
        outcome.frames["simulate"] = out["frames"]

    def check(self, op, outcome):
        out = outcome.outputs
        bad = []
        if out["status"] not in ("ok", "empty", "failed"):
            bad.append(f"unknown status {out['status']!r}")
        frames = outcome.info.get("file_frames", [])
        if out["status"] != "failed" and len(frames) != out["frames"]:
            bad.append(f"{len(frames)} frames in the file, {out['frames']} reported")
        times = [f["t"] for f in frames]
        if any(b <= a for a, b in zip(times, times[1:])):
            bad.append("frame times not strictly increasing")
        axis = np.asarray(op.info["axis"])
        for i, f in enumerate(frames):
            # pad A pushes along the approach axis; its normal-force sum is
            # the frame's squeeze force (friction is tangential)
            pad_a = sum(float(np.dot(c["f"], c["n"])) for c in f["contacts"] if np.dot(c["n"], axis) > 0.5)
            if not _close(pad_a, f["squeeze_force"], 1e-9, 1e-12):
                bad.append(f"frame {i}: pad normal forces sum to {pad_a}, squeeze_force is {f['squeeze_force']}")
                break
        return bad

    def compare(self, expected, actual):
        bad = []
        for key in ("status", "frames"):
            if expected[key] != actual[key]:
                bad.append(f"{key} {actual[key]!r} != reference {expected[key]!r}")
        if not _close(actual["final_force"], expected["final_force"], 0.0, FORCE_ABS_TOL):
            bad.append(f"final_force {actual['final_force']} != reference {expected['final_force']}")
        return bad


# ---------------------------------------------------------------------------
# metric-trace


def _tangents(n):
    a = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[a] = 1.0
    t1 = e - n[a] * n
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def oracle_metrics(frame: dict, rho: float) -> dict | None:
    """epsilon, volume and gravity of one frame straight from qhull.

    Independent of softgrasp.contact, geom and metrics: wrenches from the
    documented pyramid construction, epsilon as the smallest facet offset,
    volume from qhull, gravity from facet-ray exits capped by m*g*|v|.
    Returns None when plain qhull rejects the point set (flat input).
    """
    x = np.array([c["x"] for c in frame["contacts"]])
    centroid = x.mean(axis=0)
    theta = 2.0 * np.pi * np.arange(ORACLE_CONE_EDGES) / ORACLE_CONE_EDGES
    rows = []
    for c, pos in zip(frame["contacts"], x):
        n = np.asarray(c["n"], dtype=float)
        t1, t2 = _tangents(n)
        e = n + ORACLE_MU * (np.cos(theta)[:, None] * t1 + np.sin(theta)[:, None] * t2)
        e /= np.linalg.norm(e, axis=1)[:, None]
        rows.append(np.hstack([e, np.cross(pos - centroid, e) / rho]))
    rows.append(np.zeros((1, 6)))
    pts = np.vstack(rows)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    normals = hull.equations[:, :-1]
    lens = np.linalg.norm(normals, axis=1)
    normals, offsets = normals / lens[:, None], -hull.equations[:, -1] / lens
    eps = max(0.0, float(offsets.min()))
    i = np.arange(ORACLE_DIRECTIONS) + 0.5
    z = 1.0 - 2.0 * i / ORACLE_DIRECTIONS
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = math.pi * (3.0 - math.sqrt(5.0)) * i
    d = np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
    d /= np.linalg.norm(d, axis=1)[:, None]
    arm = np.asarray(frame["com"]) - centroid
    v = np.hstack([d, np.cross(arm, d) / rho])
    vn = np.linalg.norm(v, axis=1)
    rays = v / vn[:, None]
    if offsets.min() < 0.0:
        exits = np.zeros(ORACLE_DIRECTIONS)
    else:
        dots = rays @ normals.T
        with np.errstate(divide="ignore"):
            exits = np.where(dots > 0.0, offsets[None, :] / dots, np.inf).min(axis=1)
    gravity = float(np.min(np.minimum(exits, frame["mass"] * ORACLE_G * vn)))
    return {"epsilon": eps, "volume": float(hull.volume), "gravity": gravity}


class MetricTrace:
    name = "metric-trace"
    kind = "trajectories"
    op_seconds = 2.8

    def __init__(self):
        self._oracle_done = set()

    def setup(self, seed: int, work: Path) -> list:
        ops = []
        for t in inputs.trajectory_inputs(work, seed):
            calls = [Call(f"metric-{m}", ["metric", "--trajectory", str(t.path), "--metric", m])
                     for m in ("all", "gravity")]
            ops.append(Op(t.key, calls, {"path": t.path, "frames": inputs.TRACE_FRAMES}))
        return ops

    def warmup(self, work: Path) -> list:
        """The last two frames of a small kinematic squeeze."""
        work.mkdir(parents=True, exist_ok=True)
        mesh = inputs.cli.bench_mesh("box")
        frames, header = inputs.kinematic_trajectory(mesh, "box", 4, np.random.default_rng(0))
        path = work / "tiny.jsonl"
        inputs.fileio.save_trajectory(path, frames[-2:], header)
        calls = [Call(f"metric-{m}", ["metric", "--trajectory", str(path), "--metric", m]) for m in ("all", "gravity")]
        return [Op("tiny", calls, {"path": path, "frames": 2})]

    def parse(self, op, raw, outcome):
        out = {}
        for tag, (code, text) in raw.items():
            if code != 0:
                raise ValueError(f"{tag} exited with code {code}")
            header, rows, summary = _table(text)
            out[tag] = {
                "columns": header,
                "rows": [[float(v) for v in row] for row in rows],
                "summary": {k: (v if v == "none" else float(v)) for k, v in summary.items()},
            }
            outcome.frames[tag] = len(rows)
        outcome.outputs = out

    def check(self, op, outcome):
        out = outcome.outputs
        bad = []
        all_rows, grav_rows = out["metric-all"]["rows"], out["metric-gravity"]["rows"]
        if len(all_rows) != op.info["frames"] or len(grav_rows) != op.info["frames"]:
            bad.append(f"{len(all_rows)}/{len(grav_rows)} frames scored, expected {op.info['frames']}")
            return bad
        g_col = out["metric-all"]["columns"].index("gravity")
        if any(a[g_col] != b[3] for a, b in zip(all_rows, grav_rows)):
            bad.append("gravity differs between --metric all and --metric gravity")
        return bad

    def oracle(self, op, outcome):
        """Last frame of each trajectory (once per run) against qhull directly."""
        if op.key in self._oracle_done:
            return []
        self._oracle_done.add(op.key)
        bad = []
        all_rows = outcome.outputs["metric-all"]["rows"]
        lines = Path(op.info["path"]).read_text(encoding="utf-8").splitlines()
        rho = json.loads(lines[0])["torque_scale_rho"]
        want = oracle_metrics(json.loads(lines[-1]), rho)
        if want is not None:
            got = dict(zip(outcome.outputs["metric-all"]["columns"], all_rows[-1]))
            for name, value in want.items():
                # printed with 10 significant digits
                if not _close(got[name], value, ORACLE_REL_TOL, 1e-10):
                    bad.append(f"last frame {name} {got[name]} != qhull oracle {value}")
        return bad

    def compare(self, expected, actual):
        bad = []
        for tag, exp in expected.items():
            act = actual[tag]
            if act["columns"] != exp["columns"] or len(act["rows"]) != len(exp["rows"]):
                bad.append(f"{tag}: table shape differs from reference")
                continue
            for i, (ra, re_) in enumerate(zip(act["rows"], exp["rows"])):
                if not all(_close(a, e, TRACE_REL_TOL) for a, e in zip(ra, re_)):
                    bad.append(f"{tag}: frame {i} {ra} != reference {re_}")
                    break
            for k, e in exp["summary"].items():
                a = act["summary"].get(k)
                same = a == e if isinstance(e, str) or isinstance(a, str) or a is None else _close(a, e, TRACE_REL_TOL)
                if not same:
                    bad.append(f"{tag}: {k} {a!r} != reference {e!r}")
        return bad


WORKLOADS = {w.name: w for w in (RankMidair, SqueezePlatform, MetricTrace)}
