"""Which softgrasp functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules: cli, fem, contact, geom, metrics and
fileio.  softgrasp.kernels is not wrapped: its callers' spans cover it.
Counts and times are divided by the number of traced operations, so a run
that makes more operations reads the same.
"""

from __future__ import annotations

import os

from tracer import Target, self_times

LAYERS = ("cli", "fem", "contact", "geom", "metrics", "fileio")
MODULES = ("softgrasp", "softgrasp.cli", "softgrasp.fem", "softgrasp.contact",
           "softgrasp.geom", "softgrasp.metrics", "softgrasp.fileio")


def _step(args, kwargs, result, error, tr):
    if error is not None:
        tr.count("fem.step.failed")
    else:
        tr.count("fem.step.newton_iters", getattr(result[1], "iterations", 0))


def _squeeze(args, kwargs, result, error, tr):
    if error is None:
        tr.count("fem.squeeze.frames", len(result))


def _gws(args, kwargs, result, error, tr):
    frame, cfg = args[0], args[1]
    tr.count("contact.wrench_points.sum", len(frame.contacts) * cfg.cone_edges + 1)


def _hull(args, kwargs, result, error, tr):
    if error is None:
        tr.count("geom.hull.vertices.sum", result.vertices.shape[0])
        tr.count("geom.hull.facets.sum", result.facet_offsets.shape[0])


def _qhull(args, kwargs, result, error, tr):
    options = kwargs.get("qhull_options") or (args[2] if len(args) > 2 else "") or ""
    if "QJ" in options:
        tr.count("geom.qhull.joggled")


def _file_bytes(key):
    def observe(args, kwargs, result, error, tr):
        if error is None:
            tr.count(key, os.path.getsize(args[0]))

    return observe


TARGETS = (
    Target("softgrasp.cli", "main", "cli.main"),
    Target("softgrasp.cli", "evaluate_frames", "cli.evaluate_frames"),
    Target("softgrasp.fem", "assemble_model", "fem.assemble_model"),
    Target("softgrasp.fem", "run_squeeze", "fem.squeeze", _squeeze),
    Target("softgrasp.fem", "quasi_static_step", "fem.step", _step),
    Target("softgrasp.fem", "mesh_center_of_mass", "fem.com"),
    Target("softgrasp.contact", "build_gws", "contact.build_gws", _gws),
    Target("softgrasp.geom", "convex_hull", "geom.convex_hull", _hull),
    Target("softgrasp.geom", "ConvexHull", "geom.qhull", _qhull),
    Target("softgrasp.geom", "ray_exit_distances", "geom.ray_exit"),
    Target("softgrasp.geom", "polytope_volume", "geom.volume"),
    Target("softgrasp.metrics", "epsilon_metric", "metrics.epsilon"),
    Target("softgrasp.metrics", "volume_metric", "metrics.volume"),
    Target("softgrasp.metrics", "gravity_resistant_quality", "metrics.gravity"),
    Target("softgrasp.metrics", "instability_proxy", "metrics.proxy"),
    Target("softgrasp.metrics", "quality_trace", "metrics.quality_trace"),
    Target("softgrasp.fileio", "load_trajectory", "fileio.load_trajectory",
           _file_bytes("fileio.load_trajectory.bytes")),
    Target("softgrasp.fileio", "save_trajectory", "fileio.save_trajectory",
           _file_bytes("fileio.save_trajectory.bytes")),
    Target("softgrasp.fileio", "load_tet_mesh", "fileio.load_tet_mesh"),
    Target("softgrasp.fileio", "load_grasp_candidates", "fileio.load_grasp_candidates"),
)

# (metric name, unit) in the order they are reported; the run's result line
# carries exactly these
PER_LAYER = (
    ("cli.evaluate_frames.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("fem.assemble_model.calls", "1/op"),
    ("fem.assemble_model.s", "s/op"),
    ("fem.squeeze.s", "s/op"),
    ("fem.squeeze.frames", "1/op"),
    ("fem.step.calls", "1/op"),
    ("fem.step.s", "s/op"),
    ("fem.step.newton_iters", "1/op"),
    ("fem.step.newton_per_step", "ratio"),
    ("fem.step.failed", "1/op"),
    ("fem.frames_per_step", "ratio"),
    ("fem.com.calls", "1/op"),
    ("fem.com.s", "s/op"),
    ("contact.build_gws.calls", "1/op"),
    ("contact.build_gws.self_s", "s/op"),
    ("contact.hulls_per_frame", "ratio"),
    ("contact.hulls_per_frame.metric_all", "ratio"),
    ("contact.hulls_per_frame.metric_gravity", "ratio"),
    ("contact.wrench_points.mean", "count"),
    ("geom.convex_hull.calls", "1/op"),
    ("geom.convex_hull.self_s", "s/op"),
    ("geom.qhull.calls", "1/op"),
    ("geom.qhull.s", "s/op"),
    ("geom.qhull.joggled", "1/op"),
    ("geom.hull.vertices.mean", "count"),
    ("geom.hull.facets.mean", "count"),
    ("geom.ray_exit.calls", "1/op"),
    ("geom.ray_exit.s", "s/op"),
    ("geom.volume.s", "s/op"),
    ("metrics.epsilon.calls", "1/op"),
    ("metrics.epsilon.self_s", "s/op"),
    ("metrics.volume.calls", "1/op"),
    ("metrics.volume.self_s", "s/op"),
    ("metrics.gravity.calls", "1/op"),
    ("metrics.gravity.self_s", "s/op"),
    ("metrics.proxy.calls", "1/op"),
    ("metrics.proxy.self_s", "s/op"),
    ("metrics.quality_trace.s", "s/op"),
    ("fileio.load_trajectory.s", "s/op"),
    ("fileio.load_trajectory.bytes", "B/op"),
    ("fileio.save_trajectory.s", "s/op"),
    ("fileio.save_trajectory.bytes", "B/op"),
    ("fileio.load_tet_mesh.s", "s/op"),
) + tuple((f"{layer}.self_s", "s/op") for layer in LAYERS) + (
    ("unattributed_s", "s/op"),
    ("trace.overhead_pct", "%"),
    ("trace.absent_targets", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics from a traced run's spans and boundary counts.

    Operation spans are named "op"; their self time is the part of each
    operation that no wrapped function covers (the unattributed remainder).
    Frames scored are counted by the workload under the key "frames_scored",
    tagged with the CLI call ("rank", "metric-all", ...) that scored them.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls, dur, slf = {}, {}, {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        slf[span.name] = slf.get(span.name, 0.0) + own

    def counter(key, tag=None):
        return sum(v for (t, k), v in tracer.counters.items() if k == key and (tag is None or t == tag))

    def gws_calls(tag=None):
        return sum(1 for s in spans if s.name == "contact.build_gws" and (tag is None or s.tag == tag))

    n = max(n_ops, 1)
    raw = {}
    for name in calls.keys() | {t.span for t in TARGETS}:
        raw[f"{name}.calls"] = calls.get(name, 0) / n
        raw[f"{name}.s"] = dur.get(name, 0.0) / n
        raw[f"{name}.self_s"] = slf.get(name, 0.0) / n
    step_calls = calls.get("fem.step", 0)
    raw["fem.squeeze.frames"] = counter("fem.squeeze.frames") / n
    raw["fem.step.newton_iters"] = counter("fem.step.newton_iters") / n
    raw["fem.step.newton_per_step"] = _ratio(counter("fem.step.newton_iters"), step_calls)
    raw["fem.step.failed"] = counter("fem.step.failed") / n
    raw["fem.frames_per_step"] = _ratio(counter("fem.squeeze.frames"), step_calls)
    raw["contact.hulls_per_frame"] = _ratio(gws_calls(), counter("frames_scored"))
    for tag in ("metric-all", "metric-gravity"):
        raw[f"contact.hulls_per_frame.{tag.replace('-', '_')}"] = _ratio(
            gws_calls(tag), counter("frames_scored", tag)
        )
    raw["contact.wrench_points.mean"] = _ratio(counter("contact.wrench_points.sum"), calls.get("contact.build_gws", 0))
    raw["geom.qhull.joggled"] = counter("geom.qhull.joggled") / n
    hulls = calls.get("geom.convex_hull", 0)
    raw["geom.hull.vertices.mean"] = _ratio(counter("geom.hull.vertices.sum"), hulls)
    raw["geom.hull.facets.mean"] = _ratio(counter("geom.hull.facets.sum"), hulls)
    raw["fileio.load_trajectory.bytes"] = counter("fileio.load_trajectory.bytes") / n
    raw["fileio.save_trajectory.bytes"] = counter("fileio.save_trajectory.bytes") / n
    for layer in LAYERS:
        raw[f"{layer}.self_s"] = sum(v for k, v in slf.items() if k.split(".", 1)[0] == layer) / n
    raw["unattributed_s"] = slf.get("op", 0.0) / n
    raw["trace.overhead_pct"] = overhead_pct
    raw["trace.absent_targets"] = float(len(tracer.absent))
    return {name: {"value": float(raw.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
