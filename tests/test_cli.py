import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import json
import logging
import os
import shutil
import sys
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.spatial import QhullError

import oracles
import softgrasp
from helpers import make_newton_solve_singular, recording_qhull, run_python, tetgen_text
from softgrasp import (
    ConfigError,
    SolverError,
    assemble_model,
    cli,
    desired_force_index,
    fem,
    generate_primitive_mesh,
    geom,
    load_grasp_candidates,
    load_tet_mesh,
    load_trajectory,
    metrics,
)
from softgrasp.cli import (
    BENCH_OBJECTS,
    GraspEvaluation,
    RunConfig,
    _run_candidate,
    bench_mesh,
    load_run_config,
    main,
    parse_run_config,
    run_bench,
    sample_grasps,
)
from softgrasp.contact import WrenchSpaceConfig, contact_centroid, orthonormal_tangents

DATA = Path(__file__).parent / "data"
# six frames: one contact, a two-point pinch (both flat), then full-rank hulls
FIXTURE_TRAJECTORY = DATA / "hull_info_fixture.jsonl"

CONFIG_TEXT = """# fast test settings
desired_force = 2.0
convergence_tol = 1e-3
proxy_directions = 16
"""


class TestRunConfigParsing:
    def test_empty_gives_defaults(self):
        assert parse_run_config("") == RunConfig()

    def test_comments_and_last_key_wins(self):
        rc = parse_run_config(
            "# comment\n\nfriction_mu = 0.5  # inline\nfriction_mu=0.6\ncone_edges=12\n"
        )
        assert rc.material.friction_mu == 0.6
        assert rc.cone_edges == 12
        assert isinstance(rc.cone_edges, int)

    def test_rho_auto_and_numeric(self):
        assert parse_run_config("torque_scale_rho=auto\n").torque_scale_rho is None
        assert parse_run_config("torque_scale_rho=0.05\n").torque_scale_rho == 0.05

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            parse_run_config("seed=1\nbogus=3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_run_config("friction_mu 0.5\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_run_config("cone_edges=two\n")

    def test_downstream_validation(self):
        with pytest.raises(ConfigError):
            parse_run_config("poisson_ratio=0.7\n")
        with pytest.raises(ConfigError):
            parse_run_config("force_normalization=weird\n")
        with pytest.raises(ConfigError):
            parse_run_config("desired_force=-1\n")
        with pytest.raises(ConfigError):
            parse_run_config("seed=-2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_run_config(f"{key} = {value}\n")

    def test_docs_table_matches_parser(self):
        rows = docs_config_table()
        assert set(rows) == set(cli._KEYS)
        for key, row in rows.items():
            # each documented default parses to what RunConfig() holds
            assert parse_run_config(f"{key} = {row['default']}\n") == RunConfig(), key
            section = cli._KEYS[key][0]
            owner = type(getattr(RunConfig(), section)).__name__ if section else "RunConfig"
            assert row["declared by"] == owner, key

    def test_no_field_declared_twice(self):
        own = {f.name for f in dataclasses.fields(RunConfig)}
        for cls in (fem.MaterialParams, fem.SimConfig, metrics.GravityConfig):
            assert not own & {f.name for f in dataclasses.fields(cls)}, cls.__name__

    def test_every_key_set_golden(self):
        # the expected configs are what parse_run_config followed by
        # RunConfig.material(), .sim_config(), .gravity_config() and
        # .wrench_config(rho) gave before the stage configs moved into RunConfig
        rc = parse_run_config(ALL_KEYS_TEXT)
        assert rc.material == fem.MaterialParams(
            youngs_modulus=150000.0, poisson_ratio=0.42, friction_mu=0.45, density=950.0
        )
        assert rc.sim == fem.SimConfig(
            penalty_stiffness=2500000.0, max_fixedpoint_iters=40, displacement_increment=5e-05,
            convergence_tol=0.0002, platform_height=-0.25, dt=0.02,
        )
        assert rc.gravity == metrics.GravityConfig(num_directions=24, gravity_accel=3.7)
        assert rc.wrench_config(rc.resolve_rho(None, None)) == WrenchSpaceConfig(
            friction_mu=0.45, cone_edges=6, torque_scale_rho=0.07, force_normalization="reported-force"
        )
        assert (rc.desired_force, rc.proxy_directions, rc.seed) == (7.5, 12, 9)
        ints = (rc.cone_edges, rc.proxy_directions, rc.seed, rc.gravity.num_directions,
                rc.sim.max_fixedpoint_iters)
        assert all(type(v) is int for v in ints)
        assert type(rc.material.density) is float and type(rc.sim.platform_height) is float
        assert all(getattr(rc, f.name) != f.default for f in dataclasses.fields(RunConfig)
                   if f.name not in cli._SECTIONS)


DOCS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"

# every config key, each set away from its default
ALL_KEYS_TEXT = """friction_mu = 0.45
cone_edges = 6
torque_scale_rho = 0.07
force_normalization = reported-force
num_directions = 24
gravity_accel = 3.7
youngs_modulus = 1.5e5
poisson_ratio = 0.42
density = 950
penalty_stiffness = 2.5e6
max_fixedpoint_iters = 40
displacement_increment = 5e-5
convergence_tol = 2e-4
platform_height = -0.25
dt = 0.02
desired_force = 7.5
proxy_directions = 12
seed = 9
"""


class TestIntegerSettings:
    @pytest.mark.parametrize("cls, name, value, error", [
        (fem.SimConfig, "max_fixedpoint_iters", 0.5, softgrasp.InvalidInputError),
        (WrenchSpaceConfig, "cone_edges", 3.9, softgrasp.InvalidInputError),
        (RunConfig, "cone_edges", 3.9, ConfigError),
        (metrics.GravityConfig, "num_directions", 4.9, softgrasp.InvalidInputError),
        (RunConfig, "proxy_directions", 2.5, ConfigError),
        (RunConfig, "seed", -0.5, ConfigError),
    ])
    def test_fraction_rejected_integral_float_stored_as_int(self, cls, name, value, error):
        # a fraction is rejected, not truncated past the minimum check
        with pytest.raises(error, match=f"{name} must be an integer"):
            cls(**{name: value})
        stored = getattr(cls(**{name: 8.0}), name)
        assert type(stored) is int and stored == 8


def docs_config_table() -> dict:
    """docs/formats.md's run-configuration table: key -> {column: cell}."""
    section = DOCS.read_text(encoding="utf-8").split("## Run configuration", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    rows = {}
    for line in lines[2:]:
        cells = dict(zip(header, (c.strip().strip("`") for c in line.strip("|").split("|"))))
        rows[cells.pop("key")] = cells
    return rows


class TestBenchFixtures:
    def test_bench_meshes_sit_on_platform(self):
        for name in BENCH_OBJECTS:
            mesh = bench_mesh(name)
            assert mesh.nodes[:, 2].min() == pytest.approx(0.0, abs=1e-12)

    def test_unknown_object(self):
        with pytest.raises(ConfigError, match="unknown bench object"):
            bench_mesh("teapot")

    def test_sample_grasps_seeded(self):
        mesh = bench_mesh("box")
        rc = RunConfig()
        a = sample_grasps(mesh, 5, np.random.default_rng(7), rc)
        b = sample_grasps(mesh, 5, np.random.default_rng(7), rc)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.grasp_center, cb.grasp_center)
            assert np.array_equal(ca.approach_axis, cb.approach_axis)
            assert ca.finger_halfwidth == cb.finger_halfwidth
        spread = np.std([c.grasp_center for c in a], axis=0)
        assert np.any(spread > 0.0)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Mesh files, grasp files, and a config file for end-to-end runs."""
    root = tmp_path_factory.mktemp("cli")
    mesh = generate_primitive_mesh("box", (0.06, 0.06, 0.06), 2).translated((0, 0, 0.03))
    node_text, ele_text = tetgen_text(mesh)
    (root / "box.node").write_text(node_text)
    (root / "box.ele").write_text(ele_text)

    def grasp_line(center, halfwidth=0.04, max_force=3.0):
        return json.dumps(
            {"center": center, "axis": [1.0, 0.0, 0.0], "halfwidth": halfwidth,
             "max_force": max_force}
        )

    good = grasp_line([0.0, 0.0, 0.03])
    narrow = grasp_line([0.0, 0.0, 0.045], halfwidth=0.018)
    miss = grasp_line([0.0, 0.5, 0.03], halfwidth=0.005)
    (root / "good.jsonl").write_text(good + "\n" + narrow + "\n")
    (root / "with_miss.jsonl").write_text(good + "\n" + miss + "\n")
    (root / "three.jsonl").write_text(good + "\n" + narrow + "\n" + miss + "\n")
    (root / "run.cfg").write_text(CONFIG_TEXT)
    return root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_simulate_metric_hull_info(self, workspace, capsys, tmp_path):
        out_dir = tmp_path / "traj"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "good.jsonl"),
            "--out-dir", str(out_dir),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 0
        rows = [ln.split("\t") for ln in out.strip().splitlines()]
        assert rows[0] == ["candidate", "status", "frames", "file"]
        assert [r[1] for r in rows[1:]] == ["ok", "ok"]

        traj_path = out_dir / "grasp_000.jsonl"
        traj = load_trajectory(traj_path)
        assert len(traj.frames) > 0
        assert traj.header.torque_scale_rho > 0.0
        assert traj.frames[-1].squeeze_force >= 3.0

        code, out, _ = run_cli(
            capsys, "metric",
            "--trajectory", str(traj_path),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        assert header == ["frame", "time", "squeeze_force", "epsilon", "volume", "gravity"]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == len(traj.frames) + 1
        values = np.array([[float(v) for v in ln.split("\t")] for ln in data[1:]])
        assert np.all(np.diff(values[:, 0]) == 1.0)
        assert np.all(values[:, 3:] >= 0.0)
        summaries = [ln for ln in lines if ln.startswith("#")]
        assert any("desired_force_frame" in ln for ln in summaries)
        assert any("gravity_at_desired" in ln for ln in summaries)

        code, out, _ = run_cli(
            capsys, "hull-info",
            "--trajectory", str(traj_path),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(traj.frames) + 1
        first = lines[1].split("\t")
        assert int(first[2]) > 0  # contacts
        assert int(first[5]) <= 6  # affine rank

    def test_rank_scores_equal_metric_on_simulated_trajectory(self, capsys, tmp_path):
        # one mid-air candidate on a 3 cm box: rank's scores, as printed,
        # are metric's *_at_desired lines on simulate's trajectory of it,
        # through the file round trip, the header's torque scale and the
        # scored-frame rule
        mesh = ["--node", str(DATA / "midair_box.node"), "--ele", str(DATA / "midair_box.ele")]
        grasps = ["--grasps", str(DATA / "midair_grasp.jsonl"), "--config", str(DATA / "midair.cfg")]
        code, out, err = run_cli(capsys, "simulate", *mesh, *grasps, "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert data_columns(out)["status"] == ["ok"]
        code, out, err = run_cli(capsys, "metric", "--trajectory", str(tmp_path / "grasp_000.jsonl"),
                                 "--config", str(DATA / "midair.cfg"))
        assert (code, err) == (0, "")
        at_desired = dict(ln[2:].split("\t") for ln in out.splitlines() if ln.startswith("# "))
        code, out, err = run_cli(capsys, "rank", *mesh, *grasps)
        assert (code, err) == (0, "")
        ranked = data_columns(out)
        assert ranked["status"] == ["ok"] and ranked["reached"] == ["1"]
        for name in ("epsilon", "volume", "gravity"):
            assert ranked[name] == [at_desired[f"{name}_at_desired"]], name
        assert at_desired["desired_force_frame"] != "none" and float(at_desired["epsilon_at_desired"]) > 0.0

    def test_rank_fixture_output(self, capsys):
        # the mid-air box candidate's row as the squeeze printed it before it
        # skipped the contact-free approach; CI compares the installed
        # script's output with the same file
        code, out, err = run_cli(capsys, "rank", "--node", str(DATA / "midair_box.node"),
                                 "--ele", str(DATA / "midair_box.ele"), "--grasps", str(DATA / "midair_grasp.jsonl"),
                                 "--config", str(DATA / "midair.cfg"))
        assert (code, err) == (0, "")
        assert out == (DATA / "midair_rank_fixture.tsv").read_text()

    def test_simulate_trajectory_fixture_output(self, capsys, tmp_path):
        # every squeeze frame of the mid-air box candidate, as simulate wrote
        # it before the mesh arrays became read-only; CI compares the
        # installed script's output with the same file
        code, out, err = run_cli(capsys, "simulate", "--node", str(DATA / "midair_box.node"),
                                 "--ele", str(DATA / "midair_box.ele"), "--grasps", str(DATA / "midair_grasp.jsonl"),
                                 "--config", str(DATA / "midair.cfg"), "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        fixture = (DATA / "midair_trajectory_fixture.jsonl").read_bytes()
        assert (tmp_path / "grasp_000.jsonl").read_bytes() == fixture

    def test_shared_parser_keeps_no_flag_between_calls(self, capsys):
        # main parses with one parser per process; a call's flags must not
        # become the next call's defaults
        assert cli.build_parser() is cli.build_parser()
        args = ["rank", "--node", str(DATA / "midair_box.node"), "--ele", str(DATA / "midair_box.ele"),
                "--grasps", str(DATA / "midair_grasp.jsonl"), "--config", str(DATA / "midair.cfg")]
        flagged = cli.build_parser().parse_args(args + ["--metric", "volume", "--jobs", "2"])
        plain = cli.build_parser().parse_args(args)
        assert (flagged.metric, flagged.jobs, plain.metric, plain.jobs) == ("volume", 2, "gravity", 1)
        code, out, err = run_cli(capsys, *args, "--metric", "volume", "--jobs", "2")
        # one candidate: neither flag changes its table
        assert (code, err) == (0, "")
        assert out == (DATA / "midair_rank_fixture.tsv").read_text()
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        assert out == (DATA / "midair_rank_fixture.tsv").read_text()

    def test_simulate_partial_failure_exit_1(self, workspace, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "with_miss.jsonl"),
            "--out-dir", str(tmp_path / "traj"),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 1
        statuses = [ln.split("\t")[1] for ln in out.strip().splitlines()[1:]]
        assert statuses == ["ok", "empty"]

    def test_rank_orders_by_metric(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "rank",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "good.jsonl"),
            "--metric", "gravity",
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        gcol = header.index("gravity")
        rows = [ln.split("\t") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1"]
        gravities = [float(r[gcol]) for r in rows]
        assert gravities == sorted(gravities, reverse=True)
        assert all(r[-1] == "ok" for r in rows)

    # the miss's record, logged once, in candidate order, for any --jobs
    MISS_RECORD = "WARNING softgrasp.cli: candidate 2: empty (no contact frames)\n"

    def test_rank_jobs_deterministic(self, workspace, capsys):
        args = (
            "rank",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "three.jsonl"),
            "--config", str(workspace / "run.cfg"),
        )
        runs = [run_cli(capsys, *args, "--jobs", jobs) for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (1, self.MISS_RECORD)
        assert [row.split("\t")[-1] for row in out.splitlines()[1:]] == ["ok", "ok", "empty"]

    def test_simulate_jobs_deterministic(self, workspace, capsys, tmp_path):
        # two hits and a miss: with --jobs 2 a worker process squeezes the
        # first on an unpickled mesh while the calling process runs the rest
        out_dir = tmp_path / "traj"
        args = (
            "simulate",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "three.jsonl"),
            "--out-dir", str(out_dir),
            "--config", str(workspace / "run.cfg"),
        )
        runs = []
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, *args, "--jobs", jobs)
            runs.append((code, out, err, {path.name: path.read_bytes() for path in out_dir.iterdir()}))
            shutil.rmtree(out_dir)
        assert runs[0] == runs[1]
        code, out, err, files = runs[0]
        assert (code, err) == (1, self.MISS_RECORD)
        assert [row.split("\t")[1] for row in out.splitlines()[1:]] == ["ok", "ok", "empty"]
        assert sorted(files) == ["grasp_000.jsonl", "grasp_001.jsonl", "grasp_002.jsonl"]

    # pool: the worker count asked of the executor, beside the calling
    # process; None when the loop runs
    @pytest.mark.parametrize("jobs, count, pool", [(64, 2, 1), (2, 5, 1), (3, 1, None), (1, 4, None)])
    def test_jobs_start_at_most_one_process_per_candidate(self, jobs, count, pool, monkeypatch):
        asked = []

        class IdlePool:
            """Stands in for ProcessPoolExecutor: records its size, starts no
            process and never starts an item, so the caller cancels and runs
            each one."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, func, item):
                return Future()

        # _process_pool imports the executor from concurrent.futures at each call
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", IdlePool)
        assert cli._map_jobs(lambda i: i * i, list(range(count)), jobs) == [i * i for i in range(count)]
        assert asked == ([] if pool is None else [pool])

    def test_jobs_run_in_the_caller_and_worker_processes(self):
        results = cli._map_jobs(square_and_pid, list(range(8)), 2)
        assert [r for r, _ in results] == [i * i for i in range(8)]
        assert os.getpid() in {pid for _, pid in results}
        with pytest.raises(ValueError, match="item 1$"):
            cli._map_jobs(square_and_pid, [1, -1, 2, 3, 4, -5, 6, 7], 2)


def square_and_pid(i):
    """(i * i, the pid of the process that ran it); a negative i raises.
    Module level, so a worker process can unpickle it."""
    if i < 0:
        raise ValueError(f"item {-i}")
    return i * i, os.getpid()


def data_columns(text):
    rows = [ln.split("\t") for ln in text.splitlines() if ln and not ln.startswith("#")]
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


class TestMetricAndHullInfoOutputs:
    def test_hull_info_fixture_output(self, capsys):
        code, out, _ = run_cli(capsys, "hull-info", "--trajectory", str(FIXTURE_TRAJECTORY))
        assert code == 0
        assert out == (DATA / "hull_info_fixture.tsv").read_text()

    def test_metric_fixture_output(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--trajectory", str(FIXTURE_TRAJECTORY))
        assert code == 0
        assert out == (DATA / "metric_fixture.tsv").read_text()

    def test_metric_all_columns_equal_single_runs(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--trajectory", str(FIXTURE_TRAJECTORY))
        assert code == 0
        both = data_columns(out)
        summary = [ln for ln in out.splitlines() if ln.startswith("# ")]
        for name in ("epsilon", "volume", "gravity"):
            code, single, _ = run_cli(
                capsys, "metric", "--trajectory", str(FIXTURE_TRAJECTORY), "--metric", name
            )
            assert code == 0
            assert data_columns(single)[name] == both[name]
            for line in single.splitlines():
                if line.startswith(f"# {name}_"):
                    assert line in summary

    def test_output_independent_of_cpu_count(self, capsys, monkeypatch):
        outputs = set()
        for cpus in (1, 2, 4):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code, hull_info, _ = run_cli(capsys, "hull-info", "--trajectory", str(FIXTURE_TRAJECTORY))
            assert code == 0
            assert hull_info == (DATA / "hull_info_fixture.tsv").read_text()
            code, metric_all, _ = run_cli(
                capsys, "metric", "--trajectory", str(FIXTURE_TRAJECTORY), "--metric", "all"
            )
            assert code == 0
            outputs.add(metric_all)
        assert len(outputs) == 1

    def test_contact_free_frame_scores_zero(self, capsys, tmp_path):
        lines = FIXTURE_TRAJECTORY.read_text().splitlines()
        empty = json.loads(lines[-1])
        empty["t"] += 0.01
        empty["contacts"] = []
        path = tmp_path / "with_empty.jsonl"
        path.write_text("\n".join(lines + [json.dumps(empty)]) + "\n")
        n = len(lines) - 1  # index of the contact-free frame

        code, out, _ = run_cli(capsys, "metric", "--trajectory", str(path))
        assert code == 0
        cols = data_columns(out)
        assert [cols[m][n] for m in ("epsilon", "volume", "gravity")] == ["0", "0", "0"]

        code, out, _ = run_cli(capsys, "hull-info", "--trajectory", str(path))
        assert code == 0
        row = out.splitlines()[n + 1].split("\t")
        assert row[2:] == ["0"] * 7  # contacts, vertices, facets, rank, three metrics
        assert out.splitlines()[: n + 1] == (DATA / "hull_info_fixture.tsv").read_text().splitlines()

    @pytest.mark.parametrize("command", ["metric", "hull-info"])
    def test_failing_frame_prints_nothing(self, command, capsys, monkeypatch):
        real = metrics.frame_quality
        failing_time = load_trajectory(FIXTURE_TRAJECTORY).frames[2].time

        def failing_frame_quality(frame, *args, **kwargs):
            if frame.time == failing_time:
                raise RuntimeError("frame 2")
            return real(frame, *args, **kwargs)

        monkeypatch.setattr(metrics, "frame_quality", failing_frame_quality)
        monkeypatch.setattr(cli, "frame_quality", failing_frame_quality)
        with pytest.raises(RuntimeError, match="frame 2"):
            main([command, "--trajectory", str(FIXTURE_TRAJECTORY)])
        assert capsys.readouterr().out == ""


def failing_qhull(monkeypatch):
    def qhull(points, qhull_options=None):
        raise QhullError("QH6271 forced failure")

    monkeypatch.setattr(geom, "ConvexHull", qhull)


class TestHullFailure:
    def test_rank_reports_failed_candidates(self, workspace, capsys, caplog, monkeypatch):
        failing_qhull(monkeypatch)
        code, out, _ = run_cli(
            capsys, "rank",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "good.jsonl"),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 1
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert all(float(r[m]) == 0.0 for r in rows for m in ("epsilon", "volume", "gravity"))
        assert "candidate 0: failed (qhull failed on " in caplog.text
        assert "6D: QH6271 forced failure)" in caplog.text

    @pytest.mark.parametrize("command", ["metric", "hull-info"])
    def test_scoring_commands_print_error_exit_1(self, command, capsys, monkeypatch):
        failing_qhull(monkeypatch)
        code, out, err = run_cli(capsys, command, "--trajectory", str(FIXTURE_TRAJECTORY))
        assert code == 1
        assert out == ""
        assert err.startswith("error: qhull failed on ")
        assert err.rstrip().endswith("6D: QH6271 forced failure")


class TestSingularSolve:
    @pytest.mark.parametrize("part", ["base", "capacitance"])
    def test_rank_reports_failed_candidates(self, part, workspace, capsys, caplog, monkeypatch):
        make_newton_solve_singular(monkeypatch, part)
        code, out, _ = run_cli(
            capsys, "rank",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "good.jsonl"),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 1
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert "candidate 0: failed (singular Newton system (" in caplog.text

    def test_singular_factor_fails_its_candidate_not_the_run(self, workspace, capsys, caplog, monkeypatch):
        # candidate 0's model meets a singular factor at assembly; rank
        # prints it as a failed row, still scores candidate 1, and exits 1
        calls = []
        real_splu = scipy.sparse.linalg.splu

        def splu(a):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return real_splu(a)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        code, out, _ = run_cli(
            capsys, "rank",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(workspace / "good.jsonl"),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 1
        lines = out.strip().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
        assert [(r["candidate"], r["status"]) for r in rows] == [("1", "ok"), ("0", "failed")]
        assert "candidate 0: failed (singular Newton system (Factor is exactly singular))" in caplog.text
        assert len(calls) == 2


class TestDiagnostics:
    @staticmethod
    def rank_argv(tmp_path):
        # line 1 misses the box; line 2's axis is normalized and its squeeze
        # converges mid-air
        node_text, ele_text = tetgen_text(bench_mesh("box"))
        (tmp_path / "box.node").write_text(node_text)
        (tmp_path / "box.ele").write_text(ele_text)
        lines = [
            {"center": [0.0, 0.5, 0.03], "axis": [1.0, 0.0, 0.0], "halfwidth": 0.019, "max_force": 5.0},
            {"center": [0.0, 0.0, 0.03], "axis": [1.0005, 0.0, 0.0], "halfwidth": 0.019, "max_force": 5.0},
        ]
        (tmp_path / "grasps.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        (tmp_path / "midair.cfg").write_text("platform_height = -1.0\n")
        return [
            "rank", "--node", str(tmp_path / "box.node"), "--ele", str(tmp_path / "box.ele"),
            "--grasps", str(tmp_path / "grasps.jsonl"), "--config", str(tmp_path / "midair.cfg"),
        ]

    def test_each_event_logged_once(self, tmp_path):
        # a fresh interpreter runs main, so stderr holds what a user sees:
        # one logging record per event and nothing else
        argv = self.rank_argv(tmp_path)
        result = run_python("-c", f"import sys; from softgrasp.cli import main; sys.exit(main({argv!r}))")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "WARNING softgrasp.fileio: grasp line 2: axis normalized (norm was 1.000500)",
            "WARNING softgrasp.cli: candidate 0: empty (no contact frames)",
        ]
        rows = [line.split("\t") for line in result.stdout.splitlines()[1:]]
        assert [(row[1], row[-1]) for row in rows] == [("1", "ok"), ("0", "empty")]

    def test_module_run_logs_as_softgrasp_cli(self, tmp_path):
        # python -m runs cli.py as __main__; its records keep the module's name
        result = run_python("-m", "softgrasp.cli", *self.rank_argv(tmp_path))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "WARNING softgrasp.fileio: grasp line 2: axis normalized (norm was 1.000500)",
            "WARNING softgrasp.cli: candidate 0: empty (no contact frames)",
        ]


@contextlib.contextmanager
def bare_root_logger():
    """The root logger as a fresh interpreter holds it, no handler and level
    WARNING, for the block; pytest's capture handlers are put back after."""
    root = logging.getLogger()
    handlers, level = root.handlers, root.level
    root.handlers = []
    root.setLevel(logging.WARNING)
    try:
        yield
    finally:
        root.handlers = handlers
        root.setLevel(level)


def logger_state():
    return [(lg.handlers[:], lg.level) for lg in (logging.getLogger(), logging.getLogger("softgrasp"))]


class TestRepeatedCalls:
    # pipebench and the Python API call main many times in one process
    AXIS_RECORD = "WARNING softgrasp.fileio: grasp line 1: axis normalized (norm was 1.000500)"

    @staticmethod
    def midair_argv(tmp_path, *flags):
        # the mid-air box candidate, its axis 5e-4 off unit length
        line = json.loads((DATA / "midair_grasp.jsonl").read_text())
        line["axis"] = [1.0005 * a for a in line["axis"]]
        (tmp_path / "grasps.jsonl").write_text(json.dumps(line) + "\n")
        return ["rank", "--node", str(DATA / "midair_box.node"), "--ele", str(DATA / "midair_box.ele"),
                "--grasps", str(tmp_path / "grasps.jsonl"), "--config", str(DATA / "midair.cfg"), *flags]

    @staticmethod
    def call(argv):
        """main(argv) under its own stdout and stderr buffers: the exit code,
        the stderr lines, and whether both loggers ended as they began."""
        before = logger_state()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, err.getvalue().splitlines(), logger_state() == before

    def test_each_call_logs_to_its_own_stderr(self, tmp_path):
        argv = self.midair_argv(tmp_path)
        with bare_root_logger():
            calls = [self.call(argv) for _ in range(2)]
        assert calls == [(0, [self.AXIS_RECORD], True)] * 2

    def test_later_call_logs_at_its_own_level(self, tmp_path, monkeypatch):
        argv = self.midair_argv(tmp_path)
        with bare_root_logger():
            first = self.call(argv)
            options = recording_qhull(monkeypatch, failures=1)
            code, lines, restored = self.call(argv + ["-v"])
        assert first == (0, [self.AXIS_RECORD], True)
        assert options[:2] == [None, "QJ Qx"]
        assert (code, restored, lines[0]) == (0, True, self.AXIS_RECORD)
        assert len(lines) == 2 and lines[1].startswith("INFO softgrasp.geom: qhull failed on ")

    def test_records_still_reach_root_handlers(self, tmp_path, caplog):
        # the records propagate, so an embedding program's handlers (here
        # caplog's) see them too
        assert self.call(self.midair_argv(tmp_path)) == (0, [self.AXIS_RECORD], True)
        assert [r.getMessage() for r in caplog.records] == [self.AXIS_RECORD.split(": ", 1)[1]]


class TestParser:
    SHARED = ("--node", "--ele", "--grasps", "--jobs", "--trajectory")

    def test_shared_flags_declared_once(self):
        # each subcommand that takes a shared flag holds the same action
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for flag in self.SHARED:
            actions = {id(p._option_string_actions[flag]) for p in subparsers.choices.values()
                       if flag in p._option_string_actions}
            assert len(actions) == 1, flag

    def test_no_flag_sets_a_config_key(self):
        # a run setting has one way in, --config: no flag stores to a config key
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {(name, action.dest) for name, p in subparsers.choices.items() for action in p._actions}
        assert {dest for _, dest in dests} >= {"config", "jobs", "metric"}
        assert sorted((name, dest) for name, dest in dests if dest in cli._KEYS) == []

    def test_rank_help_describes_mesh_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit):
            main(["rank", "--help"])
        out = capsys.readouterr().out
        for text in ("tetgen .node file", "tetgen .ele file", "grasp candidate JSONL file"):
            assert text in out


class TestExitCodes:
    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--trajectory", "/no/such/file.jsonl")
        assert code == 2
        assert "error:" in err

    def test_bad_config_exit_2(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key=1\n")
        code, _, err = run_cli(
            capsys, "metric",
            "--trajectory", str(workspace / "box.node"),
            "--config", str(cfg),
        )
        assert code == 2
        assert "nonsense_key" in err

    @pytest.mark.parametrize("key", ["material", "sim", "gravity", "custom_directions"])
    def test_section_and_array_names_are_unknown_keys_exit_2(self, key, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, out, err = run_cli(
            capsys, "hull-info", "--trajectory", str(FIXTURE_TRAJECTORY), "--config", str(cfg)
        )
        assert code == 2 and out == ""
        assert err == f"error: line 1: unknown key {key!r}\n"

    def test_unparseable_trajectory_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "t.jsonl"
        bad.write_text("this is not json\n")
        code, _, err = run_cli(capsys, "metric", "--trajectory", str(bad))
        assert code == 2

    @pytest.mark.parametrize("bad", ["trajectory", "config", "node", "ele", "grasps"])
    def test_non_utf8_input_exit_2(self, bad, workspace, capsys, tmp_path):
        inputs = {
            "trajectory": FIXTURE_TRAJECTORY, "config": workspace / "run.cfg",
            "node": workspace / "box.node", "ele": workspace / "box.ele",
            "grasps": workspace / "good.jsonl",
        }
        inputs[bad] = tmp_path / f"bad.{bad}"
        inputs[bad].write_bytes(b"# \xff\n")
        config = ["--config", str(inputs["config"])]
        if bad in ("trajectory", "config"):
            argv = ["metric", "--trajectory", str(inputs["trajectory"])] + config
        else:
            argv = ["rank"] + config
            for key in ("node", "ele", "grasps"):
                argv += [f"--{key}", str(inputs[key])]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {inputs[bad]}: not valid UTF-8")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "rank"])
    def test_face_shared_by_three_tets_exit_2(self, command, workspace, capsys, tmp_path):
        # three positive-volume tets on the face (0, 1, 2): not a manifold mesh
        (tmp_path / "fan.node").write_text(
            "6 3 0 0\n0 0 0 0\n1 1 0 0\n2 0 1 0\n3 0.2 0.2 1\n4 0.3 0.3 2\n5 0.1 0.4 3\n"
        )
        (tmp_path / "fan.ele").write_text("3 4 0\n0 0 1 2 3\n1 0 1 2 4\n2 0 1 2 5\n")
        argv = [command, "--node", str(tmp_path / "fan.node"), "--ele", str(tmp_path / "fan.ele"),
                "--grasps", str(workspace / "good.jsonl")]
        if command == "simulate":
            argv += ["--out-dir", str(tmp_path / "traj")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: face (0, 1, 2) shared by more than two tets\n"

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        code, out, err = run_cli(capsys, "bench", "--objects", "box", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: seed must be >= 0\n")

    def test_no_subcommand_takes_seed_or_desired_force(self, capsys):
        # both are config keys, set through --config alone
        mesh = ["--node", "n", "--ele", "e", "--grasps", "g"]
        required = {"simulate": mesh + ["--out-dir", "o"], "metric": ["--trajectory", "t"],
                    "rank": mesh, "bench": [], "hull-info": ["--trajectory", "t"]}
        for command, argv in required.items():
            for flag in ("--seed", "--desired-force"):
                with pytest.raises(SystemExit):
                    main([command, *argv, flag, "1"])
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bogus", "proxy"])
    def test_unknown_metric(self, name, capsys):
        # frame_quality takes no metric names: --metric only picks printed columns
        with pytest.raises(SystemExit):
            main(["metric", "--trajectory", str(FIXTURE_TRAJECTORY), "--metric", name])
        assert "invalid choice" in capsys.readouterr().err

    def test_negative_desired_force_exit_2(self, workspace, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("desired_force = -1.0\n")
        code, out, err = run_cli(
            capsys, "metric",
            "--trajectory", str(workspace / "box.node"),
            "--config", str(cfg),
        )
        assert (code, out, err) == (2, "", "error: desired_force must be > 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["metric", "bench"])
    def test_non_finite_desired_force_exit_2(self, command, value, capsys, tmp_path):
        # the config is checked before any work runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"desired_force = {value}\n")
        target = ["--trajectory", str(FIXTURE_TRAJECTORY)] if command == "metric" else ["--objects", "box"]
        code, out, err = run_cli(capsys, command, *target, "--config", str(cfg))
        assert code == 2
        assert err == "error: desired_force must be > 0\n"
        assert out == ""

    @pytest.mark.parametrize("count", ["0", "2"])
    def test_bench_too_few_grasps_exit_2(self, count, capsys, monkeypatch):
        def no_squeeze(*args, **kwargs):
            raise AssertionError("squeezed before the grasp count was checked")

        monkeypatch.setattr("softgrasp.cli.squeeze_frames", no_squeeze)
        code, _, err = run_cli(capsys, "bench", "--objects", "box", "--grasps-per-object", count)
        assert code == 2
        assert "--grasps-per-object must be >= 3" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "rank", "bench"])
    def test_jobs_below_one_exit_2(self, command, jobs, workspace, capsys, monkeypatch, tmp_path):
        def no_run(*args, **kwargs):
            raise AssertionError("candidates ran with --jobs below 1")

        monkeypatch.setattr(cli, "_map_jobs", no_run)
        mesh_args = ["--node", str(workspace / "box.node"), "--ele", str(workspace / "box.ele"),
                     "--grasps", str(workspace / "good.jsonl")]
        argv = {
            "simulate": mesh_args + ["--out-dir", str(tmp_path / "traj")],
            "rank": mesh_args,
            "bench": ["--objects", "box", "--grasps-per-object", "3"],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: --jobs must be >= 1"

    def test_bench_unknown_object_exit_2(self, capsys, monkeypatch):
        def no_squeeze(*args, **kwargs):
            raise AssertionError("squeezed before every object name was checked")

        monkeypatch.setattr("softgrasp.cli.squeeze_frames", no_squeeze)
        code, out, err = run_cli(capsys, "bench", "--objects", "box,teapot")
        assert code == 2
        assert out == ""
        assert err == (
            "error: unknown bench object 'teapot' (available: box, cylinder, slab, sphere)\n"
        )

    def test_bench_empty_objects_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--objects", ",")
        assert code == 2


class TestBenchSmoke:
    def test_tiny_bench_run(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "bench",
            "--objects", "box",
            "--grasps-per-object", "3",
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == [
            "object", "grasps", "failed", "empty", "epsilon", "volume", "gravity"
        ]
        row = lines[1].split("\t")
        assert row[0] == "box"
        assert row[1] == "3"
        assert int(row[2]) + int(row[3]) <= 3
        assert lines[-1].startswith("# ordering")


FAKE_MESSAGES = {"ok": "", "failed": "no convergence after 80 iterations", "empty": "no contact frames"}


def fake_evaluations(monkeypatch, statuses, values):
    """Make run_bench's candidates end with the given statuses; the ok ones
    take their metric and proxy values, in order, from values[name].

    Unmeasured candidates score 0 everywhere, as _run_candidate reports them,
    with FAKE_MESSAGES[status] as their message.
    """

    def fake_map(func, payloads, jobs):
        ok = iter(range(len(statuses)))
        evals = []
        for (index, *_), status in zip(payloads, statuses):
            ev = GraspEvaluation(index=index, status=status, message=FAKE_MESSAGES[status])
            if status == "ok":
                k = next(ok)
                ev.values = {name: float(series[k]) for name, series in values.items()}
            evals.append(ev)
        return evals

    monkeypatch.setattr(cli, "_map_jobs", fake_map)


class TestBenchAccounting:
    def test_unmeasured_candidates_left_out(self, monkeypatch):
        # with the two unmeasured candidates scored 0 on both sides, their tie
        # would lift epsilon from -100 to 41 and volume from 80 to 94
        values = {
            "epsilon": [4, 3, 2, 1],
            "volume": [1, 3, 2, 4],
            "gravity": [1, 2, 3, 4],
            "proxy": [1, 2, 3, 4],
        }
        fake_evaluations(monkeypatch, ["ok", "failed", "ok", "empty", "ok", "ok"], values)
        rows, ordered = run_bench(["box"], 6, RunConfig())
        assert rows == [("box", 6, 1, 1, -100.0, pytest.approx(80.0), 100.0)]
        assert ordered == 1

    @pytest.mark.parametrize("statuses", [["ok", "failed", "ok", "empty"], ["failed"] * 3])
    def test_too_few_measured_is_nan_and_unordered(self, statuses, monkeypatch, capsys):
        values = {name: [1, 2] for name in ("epsilon", "volume", "gravity", "proxy")}
        fake_evaluations(monkeypatch, statuses, values)
        code, out, _ = run_cli(
            capsys, "bench", "--objects", "box", "--grasps-per-object", str(len(statuses))
        )
        assert code == 0
        failed, empty = statuses.count("failed"), statuses.count("empty")
        assert out.splitlines() == [
            "object\tgrasps\tfailed\tempty\tepsilon\tvolume\tgravity",
            f"box\t{len(statuses)}\t{failed}\t{empty}\tnan\tnan\tnan",
            "# ordering gravity>=volume>=epsilon on 0/1 objects",
        ]

    def test_each_unmeasured_candidate_logged_once(self, monkeypatch, capsys, caplog):
        values = {name: [1, 2] for name in ("epsilon", "volume", "gravity", "proxy")}
        fake_evaluations(monkeypatch, ["ok", "failed", "ok", "empty"], values)
        code, out, _ = run_cli(capsys, "bench", "--objects", "box", "--grasps-per-object", "4")
        assert code == 0
        assert out.splitlines()[1] == "box\t4\t1\t1\tnan\tnan\tnan"
        # as main's logging format prints them to stderr
        assert [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records] == [
            "WARNING softgrasp.cli: bench box candidate 1: failed (no convergence after 80 iterations)",
            "WARNING softgrasp.cli: bench box candidate 3: empty (no contact frames)",
            "WARNING softgrasp.cli: bench box: 2 measured grasps, too few to rank",
        ]


class TestStartupImports:
    def test_scoring_commands_leave_scipy_stats_unloaded(self):
        # scipy.stats adds ~0.8 s and ~32 MiB to a command's start; only bench
        # ranks.  Scoring assembles no mesh and maps no --jobs, so it loads
        # neither SuperLU (scipy.sparse.linalg) nor the process pool
        script = (
            "import sys\n"
            "import softgrasp\n"
            "from softgrasp import cli\n"
            f"path = {str(FIXTURE_TRAJECTORY)!r}\n"
            "assert cli.main(['hull-info', '--trajectory', path]) == 0\n"
            "assert cli.main(['metric', '--trajectory', path]) == 0\n"
            "for name in ('scipy.stats', 'scipy.sparse.linalg', 'multiprocessing'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_rank_loads_superlu_at_its_first_assembly(self):
        # the model's factor still comes from scipy.sparse.linalg; --jobs 1
        # starts no worker process, so no process pool loads
        argv = ["rank", "--node", str(DATA / "midair_box.node"), "--ele", str(DATA / "midair_box.ele"),
                "--grasps", str(DATA / "midair_grasp.jsonl"), "--config", str(DATA / "midair.cfg")]
        script = (
            "import sys\n"
            "from softgrasp import cli\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
            f"assert cli.main({argv + ['--jobs', '1']!r}) == 0\n"
            "assert 'scipy.sparse.linalg' in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_one_job_or_one_payload_leaves_multiprocessing_unloaded(self, tmp_path):
        # the process pool loads only when a map starts a worker process
        midair = ["--node", str(DATA / "midair_box.node"), "--ele", str(DATA / "midair_box.ele"),
                  "--grasps", str(DATA / "midair_grasp.jsonl"), "--config", str(DATA / "midair.cfg")]
        simulate = ["simulate", *midair, "--out-dir", str(tmp_path), "--jobs", "1"]
        bench = ["bench", "--objects", "box", "--grasps-per-object", "3", "--jobs", "1"]
        script = (
            "import sys\n"
            "from softgrasp import cli\n"
            f"assert cli.main({simulate!r}) == 0\n"
            f"assert cli.main({bench!r}) == 0\n"
            "assert cli._map_jobs(abs, [-3], 4) == [3]\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start (Python)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 2


class TestBlasThreads:
    # pipebench's seed-0 rank-midair candidate slab/04 on the bench slab
    SLAB_04 = (
        '{"center": [-0.008545659412703332, 4.4928497333996266e-05, 0.0049553248879357645], '
        '"axis": [0.01697964922676124, -0.9998345913418581, -0.006517780941074409], '
        '"halfwidth": 0.03412643140596059, "max_force": 7.5}\n'
    )

    def test_rank_volume_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the squeeze's dense solves sum in a thread-dependent order, so the
        # scored frame's last bits differ between 1 and 2 BLAS threads; its
        # wrench hull's volume must not jump with them
        node, ele = tetgen_text(bench_mesh("slab"))
        (tmp_path / "slab.node").write_text(node)
        (tmp_path / "slab.ele").write_text(ele)
        (tmp_path / "grasps.jsonl").write_text(self.SLAB_04)
        (tmp_path / "midair.cfg").write_text("platform_height = -1\ndesired_force = 5\n")
        argv = ["rank", "--node", str(tmp_path / "slab.node"), "--ele", str(tmp_path / "slab.ele"),
                "--grasps", str(tmp_path / "grasps.jsonl"), "--config", str(tmp_path / "midair.cfg")]
        script = f"import sys\nfrom softgrasp import cli\nsys.exit(cli.main({argv!r}))\n"
        volumes = []
        for threads in ("1", "2"):
            proc = run_python("-c", script, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            header, row = proc.stdout.splitlines()
            fields = dict(zip(header.split("\t"), row.split("\t")))
            assert fields["status"] == "ok"
            volumes.append(float(fields["volume"]))
        assert volumes[1] == pytest.approx(volumes[0], rel=1e-8)


# run_bench's protocol: candidates squeezed mid-air
MIDAIR = RunConfig(sim=fem.SimConfig(platform_height=-1.0))


def bench_candidates(name, count):
    """The first count candidates run_bench samples for a bench object."""
    mesh = bench_mesh(name)
    rng = np.random.default_rng([MIDAIR.seed, list(BENCH_OBJECTS).index(name)])
    return mesh, sample_grasps(mesh, count, rng, MIDAIR)


def full_squeeze(mesh, cand, rc):
    return fem.squeeze_frames(assemble_model(mesh, rc.material), cand, rc.sim)[0]


def step_index(frame, rc):
    """The squeeze step a frame was emitted at."""
    return round(frame.time / rc.sim.dt)


def counted_steps(monkeypatch, func, *args):
    """func(*args) and the quasi_static_step calls it made."""
    calls = []
    real_step = fem.quasi_static_step

    def step(*args):
        calls.append(1)
        return real_step(*args)

    with monkeypatch.context() as m:
        m.setattr(fem, "quasi_static_step", step)
        return func(*args), len(calls)


class TestScoredFrameStop:
    # Both squeezes of a grasp skip the same contact-free gaps, so the steps
    # the full squeeze runs past the candidate's are the steps between
    # their last frames.

    @pytest.mark.parametrize("name", ["box", "slab", "cylinder"])
    def test_equals_full_squeeze_evaluation(self, name, monkeypatch):
        mesh, cands = bench_candidates(name, 2)
        for i, cand in enumerate(cands):
            frames, full_steps = counted_steps(monkeypatch, full_squeeze, mesh, cand, MIDAIR)
            want = oracles.full_squeeze_evaluation(frames, mesh.nodes, MIDAIR, i)
            got, steps = counted_steps(monkeypatch, _run_candidate, (i, mesh, cand, MIDAIR))
            assert want.status == "ok" and want.reached
            assert got == want
            # the squeeze stops at the scored frame, short of the full one
            scored = frames[desired_force_index(frames, MIDAIR.desired_force)]
            assert full_steps - steps == step_index(frames[-1], MIDAIR) - step_index(scored, MIDAIR) > 0

    def test_max_force_below_desired_scores_last_frame(self, monkeypatch):
        mesh, cands = bench_candidates("box", 1)
        short = dataclasses.replace(cands[0], max_force=0.6 * MIDAIR.desired_force)
        frames, full_steps = counted_steps(monkeypatch, full_squeeze, mesh, short, MIDAIR)
        got, steps = counted_steps(monkeypatch, _run_candidate, (0, mesh, short, MIDAIR))
        assert got == oracles.full_squeeze_evaluation(frames, mesh.nodes, MIDAIR, 0)
        assert got.status == "ok" and not got.reached and steps == full_steps

    def test_model_freed_before_scoring(self, workspace, monkeypatch):
        # the model holds the LU and the squeeze its compliance columns;
        # keeping either alive while the hull is built stacks the two
        # memory peaks
        models, squeezes = [], []
        real_assemble, real_quality = cli.assemble_model, cli.frame_quality

        class TrackedSqueeze(fem.Squeeze):
            def __init__(self, *args):
                super().__init__(*args)
                squeezes.append(weakref.ref(self))

        def assemble(*args):
            model = real_assemble(*args)
            models.append(weakref.ref(model))
            return model

        def quality(*args, **kwargs):
            assert models and models[0]() is None
            assert len(squeezes) == 1 and squeezes[0]() is None
            return real_quality(*args, **kwargs)

        monkeypatch.setattr(fem, "Squeeze", TrackedSqueeze)
        monkeypatch.setattr(cli, "assemble_model", assemble)
        monkeypatch.setattr(cli, "frame_quality", quality)
        rc = load_run_config(workspace / "run.cfg")
        mesh = load_tet_mesh(workspace / "box.node", workspace / "box.ele")
        cand = load_grasp_candidates(workspace / "good.jsonl")[0]
        assert _run_candidate((0, mesh, cand, rc)).status == "ok"

    def test_contact_points_built_for_kept_frames_only(self, monkeypatch):
        # each step carries its contact record; ContactPoints and a center of
        # mass are made for the scored frame alone, and the torque scale's
        # centroid is read off the first step's record
        built, kept, touched, coms = [], [], [], []
        real_evaluate, real_steps, real_com = cli.evaluate_frames, fem.squeeze_steps, fem.mesh_center_of_mass

        class CountedContactPoint(fem.ContactPoint):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        def evaluate(centroid, frame, *args):
            kept.append(len(frame.contacts))
            return real_evaluate(centroid, frame, *args)

        def squeeze_steps(*args):
            for step in real_steps(*args):
                touched.append(step[0])
                yield step

        def com(*args):
            coms.append(1)
            return real_com(*args)

        monkeypatch.setattr(fem, "ContactPoint", CountedContactPoint)
        monkeypatch.setattr(fem, "mesh_center_of_mass", com)
        monkeypatch.setattr(cli, "evaluate_frames", evaluate)
        monkeypatch.setattr(fem, "squeeze_steps", squeeze_steps)
        mesh, cands = bench_candidates("box", 1)
        assert _run_candidate((0, mesh, cands[0], MIDAIR)).status == "ok"
        assert len(touched) > 2
        assert len(built) == kept[0] > 0
        assert len(coms) == 1

    @pytest.mark.parametrize("name", list(BENCH_OBJECTS))
    def test_pad_centroid_is_the_first_frame_centroid(self, name):
        # the torque scale's centroid, which the driver takes from the first
        # step's contact record, has the bytes of the contact centroid of
        # the first frame, whether or not that frame is built
        mesh, cands = bench_candidates(name, 2)
        model = assemble_model(mesh, MIDAIR.material)
        for cand in cands:
            frames, centroid = fem.squeeze_frames(model, cand, MIDAIR.sim)
            assert frames
            assert centroid.tobytes() == contact_centroid(frames[0]).tobytes()
            kept = fem.squeeze_frames(model, cand, MIDAIR.sim, every_frame=False)
            assert kept[1].tobytes() == centroid.tobytes()

    def test_failure_past_scored_frame_is_not_squeezed(self, workspace, capsys, monkeypatch, tmp_path):
        rc = load_run_config(workspace / "run.cfg")
        mesh = load_tet_mesh(workspace / "box.node", workspace / "box.ele")
        cand = load_grasp_candidates(workspace / "good.jsonl")[0]
        frames = full_squeeze(mesh, cand, rc)
        want = oracles.full_squeeze_evaluation(frames, mesh.nodes, rc, 0)
        assert want.reached and desired_force_index(frames, rc.desired_force) + 1 < len(frames)

        # every step after the first to reach desired_force fails
        reached = []
        real_step = fem.quasi_static_step

        def step(*args):
            if reached:
                raise SolverError("injected failure past the desired force")
            u, report = real_step(*args)
            if report.squeeze_force >= rc.desired_force:
                reached.append(True)
            return u, report

        monkeypatch.setattr(fem, "quasi_static_step", step)
        got = _run_candidate((0, mesh, cand, rc))
        assert got == want

        reached.clear()
        grasps = tmp_path / "one.jsonl"
        grasps.write_text((workspace / "good.jsonl").read_text().splitlines()[0] + "\n")
        code, out, _ = run_cli(
            capsys, "simulate",
            "--node", str(workspace / "box.node"),
            "--ele", str(workspace / "box.ele"),
            "--grasps", str(grasps),
            "--out-dir", str(tmp_path / "traj"),
            "--config", str(workspace / "run.cfg"),
        )
        assert code == 1
        assert out.strip().splitlines()[1].split("\t")[1] == "failed"


# Metamorphic relations: a change of the input that must leave every
# candidate's outcome unchanged.  The Newton loop stops once the residual
# force is below convergence_tol newtons, so the scored squeeze force, and
# the contact forces the metrics are built from, are known only to about
# convergence_tol; relative to the scored force, which is at least
# desired_force, that is convergence_tol / desired_force (2e-4).  That
# holds for eval_force on every candidate tested, but not for the metrics
# of KNOWN_BREAKS.
RELATION_TOL = MIDAIR.sim.convergence_tol / MIDAIR.desired_force
SHIFT = np.array([0.1, -0.05, 0.2])


def assert_same_outcome(got, want, keys, where):
    """Equal statuses, and eval_force and the scores named in keys within
    RELATION_TOL; where labels a failure."""
    assert got.status == want.status, (where, want.message, got.message)
    assert got.eval_force == pytest.approx(want.eval_force, rel=RELATION_TOL, abs=0.0), where
    for key in keys:
        assert got.values[key] == pytest.approx(want.values[key], rel=RELATION_TOL, abs=0.0), (where, key)


def translate(mesh, cand):
    return mesh.translated(SHIFT), dataclasses.replace(cand, grasp_center=cand.grasp_center + SHIFT)


def swap_pads(mesh, cand):
    return mesh, dataclasses.replace(cand, approach_axis=-cand.approach_axis)


def renumber_nodes(mesh, cand):
    perm = np.random.default_rng(0).permutation(len(mesh.nodes))
    return fem.TetMesh(mesh.nodes[perm], np.argsort(perm)[mesh.tets]), cand


def seeded_rotation(seed):
    """A rotation matrix about a seeded axis by a seeded angle (Rodrigues)."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    k = np.cross(np.eye(3), axis)  # k @ v == axis x v
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


ROTATION = seeded_rotation(0)


def rotate(mesh, cand):
    return fem.TetMesh(mesh.nodes @ ROTATION.T, mesh.tets), dataclasses.replace(
        cand, grasp_center=ROTATION @ cand.grasp_center, approach_axis=ROTATION @ cand.approach_axis
    )


# y -> -y.  A reflection turns every tet inside out, so each mirrored tet
# swaps its last two corners to keep a positive volume.
MIRROR = np.diag([1.0, -1.0, 1.0])


def mirror(mesh, cand):
    return fem.TetMesh(mesh.nodes @ MIRROR, mesh.tets[:, [0, 1, 3, 2]]), dataclasses.replace(
        cand, grasp_center=MIRROR @ cand.grasp_center, approach_axis=MIRROR @ cand.approach_axis
    )


# Doubling every stiffness and every force leaves every displacement as it
# was: K and the penalty double, and so do the forces they balance.
# convergence_tol is a residual force in newtons, so it doubles too, or
# the Newton loop would stop at other iterates.  A power of two scales
# every float exactly, so the relation holds bit for bit.
SCALE = 2.0


def scaled(rc, cand):
    return dataclasses.replace(
        rc,
        material=dataclasses.replace(rc.material, youngs_modulus=SCALE * rc.material.youngs_modulus),
        sim=dataclasses.replace(rc.sim, penalty_stiffness=SCALE * rc.sim.penalty_stiffness,
                                convergence_tol=SCALE * rc.sim.convergence_tol),
        desired_force=SCALE * rc.desired_force,
    ), dataclasses.replace(cand, max_force=SCALE * cand.max_force)


def scored_run(payload):
    """_run_candidate(payload), and the scored frame's step index and
    contact count, or None when no frame was scored."""
    scored = [None]
    real_evaluate = cli.evaluate_frames

    def evaluate(centroid, frame, mesh_nodes, rc, index):
        scored[0] = (step_index(frame, rc), len(frame.contacts))
        return real_evaluate(centroid, frame, mesh_nodes, rc, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "evaluate_frames", evaluate)
        return _run_candidate(payload), scored[0]


@functools.cache
def midair_draw(name):
    """The first 6 seed-0 mid-air candidates of a bench object (pipebench's
    rank-midair pool), with the mesh, each candidate's outcome and its
    scored frame's step index and contact count."""
    mesh, cands = bench_candidates(name, 6)
    outcomes, scored = zip(*(scored_run((i, mesh, c, MIDAIR)) for i, c in enumerate(cands)))
    return mesh, cands, outcomes, scored


# The runs of translate, swap_pads and renumber_nodes on criterion 6's
# draw (the first 40 seed-0 mid-air candidates of each bench object) that
# break RELATION_TOL; the other 477 of the 480 hold.  Epsilon moves by
# 4.5e-4, 2.9e-4 and 6.5e-4 (slab/24's volume and gravity by 3.8e-4 and
# 4.2e-4), while both sides keep their status, scored step and contact
# count, and eval_force within convergence_tol.
KNOWN_BREAKS = (("slab", 10, swap_pads), ("slab", 10, renumber_nodes), ("slab", 24, translate))
KNOWN_BREAK_IDS = [f"{name}/{index}-{relation.__name__}" for name, index, relation in KNOWN_BREAKS]


@functools.cache
def known_break(name, index, relation):
    """scored_run of a KNOWN_BREAKS candidate, and of its related input."""
    mesh, cands = bench_candidates(name, index + 1)
    cand = cands[index]
    return scored_run((index, mesh, cand, MIDAIR)), scored_run((index, *relation(mesh, cand), MIDAIR))


class TestMetamorphicRelations:
    @pytest.mark.parametrize("relation", [translate, swap_pads, renumber_nodes])
    @pytest.mark.parametrize("name", list(BENCH_OBJECTS))
    def test_relation_keeps_every_outcome(self, name, relation):
        mesh, cands, outcomes, _ = midair_draw(name)
        for i, (cand, want) in enumerate(zip(cands, outcomes)):
            assert_same_outcome(_run_candidate((i, *relation(mesh, cand), MIDAIR)), want, metrics.SCORE_NAMES, i)

    @pytest.mark.parametrize("name", list(BENCH_OBJECTS))
    def test_doubled_stiffness_and_forces_keep_every_outcome(self, name):
        # the wrench hull normalizes its forces, so only eval_force doubles
        mesh, cands, outcomes, _ = midair_draw(name)
        for i, (cand, want) in enumerate(zip(cands, outcomes)):
            rc, cand = scaled(MIDAIR, cand)
            got = _run_candidate((i, mesh, cand, rc))
            assert got.status == want.status, (i, want.message, got.message)
            assert got.eval_force == SCALE * want.eval_force, i
            for key in metrics.SCORE_NAMES:
                assert got.values[key] == want.values[key], (i, key)

    @pytest.mark.parametrize("name", list(BENCH_OBJECTS))
    def test_mirror_keeps_every_outcome(self, name):
        # gravity reads the default lattice on the draw and that lattice
        # mirrored on the mirrored draw.  The proxy is left out: its lattice
        # of proxy_directions is not mirror-symmetric, and no config key
        # replaces it.
        mesh, cands, outcomes, _ = midair_draw(name)
        rc = dataclasses.replace(MIDAIR, gravity=metrics.GravityConfig(
            custom_directions=MIDAIR.gravity.directions @ MIRROR))
        for i, (cand, want) in enumerate(zip(cands, outcomes)):
            assert_same_outcome(_run_candidate((i, *mirror(mesh, cand), rc)), want, metrics.METRIC_NAMES, i)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="pad roll and friction pyramids follow the world axes: ROADMAP item 15")
    def test_rotation_keeps_every_outcome(self):
        # the scores that need no rotated directions: gravity and the proxy
        # read world-frame directions, so they are left out
        for name in BENCH_OBJECTS:
            mesh, cands, outcomes, _ = midair_draw(name)
            for i, (cand, want) in enumerate(zip(cands, outcomes)):
                got = _run_candidate((i, *rotate(mesh, cand), MIDAIR))
                assert_same_outcome(got, want, ("epsilon", "volume"), (name, i))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="metrics move at an equal scored step: ROADMAP items 3 and 14")
    @pytest.mark.parametrize("case", KNOWN_BREAKS, ids=KNOWN_BREAK_IDS)
    def test_known_break_keeps_every_outcome(self, case):
        (want, _), (got, _) = known_break(*case)
        assert_same_outcome(got, want, metrics.SCORE_NAMES, case)

    @pytest.mark.parametrize("case", KNOWN_BREAKS, ids=KNOWN_BREAK_IDS)
    def test_known_break_keeps_status_and_force(self, case):
        # what the break keeps: the same scored squeeze, whose force agrees
        # within the Newton loop's tolerance
        (want, want_scored), (got, got_scored) = known_break(*case)
        assert got.status == want.status == "ok"
        assert got_scored == want_scored
        assert abs(got.eval_force - want.eval_force) <= MIDAIR.sim.convergence_tol


# ROADMAP item 17's pose jitter: each candidate moved by JITTER_SHIFT in
# its pad plane and tilted by JITTER_TILT, each in a seeded direction.
# Bench mesh cells are 5-27 mm.
JITTER_SHIFT = 1e-4  # m
JITTER_TILT = np.radians(0.2)
JITTER_COPIES = 3


def jittered(cand, seed):
    rng = np.random.default_rng(seed)
    t1, t2 = orthonormal_tangents(cand.approach_axis)
    shift, tilt = (np.cos(a) * t1 + np.sin(a) * t2 for a in rng.uniform(0.0, 2.0 * np.pi, size=2))
    return dataclasses.replace(
        cand,
        grasp_center=cand.grasp_center + JITTER_SHIFT * shift,
        approach_axis=np.cos(JITTER_TILT) * cand.approach_axis + np.sin(JITTER_TILT) * tilt,
    )


class TestPoseJitter:
    def test_reports_jitter_sensitivity(self, capsys):
        # ROADMAP item 17, printed and not gated until the sources of the
        # jumps are separated.  Per object: the share of status flips; over
        # the pairs ok on both sides, the median and 90th percentile of each
        # score's relative change; and of the pairs with a score moved past
        # RELATION_TOL, how many kept the scored step and contact count, how
        # many moved the scored step, and how many changed the contact count
        # at an equal step.
        keys = ("eval_force", *metrics.SCORE_NAMES)
        lines = []
        for obj, name in enumerate(BENCH_OBJECTS):
            mesh, cands, outcomes, scored = midair_draw(name)
            flips, changes, changed, kept, moved = 0, [], 0, 0, 0
            for i, (cand, want, want_scored) in enumerate(zip(cands, outcomes, scored)):
                for copy in range(JITTER_COPIES):
                    got, got_scored = scored_run((i, mesh, jittered(cand, [obj, i, copy]), MIDAIR))
                    flips += got.status != want.status
                    if got.status == want.status == "ok":
                        a = np.array([got.eval_force, *(got.values[k] for k in metrics.SCORE_NAMES)])
                        b = np.array([want.eval_force, *(want.values[k] for k in metrics.SCORE_NAMES)])
                        change = np.abs(a - b) / np.abs(b)
                        changes.append(change)
                        if np.any(change > RELATION_TOL):
                            changed += 1
                            kept += got_scored == want_scored
                            moved += got_scored[0] != want_scored[0]
            median, p90 = np.percentile(np.array(changes), [50, 90], axis=0)
            lines.append(
                f"[REPORT] item 17: {name}, {flips}/{len(cands) * JITTER_COPIES} status flips; "
                "relative change median/p90: "
                + ", ".join(f"{k} {m:.2g}/{p:.2g}" for k, m, p in zip(keys, median, p90))
                + f"; of {changed} changed pairs, {kept} kept the scored step and contact count, "
                f"{moved} moved the scored step, {changed - kept - moved} changed the contact count at an equal step"
            )
            assert np.all(np.isfinite(median)) and np.all(np.isfinite(p90)), name
        with capsys.disabled():
            print("\n".join(lines))
