"""Tests of the benchmark itself (not of softgrasp).

    python3 -m pytest pipebench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, Target, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_is_duration_minus_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_wraps_every_binding_and_reports_absent():
    import types

    home = types.ModuleType("home")
    other = types.ModuleType("other")

    def work(x):
        return x + 1

    home.work = other.alias = work
    tr = Tracer()
    tr.install([Target("home", "work", "layer.work"), Target("home", "gone", "layer.gone")],
               {"home": home, "other": other})
    assert home.work(1) == 2 and other.alias(2) == 3
    assert [s.name for s in tr.spans] == ["layer.work", "layer.work"]
    assert tr.absent == ["home.gone"]
    tr.uninstall()
    assert home.work is work and other.alias is work


def test_perturbed_value_fails_the_operation(tmp_path):
    wl = workloads.MetricTrace()
    op = wl.warmup(tmp_path)[0]
    first = workloads.run_op(op, wl.parse)
    assert not first.failed, first
    second = workloads.run_op(op, wl.parse)
    assert wl.compare(first.outputs, second.outputs) == []
    row = second.outputs["metric-all"]["rows"][1]
    col = next(i for i in range(3, len(row)) if row[i] != 0.0)  # a metric value, not a frame index
    row[col] *= 1.0 + 1e-4
    second.mismatches = wl.compare(first.outputs, second.outputs)
    assert second.failed and second.incorrect

    rank = workloads.RankMidair()
    expected = {"status": "ok", "reached": 1, "eval_force": 5.01, "epsilon": 0.02, "volume": 1e-4,
                "gravity": 0.3, "proxy": 4.0}
    assert rank.compare(expected, dict(expected)) == []
    assert rank.compare(expected, dict(expected, gravity=0.3 * (1 + 1e-5)))
    assert rank.compare(expected, dict(expected, eval_force=5.01 + 2e-3))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_input_generator_creates_its_out_dir(workload, tmp_path, capsys):
    out = tmp_path / "not" / "there"
    assert inputs.main(["--workload", workload, "--seed", "0", "--out", str(out)]) == 0
    listed = [line.split("\t")[-1] for line in capsys.readouterr().out.splitlines()]
    assert listed and all(Path(p).is_file() and Path(p).parent == out for p in listed)
    if workload != "metric-trace":
        assert (out / "run.cfg").is_file() and (out / "box.node").is_file() and (out / "box.ele").is_file()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload):
    plain = run_bench(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run_bench(workload, 1)
    layer = traced["metrics"]
    assert {k: v["unit"] for k, v in layer.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert layer["trace.absent_targets"]["value"] == 0
    if workload == "metric-trace":
        assert layer["fem.step.calls"]["value"] == 0
        assert layer["contact.hulls_per_frame.metric_all"]["value"] == 3
        assert layer["contact.hulls_per_frame.metric_gravity"]["value"] == 1
    elif workload == "squeeze-platform":
        assert layer["contact.build_gws.calls"]["value"] == 0
        assert layer["fileio.save_trajectory.bytes"]["value"] > 0
    else:
        assert layer["contact.hulls_per_frame"]["value"] == 4
        assert layer["fem.step.calls"]["value"] > 0
