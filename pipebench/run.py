"""softgrasp pipeline benchmark: one workload, one seed, one run.

    python3 pipebench/run.py --workload rank-midair --seed 0 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  The timed run (--trace 0) reports the end-to-end metrics;
the traced run (--trace 1) runs each operation once plain and once with
every layer's public functions wrapped, and reports per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record (run
environment, every operation, spans) goes to pipebench/results/.

    python3 pipebench/run.py --workload rank-midair --seed 0 --write-reference

runs one pass over the seed's operations and stores their outputs as the
reference that later runs of that seed are checked against.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one BLAS/OpenMP thread: the workloads are single-process, and a second
# thread would compete with the next run for the same few cores
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORTS = "import sys; sys.path[:0] = sys.argv[1:]; import layers, tracer, workloads"


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def timed_import(src: Path) -> float:
    """Seconds for a fresh interpreter to start and import what run.py imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS, str(HERE), str(src)], check=True)
    return time.perf_counter() - t0


def load_reference(workload: str, seed: int):
    path = HERE / "reference" / f"{workload}-seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


def verify(wl, op, outcome, reference, seen) -> None:
    """Fill the outcome's violations, mismatches and recovered flag.

    Outputs are compared with the stored reference of this seed when there
    is one; an operation repeated within the run is compared with its first
    run.  A candidate that failed in the reference and succeeds now is
    recovered, not a mismatch.
    """
    if outcome.error:
        return
    outcome.violations = wl.check(op, outcome)
    if hasattr(wl, "oracle") and not outcome.violations:
        outcome.oracle = wl.oracle(op, outcome)
    expected = (reference or {}).get(op.key, seen.get(op.key))
    if expected is None:
        seen[op.key] = outcome.outputs
    elif expected.get("status") == "failed" and outcome.outputs.get("status") not in ("failed", None):
        outcome.recovered = True
    else:
        outcome.mismatches = wl.compare(expected, outcome.outputs)
    outcome.info = {}


def run_traced(wl, op, index, tracer, namespaces, layers_mod, workloads_mod):
    tracer.op = index
    tracer.install(layers_mod.TARGETS, namespaces)
    try:
        root = tracer.open("op")
        try:
            outcome = workloads_mod.run_op(op, wl.parse, tracer)
        finally:
            tracer.close(root)
        for tag, frames in outcome.frames.items():
            tracer.tag = tag
            tracer.count("frames_scored", frames)
    finally:
        tracer.uninstall()
    return outcome


def op_count(wl, seconds: float, traced: int) -> int:
    """How many operations one run makes: fixed by --seconds, not by the clock.

    The count is --seconds over the workload's nominal time per operation
    (half as many when traced, since each operation then runs twice), so
    every run of a seed makes the same operations and meets the same
    failures, however fast the host is at the moment; only their time
    varies.  A run on the reference machine lasts about --seconds.
    """
    return max(1, round(seconds / (wl.op_seconds * (2 if traced else 1))))


def summarize(wl, outcomes, setup_s) -> tuple[dict, dict]:
    """End-to-end metrics for the result line, and the other named figures.

    ops_per_s counts every operation, failed ones too: whether a squeeze
    fails flips under sub-millimetre changes of the grasp, so counting only
    successes would add that coin flip to the throughput.  Failures are
    reported on their own ("failed"), and the success-only rate is printed
    as candidates_per_s.
    """
    walls = [o.wall for o in outcomes]
    total = sum(walls)
    good = sum(1 for o in outcomes if not o.failed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(outcomes) / total, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    named = {"op_p50_s": (statistics.median(walls), f"s (n={len(walls)})")}
    if wl.kind == "candidates":
        named["candidates_per_s"] = (good / total, "1/s")
    else:
        for mode in ("all", "gravity"):
            tag = f"metric-{mode}"
            secs = sum(o.seconds.get(tag, 0.0) for o in outcomes)
            frames = sum(o.frames.get(tag, 0) for o in outcomes if not o.failed)
            named[f"trace_{mode}_frames_per_s"] = (frames / secs if secs else 0.0, "frames/s")
        all_walls = [o.seconds["metric-all"] for o in outcomes if "metric-all" in o.seconds]
        named["trace_all_p50_s"] = (statistics.median(all_walls), f"s (n={len(all_walls)})")
    return e2e, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="softgrasp pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke test: run the warm-up-sized operation instead of the seed's inputs")
    parser.add_argument("--write-reference", action="store_true",
                        help="run every operation of the seed once and store the outputs as its reference")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import softgrasp
    except ImportError as exc:
        print(f"pipebench: cannot import softgrasp from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(softgrasp.__file__).resolve().parent.parent != src:
        print(f"pipebench: softgrasp came from {softgrasp.__file__}, not from {src}", file=sys.stderr)
        return 2
    import layers
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r} (have {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload]()
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    results = HERE / "results"
    try:
        # set-up: the imports are timed SETUP_REPEATS times (this process's
        # own, then fresh interpreters) and so are the input generations;
        # the medians count.  The warm-up call loads every code path once.
        import_times = [import_s] + [timed_import(src) for _ in range(SETUP_REPEATS - 1)]
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = wl.setup(args.seed, work / f"inputs{rep}")
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for op in wl.warmup(work / "warmup"):
            workloads.run_op(op, lambda *a: None)
        warmup_s = time.perf_counter() - t0
        setup_s = statistics.median(import_times) + statistics.median(setup_times) + warmup_s
        if args.tiny:
            ops = wl.warmup(work / "tiny")

        if args.write_reference:
            outcomes = [workloads.run_op(op, wl.parse) for op in ops]
            bad = [(o.key, o.error) for o in outcomes if o.error]
            for op, o in zip(ops, outcomes):
                if not o.error:
                    o.violations = wl.check(op, o)
                    bad += [(o.key, v) for v in o.violations]
            if bad:
                print(f"pipebench: not writing a reference, checks failed: {bad}", file=sys.stderr)
                return 1
            ref = {"workload": args.workload, "seed": args.seed, "environment": environment(),
                   "ops": {o.key: o.outputs for o in outcomes}}
            path = HERE / "reference" / f"{args.workload}-seed{args.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}: {len(outcomes)} operations, "
                  f"{sum(o.status_failed for o in outcomes)} with status failed")
            return 0

        reference = None if args.tiny else load_reference(args.workload, args.seed)
        namespaces = {name: sys.modules[name] for name in layers.MODULES if name in sys.modules}
        tracer = tracer_mod.Tracer()
        outcomes, plain_s, traced_s = [], 0.0, 0.0
        seen = {}
        t_run = time.perf_counter()
        for i in range(op_count(wl, args.seconds, args.trace)):
            op = ops[i % len(ops)]
            if args.trace:
                # alternate which copy goes first, so warm caches favour neither
                pair = []
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        o = run_traced(wl, op, i, tracer, namespaces, layers, workloads)
                        traced_s += o.wall
                    else:
                        o = workloads.run_op(op, wl.parse)
                        plain_s += o.wall
                    verify(wl, op, o, reference, seen)
                    pair.append(o)
                outcome = next((o for o in pair if o.failed), pair[0])
            else:
                outcome = workloads.run_op(op, wl.parse)
                verify(wl, op, outcome, reference, seen)
            outcomes.append(outcome)
        measured_s = time.perf_counter() - t_run
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    failed = [o for o in outcomes if o.failed]
    wrong = [o for o in outcomes if o.incorrect]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "reference": "stored" if reference is not None else "none for this seed: first runs of repeated ops",
        "setup": {"import_s": import_times, "inputs_s": setup_times, "warmup_s": warmup_s},
        "measured_s": measured_s,
        "operations": [
            {"key": o.key, "seconds": o.seconds, "frames": o.frames, "failed": o.failed,
             "status": o.outputs.get("status") if isinstance(o.outputs, dict) else None,
             "error": o.error, "violations": o.violations, "mismatches": o.mismatches, "oracle": o.oracle,
             "recovered": o.recovered}
            for o in outcomes
        ],
    }
    if args.trace:
        overhead = 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
        metrics = layers.layer_metrics(tracer, len(outcomes), overhead)
        record["absent"] = tracer.absent
        lines = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    else:
        metrics, named = summarize(wl, outcomes, setup_s)
        lines = [(k, v["value"], v["unit"]) for k, v in metrics.items()] + [(k, v, u) for k, (v, u) in named.items()]
    record["metrics"] = metrics
    lines += [("attempted", len(outcomes), "ops"), ("failed", len(failed), "ops"),
              ("failed_status", sum(o.status_failed for o in outcomes), "ops"),
              ("mismatched", sum(bool(o.mismatches) for o in outcomes), "ops"),
              ("oracle_disagreements", sum(bool(o.oracle) for o in outcomes), "ops"),
              ("recovered", sum(o.recovered for o in outcomes), "ops")]
    record["summary"] = {k: {"value": v, "unit": u} for k, v, u in lines}

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (results / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(results / f"SPANS_{stem}.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                     "op": s.op, "tag": s.tag}) + "\n")
        if tracer.absent:
            print(f"absent (renamed or removed): {', '.join(tracer.absent)}")
    for o in wrong:
        print(f"incorrect {o.key}: {o.error or ''} {'; '.join(o.violations + o.mismatches)}", file=sys.stderr)
    for o in outcomes:
        if o.oracle:
            print(f"oracle disagrees on {o.key}: {'; '.join(o.oracle)}", file=sys.stderr)
    for name, value, unit in lines:
        print(f"{name}\t{value:.6g}\t{unit}" if isinstance(value, float) else f"{name}\t{value}\t{unit}")
    print(json.dumps({"correct": not wrong, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
