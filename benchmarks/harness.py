"""Benchmark of the resetchannel pipeline, one workload per process.

Each workload's presets run in-process through ``run_experiment`` with
``n_workers=1`` and BLAS pinned to one thread (``run.py`` pins it before numpy
loads). An untraced run (``--trace 0``) reports the end-to-end metrics; a
traced run (``--trace 1``) alternates untraced and traced passes and reports
the per-layer metrics derived from the spans. Every preset run's outputs are
checked (see ``check.py``); a run that raises, records a failure or fails the
check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give each metric with its unit and sample count, and the environment record;
the same is written to ``.bench_out/`` in the checkout, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from resetchannel.runner import run_experiment

import check
import spans
import workloads
from run import BLAS_THREAD_VARS

N_WORKERS = 1
SETUP_REPEATS = 5
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIRNAME = ".bench_out"

# Fresh-process set-up: import the package (numpy and scipy with it), then
# generate and validate the workload's configs.
SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import resetchannel
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure passes until this many seconds have elapsed (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() or f"unknown ({res.stderr.strip()})"


def environment_record(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "n_workers": N_WORKERS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": git_commit(root),
    }


def setup_seconds(root: Path, workload: str, seed: int) -> float:
    """Wall time of one fresh process that imports and validates."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(BENCH_DIR),
           workload, str(seed)]
    started = time.perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - started


def run_pass(runs, work_dir: Path, index: dict, tracer=None) -> tuple[float, int]:
    """Run every preset once; returns (seconds inside run_experiment, failed
    runs). Output checks run outside the timed region."""
    seconds, failed = 0.0, 0
    for run, config in runs:
        out = Path(tempfile.mkdtemp(prefix=f"{run.label}-", dir=work_dir))
        try:
            started = time.perf_counter()
            try:
                if tracer is None:
                    manifest = run_experiment(config, out, n_workers=N_WORKERS)
                else:
                    with tracer.span("runner.run_experiment", label=run.label):
                        manifest = run_experiment(config, out, n_workers=N_WORKERS)
            except Exception as exc:  # a preset that raises is a failed run
                print(f"FAILED {run.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            finally:
                seconds += time.perf_counter() - started
            problems = check.check_run(run.label, config, out, manifest, index)
            for msg in problems[:20]:
                print(f"FAILED {run.label}: {msg}", file=sys.stderr)
            failed += bool(problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return seconds, failed


def tail_note(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) >= 1000:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return f"p{q} {cut:.4f} s"
    return "no tail percentile (fewer than 20 samples)"


def measure(args, runs, index, work_dir: Path, root: Path) -> tuple[dict, dict, int, int]:
    """Untraced run: the end-to-end metrics with their sample notes."""
    setup = [setup_seconds(root, args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    times, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while not times or time.perf_counter() - started < args.seconds:
        seconds, fails = run_pass(runs, work_dir, index)
        times.append(seconds)
        attempted += len(runs)
        failed += fails
    # the first pass warms up caches and lazy imports; it is timed only
    # when it is the one pass that fit into --seconds
    samples = times[1:] if len(times) > 1 else times
    metrics = {
        "wall_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(samples)} passes "
                  f"({'first pass excluded as warm-up' if len(times) > 1 else 'no warm-up pass fit'}); "
                  f"{tail_note(samples)}",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "1 process",
        "pass_seconds": times,
        "setup_seconds": setup,
    }
    return metrics, notes, attempted, failed


def measure_traced(args, runs, index, work_dir: Path, out_root: Path) -> tuple[dict, dict, int, int]:
    """Traced run: per-layer metrics, medians over traced passes."""
    tracers, untraced, per_pass, attempted, failed = [], [], [], 0, 0
    started = time.perf_counter()
    while not per_pass or time.perf_counter() - started < args.seconds:
        seconds, fails = run_pass(runs, work_dir, index)
        untraced.append(seconds)
        tracer = spans.Tracer(pass_id=len(tracers))
        tracers.append(tracer)
        with tracer.patched(spans.program_targets()):
            traced_s, traced_fails = run_pass(runs, work_dir, index, tracer)
        per_pass.append(spans.layer_metrics(tracer.spans, traced_s))
        attempted += 2 * len(runs)
        failed += fails + traced_fails
    spans.write_spans(tracers, out_root / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    traced_median = metrics["trace.pass_s"][0]
    metrics["trace.overhead_frac"] = (traced_median / statistics.median(untraced) - 1.0, "ratio")
    notes = {"per_layer": f"median of {len(per_pass)} traced passes, "
                          f"each after an untraced pass",
             "untraced_pass_seconds": untraced}
    return metrics, notes, attempted, failed


def run_all(args) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode != 0 or not lines:
            print(f"workload {name} exited with code {res.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    runs = workloads.generate(args.workload, args.seed)
    index = check.load_index()
    out_root = root / OUT_DIRNAME
    out_root.mkdir(exist_ok=True)
    env = environment_record(root, args.seed)
    with tempfile.TemporaryDirectory(prefix="runs-", dir=out_root) as work_dir:
        if args.trace:
            metrics, notes, attempted, failed = measure_traced(
                args, runs, index, Path(work_dir), out_root)
        else:
            metrics, notes, attempted, failed = measure(
                args, runs, index, Path(work_dir), root)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, notes.get("per_layer", ""))
        print(f"  {name:44s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'fail_rate':44s} {failed / attempted:14.6g} {'ratio':9s} "
          f"{failed} failed of {attempted} preset runs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, notes=notes)
    out_file = out_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0
