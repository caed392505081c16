"""Benchmark runner: one run of one workload, timed or traced.

A timed run (``--trace 0``) measures set-up in child processes, then runs
whole tuning traces: first the quality seeds' traces, then traces for seeds
derived from ``--seed`` while fewer than ``MIN_ITERATIONS`` steps have been
timed or another trace of the run's mean length would end within
``--seconds``.  It reports the end-to-end metrics, with step times put on
the reference machine-speed scale by ``calibration``.

A traced run (``--trace 1``) runs each trace twice in lockstep, plain and
under the tracer, with the same rule for starting another pair after the
first, and reports the per-layer metrics of the traced copies plus the
tracing overhead against the plain ones.

Every trace is written as the CLI writes it, read back and checked against
``oracle``; the last line printed is the JSON result.  Metric names, units
and the default ``--seconds`` come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import env
import workloads
from tracer import Tracer

SETUP_PROBES = 3


def manifest() -> dict:
    return json.loads((env.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _another_trace(done: int, elapsed: float, seconds: float) -> bool:
    """Whether a trace of the mean length so far would end within
    ``seconds``."""
    return elapsed + elapsed / done <= seconds


def _cache_dir():
    env.OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="trace_", dir=env.OUT_DIR)


def measure_setup(workload: workloads.Workload, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of warmup."""
    with _cache_dir() as cache:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), workload.name,
             str(seed), cache],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
    return float(done.stdout.split()[-1]) - started


def _run_and_check(workload, seed, errors: list[str], after_step=None) -> workloads.Summary:
    with _cache_dir() as cache:
        run = workloads.run_trace(workload, seed, cache, after_step)
        errors.extend(workloads.check(workload, run, Path(cache) / "trace.csv"))
    return run.summary()


def timed(workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, list, list]:
    setup = [measure_setup(workload, seed) for _ in range(SETUP_PROBES)]
    errors: list[str] = []
    runs: list[workloads.Summary] = []
    calibrator = calibration.Calibrator()
    started = time.perf_counter()
    for j, trace_seed in enumerate(workloads.trace_seeds(seed)):
        steps = sum(len(r.step_s) for r in runs)
        if (
            j >= len(workloads.QUALITY_SEEDS)
            and steps >= workloads.MIN_ITERATIONS
            and not _another_trace(j, time.perf_counter() - started, seconds)
        ):
            break
        runs.append(_run_and_check(workload, trace_seed, errors, calibrator.after_step))

    step_s = [t for r in runs for t in r.step_s]
    raw_p50 = 1000.0 * statistics.median(step_s)
    raw_p90 = 1000.0 * statistics.quantiles(step_s, n=10)[-1]
    print(f"  raw step time p50 {raw_p50:.6g} ms, p90 {raw_p90:.6g} ms; calibration kernel "
          f"{calibrator.median_ms:.6g} ms (median of {len(calibrator.samples)}, "
          f"reference {calibration.REFERENCE_MS} ms)")
    iters, regret = workloads.quality(runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "iter_ms_p50": raw_p50 * calibrator.factor,
        "iter_ms_p90": raw_p90 * calibrator.factor,
        "iters": iters,
        "regret": regret,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, runs, errors


def traced(workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, list, list]:
    """Each trace runs twice in lockstep, plain and traced, alternating
    steps, so that both copies see the same machine and the overhead
    estimate is not swamped by drifts in machine speed."""
    tracer = Tracer()
    errors: list[str] = []
    plain: list[workloads.Summary] = []
    runs: list[workloads.Summary] = []
    started = time.perf_counter()
    for j, trace_seed in enumerate(workloads.trace_seeds(seed)):
        if j and not _another_trace(j, time.perf_counter() - started, seconds):
            break
        with _cache_dir() as plain_cache, _cache_dir() as traced_cache:
            a = workloads.Trace(workload, trace_seed, plain_cache)
            with tracer:
                b = workloads.Trace(workload, trace_seed, traced_cache)
            while not (a.done and b.done):
                if not a.done:
                    a.step()
                if not b.done:
                    with tracer:
                        b.step()
            for trace, cache, out in ((a, plain_cache, plain), (b, traced_cache, runs)):
                errors.extend(workloads.check(workload, trace.result, Path(cache) / "trace.csv"))
                out.append(trace.result.summary())

    rows = sum(r.rows for r in runs)
    evals, hits = tracer.totals["pipeline.evals"], tracer.totals["cache.hits"]
    if evals != rows:
        errors.append(f"{workload.name}: pipeline.evals {evals} != {rows} trace rows")
    memo_rows = sum(r.memo_rows for r in runs)
    if hits != memo_rows:
        errors.append(f"{workload.name}: cache.hits {hits} != {memo_rows} rows with delta > 0")

    metrics = tracer.layer_metrics()
    plain_s = sum(sum(r.step_s) for r in plain)
    traced_s = sum(sum(r.step_s) for r in runs)
    metrics["tracing.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    tracer.write_spans(env.OUT_DIR / f"spans-{workload.name}.jsonl")
    return metrics, runs, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'timed'}")
    metrics, runs, errors = (traced if trace else timed)(workload, seed, seconds)
    units = {m["name"]: m["unit"] for m in manifest()["per_layer" if trace else "end_to_end"]}
    attempted = sum(len(r.step_s) + r.failed for r in runs)
    failed = sum(r.failed for r in runs)

    print(f"  traces {len(runs)}  attempted {attempted}  failed {failed}")
    for metric, unit in units.items():
        print(f"  {metric:<32} {metrics[metric]:>14.6g} {unit}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, as the per-workload runs are.  A
    workload whose process fails is recorded as incorrect, with the end of
    its standard error, and the next one runs."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode == 0 and lines:
            print("\n".join(lines[:-1]))
            results[name] = json.loads(lines[-1])
        else:
            print(done.stdout, end="")
            print(f"workload {name}: exit status {done.returncode}")
            results[name] = {
                "correct": False,
                "exit_status": done.returncode,
                "stderr": done.stderr[-4000:],
            }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
        ok = all(r["correct"] for r in result.values())
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        ok = True
    print(json.dumps(result))
    return 0 if ok else 1
