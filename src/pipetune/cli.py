"""Command-line harness: multi-seed method comparisons, ablation sweeps
over cache size / prefix policy / cooling schedule / epsilon, and trace
aggregation into summary and curve CSVs.

Exit codes: 0 success, 1 runtime failure (partial outputs retained),
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .acquisition import ETA_SCHEDULES, METHODS
from .cache import PREFIX_POLICIES
from .errors import InvalidArgumentError, PipetuneError
from .optimizer import RunConfig, RunTrace, empty_pool, read_trace
from .optimizer import run as run_optimizer
from .pipeline import SYNTHETIC_SUITES, PipelineSpec, load_pipeline_file, synthetic_suite

CACHE_ROOT_ENV = "PIPETUNE_CACHE_ROOT"

# each kind sweeps one RunConfig field, which feeds one part of a run
ABLATION_LEVELS = {
    "cache_size": ("q", "prefix pool", (0, 5, 10, 20, 30, 50)),
    "prefix_policy": ("prefix_policy", "prefix pool", ("first", "mean", "all")),
    "eta": ("eta_schedule", "cost term", ETA_SCHEDULES),
    "epsilon": ("epsilon", "prefix pool", (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)),
}

# whether a run of the config reads what a field feeds: a pool caching no
# depth memoizes nothing, and a method without cost segments has no cost term
_READS = {
    "prefix pool": lambda config, space: bool(empty_pool(config, space).deltas),
    "cost term": lambda config, space: bool(METHODS[config.method].segments(space.n_stages)),
}

_SPECIAL_CSVS = ("summary.csv", "curves.csv", "ablation.csv")


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over one method's repeats."""

    pipeline: str
    method: str
    repeats: int
    mean_best: float
    se_best: float
    mean_iterations: float
    mean_consumed: float
    pct_improv_memo: float


# ---------------------------------------------------------------------------
# aggregation (pure functions of traces, reused by run and report)

def _improvement_flags(trace: RunTrace) -> list[tuple[bool, bool]]:
    """Per trace row: (improved the best so far, did so with a memoized
    prefix).  Counted over the whole run — the first improvement is always
    iteration 1 — so the memoized share is relative to every lift of the
    incumbent, not just the model-guided ones."""
    flags = []
    prev_best = float("-inf")
    for row in trace.rows:
        improved = row.best_y > prev_best
        flags.append((improved, improved and row.delta > 0))
        prev_best = row.best_y
    return flags


def summarize(traces: list[RunTrace]) -> list[SummaryRow]:
    """One row per (pipeline, method), averaged over that group's runs.
    Memoized-improvement percentage pools improvement counts across runs.
    A group whose configs differ in any key but ``seed`` is refused."""
    groups: dict[tuple[str, str], list[RunTrace]] = {}
    for t in traces:
        key = (t.pipeline_name, t.config["method"])
        groups.setdefault(key, []).append(t)

    rows = []
    for (pipeline, method), group in sorted(groups.items()):
        first = group[0].config
        keys = {k for t in group for k in t.config} - {"seed"}
        differing = sorted(k for k in keys if any(t.config.get(k) != first.get(k) for t in group))
        if differing:
            raise InvalidArgumentError(
                f"{method} traces of {pipeline} differ in {', '.join(differing)}; "
                "report each config from its own directory"
            )
        bests = [t.best_y for t in group]
        n = len(bests)
        mean_best = sum(bests) / n
        se_best = (
            math.sqrt(sum((b - mean_best) ** 2 for b in bests) / (n - 1)) / math.sqrt(n)
            if n > 1
            else 0.0
        )
        flags = [flag for t in group for flag in _improvement_flags(t)]
        improvements = sum(improved for improved, _ in flags)
        memo_improvements = sum(with_memo for _, with_memo in flags)
        rows.append(
            SummaryRow(
                pipeline=pipeline,
                method=method,
                repeats=n,
                mean_best=mean_best,
                se_best=se_best,
                mean_iterations=sum(len(t.post_warmup_rows()) for t in group) / n,
                mean_consumed=sum(t.consumed for t in group) / n,
                pct_improv_memo=(
                    100.0 * memo_improvements / improvements if improvements else 0.0
                ),
            )
        )
    return rows


def write_summary_csv(
    rows: list[SummaryRow], path: Path, levels: list[str] | None = None
) -> None:
    """One line per row; with ``levels``, one label per row, each line
    starts with a ``level`` column."""
    header = (
        "pipeline,method,repeats,mean_best,se_best,mean_iterations,"
        "mean_consumed,pct_improv_memo"
    )
    lines = [header if levels is None else f"level,{header}"]
    for i, r in enumerate(rows):
        line = (
            f"{r.pipeline},{r.method},{r.repeats},{r.mean_best:.17g},"
            f"{r.se_best:.17g},{r.mean_iterations:.17g},{r.mean_consumed:.17g},"
            f"{r.pct_improv_memo:.17g}"
        )
        lines.append(line if levels is None else f"{levels[i]},{line}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curves_csv(traces: list[RunTrace], path: Path) -> None:
    """Long-format best-objective-versus-cost curves for external plotting."""
    lines = ["pipeline,method,seed,iter,consumed,best_y"]
    for t in traces:
        for r in t.rows:
            lines.append(
                f"{t.pipeline_name},{t.config['method']},{t.config['seed']},{r.iteration},"
                f"{r.consumed:.17g},{r.best_y:.17g}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def print_summary(rows: list[SummaryRow]) -> None:
    header = (
        f"{'pipeline':<10} {'method':<7} {'T':>3} {'best (mean ± se)':>24} "
        f"{'iters':>7} {'consumed':>10} {'% improv w/ memo':>17}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        best = f"{r.mean_best:.4f} ± {r.se_best:.4f}"
        print(
            f"{r.pipeline:<10} {r.method:<7} {r.repeats:>3} {best:>24} "
            f"{r.mean_iterations:>7.1f} {r.mean_consumed:>10.2f} "
            f"{r.pct_improv_memo:>16.1f}%"
        )


def epsilon_insensitive(level_means: dict[float, tuple[float, float, int]]) -> tuple[bool, float, float]:
    """Given per-level (mean best, se, repeats), report whether the spread
    of level means stays within twice the pooled standard error of a level
    mean (pooled sd over the per-level repeat count)."""
    means = [m for m, _, _ in level_means.values()]
    spread = max(means) - min(means)
    pooled_var = 0.0
    total = 0
    repeats = 0
    for _, se, n in level_means.values():
        # se = sd / sqrt(n) -> recover per-level variance for pooling
        pooled_var += (se * math.sqrt(n)) ** 2 * max(n - 1, 0)
        total += max(n - 1, 0)
        repeats += n
    pooled_sd = math.sqrt(pooled_var / total) if total else 0.0
    n_bar = repeats / max(len(level_means), 1)
    pooled_se = pooled_sd / math.sqrt(max(n_bar, 1.0))
    threshold = 2.0 * pooled_se
    return spread <= threshold, spread, threshold


# ---------------------------------------------------------------------------
# run execution

def _load_pipeline(name: str | None, file: str | None) -> PipelineSpec:
    if file:
        return load_pipeline_file(file)
    if name in SYNTHETIC_SUITES:
        return synthetic_suite(name)
    raise InvalidArgumentError(
        f"unknown pipeline {name!r}; use one of {tuple(SYNTHETIC_SUITES)} or --pipeline-file"
    )


def _build_jobs(
    args, pipeline: PipelineSpec, out_dir: Path, overrides: dict | None = None
) -> list[tuple[RunConfig, str, str]]:
    """One (config, trace path, cache root) per method and repeat; every
    config is checked by RunConfig and by the pool it starts with, and
    --repeats, --jobs and the method names are checked, before any job
    runs. An empty method list is refused, and so is a method named twice:
    its jobs would share one trace path and one cache root."""
    for flag in ("repeats", "jobs"):
        if getattr(args, flag) < 1:
            raise InvalidArgumentError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    overrides = overrides or {}
    cache_base = Path(os.environ.get(CACHE_ROOT_ENV, out_dir / "cache"))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InvalidArgumentError(f"--methods names no method: {args.methods!r}")
    for m in methods:
        if m not in METHODS:
            raise InvalidArgumentError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}"
            )
        if methods.count(m) > 1:
            raise InvalidArgumentError(f"method {m!r} is named more than once in --methods")
    # the run flags carry RunConfig's field names as their dest
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "method"}
    jobs = []
    for method in methods:
        for i in range(args.repeats):
            seed = args.seed + i
            config = RunConfig(**{**flags, **overrides, "method": method, "seed": seed})
            empty_pool(config, pipeline.search_space())
            run_id = f"{args.pipeline or Path(args.pipeline_file).stem}_{method}_s{seed}"
            jobs.append((config, str(out_dir / f"{run_id}.csv"), str(cache_base / run_id)))
    return jobs


def _run_jobs(pipeline: PipelineSpec, jobs: list[tuple], n_jobs: int) -> list[str]:
    """Run the jobs, in a process pool when n_jobs > 1; returns their trace
    paths."""
    runs = [(config, pipeline, path, root) for config, path, root in jobs]
    if n_jobs <= 1 or len(runs) <= 1:
        for run in runs:
            run_optimizer(*run)
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(run_optimizer, *zip(*runs)))
    return [path for _, path, _ in jobs]


def _report(paths: list, out_dir: Path) -> list[SummaryRow]:
    """Read the traces; write and print their summary and curves; return its rows."""
    traces = [read_trace(p) for p in paths]
    rows = summarize(traces)
    write_summary_csv(rows, out_dir / "summary.csv")
    write_curves_csv(traces, out_dir / "curves.csv")
    print_summary(rows)
    return rows


def cmd_run(args) -> None:
    out_dir = Path(args.out)
    pipeline = _load_pipeline(args.pipeline, args.pipeline_file)
    jobs = _build_jobs(args, pipeline, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _report(_run_jobs(pipeline, jobs, args.jobs), out_dir)


def cmd_ablate(args) -> None:
    """``run`` at each level, then ablation.csv. Every level's jobs, and that
    each job reads the swept field at some level, are checked before any runs."""
    if args.kind == "epsilon" and args.repeats < 2:
        # its verdict pools the spread of repeats, which one run has none of
        raise InvalidArgumentError(f"ablate epsilon needs --repeats >= 2, got {args.repeats}")
    out_dir = Path(args.out)
    pipeline = _load_pipeline(args.pipeline, args.pipeline_file)
    field_name, feeds, levels = ABLATION_LEVELS[args.kind]
    dirs = [out_dir / f"{args.kind}_{level}" for level in levels]
    level_jobs = [_build_jobs(args, pipeline, d, {field_name: v}) for d, v in zip(dirs, levels)]
    for configs in zip(*level_jobs):  # one job's configs, level by level
        if not any(_READS[feeds](config, pipeline.search_space()) for config, _, _ in configs):
            raise InvalidArgumentError(
                f"ablate {args.kind} varies {field_name}, which feeds the {feeds}; method "
                f"{configs[0][0].method!r} reads it at no level: every level would run one trace"
            )

    level_rows: list[tuple[str, list[SummaryRow]]] = []
    for level, level_dir, jobs in zip(levels, dirs, level_jobs):
        level_dir.mkdir(parents=True, exist_ok=True)
        print(f"--- {args.kind} = {level} ---")
        level_rows.append((str(level), _report(_run_jobs(pipeline, jobs, args.jobs), level_dir)))
    write_summary_csv(
        [r for _, rows in level_rows for r in rows],
        out_dir / "ablation.csv",
        [level for level, rows in level_rows for _ in rows],
    )

    if args.kind == "epsilon":
        for method in sorted({r.method for _, rows in level_rows for r in rows}):
            per_level = {
                float(level): (r.mean_best, r.se_best, r.repeats)
                for level, rows in level_rows
                for r in rows
                if r.method == method
            }
            flag, spread, threshold = epsilon_insensitive(per_level)
            print(
                f"epsilon sweep, {method}: max-min of mean best = {spread:.6g}, "
                f"2x pooled se = {threshold:.6g} -> {'insensitive' if flag else 'SENSITIVE'}"
            )


def cmd_report(args) -> None:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        raise InvalidArgumentError(f"not a directory: {results_dir}")
    paths = sorted(p for p in results_dir.glob("*.csv") if p.name not in _SPECIAL_CSVS)
    if not paths:
        raise InvalidArgumentError(f"no trace CSVs found in {results_dir}")
    _report(paths, results_dir)


# ---------------------------------------------------------------------------
# argument parsing

def _budget(text: str) -> float | str:
    """``auto`` or a number; argparse refuses anything else, and RunConfig a
    number that is not finite."""
    return text if text == "auto" else float(text)


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags that set a RunConfig field name it as their dest."""
    d = RunConfig()  # the one source of run defaults
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--pipeline", help=f"synthetic suite name: {', '.join(SYNTHETIC_SUITES)}")
    which.add_argument("--pipeline-file", help="JSON pipeline definition path")
    p.add_argument("--methods", default=d.method, help="comma-separated methods")
    p.add_argument("--repeats", type=int, default=1, help="repeats per method")
    p.add_argument("--seed", type=int, default=d.seed, help="base seed (repeat i uses seed+i)")
    p.add_argument(
        "--budget", dest="total_budget", type=_budget, default=d.total_budget,
        help="total budget, or 'auto' (5x warmup)",
    )
    p.add_argument("--warmup", dest="n0", type=int, default=d.n0, help="warmup evaluations N0")
    p.add_argument(
        "--cache-size", dest="q", type=int, default=d.q, help="prefix sources kept (Q)"
    )
    p.add_argument("--prefix-policy", default=d.prefix_policy, choices=PREFIX_POLICIES)
    p.add_argument("--eta-schedule", default=d.eta_schedule, choices=ETA_SCHEDULES)
    p.add_argument("--epsilon", type=float, default=d.epsilon, help="memoized-stage modeled cost")
    p.add_argument(
        "--raw-samples", dest="m", type=int, default=d.m, help="candidates per restart (M)"
    )
    p.add_argument(
        "--mc-samples", dest="n_mc", type=int, default=d.n_mc,
        help="cost draws per candidate (D), as antithetic pairs from ceil(D/2) normals",
    )
    p.add_argument(
        "--acq-restarts", dest="restarts", type=int, default=d.restarts,
        help="candidate batches per iteration (r)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel independent runs")
    p.add_argument("--out", default="results", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipetune",
        description="Budget-constrained, memoization-aware tuning for multi-stage pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute methods x repeats and summarize")
    _add_common_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablate", help="sweep one knob at standard levels")
    p_abl.add_argument("kind", choices=tuple(ABLATION_LEVELS))
    _add_common_run_flags(p_abl)
    p_abl.set_defaults(func=cmd_ablate)

    p_rep = sub.add_parser("report", help="aggregate a directory of trace CSVs")
    p_rep.add_argument("results_dir", help="directory containing trace CSVs")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return 0
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except PipetuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
