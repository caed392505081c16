"""The benchmark's workloads and the loop that runs one tuning trace.

A trace is one tuning run for one seed, driven through the library's public
entry points the way ``pipetune.optimizer.run`` drives them: ``init_state``
(pipeline build and warmup), then one step per iteration until the budget is
spent.  The loop here differs from ``run`` only in timing each step.  For
``synth10-memo`` the step is still ``optimizer.step``, with its model fit
and scoring replaced for the step's duration (``random_pick``).

Entry points are looked up on their modules at call time (``opt.step``,
``opt.generate`` ...) so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pipetune import optimizer as opt
from pipetune.errors import PipetuneError
from pipetune.optimizer import OptState, RunConfig, RunTrace
from pipetune.pipeline import synthetic_suite

import oracle

# The acceptance config of the test suite's five-seed comparisons, with the
# default pool size and prefix policy spelled out.
ACCEPTANCE = dict(
    n0=5, m=256, n_mc=500, restarts=10, q=5, prefix_policy="all", total_budget="auto"
)

# synth10-memo: a fixed budget worth about 1,800 random-pick evaluations
MEMO_BUDGET = 100_000.0

# Seeds whose traces give iters and regret: the same in every run, so those
# two metrics are exact for a given code and move only when traces change.
QUALITY_SEEDS = (0, 1)

# step times pooled per run, so that ten lie beyond the 90th percentile
MIN_ITERATIONS = 100

_TAG_PICK = 201


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    config: dict
    memo: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth3-eeipu", "synth3", dict(ACCEPTANCE, method="eeipu")),
        Workload("synth3-ei", "synth3", dict(ACCEPTANCE, method="ei")),
        Workload(
            "synth10-memo",
            "synth10",
            dict(ACCEPTANCE, method="eeipu", restarts=1, total_budget=MEMO_BUDGET),
            memo=True,
        ),
    )
}


def trace_seeds(seed: int):
    """Tuning seeds of one run: the quality seeds, then an endless stream
    derived from the run's ``--seed``."""
    yield from QUALITY_SEEDS
    j = 0
    while True:
        yield int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
        j += 1


@dataclass
class TraceRun:
    seed: int
    trace: RunTrace
    step_s: list[float] = field(default_factory=list)
    failed: int = 0

    def summary(self) -> "Summary":
        rows = self.trace.rows
        return Summary(
            seed=self.seed,
            step_s=self.step_s,
            failed=self.failed,
            iters=len(self.trace.post_warmup_rows()),
            regret=oracle.optimum(self.trace.pipeline_name) - self.trace.best_y,
            rows=len(rows),
            memo_rows=sum(row.delta > 0 for row in rows),
        )


@dataclass(frozen=True)
class Summary:
    """What a run keeps of a checked trace, so that its memory does not grow
    with the number of traces."""

    seed: int
    step_s: list[float]
    failed: int
    iters: int
    regret: float
    rows: int
    memo_rows: int


def setup(workload: Workload, seed: int, cache_root: Path) -> OptState:
    """Pipeline build and warmup: everything before the first iteration."""
    config = RunConfig(seed=seed, **workload.config)
    return opt.init_state(config, synthetic_suite(workload.suite), cache_root)


@contextlib.contextmanager
def random_pick(rng: np.random.Generator):
    """synth10-memo's stand-in for fit and scoring: no models, and seeded
    random scores, so that with one restart ``optimizer.step`` picks a
    random candidate of ``generate``'s batch.  Everything else in the step,
    evaluation and pool upkeep included, is the tuning loop's own."""
    fit, score = opt._fit_models, opt.score_candidates
    opt._fit_models = lambda state, iteration: None
    opt.score_candidates = lambda method, models, space, xs, *rest: rng.random(len(xs))
    try:
        yield
    finally:
        opt._fit_models, opt.score_candidates = fit, score


class Trace:
    """One tuning trace, advanced a step at a time: warmup on creation, then
    ``step()`` until ``done``.  A step that raises a pipetune error ends the
    trace and counts as failed."""

    def __init__(self, workload: Workload, seed: int, cache_root: Path):
        self.workload = workload
        self.state = setup(workload, seed, cache_root)
        self.rng = np.random.default_rng([seed, _TAG_PICK])
        self.result = TraceRun(
            seed=seed,
            trace=RunTrace(
                pipeline_name=self.state.pipeline.name,
                config=self.state.config.to_dict(),
                total_budget=self.state.total_budget,
                rows=self.state.rows,
            ),
        )

    @property
    def done(self) -> bool:
        return bool(self.result.failed) or self.state.consumed >= self.state.total_budget

    def step(self) -> None:
        stubs = random_pick(self.rng) if self.workload.memo else contextlib.nullcontext()
        with stubs:
            started = time.perf_counter()
            try:
                opt.step(self.state)
            except PipetuneError:
                self.result.failed = 1
                return
            self.result.step_s.append(time.perf_counter() - started)


def run_trace(workload: Workload, seed: int, cache_root: Path, after_step=None) -> TraceRun:
    """Warmup, then timed steps until the budget is spent; ``after_step``
    is called with each step's seconds, outside the timed region."""
    trace = Trace(workload, seed, cache_root)
    while not trace.done:
        trace.step()
        if after_step is not None and not trace.done:
            after_step(trace.result.step_s[-1])
    return trace.result


def check(workload: Workload, run: TraceRun, csv_path: Path) -> list[str]:
    """Persist the trace as the CLI would, read it back and check the rows
    against the oracle.  The rows of a trace that ended in a failed step
    are checked too, as a trace that has not reached its budget."""
    opt.write_trace(run.trace, csv_path)
    parsed = opt.read_trace(csv_path)
    errors = oracle.check_trace(
        workload.suite,
        parsed.rows,
        workload.config["n0"],
        workload.config["total_budget"],
        complete=not run.failed,
    )
    return [f"{workload.name} seed {run.seed}: {e}" for e in errors]


def quality(runs: list[Summary]) -> tuple[float, float]:
    """(iters, regret): medians over the quality seeds' traces."""
    panel = runs[: len(QUALITY_SEEDS)]
    return statistics.median(r.iters for r in panel), statistics.median(r.regret for r in panel)
