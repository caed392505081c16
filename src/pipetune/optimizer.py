"""Budget-constrained tuning loop: seeded warmup, per-iteration GP fits
(objective plus one log-cost model per cost segment), prefix-aware
candidate generation, scoring, and trace persistence.

Methods are rows of ``acquisition.METHODS``: ``eeipu`` (per-stage cost
models, memoization aware), ``ei`` (cost-blind) and ``carbo`` (one
total-cost model). Eta is cooled exactly when a method has cost segments.

Every random draw is derived from (seed, purpose tag, iteration, ...)
via SeedSequence, so warmup points and candidate batches are identical
across methods for the same seed, and reruns are bit-reproducible.
"""

from __future__ import annotations

import json
import logging
import math
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import gp
from .acquisition import ETA_SCHEDULES, METHODS, ModelSet, cooling_eta, score_candidates
from .cache import PREFIX_POLICIES, PrefixPool, StageOutputStore, update_pool
from .candidates import SearchSpace, generate, scrambled_halton
from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NumericalFailureError,
    TraceParseError,
)
from .floats import is_integer, is_real
from .pipeline import Observation, PipelineSpec
from .pipeline import run as run_pipeline

logger = logging.getLogger("pipetune.optimizer")

# purpose tags for seed derivation (entropy = [seed, tag, ...])
_TAG_WARMUP = 101
_TAG_FIT = 102
_TAG_CAND = 103
_TAG_MC = 104

# model index used in fit-seed derivation for the objective model; cost
# models use their segment's index (first stage - 1), so a 1-stage
# pipeline's stage model and a total-cost model derive identical seeds
_OBJECTIVE_MODEL_INDEX = 10_000

_FLOAT_FMT = "{:.17g}"


def _seed_sequence(seed: int, tags: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence([seed, *tags])``, handed the uint32 words numpy would
    split each int into (little-endian, 0 as one word), which it reads
    several times faster than a list of Python ints. A negative value has
    no such split and is refused."""
    words = []
    for value in (int(seed), *map(int, tags)):
        if value < 0:
            raise InvalidArgumentError(f"seed and tags must be nonnegative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for one (seed, purpose, ...) combination."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, tags)))


def derived_int(seed: int, *tags: int) -> int:
    """Stable 32-bit integer seed for APIs that take a plain int."""
    return int(_seed_sequence(seed, tags).generate_state(1)[0])


@dataclass
class RunConfig:
    """Resolved knobs for one tuning run."""

    method: str = "eeipu"
    n0: int = 10
    m: int = 512
    n_mc: int = 1000
    restarts: int = 10
    q: int = 5
    epsilon: float = 0.01
    eta_schedule: str = "budget"
    prefix_policy: str = "all"
    total_budget: float | str = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidArgumentError(f"unknown method: {self.method!r}")
        for name in ("n0", "m", "n_mc", "restarts", "q", "seed"):
            if not is_integer(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be an integer")
        if self.n0 < 2:
            raise InvalidArgumentError("n0 must be >= 2")
        if self.m < 1 or self.n_mc < 1 or self.restarts < 1:
            raise InvalidArgumentError("m, n_mc, and restarts must be >= 1")
        if self.q < 0:
            raise InvalidArgumentError("q must be >= 0")
        if not (is_real(self.epsilon) and 0.0 < self.epsilon < math.inf):
            raise InvalidArgumentError("epsilon must be a positive finite number")
        if self.eta_schedule not in ETA_SCHEDULES:
            raise InvalidArgumentError(f"unknown eta schedule: {self.eta_schedule!r}")
        if self.prefix_policy not in PREFIX_POLICIES:
            raise InvalidArgumentError(f"unknown prefix policy: {self.prefix_policy!r}")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be nonnegative")
        budget = self.total_budget
        if budget != "auto" and not (is_real(budget) and 0.0 < budget < math.inf):
            raise InvalidArgumentError("total_budget must be a positive finite number, or 'auto'")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TraceRow:
    """One evaluated configuration; warmup rows carry eta=1 and score=0."""

    iteration: int
    delta: int
    eta: float
    consumed: float
    y: float
    best_y: float
    score: float
    stage_costs: tuple[float, ...]
    x: tuple[float, ...]


@dataclass
class RunTrace:
    pipeline_name: str
    config: dict
    total_budget: float
    rows: list[TraceRow]

    @property
    def best_y(self) -> float:
        return self.rows[-1].best_y if self.rows else float("-inf")

    @property
    def consumed(self) -> float:
        return self.rows[-1].consumed if self.rows else 0.0

    def post_warmup_rows(self) -> list[TraceRow]:
        return [r for r in self.rows if r.iteration > self.config["n0"]]


@dataclass
class OptState:
    """Mutable loop state owned by run()/step(); ``rows`` is its only record
    of what ran, so the budget consumed and the eta are read from it."""

    config: RunConfig
    pipeline: PipelineSpec
    store: StageOutputStore
    pool: PrefixPool
    total_budget: float
    rows: list[TraceRow]
    models: Optional[ModelSet] = None

    @property
    def consumed(self) -> float:
        return self.rows[-1].consumed if self.rows else 0.0


# ---------------------------------------------------------------------------
# model fitting

def _fit_models(state: OptState, iteration: int) -> ModelSet:
    """The objective GP, then one log-cost GP per cost segment, fitted on
    the trace rows that executed every stage of the segment."""
    cfg = state.config
    rows = state.rows
    space = state.pipeline.search_space()
    xn = space.normalize(np.array([r.x for r in rows]))
    y = np.array([r.y for r in rows])

    objective = gp.fit(
        xn, y, derived_int(cfg.seed, _TAG_FIT, iteration, _OBJECTIVE_MODEL_INDEX)
    )
    costs = []
    for seg in METHODS[cfg.method].segments(space.n_stages):
        executed = [i for i, r in enumerate(rows) if r.delta < seg.first]
        # math.log per row, as np.log may round differently
        log_costs = [math.log(seg.cost(rows[i].stage_costs)) for i in executed]
        seed = derived_int(cfg.seed, _TAG_FIT, iteration, seg.index)
        costs.append(gp.fit(xn[executed, seg.columns(space)], log_costs, seed))
    return ModelSet(objective=objective, costs=tuple(costs))


# ---------------------------------------------------------------------------
# loop

def empty_pool(config: RunConfig, space: SearchSpace) -> PrefixPool:
    """The pool a run of ``config`` starts with; only a memo-aware method's
    has capacity, and its ``deltas`` say what it caches. A config whose ``m``
    is below the candidate groups that pool gives when full is refused."""
    capacity = config.q if METHODS[config.method].memo_aware else 0
    pool = PrefixPool(space.stage_dims, capacity, config.prefix_policy)
    groups = 1 + capacity * len(pool.deltas)
    if config.m < groups:
        raise InvalidArgumentError(
            f"m={config.m} is below the {groups} candidate groups that a pool of "
            f"q={capacity} sources gives under prefix policy {config.prefix_policy!r}"
        )
    return pool


def init_state(config: RunConfig, pipeline: PipelineSpec, cache_root: str | Path) -> OptState:
    """Run the warmup phase and return loop state ready for step().

    Warmup points come from a scrambled low-discrepancy sequence seeded
    only by (seed, warmup tag), so every method sees the same start.

    The pool starts empty, so the store starts empty too: blobs an earlier
    run left in ``cache_root`` are deleted before warmup.
    """
    space = pipeline.search_space()
    state = OptState(
        config=config,
        pipeline=pipeline,
        pool=empty_pool(config, space),  # checked before the store is opened
        store=StageOutputStore(cache_root),
        total_budget=0.0,  # resolved after warmup
        rows=[],
    )

    state.store.clear()
    design = scrambled_halton(space.dim, config.n0, derived_int(config.seed, _TAG_WARMUP))
    for x in space.lower + design * (space.upper - space.lower):
        _evaluate(state, x, 0.0, 1.0)

    if config.total_budget == "auto":
        state.total_budget = 5.0 * state.consumed
    else:
        state.total_budget = float(config.total_budget)
    if not state.total_budget > 0.0:
        raise InvalidArgumentError("resolved total_budget must be positive")
    return state


def _evaluate(state: OptState, x: np.ndarray, score: float, eta: float) -> Observation:
    """Run x, then record it: the pool update, the store's blobs for the
    new pool, and a trace row with the budget consumed and the eta applied.
    The pool is assigned last, so a failed write leaves it as it was."""
    obs = run_pipeline(state.pipeline, x, state.pool, state.store)
    after = update_pool(state.pool, obs)
    state.store.commit(state.pool, after, obs)
    state.pool = after
    best = state.rows[-1].best_y if state.rows else float("-inf")
    state.rows.append(
        TraceRow(
            iteration=len(state.rows) + 1,
            delta=obs.memo_delta,
            eta=eta,
            consumed=state.consumed + obs.executed_cost,
            y=obs.y,
            best_y=max(best, obs.y),
            score=score,
            stage_costs=obs.stage_costs,
            x=obs.x,
        )
    )
    return obs


def step(state: OptState) -> Observation:
    """One model-guided iteration: fit, generate, score, evaluate, update;
    the first candidate of top score runs. With every score 0 that is row 0
    of restart 0's batch, a uniform draw with nothing memoized."""
    cfg = state.config
    space = state.pipeline.search_space()
    iteration = len(state.rows) + 1
    segments = METHODS[cfg.method].segments(space.n_stages)

    # the trace records the exponent applied, which stays 1 without cost segments
    eta = state.rows[-1].eta
    if segments:
        eta = cooling_eta(cfg.eta_schedule, state.total_budget, state.consumed, eta)

    try:
        state.models = _fit_models(state, iteration)
    except (NumericalFailureError, InsufficientDataError) as exc:
        if state.models is None:
            raise
        logger.warning(
            "model fit failed at iteration %d (%s); reusing previous models",
            iteration,
            exc,
        )

    f_best = state.rows[-1].best_y  # the best y observed so far
    batches = [
        generate(state.pool, space, cfg.m, derived_rng(cfg.seed, _TAG_CAND, iteration, r))
        for r in range(cfg.restarts)
    ]
    xs, deltas = (np.concatenate(parts) for parts in zip(*batches))
    # one generator per (cost segment, restart), each serving one block
    mc_rngs = np.empty((len(segments), cfg.restarts), dtype=object)
    for s, r in np.ndindex(mc_rngs.shape):
        mc_rngs[s, r] = derived_rng(cfg.seed, _TAG_MC, iteration, segments[s].index, r)
    scores = score_candidates(
        cfg.method, state.models, space, xs, deltas, f_best, eta,
        cfg.epsilon, cfg.n_mc, mc_rngs,
    )
    chosen = int(np.argmax(scores))
    return _evaluate(state, xs[chosen], float(scores[chosen]), eta)


def run(
    config: RunConfig,
    pipeline: PipelineSpec,
    trace_path: Optional[str | Path] = None,
    cache_root: Optional[str | Path] = None,
) -> RunTrace:
    """Warmup then step until the budget is consumed; the iteration that
    crosses the budget completes and is recorded.

    Without ``cache_root`` the stage outputs go to a temporary directory,
    removed when the run returns or raises. The trace is written to
    trace_path once, also when a step fails: then with the rows gathered so
    far, before the error propagates.
    """
    if cache_root is None:
        with tempfile.TemporaryDirectory(prefix="pipetune_cache_") as root:
            return run(config, pipeline, trace_path, root)
    state = init_state(config, pipeline, cache_root)
    trace = RunTrace(
        pipeline_name=pipeline.name,
        config=config.to_dict(),
        total_budget=state.total_budget,
        rows=state.rows,
    )
    try:
        while state.consumed < state.total_budget:
            step(state)
    finally:
        if trace_path is not None:
            write_trace(trace, trace_path)
    return trace


# ---------------------------------------------------------------------------
# trace persistence

def trace_header(n_stages: int, dim: int) -> str:
    costs = ",".join(f"cost_s{k}" for k in range(1, n_stages + 1))
    xs = ",".join(f"x_{j}" for j in range(1, dim + 1))
    return f"iter,delta,eta,consumed,y,best_y,score,{costs},{xs}"


def write_trace(trace: RunTrace, path: str | Path) -> None:
    """CSV with a fixed header; floats at 17 significant digits so a rerun
    with the same seed is byte-identical. A JSON sidecar records the
    resolved config."""
    path = Path(path)
    if not trace.rows:
        raise InvalidArgumentError("cannot persist an empty trace")
    n_stages = len(trace.rows[0].stage_costs)
    dim = len(trace.rows[0].x)
    lines = [trace_header(n_stages, dim)]
    for r in trace.rows:
        floats = [r.eta, r.consumed, r.y, r.best_y, r.score, *r.stage_costs, *r.x]
        lines.append(
            f"{r.iteration},{r.delta}," + ",".join(_FLOAT_FMT.format(v) for v in floats)
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sidecar = {
        "pipeline": trace.pipeline_name,
        "config": trace.config,
        "resolved_total_budget": trace.total_budget,
        "n_stages": n_stages,
        "dim": dim,
    }
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_trace(path: str | Path) -> RunTrace:
    """Parse a persisted trace and its JSON sidecar back into a RunTrace;
    malformed content, or a sidecar that is missing, lacks a key, names its
    pipeline by anything but a string, holds a config that is not exactly a
    valid ``RunConfig``'s fields or disagrees with the header's stage count
    and dim, raises a parse error naming the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceParseError(f"cannot read trace: {exc}", str(path))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceParseError("empty trace file", str(path))

    header = lines[0].split(",")
    n_stages = sum(1 for c in header if c.startswith("cost_s"))
    dim = sum(1 for c in header if c.startswith("x_"))
    if not (n_stages and dim and lines[0] == trace_header(n_stages, dim)):
        raise TraceParseError(f"unexpected header: {lines[0]!r}", str(path))

    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise TraceParseError(f"row has {len(parts)} fields: {ln!r}", str(path))
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise TraceParseError(f"non-numeric field in row: {ln!r}", str(path))
        rows.append(
            TraceRow(
                iteration=int(vals[0]),
                delta=int(vals[1]),
                eta=vals[2],
                consumed=vals[3],
                y=vals[4],
                best_y=vals[5],
                score=vals[6],
                stage_costs=tuple(vals[7 : 7 + n_stages]),
                x=tuple(vals[7 + n_stages :]),
            )
        )

    sidecar_path = path.with_suffix(".json")
    try:
        doc = json.loads(sidecar_path.read_text(encoding="utf-8"))
        name, config = doc["pipeline"], doc["config"]
        total_budget = float(doc["resolved_total_budget"])
        shape = (doc["n_stages"], doc["dim"])
        if not isinstance(name, str):
            raise TypeError(f"pipeline must be a string, got {name!r}")
        if not (isinstance(config, dict) and set(config) == {f.name for f in fields(RunConfig)}):
            raise TypeError(f"config must hold exactly the fields of RunConfig, got {config!r}")
        RunConfig(**config)
    except KeyError as exc:
        raise TraceParseError(f"sidecar lacks key {exc}", str(sidecar_path))
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise TraceParseError(f"bad sidecar: {exc}", str(sidecar_path))
    if shape != (n_stages, dim):
        raise TraceParseError(
            f"sidecar n_stages, dim = {shape} but the header has {(n_stages, dim)}",
            str(sidecar_path),
        )
    return RunTrace(
        pipeline_name=name, config=config, total_budget=total_budget, rows=rows
    )
