"""Multi-stage pipeline abstraction: synthetic benchmark pipelines with
analytic per-stage objectives and costs, a generic external-command stage
adapter, and memoization-aware execution that skips cached prefixes.

The total objective of a synthetic pipeline is the sum of per-stage
functions, maximized; classical minimization benchmarks are negated.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import shlex
import signal
import struct
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .cache import PrefixPool, StageOutputStore, lookup
from .candidates import SearchSpace
from .errors import (
    InvalidArgumentError,
    ProtocolError,
    StageExecutionError,
    StorageError,
)
from .floats import is_integer, is_real, ordered_sum

logger = logging.getLogger("pipetune.pipeline")

# objective noise: y = f(x) + N(0, 1e-6), keyed by x for reproducibility
NOISE_STD = 1e-3

# wall-clock costs are clamped to stay strictly positive
MIN_WALL_COST = 1e-9

_PARTIAL = struct.Struct(">d")


# ---------------------------------------------------------------------------
# benchmark stage objectives (classical closed forms)

def branin(x: np.ndarray) -> float:
    """Branin function, minimization form; min 0.397887 at (pi, 2.275)."""
    x1, x2 = float(x[0]), float(x[1])
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1 * x1 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


_HARTMANN3_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMANN3_P = 1e-4 * np.array(
    [
        [3689.0, 1170.0, 2673.0],
        [4699.0, 4387.0, 7470.0],
        [1091.0, 8732.0, 5547.0],
        [381.0, 5743.0, 8828.0],
    ]
)


def hartmann3(x: np.ndarray) -> float:
    """Hartmann 3-D, minimization form; min -3.86278 inside the unit cube."""
    x = np.asarray(x, dtype=float)
    inner = np.sum(_HARTMANN3_A * (x[None, :] - _HARTMANN3_P) ** 2, axis=1)
    return float(-np.sum(_HARTMANN3_ALPHA * np.exp(-inner)))


def beale(x: np.ndarray) -> float:
    """Beale function, minimization form; min 0 at (3, 0.5)."""
    x1, x2 = float(x[0]), float(x[1])
    return (
        (1.5 - x1 + x1 * x2) ** 2
        + (2.25 - x1 + x1 * x2 * x2) ** 2
        + (2.625 - x1 + x1 * x2**3) ** 2
    )


def ackley(x: np.ndarray) -> float:
    """Ackley function (any dim), minimization form; min 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.size
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt(np.sum(x * x) / d))
        - math.exp(np.sum(np.cos(2.0 * math.pi * x)) / d)
        + 20.0
        + math.e
    )


def michalewicz(x: np.ndarray) -> float:
    """Michalewicz function in its sine-product form, maximization form
    (peak about 1.8013 for 2-D on [0, pi]^2)."""
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1)
    return float(np.sum(np.sin(x) * np.sin(i * x * x / math.pi) ** 20))


@dataclass(frozen=True)
class BenchmarkFunction:
    """A classical test function plus its domain and the sign that turns it
    into a maximization stage objective (-1 negates minimization forms)."""

    name: str
    fn: Callable[[np.ndarray], float]
    dim: int
    bounds: tuple[tuple[float, float], ...]
    sign: float

    def stage_objective(self, x: np.ndarray) -> float:
        return self.sign * self.fn(x)


BENCHMARKS: dict[str, BenchmarkFunction] = {
    b.name: b
    for b in (
        BenchmarkFunction("branin2", branin, 2, ((-5.0, 10.0), (0.0, 15.0)), -1.0),
        BenchmarkFunction("hartmann3", hartmann3, 3, ((0.0, 1.0),) * 3, -1.0),
        BenchmarkFunction("beale2", beale, 2, ((-4.5, 4.5),) * 2, -1.0),
        BenchmarkFunction("ackley3", ackley, 3, ((-32.768, 32.768),) * 3, -1.0),
        BenchmarkFunction("michalewicz2", michalewicz, 2, ((0.0, math.pi),) * 2, 1.0),
    )
}


def default_stage_cost(x: np.ndarray) -> float:
    """Synthetic per-stage cost: cosine + quadratic + logistic components on
    the raw stage values, strictly positive (floor 0.1), with an uneven
    landscape of cheap and expensive regions."""
    x = np.asarray(x, dtype=float)
    s = float(np.sum(x))
    q = float(np.sum(x * x))
    c = 2.0 + math.cos(s) + 0.1 * q / x.size + 3.0 / (1.0 + math.exp(-s))
    return max(c, 0.1)


# ---------------------------------------------------------------------------
# pipeline domain types

@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage, given as exactly one of a synthetic
    ``objective_fn`` (costed by ``default_stage_cost``) and an external
    ``command`` template with {x1}..{xn}, {input}, {output} slots."""

    name: str
    dim: int
    bounds: tuple[tuple[float, float], ...]
    objective_fn: Optional[Callable[[np.ndarray], float]] = None
    command: Optional[str] = None
    timeout: float = 300.0

    def __post_init__(self):
        if not (is_integer(self.dim) and self.dim >= 1):
            raise InvalidArgumentError(f"stage dim must be an integer >= 1, got {self.dim!r}")
        if len(self.bounds) != self.dim:
            raise InvalidArgumentError("bounds count must match stage dim")
        if any(not -math.inf < lo < hi < math.inf for lo, hi in self.bounds):
            raise InvalidArgumentError(f"require finite lo < hi per bound, got {self.bounds!r}")
        if not (is_real(self.timeout) and 0.0 < self.timeout < math.inf):
            raise InvalidArgumentError(f"timeout must be finite seconds > 0, got {self.timeout!r}")
        if (self.objective_fn is None) == (self.command is None):
            raise InvalidArgumentError("a stage needs exactly one of objective_fn and command")
        if not (self.command is None or isinstance(self.command, str) and self.command.strip()):
            raise InvalidArgumentError(f"stage needs a command string, got {self.command!r}")

    @property
    def kind(self) -> str:
        return "external" if self.objective_fn is None else "synthetic"


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    stages: tuple[StageSpec, ...]
    noise_std: float = NOISE_STD

    def __post_init__(self):
        if not self.stages:
            raise InvalidArgumentError("pipeline needs at least one stage")
        noise = self.noise_std
        if not (is_real(noise) and 0.0 <= noise < math.inf):
            raise InvalidArgumentError(f"noise_std must be a finite number >= 0, got {noise!r}")
        kinds = sorted({s.kind for s in self.stages})
        if len(kinds) > 1:
            # each stage reads the payload of the one before, and the kinds' differ
            raise InvalidArgumentError(
                f"pipeline {self.name!r} mixes stage kinds {kinds}; "
                "a pipeline's stages must all be synthetic or all external"
            )
        lower = [lo for s in self.stages for lo, _ in s.bounds]
        upper = [hi for s in self.stages for _, hi in s.bounds]
        object.__setattr__(self, "_space", SearchSpace(self.stage_dims, lower, upper))

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.stages)

    def search_space(self) -> SearchSpace:
        """The spec's one search space, built with it; its bounds are
        read-only."""
        return self._space


@dataclass(frozen=True)
class Observation:
    """One full pipeline evaluation: ``x`` becomes a tuple of Python floats
    once, here, and the pool, the store and the trace row slice it.
    Memoized stages carry cost 0.0 (they consumed nothing); the acquisition
    layer models them as epsilon. ``outputs`` holds the (depth, payload) of
    each executed stage at a pool depth, for the store to keep if the pool
    admits that prefix."""

    x: tuple[float, ...]
    y: float
    stage_costs: tuple[float, ...]
    memo_delta: int
    outputs: tuple[tuple[int, bytes], ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(np.asarray(self.x, dtype=float).tolist()))

    @property
    def executed_cost(self) -> float:
        return float(ordered_sum(self.stage_costs))


# ---------------------------------------------------------------------------
# execution

def _keyed_noise(x: np.ndarray, std: float) -> float:
    """Gaussian noise draw keyed by the bytes of x, so re-evaluating the
    same configuration (memoized or not) reproduces an identical y."""
    if std == 0.0:
        return 0.0
    digest = hashlib.sha256(np.asarray(x, dtype=float).tobytes()).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
    return std * float(rng.standard_normal())


def _substitute(template: str, stage_x: np.ndarray, input_path: str, output_path: str) -> str:
    text = template
    for i, v in enumerate(stage_x, start=1):
        text = text.replace(f"{{x{i}}}", repr(float(v)))
    return text.replace("{input}", input_path).replace("{output}", output_path)


def _run_stage(
    stage: StageSpec, stage_index: int, stage_x: np.ndarray, payload: bytes
) -> tuple[bytes, float, str]:
    """Execute one stage on the payload the previous stage left; returns
    (output payload, cost, stdout text), the stdout ending in the
    'objective=<float>' line that the last stage must print.

    A synthetic stage's payload is the running objective sum, packed, which
    it also prints; its cost is ``default_stage_cost``. An external stage
    runs in a fresh working directory of its own, so it sees nothing of the
    stages before it but the payload at {input}; it leaves its output at
    {output} (its stdout when it writes none), and its cost is its wall time.
    """
    if stage.kind == "synthetic":
        carry = (_PARTIAL.unpack(payload)[0] if payload else 0.0) + stage.objective_fn(stage_x)
        return _PARTIAL.pack(carry), default_stage_cost(stage_x), f"objective={float(carry)!r}"
    with tempfile.TemporaryDirectory(prefix="pipetune_stage_") as tmp:
        workdir = Path(tmp)
        input_path = workdir / f"stage_{stage_index}_input"
        output_path = workdir / f"stage_{stage_index}_output"
        input_path.write_bytes(payload)
        command = _substitute(stage.command, stage_x, str(input_path), str(output_path))
        argv = shlex.split(command)
        start = time.perf_counter()
        try:
            # its own session, so that a timeout can kill all the stage started
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=workdir,
                start_new_session=True,
            )
        except OSError as exc:
            raise StageExecutionError(f"command failed to start: {exc}", stage_index)
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=stage.timeout)
            except BaseException as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                raise StageExecutionError(
                    f"command timed out after {stage.timeout}s",
                    stage_index,
                    # the output read so far, as bytes even in text mode
                    output=(exc.stdout or b"").decode(errors="replace"),
                )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise StageExecutionError(
                f"command exited with status {proc.returncode}",
                stage_index,
                output=stdout + stderr,
            )
        payload = output_path.read_bytes() if output_path.exists() else stdout.encode()
    return payload, max(elapsed, MIN_WALL_COST), stdout


def _parse_objective(stdout: str, stage_index: int) -> float:
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ProtocolError(f"stage {stage_index} produced no output to parse")
    last = lines[-1]
    if not last.startswith("objective="):
        raise ProtocolError(
            f"stage {stage_index} last line {last!r} is not 'objective=<float>'"
        )
    try:
        value = float(last.removeprefix("objective="))
    except ValueError:
        raise ProtocolError(f"stage {stage_index} objective value unparseable: {last!r}")
    if not math.isfinite(value):
        raise ProtocolError(f"stage {stage_index} objective is not finite: {last!r}")
    return value


def run(
    spec: PipelineSpec,
    x: np.ndarray,
    pool: PrefixPool,
    cache: StageOutputStore,
) -> Observation:
    """Evaluate x end to end, skipping the longest cached prefix.

    Stages 1..delta are served from the cache (cost 0.0); stages delta+1..K
    execute. A stored output that no longer resolves is skipped for the
    next shallower pool depth. Nothing is written here: the executed
    stages' outputs at the pool's depths, the only ones a lookup resolves,
    are returned in ``Observation.outputs``; ``StageOutputStore.commit``
    stores those the pool admits (rewriting a damaged blob it points at).
    """
    x = np.asarray(x, dtype=float)
    space = spec.search_space()
    if x.shape != (space.dim,):
        raise InvalidArgumentError(f"x must have shape ({space.dim},)")
    if not space.contains(x):
        raise InvalidArgumentError("x outside pipeline bounds")

    hit = lookup(pool, x)
    # every pool depth up to the hit's is a cached prefix of x too: a
    # damaged blob falls back to the deepest one that still resolves
    delta, payload = 0, b""
    for depth in (d for d in reversed(pool.deltas) if d <= hit.delta):
        try:
            payload = cache.resolve(depth, x[: space.prefix_width(depth)])
        except StorageError as exc:
            logger.warning("cache resolution failed (%s); trying a shorter prefix", exc)
        else:
            delta = depth
            break

    k_total = spec.n_stages
    stage_costs = [0.0] * k_total
    outputs = []
    for k in range(delta + 1, k_total + 1):
        payload, stage_costs[k - 1], stdout = _run_stage(
            spec.stages[k - 1], k, x[space.stage_slice(k)], payload
        )
        if k in pool.deltas:
            outputs.append((k, payload))
    y = _parse_objective(stdout, k_total) + _keyed_noise(x, spec.noise_std)

    return Observation(
        x=x,
        y=float(y),
        stage_costs=tuple(stage_costs),
        memo_delta=delta,
        outputs=tuple(outputs),
    )


# ---------------------------------------------------------------------------
# synthetic suites and pipeline definition files

_SUITE_ORDER = ("branin2", "hartmann3", "beale2", "ackley3", "michalewicz2")

SYNTHETIC_SUITES = {
    "synth3": ("branin2", "hartmann3", "michalewicz2"),
    "synth5": _SUITE_ORDER,
    "synth10": _SUITE_ORDER * 2,
}


def _benchmark_stage(name: str, bench: BenchmarkFunction) -> StageSpec:
    return StageSpec(name, bench.dim, bench.bounds, objective_fn=bench.stage_objective)


def synthetic_suite(name: str) -> PipelineSpec:
    """The 3-, 5-, and 10-stage synthetic benchmark pipelines (benchmark
    functions cycled in a fixed order, every stage using the default cost)."""
    if name not in SYNTHETIC_SUITES:
        raise InvalidArgumentError(f"unknown synthetic suite: {name!r}")
    stages = tuple(
        _benchmark_stage(f"s{k}_{bench_name}", BENCHMARKS[bench_name])
        for k, bench_name in enumerate(SYNTHETIC_SUITES[name], start=1)
    )
    return PipelineSpec(name=name, stages=stages)


def _file_stage(k: int, item: dict) -> StageSpec:
    """Stage k of a pipeline definition file."""
    kind = item.get("kind", "external")
    if kind == "synthetic":
        bench = BENCHMARKS.get(item.get("function", ""))
        if bench is None:
            raise InvalidArgumentError(f"unknown benchmark {item.get('function')!r}")
        return _benchmark_stage(item.get("name", f"s{k}_{bench.name}"), bench)
    if kind != "external":
        raise InvalidArgumentError(f"unknown stage kind: {kind!r}")
    bounds = [(lo, hi) for lo, hi in item["bounds"]]
    if not all(is_real(bound) for pair in bounds for bound in pair):
        raise InvalidArgumentError(f"bounds must be pairs of numbers, got {item['bounds']!r}")
    return StageSpec(
        name=item.get("name", f"s{k}"),
        dim=item["dim"],
        bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
        command=item["command"],
        timeout=item.get("timeout", 300.0),
    )


def load_pipeline_file(path: str | Path) -> PipelineSpec:
    """Build a PipelineSpec from a JSON definition.

    Schema: {"name": str, "noise_std": float, "stages": [{"kind":
    "external", "dim": int, "bounds": [[lo, hi]..], "command": str,
    "timeout": float} | {"kind": "synthetic", "function": benchmark name}]}.
    A file that does not match it is refused before any stage runs.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"cannot load pipeline file {path}: {exc}")
    if not (isinstance(doc, dict) and isinstance(doc.get("stages", []), list)):
        raise InvalidArgumentError(f"pipeline file {path} is not an object with a stage list")

    stages = []
    for k, item in enumerate(doc.get("stages", []), start=1):
        try:
            stages.append(_file_stage(k, item))
        except KeyError as exc:
            raise InvalidArgumentError(f"pipeline file {path}, stage {k}: no {exc} given")
        except (AttributeError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"pipeline file {path}, stage {k}: {exc}")
    if not stages:
        raise InvalidArgumentError(f"pipeline file {path} defines no stages")
    return PipelineSpec(
        name=doc.get("name", path.stem),
        stages=tuple(stages),
        noise_std=doc.get("noise_std", NOISE_STD if stages[0].kind == "synthetic" else 0.0),
    )
