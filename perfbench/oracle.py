"""Facts about the synthetic suites computed apart from pipetune, and the
checks every benchmark trace must pass.

The stage functions and the cost landscape are written out here from their
published definitions (Surjanovic & Bingham's test-function library, and
the cost formula documented in ``pipeline.default_stage_cost``) instead of
being imported, so a fault in the program's copies shows up as a failed
check rather than agreeing with itself.
"""

from __future__ import annotations

import math
from typing import Sequence

# objective noise standard deviation documented for the synthetic suites
NOISE_STD = 1e-3
Y_TOLERANCE = 6.0 * NOISE_STD
# tolerance for re-derived sums whose addition order may differ
REL_TOL = 1e-12


def branin(x1: float, x2: float) -> float:
    b = 5.1 / (4.0 * math.pi * math.pi)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1 * x1 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


_H3_ALPHA = (1.0, 1.2, 3.0, 3.2)
_H3_A = ((3.0, 10.0, 30.0), (0.1, 10.0, 35.0), (3.0, 10.0, 30.0), (0.1, 10.0, 35.0))
_H3_P = (
    (0.3689, 0.1170, 0.2673),
    (0.4699, 0.4387, 0.7470),
    (0.1091, 0.8732, 0.5547),
    (0.0381, 0.5743, 0.8828),
)


def hartmann3(x1: float, x2: float, x3: float) -> float:
    total = 0.0
    for alpha, a, p in zip(_H3_ALPHA, _H3_A, _H3_P):
        inner = sum(aj * (xj - pj) ** 2 for aj, xj, pj in zip(a, (x1, x2, x3), p))
        total += alpha * math.exp(-inner)
    return -total


def beale(x1: float, x2: float) -> float:
    return (
        (1.5 - x1 + x1 * x2) ** 2
        + (2.25 - x1 + x1 * x2**2) ** 2
        + (2.625 - x1 + x1 * x2**3) ** 2
    )


def ackley(*x: float) -> float:
    d = len(x)
    sq = sum(v * v for v in x) / d
    cs = sum(math.cos(2.0 * math.pi * v) for v in x) / d
    return -20.0 * math.exp(-0.2 * math.sqrt(sq)) - math.exp(cs) + 20.0 + math.e


def michalewicz(*x: float) -> float:
    """Sine-product form with steepness m = 10, as a maximization (the
    library's minimization form with its sign flipped)."""
    return sum(
        math.sin(v) * math.sin(i * v * v / math.pi) ** 20 for i, v in enumerate(x, start=1)
    )


# (stage dim, maximization-form stage objective, published optimum of that form)
_STAGES = {
    "branin2": (2, lambda x: -branin(*x), -0.397887),
    "hartmann3": (3, lambda x: -hartmann3(*x), 3.86278),
    "beale2": (2, lambda x: -beale(*x), 0.0),
    "ackley3": (3, lambda x: -ackley(*x), 0.0),
    "michalewicz2": (2, lambda x: michalewicz(*x), 1.8013),
}

SUITES = {
    "synth3": ("branin2", "hartmann3", "michalewicz2"),
    "synth10": ("branin2", "hartmann3", "beale2", "ackley3", "michalewicz2") * 2,
}


def stage_dims(suite: str) -> tuple[int, ...]:
    return tuple(_STAGES[name][0] for name in SUITES[suite])


def optimum(suite: str) -> float:
    """Known maximum of the suite's objective: the sum of the published
    stage optima (about 5.2662 for synth3 and 10.5324 for synth10)."""
    return sum(_STAGES[name][2] for name in SUITES[suite])


def stage_cost(stage_x: Sequence[float]) -> float:
    """The documented cost landscape: cosine + quadratic + logistic terms of
    the stage's raw values, floored at 0.1."""
    s = sum(stage_x)
    q = sum(v * v for v in stage_x)
    return max(2.0 + math.cos(s) + 0.1 * q / len(stage_x) + 3.0 / (1.0 + math.exp(-s)), 0.1)


def _split(suite: str, x: Sequence[float]) -> list[tuple[str, tuple[float, ...]]]:
    parts, start = [], 0
    for name in SUITES[suite]:
        dim = _STAGES[name][0]
        parts.append((name, tuple(x[start : start + dim])))
        start += dim
    return parts


def objective(suite: str, x: Sequence[float]) -> float:
    """Noise-free suite objective at x."""
    return sum(_STAGES[name][1](sx) for name, sx in _split(suite, x))


def check_trace(
    suite: str, rows, n0: int, budget: float | str, complete: bool = True
) -> list[str]:
    """Every way the trace rows disagree with the suite's closed forms or
    with the tuning loop's documented rules; empty when the trace is sound.

    ``rows`` are ``pipetune.optimizer.TraceRow``-like records; ``budget`` is
    the configured total budget, or ``"auto"`` for five times the cost of
    the ``n0`` warmup rows.  A ``complete`` trace stops at the first row
    that reaches the budget; an incomplete one (its run ended in a failed
    step) has no row that reaches it.
    """
    errors: list[str] = []
    dims = stage_dims(suite)
    widths = [sum(dims[:d]) for d in range(len(dims) + 1)]
    best_possible = optimum(suite) + Y_TOLERANCE
    seen_prefixes: list[set[tuple[float, ...]]] = [set() for _ in dims]
    consumed = 0.0
    best = -math.inf

    def fail(row, what: str) -> None:
        errors.append(f"{suite} row {row.iteration}: {what}")

    if not rows:
        return [f"{suite}: empty trace"]
    for i, row in enumerate(rows, start=1):
        x = tuple(row.x)
        if row.iteration != i:
            fail(row, f"iteration number {row.iteration}, expected {i}")
        if len(x) != widths[-1] or len(row.stage_costs) != len(dims):
            fail(row, "wrong number of coordinates or stage costs")
            continue
        f = objective(suite, x)
        if not abs(row.y - f) <= Y_TOLERANCE:
            fail(row, f"y={row.y!r} is {row.y - f:+.3g} from the closed form {f!r}")
        if not row.y <= best_possible:
            fail(row, f"y={row.y!r} exceeds the known optimum {optimum(suite)!r}")

        delta = row.delta
        if not 0 <= delta < len(dims):
            fail(row, f"delta {delta} out of range")
            continue
        if delta > 0 and x[: widths[delta]] not in seen_prefixes[delta - 1]:
            fail(row, f"delta {delta} but no earlier row shares its first {delta} stages")
        for k in range(1, len(dims)):
            seen_prefixes[k - 1].add(x[: widths[k]])

        for k, cost in enumerate(row.stage_costs, start=1):
            if k <= delta:
                if cost != 0.0:
                    fail(row, f"memoized stage {k} cost {cost!r}, expected 0")
            else:
                want = stage_cost(x[widths[k - 1] : widths[k]])
                if not math.isclose(cost, want, rel_tol=REL_TOL):
                    fail(row, f"stage {k} cost {cost!r}, landscape gives {want!r}")

        consumed += sum(row.stage_costs)
        if not math.isclose(row.consumed, consumed, rel_tol=REL_TOL):
            fail(row, f"consumed {row.consumed!r}, running sum {consumed!r}")
        best = max(best, row.y)
        if row.best_y != best:
            fail(row, f"best_y {row.best_y!r}, running max {best!r}")

        if i == n0:
            total_budget = 5.0 * consumed if budget == "auto" else float(budget)
        if i > n0 and (row.consumed >= total_budget) != (complete and i == len(rows)):
            fail(row, f"trace does not stop at the first row that reaches {total_budget!r}")
    return errors
