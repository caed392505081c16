"""Candidate scoring: expected improvement times the cooled Monte-Carlo
expected inverse cost E[1/C], with memoized stages costed at epsilon.

Tuning methods differ only in data, kept in ``METHODS``: which cost
segments they model with log-cost GPs, and whether they cool the cost
term. A segment is a run of consecutive stages under one model; its
draws are exponentiated Gaussians, and a total-cost draw is the sum of
the segments' draws.

Scoring is pure; the optimizer loop owns every piece of state (budget,
cooling factor, models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from . import gp
from .candidates import SearchSpace
from .errors import InvalidArgumentError, NumericalFailureError

ETA_SCHEDULES = ("budget", "constant", "exp_decay")

EXP_DECAY_FACTOR = 0.9

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Segment:
    """Stages ``first``..``last`` (1-based, inclusive) under one log-cost
    model. Its fit seed and Monte-Carlo generator use index ``first - 1``."""

    first: int
    last: int

    @property
    def index(self) -> int:
        return self.first - 1

    def columns(self, space: SearchSpace) -> slice:
        return slice(space.prefix_width(self.first - 1), space.prefix_width(self.last))

    def cost(self, stage_costs: Sequence[float]) -> float:
        return sum(stage_costs[self.first - 1 : self.last])


@dataclass(frozen=True)
class Method:
    """A tuning method as data. ``cost_segments`` is ``"none"`` (cost
    blind), ``"total"`` (one model of the whole pipeline's cost) or
    ``"stages"`` (one model per stage, which makes the method memo aware:
    it keeps a prefix pool and costs cached stages at epsilon)."""

    cost_segments: str
    cools: bool

    @property
    def memo_aware(self) -> bool:
        return self.cost_segments == "stages"

    def segments(self, n_stages: int) -> tuple[Segment, ...]:
        if self.cost_segments == "stages":
            return tuple(Segment(k, k) for k in range(1, n_stages + 1))
        if self.cost_segments == "total":
            return (Segment(1, n_stages),)
        return ()


METHODS = {
    "eeipu": Method(cost_segments="stages", cools=True),
    "ei": Method(cost_segments="none", cools=False),
    # EI per unit cost is CArBO's score with the exponent held at 1
    "eips": Method(cost_segments="total", cools=False),
    "carbo": Method(cost_segments="total", cools=True),
}


@dataclass(frozen=True)
class ModelSet:
    """Fitted surrogates for one iteration: the objective model plus one
    log-cost model per cost segment of the method, in segment order."""

    objective: gp.GPModel
    costs: tuple[gp.GPModel, ...] = ()


def cooling_eta(schedule: str, total_budget: float, consumed: float, eta: float) -> float:
    """Next cooling factor under the given schedule, from the budget in cost
    units and the previous factor ``eta``.

    ``budget``   : remaining / total, clamped at 0 on overshoot.
    ``constant`` : always 1.
    ``exp_decay``: 0.9 times the previous value.
    """
    if not total_budget > 0.0:
        raise InvalidArgumentError("total_budget must be positive")
    if consumed < 0.0:
        raise InvalidArgumentError("consumed must be nonnegative")
    if schedule == "budget":
        return max(0.0, (total_budget - consumed) / total_budget)
    if schedule == "constant":
        return 1.0
    if schedule == "exp_decay":
        return EXP_DECAY_FACTOR * eta
    raise InvalidArgumentError(f"unknown eta schedule: {schedule!r}")


def expected_improvement_batch(
    mean: np.ndarray, variance: np.ndarray, f_best: float
) -> np.ndarray:
    """Closed-form EI of Gaussian beliefs over a maximization target:
    ``sigma * (z * Phi(z) + phi(z))`` with ``z = (mu - f_best) / sigma``,
    and ``max(0, mu - f_best)`` where sigma is zero."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.asarray(variance, dtype=float))
    out = np.maximum(mean - f_best, 0.0)
    pos = sigma > 0.0
    if np.any(pos):
        z = (mean[pos] - f_best) / sigma[pos]
        phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        out[pos] = sigma[pos] * (z * ndtr(z) + phi)
    return out


def expected_inverse_cost(cost_draws: Iterable[np.ndarray]) -> np.ndarray:
    """Monte-Carlo E[1 / C] over the last axis.

    ``cost_draws`` yields one array of cost draws per segment, all of one
    shape; each total-cost draw is their sum, taken in order from 0.0.
    """
    totals = 0.0
    for draws in cost_draws:
        totals += draws
    if not np.all(totals > 0.0):
        raise NumericalFailureError("nonpositive sampled total cost")
    return np.mean(np.divide(1.0, totals, out=totals), axis=-1)


def _segment_draws(
    model: gp.GPModel,
    xn: np.ndarray,
    memoized: np.ndarray,
    epsilon: float,
    n_mc: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Candidates x n_mc cost draws from a log-cost posterior; memoized
    candidates cost epsilon in every draw.

    ``rng`` is consumed by this call alone, so normals are drawn only for
    the rows up to the last one not memoized (n_read rows): they are the
    leading values of the full (candidates, n_mc) block, and the generator
    advances by n_read x n_mc normals, none when every row is memoized.
    Those rows become log costs in place, and only the live ones are
    exponentiated. The posterior still covers the whole batch: on a subset
    of rows the mean's matrix product rounds differently in its last bits,
    which would move scores and traces."""
    mu, var = gp.posterior_mean_var(model, xn)
    live = ~memoized
    n_read = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 0
    draws = np.empty((len(mu), n_mc))
    read = draws[:n_read]
    rng.standard_normal(out=read)
    read *= np.sqrt(var[:n_read])[:, None]
    read += mu[:n_read, None]
    np.exp(read, out=read, where=live[:n_read, None])
    draws[memoized] = epsilon
    return draws


def score_candidates(
    method: str,
    models: ModelSet,
    space: SearchSpace,
    xs: np.ndarray,
    deltas: np.ndarray,
    f_best: float,
    eta: float,
    epsilon: float,
    n_mc: int,
    mc_rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Acquisition scores ``EI * E[1/C]^eta`` for a batch of raw candidates.

    ``mc_rngs`` holds one generator per cost segment, each consumed by
    this call alone: a segment draws normals only up to its last candidate
    that is not memoized. A candidate with a memoized prefix of length
    delta costs epsilon in every segment that ends at or before stage
    delta. Every posterior, of the objective and of the costs, is computed
    on the whole batch, so a candidate's score does not depend on which
    other candidates are memoized. A cost-blind method scores plain EI.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    xn = space.normalize(xs)
    mean, var = gp.posterior_mean_var(models.objective, xn)
    ei = expected_improvement_batch(mean, var, f_best)
    segments = METHODS[method].segments(space.n_stages)
    if not segments:
        return ei
    deltas = np.asarray(deltas)
    draws = (
        _segment_draws(
            model, xn[:, seg.columns(space)], deltas >= seg.last, epsilon, n_mc, rng
        )
        for seg, model, rng in zip(segments, models.costs, mc_rngs, strict=True)
    )
    return ei * np.power(expected_inverse_cost(draws), eta)
