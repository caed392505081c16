"""Candidate scoring: expected improvement times the cooled Monte-Carlo
expected inverse cost E[1/C], with memoized stages costed at epsilon.

Tuning methods differ only in data, kept in ``METHODS``: which cost
segments they model with log-cost GPs. The cost term is cooled exactly
when a method has cost segments; EI per second is ``carbo`` under the
``constant`` eta schedule. A segment is a run of consecutive stages under
one model; its draws are exponentiated Gaussians in antithetic pairs,
exp(mu + sd z) and exp(mu - sd z), so each (segment, block) generator
advances by ceil(n_mc / 2) normals per row it reads, and a total-cost
draw is the sum of the segments' draws. EI's normal CDF is libm's erfc,
element by element.

Scoring is pure; the optimizer loop owns every piece of state (budget,
cooling factor, models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gp
from .candidates import SearchSpace
from .errors import InvalidArgumentError, NumericalFailureError
from .floats import ordered_sum

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
        return ordered_sum(stage_costs[self.first - 1 : self.last])


@dataclass(frozen=True)
class Method:
    """A tuning method as data. ``cost_segments`` is ``"none"`` (cost
    blind), ``"total"`` (one model of the whole pipeline's cost) or
    ``"stages"`` (one model per stage, which makes the method memo aware:
    it keeps a prefix pool and costs cached stages at epsilon)."""

    cost_segments: str

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
    "eeipu": Method(cost_segments="stages"),
    "ei": Method(cost_segments="none"),
    "carbo": Method(cost_segments="total"),
}


@dataclass(frozen=True)
class ModelSet:
    """Fitted surrogates for one iteration: the objective model plus one
    log-cost model per cost segment of the method, in segment order."""

    objective: gp.GPModel
    costs: tuple[gp.GPModel, ...]


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


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array, ``0.5 * erfc(-a / sqrt(2))`` with
    libm's erfc (``math.erfc``) element by element. It agrees with
    ``scipy.special.ndtr`` to 2e-13 relative out to |a| = 20; further out
    both amplify the rounding of a / sqrt(2), by about a^2."""
    w = np.asarray(a, dtype=float) / -math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(t) for t in w.tolist()])


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
        out[pos] = sigma[pos] * (z * _ndtr(z) + phi)
    return out


def expected_inverse_cost(totals: np.ndarray) -> np.ndarray:
    """Monte-Carlo E[1 / C] over the last axis of total-cost draws, which
    it overwrites with their reciprocals; a nonpositive draw is refused."""
    if not np.all(totals > 0.0):
        raise NumericalFailureError("nonpositive sampled total cost")
    return np.mean(np.divide(1.0, totals, out=totals), axis=-1)


def _segment_draws(
    model: gp.GPModel,
    xn: np.ndarray,
    memoized: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    normals: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fills ``out``, a (candidates, n_mc) buffer whose old contents are
    never read, with cost draws from a log-cost posterior, and returns it;
    memoized candidates cost epsilon in every draw.

    The draws come in antithetic pairs. ``normals`` is a (candidates,
    ceil(n_mc / 2)) scratch buffer: row i draws its normals z there, and
    its n_mc costs are exp(mu_i + sd_i z) for every z, followed by
    exp(mu_i - sd_i z) for the first floor(n_mc / 2) of them, so with odd
    n_mc the last normal of a row goes unpaired. ``rng`` is consumed by
    this call alone, so normals are drawn only for the rows up to the last
    one not memoized (n_read rows): they are the leading values of the
    full (candidates, ceil(n_mc / 2)) block, and the generator advances by
    n_read x ceil(n_mc / 2) normals, none when every row is memoized.
    Those rows are exponentiated whole without a mask (a masked exp is
    slower); then every memoized row is set to epsilon. The posterior
    still covers all of ``xn``: on a subset of rows the mean's matrix
    product rounds differently in its last bits, which would move scores
    and traces."""
    mu, var = gp.posterior_mean_var(model, xn)
    live = ~memoized
    n_read = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 0
    half = normals.shape[1]
    z, read, mu = normals[:n_read], out[:n_read], mu[:n_read, None]
    rng.standard_normal(out=z)
    z *= np.sqrt(var[:n_read])[:, None]
    np.add(z, mu, out=read[:, :half])
    np.subtract(mu, z[:, : out.shape[1] - half], out=read[:, half:])
    np.exp(read, out=read)
    out[memoized] = epsilon
    return out


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
    mc_rngs: np.ndarray,
) -> np.ndarray:
    """Acquisition scores ``EI * E[1/C]^eta`` for a batch of raw candidates.

    ``mc_rngs`` is a (cost segments x blocks) object array of generators:
    the batch is that many equal blocks of rows (one per restart of a
    step), and generator (s, b) is consumed by this call alone, drawing
    segment s's normals for block b only up to its last candidate that is
    not memoized. A candidate with a memoized prefix of length delta costs
    epsilon in every segment that ends at or before stage delta. Every
    posterior, of the objective and of the costs, is computed on a whole
    block, so a candidate's score depends neither on which others are
    memoized nor on the other blocks. Cost draws come in antithetic pairs
    (see ``_segment_draws``), so generator (s, b) advances by
    ceil(n_mc / 2) normals per row it reads. A block's draws go into two
    (block rows, n_mc) buffers and its normals into one (block rows,
    ceil(n_mc / 2)) buffer, all allocated once per call: the first segment
    writes the totals, each later one the spare buffer, added in segment
    order. A cost-blind method scores plain EI.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n_blocks = mc_rngs.shape[1]
    blocks = np.split(space.normalize(xs), n_blocks)
    ei = np.concatenate([
        expected_improvement_batch(*gp.posterior_mean_var(models.objective, xn), f_best)
        for xn in blocks
    ])
    segments = METHODS[method].segments(space.n_stages)
    if not segments:
        return ei
    rows = len(blocks[0])
    totals, spare = np.empty((rows, n_mc)), np.empty((rows, n_mc))
    normals = np.empty((rows, -(-n_mc // 2)))
    inverse_cost = []
    for b, (xn, block_deltas) in enumerate(zip(blocks, np.split(np.asarray(deltas), n_blocks))):
        for s, (seg, model) in enumerate(zip(segments, models.costs, strict=True)):
            cols, memoized = xn[:, seg.columns(space)], block_deltas >= seg.last
            out = spare if s else totals
            _segment_draws(model, cols, memoized, epsilon, mc_rngs[s, b], normals, out)
            if s:
                totals += spare
        inverse_cost.append(expected_inverse_cost(totals))
    return ei * np.power(np.concatenate(inverse_cost), eta)
