"""Candidate scoring: expected improvement times the cooled Monte-Carlo
expected inverse cost E[1/C], with memoized stages costed at epsilon.

Tuning methods differ only in data, kept in ``METHODS``: which cost
segments they model with log-cost GPs. The cost term is cooled exactly
when a method has cost segments; EI per second is ``carbo`` under the
``constant`` eta schedule. A segment is a run of consecutive stages under
one model; its draws are exponentiated Gaussians in antithetic pairs,
exp(mu + sd z) and exp(mu - sd z), and a total-cost draw is the sum of
the segments' draws. EI's normal CDF is libm's erfc, element by element.

Only the candidates that can win are drawn for. Analytic bounds on E[1/C]
from the posterior moments bound every score; a candidate whose upper
score is below the largest lower score reads 0 and is pruned. Each
(segment, block) generator draws ceil(n_mc / 2) normals per row up to the
last surviving live row of its block, and a block with no survivors
draws nothing.

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


def _cooled(ei: np.ndarray, inverse_cost: np.ndarray, eta: float) -> np.ndarray:
    """``EI * inverse_cost^eta``, and 0 wherever EI is 0, also beside an
    infinite inverse cost."""
    out = np.zeros_like(ei)
    np.multiply(ei, np.power(inverse_cost, eta), out=out, where=ei > 0.0)
    return out


def _inverse_cost_bounds(
    mu: np.ndarray, var: np.ndarray, memoized: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on each candidate's E[1/S], from (segments,
    candidates) log-cost posterior moments and memo masks. S is c, epsilon
    times the candidate's memoized segments, plus an independent log-normal
    S_k = exp(N(mu_k, var_k)) per live segment k.

    Below, by Jensen: 1 / (c + sum_k E[S_k]), with E[S_k] = exp(mu_k +
    var_k / 2). Above, as S >= S_k: min_k E[1/S_k] = exp(-mu_k + var_k / 2),
    and 1/c when c > 0. An overflowing exponential makes a bound 0 below or
    inf above, and it still holds."""
    c = epsilon * np.count_nonzero(memoized, axis=0)
    half_var = 0.5 * var
    with np.errstate(over="ignore", divide="ignore"):
        lower = 1.0 / (c + np.where(memoized, 0.0, np.exp(mu + half_var)).sum(axis=0))
        upper = np.where(memoized, np.inf, np.exp(half_var - mu)).min(axis=0)
        return lower, np.minimum(upper, 1.0 / c)


def _segment_draws(
    mu: np.ndarray,
    var: np.ndarray,
    memoized: np.ndarray,
    rows: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    n_mc: int,
    normals: np.ndarray,
) -> np.ndarray:
    """One segment's (len(rows), n_mc) cost draws for the block rows
    ``rows`` (increasing), whose log-cost posterior moments are ``mu`` and
    ``var``; a memoized row costs epsilon in every draw.

    The draws come in antithetic pairs. Block row i's normals z are row i
    of the generator's (block rows, ceil(n_mc / 2)) stream, and its n_mc
    costs are exp(mu_i + sd_i z) for every z, followed by exp(mu_i - sd_i z)
    for the first floor(n_mc / 2) of them, so with odd n_mc the last normal
    of a row goes unpaired. ``rng`` is consumed by this call alone, so it
    draws into ``normals``, a (block rows, ceil(n_mc / 2)) scratch buffer,
    only up to the last of ``rows`` not memoized (n_read block rows): the
    generator advances by n_read x ceil(n_mc / 2) normals, none when every
    one of ``rows`` is memoized."""
    if memoized.all():
        return np.full((len(rows), n_mc), epsilon)
    n_read = int(rows[~memoized][-1]) + 1
    drawn = normals[:n_read]
    rng.standard_normal(out=drawn)
    # a memoized row past n_read takes row n_read - 1's finite normals
    sdz = np.sqrt(var)[:, None] * drawn[np.minimum(rows, n_read - 1)]
    mu = mu[:, None]
    draws = np.exp(np.concatenate([mu + sdz, mu - sdz[:, : n_mc // 2]], axis=1))
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
    mc_rngs: np.ndarray,
) -> np.ndarray:
    """Acquisition scores ``EI * E[1/C]^eta`` for a batch of raw candidates,
    0 for every candidate pruned as unable to win.

    ``mc_rngs`` is a (cost segments x blocks) object array of generators:
    the batch is that many equal blocks of rows (one per restart of a
    step). A candidate with a memoized prefix of length delta costs epsilon
    in every segment that ends at or before stage delta. Every posterior,
    of the objective and of the costs, is computed on a whole block: on a
    subset of rows the mean's matrix product rounds differently in its last
    bits, which would move scores and traces.

    The moments bound each candidate's E[1/C] (``_inverse_cost_bounds``),
    and so its score. A candidate whose upper score is below the largest
    lower score in the batch, less a relative 1e-9 for rounding, is pruned:
    it reads 0, and is neither exponentiated nor averaged. Generator (s, b)
    is consumed by this call alone: it draws segment s's normals for block
    b, ceil(n_mc / 2) per row, up to the last surviving row that segment
    does not memoize (``_segment_draws``), into one (block rows,
    ceil(n_mc / 2)) scratch buffer allocated once per call, and nothing for
    a block without survivors. A survivor's total-cost draws are its
    segments' draws summed in segment order, so its draws and score have
    the bits they would have with nothing pruned. A cost-blind method scores
    plain EI.
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
    cuts = [slice(b * rows, (b + 1) * rows) for b in range(n_blocks)]
    memoized = np.array([np.asarray(deltas) >= seg.last for seg in segments])
    mu, var = np.empty((2, len(segments), len(xs)))
    for s, (seg, model) in enumerate(zip(segments, models.costs, strict=True)):
        for cut, xn in zip(cuts, blocks):
            mu[s, cut], var[s, cut] = gp.posterior_mean_var(model, xn[:, seg.columns(space)])
    lower, upper = _inverse_cost_bounds(mu, var, memoized, epsilon)
    kept = _cooled(ei, upper, eta) >= (1.0 - 1e-9) * np.max(_cooled(ei, lower, eta))

    scores = np.zeros_like(ei)
    normals = np.empty((rows, -(-n_mc // 2)))
    for b, cut in enumerate(cuts):
        survivors = np.flatnonzero(kept[cut])
        at = cut.start + survivors
        totals = ordered_sum(
            _segment_draws(*moments, survivors, epsilon, mc_rngs[s, b], n_mc, normals)
            for s, moments in enumerate(zip(mu[:, at], var[:, at], memoized[:, at]))
        )
        scores[at] = _cooled(ei[at], expected_inverse_cost(totals), eta)
    return scores
