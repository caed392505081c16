"""Unit tests for acquisition scores, the inverse-cost estimator, the
cooling schedules and the method table.

The EI closed form is checked against brute-force Monte-Carlo draws and a
scalar closed form written here; the inverse-cost estimator against
hand-computable degenerate cases; the scores against their algebraic
definitions, through ``score_candidates``, the scorer the optimizer runs.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from pipetune import acquisition, optimizer
from pipetune.acquisition import (
    EXP_DECAY_FACTOR,
    METHODS,
    ModelSet,
    _cooled,
    _inverse_cost_bounds,
    _ndtr,
    _segment_draws,
    cooling_eta,
    expected_improvement_batch,
    expected_inverse_cost,
    score_candidates,
)
from pipetune.errors import InvalidArgumentError, NumericalFailureError
from pipetune.gp import KernelParams, build_model, posterior_mean_var
from pipetune.candidates import generate
from pipetune.optimizer import _TAG_CAND, RunConfig, derived_rng, init_state, step
from pipetune.pipeline import synthetic_suite

from conftest import antithetic_normals, check_pruned, rng_table, unpruned_scores


def _ei(mu, variance, f_best):
    return float(
        expected_improvement_batch(np.array([mu]), np.array([variance]), f_best)[0]
    )


def _scalar_ei(mu, variance, f_best):
    """Textbook EI for one Gaussian belief, written apart from the module."""
    sigma = math.sqrt(variance)
    if sigma == 0.0:
        return max(0.0, mu - f_best)
    z = (mu - f_best) / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return sigma * (z * big_phi + phi)


# ---------------------------------------------------------------------------
# expected improvement


# Story: the closed form is the mean of max(0, Y - f_best) under the
# posterior Gaussian; a large Monte-Carlo estimate must agree.
def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(0)
    for _ in range(8):
        mu = rng.uniform(-5.0, 5.0)
        sigma = rng.uniform(0.1, 4.0)
        f_best = rng.uniform(-5.0, 5.0)
        draws = mu + sigma * rng.standard_normal(400_000)
        mc = float(np.mean(np.maximum(draws - f_best, 0.0)))
        closed = _ei(mu, sigma**2, f_best)
        assert closed == pytest.approx(mc, abs=6e-3 * max(sigma, 1.0))


# Story: at zero variance the improvement is deterministic.
def test_ei_degenerate_sigma_zero():
    assert _ei(3.0, 0.0, 1.0) == 2.0
    assert _ei(0.5, 0.0, 1.0) == 0.0


# Story: EI is positive whenever sigma > 0, increasing in mu, and increasing
# in sigma for a pessimistic mean.
def test_ei_monotonicity():
    assert _ei(-10.0, 1.0, 0.0) > 0.0
    lo = _ei(0.0, 1.0, 1.0)
    hi = _ei(0.5, 1.0, 1.0)
    assert hi > lo
    small = _ei(-1.0, 0.25, 1.0)
    large = _ei(-1.0, 4.0, 1.0)
    assert large > small


# Story: the vectorized batch version must agree with the scalar textbook
# form element-by-element, including zero-variance entries.
def test_ei_batch_matches_scalar():
    rng = np.random.default_rng(1)
    mean = rng.uniform(-3, 3, size=40)
    var = np.concatenate([rng.uniform(0.01, 9.0, size=38), [0.0, 0.0]])
    f_best = 0.7
    batch = expected_improvement_batch(mean, var, f_best)
    scalar = np.array(
        [_scalar_ei(m, v, f_best) for m, v in zip(mean, var)]
    )
    assert np.allclose(batch, scalar, atol=1e-12)


def _ndtr_inputs():
    """Points on both sides of every branch boundary of cephes ndtr, which
    scipy.special.ndtr evaluates (|a| at sqrt(2) times 1/sqrt(2), 1 and 8),
    and of its underflow edge, each as a dense grid plus the 200 nearest
    doubles; a grid over [-37, 37]; then signed zeros, infinities, huge
    values and 1e5 random normals at several scales."""
    underflow = math.sqrt(2.0 * math.log(np.finfo(float).max))
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), underflow]
    parts = []
    for b in edges:
        parts.append(b + np.linspace(-1e-3, 1e-3, 4001))
        parts.append(b + np.spacing(b) * np.arange(-100.0, 101.0))
    parts.append(np.linspace(37.0, 38.5, 4001))  # the underflow edge, near 37.7
    parts.append(np.linspace(-37.0, 37.0, 100_001))
    rng = np.random.default_rng(2024)
    parts += [scale * rng.standard_normal(100_000) for scale in (0.1, 1.0, 3.0, 10.0, 30.0)]
    a = np.concatenate(parts)
    special = [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324]
    return np.concatenate([a, -a, special])


# Story: expected improvement's normal CDF is libm's erfc, and it agrees
# with scipy.special.ndtr to 2e-13 relative out to |a| = 20. Beyond, both
# round a / sqrt(2) before erfc, whose relative condition number there is
# about a^2, so the bound grows as 5e-16 a^2 (3.6e-13 was read near
# |a| = 37). Where scipy's value is subnormal or zero the two agree to the
# smallest normal double. The CDF is exactly 0.5 at zero, 0 and 1 at -inf
# and inf, and NaN for NaN.
def test_ndtr_matches_scipy_to_rounding():
    a = _ndtr_inputs()
    ours, theirs = _ndtr(a), ndtr(a)
    normal = theirs >= np.finfo(float).tiny
    rel = np.abs(ours - theirs)[normal] / theirs[normal]
    bound = np.maximum(2e-13, 5e-16 * np.minimum(np.abs(a[normal]), 40.0) ** 2)
    assert (rel <= bound).all(), a[normal][rel > bound][:5]
    assert (np.abs(ours - theirs)[~normal] <= np.finfo(float).tiny).all()
    assert _ndtr(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    assert _ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
    assert np.isnan(_ndtr(np.array([np.nan, -np.nan]))).all()


def _ei_with_scipy_ndtr(mean, variance, f_best):
    """expected_improvement_batch as it was written on scipy.special.ndtr."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.asarray(variance, dtype=float))
    out = np.maximum(mean - f_best, 0.0)
    pos = sigma > 0.0
    if np.any(pos):
        z = (mean[pos] - f_best) / sigma[pos]
        phi = acquisition._INV_SQRT_2PI * np.exp(-0.5 * z * z)
        out[pos] = sigma[pos] * (z * ndtr(z) + phi)
    return out


# Story: the scores the optimizer ranks are EI's on scipy's ndtr to 4e-15
# relative for beliefs near and above the incumbent (z >= -1), and exactly
# where a variance is zero. Far below it, z * Phi(z) + phi(z) cancels to
# about phi(z) / z^2, which amplifies the CDF's rounding; those EIs agree
# to 1e-9 relative, or to the smallest normal double.
def test_ei_matches_scipy_ndtr_version_to_rounding():
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 30.0):
        mean = scale * rng.standard_normal(50_000)
        var = (scale * rng.uniform(0.0, 2.0, 50_000)) ** 2
        var[::97] = 0.0
        sigma = np.sqrt(var)
        for f_best in (0.0, scale, -scale):
            ours = expected_improvement_batch(mean, var, f_best)
            theirs = _ei_with_scipy_ndtr(mean, var, f_best)
            diff = np.abs(ours - theirs)
            assert (diff[sigma == 0.0] == 0.0).all(), (scale, f_best)
            near = (sigma > 0.0) & (mean - f_best >= -sigma)  # z >= -1
            assert (diff[near] <= 4e-15 * theirs[near]).all(), (scale, f_best)
            assert (diff <= np.maximum(1e-9 * theirs, np.finfo(float).tiny)).all(), (scale, f_best)


# ---------------------------------------------------------------------------
# inverse-cost estimator


# Story: an estimate over a nonpositive total cost is meaningless, so the
# estimator refuses it instead of returning an infinite score; a NaN total,
# such as a stale buffer row would leave, is refused too.
def test_cost_estimate_validation():
    with pytest.raises(NumericalFailureError):
        expected_inverse_cost(np.zeros(4))
    with pytest.raises(NumericalFailureError):
        expected_inverse_cost(np.ones(4) - np.ones(4))
    with pytest.raises(NumericalFailureError):
        expected_inverse_cost(np.array([[1.0, 2.0], [np.nan, 1.0]]))


# Story: with constant per-stage draws the estimator is exactly 1 / sum(c).
def test_inverse_cost_constant_case_exact():
    samples = np.vstack([np.full(64, 2.0), np.full(64, 3.5), np.full(64, 0.5)])
    assert expected_inverse_cost(samples.sum(axis=0)) == 1.0 / 6.0


# Story: memoized rows contribute epsilon each, so the constant case with a
# memoized prefix is exactly 1 / (delta * eps + suffix costs).
def test_inverse_cost_memoized_constant_exact():
    eps = 0.01
    totals = np.full(32, eps) + np.full(32, eps) + np.full(32, 4.0)
    assert expected_inverse_cost(totals) == pytest.approx(1.0 / (2 * eps + 4.0), rel=1e-15)


# Story: for random draws the estimator is the plain mean of reciprocal
# totals — compare against the literal loop.
def test_inverse_cost_matches_loop_oracle():
    rng = np.random.default_rng(5)
    samples = rng.lognormal(mean=0.5, sigma=0.4, size=(3, 500))
    oracle = float(np.mean([1.0 / samples[:, d].sum() for d in range(500)]))
    assert expected_inverse_cost(samples.sum(axis=0)) == pytest.approx(oracle, rel=1e-12)


# Story: a row's estimate reads that row's totals alone, so a matrix of
# candidates' totals gives each row the bits it gets on its own; a zero
# total in any row is refused.
def test_inverse_cost_from_totals_agrees():
    rng = np.random.default_rng(6)
    totals = rng.lognormal(size=(5, 200))
    rows = [expected_inverse_cost(row.copy()) for row in totals]
    assert expected_inverse_cost(totals).tobytes() == np.array(rows).tobytes()
    with pytest.raises(NumericalFailureError):
        expected_inverse_cost(np.array([[1.0, 2.0], [1.0, 0.0]]))


# Story: the estimator inverts the totals in their own buffer, and returns
# bit for bit the textbook mean of 1 / total.
def test_inverse_cost_inverts_totals_in_place():
    rng = np.random.default_rng(8)
    totals = rng.lognormal(size=(4, 100))
    want = 1.0 / totals
    assert np.array_equal(expected_inverse_cost(totals), np.mean(want, axis=-1))
    assert np.array_equal(totals, want)


def _block_draws(model, xn, memoized, epsilon, rng, n_mc, normals, rows=None):
    """_segment_draws for block rows ``rows`` (all of them by default), with
    the moments of ``model``'s posterior on the whole block ``xn`` and the
    memo mask of the whole block."""
    rows = np.arange(len(xn)) if rows is None else rows
    mu, var = posterior_mean_var(model, xn)
    return _segment_draws(
        mu[rows], var[rows], memoized[rows], rows, epsilon, rng, n_mc, normals
    )


def _check_segment_draws(model, xn, memoized, n_mc, seed, rows, epsilon=0.01):
    """_segment_draws on block rows ``rows`` against a fresh twin generator:
    the generator advanced by exactly n_read x ceil(n_mc / 2) normals
    (n_read = last live row of ``rows`` + 1, 0 when all of them are
    memoized), live rows are exp(mu + sd z) bit for bit with z the twin's
    antithetic normals (``antithetic_normals``) and mu, var from the
    full-batch posterior, and memoized rows are epsilon. The draws are an
    array of their own, not a view of the normals' scratch buffer, and a
    NaN-filled scratch buffer gives the bits of a fresh one, so no row of an
    earlier block survives in the reused buffer."""
    half = -(-n_mc // 2)
    rng = np.random.default_rng(seed)
    normals = np.empty((len(xn), half))
    draws = _block_draws(model, xn, memoized, epsilon, rng, n_mc, normals, rows)
    assert not np.shares_memory(draws, normals)
    stale = _block_draws(
        model, xn, memoized, epsilon, np.random.default_rng(seed), n_mc,
        np.full((len(xn), half), np.nan), rows,
    )
    assert stale.tobytes() == draws.tobytes()

    live = ~memoized[rows]
    n_read = max((int(i) + 1 for i in rows if not memoized[i]), default=0)
    advanced = np.random.default_rng(seed)
    advanced.standard_normal((n_read, half))
    assert rng.bit_generator.state == advanced.bit_generator.state
    z = antithetic_normals(np.random.default_rng(seed), len(xn), n_mc)[rows]
    mu, var = posterior_mean_var(model, xn)
    want = np.exp(mu[rows, None] + np.sqrt(var[rows])[:, None] * z)
    assert draws.shape == (len(rows), n_mc)
    assert np.array_equal(draws[live], want[live])
    assert np.all(draws[~live] == epsilon)


# Story: each Monte-Carlo generator serves one call, so cost draws stop at
# the last row that is read: the generator advances by n_read x
# ceil(n_mc / 2) normals, and not at all when every row is memoized. The
# rows that are read are still exp(mu + sd z) with the antithetic z of the
# full block, and every row is written, the trailing memoized ones that
# draw nothing included.
@pytest.mark.parametrize(
    "memoized",
    [
        [False, True, True, False, True],
        [False, True, False, True, True],
        [True] * 5,
        [False] * 5,
        [True, True, True, True, False],
    ],
    ids=["some", "trailing", "all", "none", "last-live"],
)
def test_segment_draws_exponentiate_only_live_rows(memoized):
    model = build_model(
        np.array([[0.1], [0.5], [0.9]]),
        [0.0, 1.0, -0.5],
        KernelParams(np.array([0.3]), 1.0, 1e-2),
    )
    xn = np.linspace(0.0, 1.0, 5)[:, None]
    _check_segment_draws(model, xn, np.array(memoized), n_mc=64, seed=21, rows=np.arange(5))


_DRAWS_MODEL_DATA = np.random.default_rng(5).uniform(size=(40, 3))
_DRAWS_MODEL = build_model(
    _DRAWS_MODEL_DATA,
    np.sin(5.0 * _DRAWS_MODEL_DATA).sum(axis=1),
    KernelParams(np.array([0.4, 0.2, 0.7]), 1.3, 1e-3),
)


# Story: the property above over random memo masks, batch sizes, n_mc and
# subsets of the block's rows, as pruning leaves them. A posterior taken on
# only the live or the leading rows rounds its mean differently in the last
# bits for most such batches, so this fails if the cost posterior is ever
# scored on a subset.
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    rows=st.integers(1, 300),
    n_mc=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_draws_match_full_block_property(data, rows, n_mc, seed):
    memoized = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    xn = np.random.default_rng(seed).uniform(size=(rows, 3))
    _check_segment_draws(_DRAWS_MODEL, xn, memoized, n_mc, seed, np.flatnonzero(kept))


# Story: with an odd n_mc the last normal of each row has no mirror: the
# generator still advances by n_read x ceil(n_mc / 2) normals, column
# ceil(n_mc / 2) - 1 (the last +z column; the only column at n_mc = 1)
# holds exp(mu + sd z) of the row's last normal, and the mirrored columns
# that follow it hold exp(mu - sd z) of the normals before it alone.
@pytest.mark.parametrize("n_mc", [1, 7])
def test_segment_draws_odd_n_mc_leaves_last_normal_unpaired(n_mc):
    half = -(-n_mc // 2)
    xn = np.random.default_rng(2).uniform(size=(6, 3))
    memoized = np.array([False, True, False, True, True, True])
    rng = np.random.default_rng(4)
    draws = _block_draws(_DRAWS_MODEL, xn, memoized, 0.01, rng, n_mc, np.empty((6, half)))
    advanced = np.random.default_rng(4)
    advanced.standard_normal(3 * half)
    assert rng.bit_generator.state == advanced.bit_generator.state

    live = ~memoized
    z = np.random.default_rng(4).standard_normal((6, half))
    mu, var = posterior_mean_var(_DRAWS_MODEL, xn)
    mu, sd = mu[:, None], np.sqrt(var)[:, None]
    assert np.array_equal(draws[live, half - 1], np.exp(mu + sd * z)[live, -1])
    mirrored = np.exp(mu - sd * z[:, : n_mc // 2])
    assert np.array_equal(draws[live, half:], mirrored[live])
    assert draws.shape == (6, n_mc) and np.all(draws[memoized] == 0.01)


def _one_segment_model(mu, sigma):
    """A log-cost model whose posterior at ``_FAR`` is N(mu, sigma^2): two
    training points far away, targets mu -+ 1 (shift mu, scale 1) and the
    output scale sigma^2."""
    x = np.array([[0.0], [0.1]])
    return build_model(x, [mu - 1.0, mu + 1.0], KernelParams(np.array([0.01]), sigma**2, 1e-6))


_FAR = np.array([[1.0e3]])


# Story: for one log-normal segment (carbo) E[1/C] has the closed
# form exp(-mu + sigma^2 / 2). Fed the antithetic draws, the estimator the
# scorer runs lands within 4 standard errors of it from sigma 0.1 to 2; a
# pair's mean is one independent sample, so the error is taken over pairs.
@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0])
def test_antithetic_inverse_cost_matches_closed_form(sigma):
    n_mc, mu = 200_000, 0.3
    model = _one_segment_model(mu, sigma)
    post_mu, post_var = posterior_mean_var(model, _FAR)
    assert post_mu[0] == pytest.approx(mu) and post_var[0] == pytest.approx(sigma**2)
    draws = _block_draws(
        model, _FAR, np.zeros(1, dtype=bool), 0.01, np.random.default_rng(17), n_mc,
        np.empty((1, n_mc // 2)),
    )
    pairs = 0.5 * (1.0 / draws[0, : n_mc // 2] + 1.0 / draws[0, n_mc // 2 :])
    se = np.std(pairs) / math.sqrt(len(pairs))
    estimate = float(expected_inverse_cost(draws)[0])
    closed = math.exp(-post_mu[0] + post_var[0] / 2.0)
    assert abs(estimate - closed) <= 4.0 * se


# Story: 1/C falls as the normal rises, so pairing z with -z can only
# lower the variance of E[1/C] at the same n_mc. At sigma = 1 and n_mc =
# 500, 200 seeded antithetic estimates spread no wider than 200 plain
# Monte-Carlo estimates of 500 independent normals each.
def test_antithetic_estimates_spread_no_wider_than_plain_monte_carlo():
    n_mc, seeds = 500, range(200)
    model = _one_segment_model(0.3, 1.0)
    mu, var = posterior_mean_var(model, _FAR)
    live = np.zeros(1, dtype=bool)
    antithetic = [
        expected_inverse_cost(_block_draws(
            model, _FAR, live, 0.01, np.random.default_rng([23, s]), n_mc,
            np.empty((1, n_mc // 2)),
        ))[0]
        for s in seeds
    ]
    plain = [
        expected_inverse_cost(np.exp(
            mu[0] + math.sqrt(var[0]) * np.random.default_rng([29, s]).standard_normal(n_mc)
        ))
        for s in seeds
    ]
    assert np.std(antithetic) <= np.std(plain)


# ---------------------------------------------------------------------------
# cooling schedules


# Story: the budget schedule is the remaining fraction, clamped at zero once
# the budget is overshot.
def test_budget_schedule():
    assert cooling_eta("budget", 100.0, 0.0, 1.0) == 1.0
    assert cooling_eta("budget", 100.0, 25.0, 1.0) == 0.75
    assert cooling_eta("budget", 100.0, 100.0, 1.0) == 0.0
    assert cooling_eta("budget", 100.0, 130.0, 1.0) == 0.0


def test_constant_schedule():
    assert cooling_eta("constant", 100.0, 99.0, 0.2) == 1.0


# Story: exp_decay multiplies the carried eta by the fixed factor each call.
def test_exp_decay_schedule():
    eta = 1.0
    for t in range(1, 40):
        eta = cooling_eta("exp_decay", 100.0, 0.0, eta)
        assert eta == pytest.approx(EXP_DECAY_FACTOR**t, abs=1e-12)


def test_unknown_schedule_raises():
    with pytest.raises(InvalidArgumentError):
        cooling_eta("linear", 100.0, 0.0, 1.0)


# Story: the budget's two refusals run on every call, whatever the schedule.
def test_budget_state_validation():
    with pytest.raises(InvalidArgumentError):
        cooling_eta("budget", 0.0, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        cooling_eta("constant", 10.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# scores through score_candidates


def _flat_world(n=5):
    """A synth3 batch, an objective model, and one flat log-cost model per
    stage plus a total-cost model (costs 2, 3, 4 and 9)."""
    space = synthetic_suite("synth3").search_space()
    xs = space.uniform(np.random.default_rng(3), n)
    objective = build_model(
        space.normalize(xs),
        np.arange(len(xs), dtype=float),
        KernelParams(lengthscales=np.full(7, 0.5), output_scale=1.0, noise_variance=1e-4),
    )

    def flat(dim, cost):
        params = KernelParams(
            lengthscales=np.full(dim, 10.0), output_scale=1.0, noise_variance=1e-6
        )
        x = np.array([np.full(dim, 0.2), np.full(dim, 0.8)])
        return build_model(x, [math.log(cost)] * 2, params)

    stages = tuple(flat(space.stage_dims[k], (2.0, 3.0, 4.0)[k]) for k in range(3))
    total = (flat(space.dim, 9.0),)
    return space, xs, objective, stages, total


def _score(method, eta, n_mc=50):
    """score_candidates on the flat world, checked row by row against the
    unpruned reference (``check_pruned``); returns the scores and the mask
    of the rows scored, not pruned."""
    space, xs, objective, stages, total = _flat_world()
    costs = {"eeipu": stages, "carbo": total, "ei": ()}[method]
    rngs = rng_table([np.random.default_rng([5, k]) for k in range(len(costs))])
    deltas = np.array([0, 1, 2, 0, 1])
    args = (method, ModelSet(objective, costs), space, xs, deltas, -1.0, eta, 0.01, n_mc, rngs)
    reference = unpruned_scores(*args)
    scores = score_candidates(*args)
    return scores, ~check_pruned(scores, reference)


# Story: a candidate with a memoized prefix of delta stages costs epsilon in
# each of those stages and its own antithetic posterior draws in the rest;
# the scorer sums the assembled stage rows into E[1/C]. The assembly is
# rebuilt here from the posterior moments and generators seeded alike, and
# every row the scorer does not prune has its bits.
def test_from_suffix_draws_assembles_matrix():
    space, xs, objective, stages, _ = _flat_world()
    xn = space.normalize(xs)
    deltas = np.array([0, 1, 2, 0, 1])
    epsilon, n_mc = 0.25, 50

    def rngs():
        return [np.random.default_rng([5, k]) for k in range(3)]

    totals = 0.0
    for seg, model, rng in zip(METHODS["eeipu"].segments(3), stages, rngs()):
        mean, var = posterior_mean_var(model, xn[:, seg.columns(space)])
        draws = np.exp(mean[:, None] + np.sqrt(var)[:, None] * antithetic_normals(rng, 5, n_mc))
        assert draws.shape == (5, n_mc)
        draws[deltas >= seg.last] = epsilon
        totals = totals + draws
    # row 2: two memoized stages at epsilon, stage 3 within 10% of its cost 4
    assert np.all(totals[2] < 2 * epsilon + 1.1 * 4.0) and np.all(totals[0] > 8.0)

    ei = score_candidates(
        "ei", ModelSet(objective, ()), space, xs, deltas, -1.0, 1.0, epsilon, n_mc, rng_table([])
    )
    scored = score_candidates(
        "eeipu", ModelSet(objective, stages), space, xs, deltas, -1.0, 1.0, epsilon, n_mc,
        rng_table(rngs()),
    )
    check_pruned(scored, ei * np.mean(1.0 / totals, axis=-1))

    memoized = deltas >= 1
    seg = METHODS["eeipu"].segments(3)[0]
    cols = xn[:, seg.columns(space)]
    first = _block_draws(
        stages[0], cols, memoized, epsilon, rngs()[0], n_mc, np.empty((5, n_mc // 2))
    )
    plain = _block_draws(
        stages[0], cols, np.zeros(5, dtype=bool), epsilon, rngs()[0], n_mc,
        np.empty((5, n_mc // 2)),
    )
    assert np.all(first[memoized] == epsilon)
    assert np.array_equal(first[~memoized], plain[~memoized])


# Story: the cooled score is EI * inv_cost^eta with exact endpoint behavior:
# eta=0 is plain EI bit-for-bit, eta=1 the fully cost-scaled score. The
# algebra is checked on the rows scored at both exponents; every other row
# is checked against the unpruned reference.
def test_eeipu_score_algebra_and_endpoints():
    ei, _ = _score("ei", 0.3)
    assert np.all(ei > 0.0)
    at_zero, scored = _score("eeipu", 0.0)
    assert np.array_equal(at_zero[scored], ei[scored])
    (full, scored_full), (half, scored_half) = _score("eeipu", 1.0), _score("eeipu", 0.5)
    both = scored_full & scored_half
    inv = full[both] / ei[both]
    assert both.any()
    assert np.allclose(half[both], ei[both] * np.sqrt(inv), rtol=1e-15, atol=0.0)


# Story: carbo at eta=1 is EI per unit cost (EIPS), EI times its one
# total-cost model's E[1/C]; at eta=0 it is plain EI. Both hold on every
# row scored; every other row is checked against the unpruned reference.
def test_carbo_scores():
    ei, _ = _score("ei", 0.0)
    at_zero, scored = _score("carbo", 0.0)
    assert np.array_equal(at_zero[scored], ei[scored])
    at_one, scored = _score("carbo", 1.0)
    assert np.allclose(at_one[scored], ei[scored] / 9.0, rtol=0.01, atol=0.0)


# Story: at n_mc = 1 a row draws one normal and has no mirrored column;
# every cost-aware method still scores each candidate that survives, with
# the reference's bits, in the flat world and in a world of three blocks.
@pytest.mark.parametrize("method", ["eeipu", "carbo"])
def test_score_candidates_with_one_cost_draw(method):
    scores, scored = _score(method, 1.0, n_mc=1)
    assert scores.shape == (5,) and np.all(np.isfinite(scores))
    assert np.all(scores[scored] > 0.0)
    scores, reference, _ = _block_call(method, 0.1, 0.7, n_mc=1)
    scored = ~check_pruned(scores, reference)
    assert np.all(np.isfinite(scores)) and np.all(scores[scored] > 0.0)


# Story: the table is the only place methods differ: which cost segments
# they model; per-stage segments mean memo aware, and any segment means
# cooled. No two rows are the same data, so a baseline cannot return under
# a second name.
def test_method_table(tmp_path):
    assert list(METHODS) == ["eeipu", "ei", "carbo"]
    assert len(set(METHODS.values())) == len(METHODS)
    segments = {m: METHODS[m].segments(3) for m in METHODS}
    assert [(s.first, s.last, s.index) for s in segments["eeipu"]] == [
        (1, 1, 0), (2, 2, 1), (3, 3, 2)
    ]
    assert [(s.first, s.last, s.index) for s in segments["carbo"]] == [(1, 3, 0)]
    assert segments["ei"] == ()
    assert [m for m in METHODS if METHODS[m].memo_aware] == ["eeipu"]
    cooled = []
    for m in METHODS:
        cfg = RunConfig(method=m, n0=3, m=16, n_mc=30, restarts=2)
        state = init_state(cfg, synthetic_suite("synth3"), tmp_path / m)
        step(state)
        if state.rows[-1].eta < 1.0:
            cooled.append(m)
    assert cooled == [m for m in METHODS if segments[m]] == ["eeipu", "carbo"]


def _block_world(rows=6):
    """A synth3 batch of three blocks of ``rows`` candidates, an objective
    model, per-stage and total-cost models that vary over the space, and
    deltas whose middle block ends in memoized tails: fully memoized rows
    after the last row any segment draws for."""
    space = synthetic_suite("synth3").search_space()
    rng = np.random.default_rng(12)
    xs = space.uniform(rng, 3 * rows)
    train = space.normalize(space.uniform(rng, 12))

    def model(cols, scale):
        x = train[:, cols]
        y = scale * np.sin(4.0 * x).sum(axis=1)
        return build_model(x, y, KernelParams(np.full(x.shape[1], 0.4), 1.0, 1e-3))

    objective = model(slice(None), 1.0)
    stages = tuple(model(space.stage_slice(k), 0.3) for k in (1, 2, 3))
    total = (model(slice(None), 0.5),)
    deltas = np.concatenate([
        np.zeros(rows, dtype=int),
        [0, 2, 1, 3, 3, 3][:rows],
        [1, 0, 2, 0, 3, 0][:rows],
    ])
    return space, xs, deltas, objective, {"eeipu": stages, "carbo": total, "ei": ()}


# Story: a step scores its restarts' batches in one call, as equal blocks
# with a (segment, block) table of generators. Every row of that call, and
# of a call on one block, is the unpruned reference's, or pruned below the
# winner. A row the whole call scores
# survives a call on its block alone with block b's generators too, as a
# block's largest lower score is at most the batch's, and has the same bits
# there, for every method, also when a block ends in memoized rows that
# draw nothing and the reused buffers hold the previous block's draws.
@pytest.mark.parametrize("method", list(METHODS))
def test_block_scorer_matches_per_block_calls(method):
    space, xs, deltas, objective, costs = _block_world()
    models = ModelSet(objective, costs[method])
    n_seg, n_mc = len(costs[method]), 40

    def gens(blocks):
        return [np.random.default_rng([7, s, b]) for s in range(n_seg) for b in blocks]

    args = (method, models, space)
    table = rng_table(gens(range(3)), n_blocks=3)
    reference = unpruned_scores(*args, xs, deltas, 0.1, 0.7, 0.01, n_mc, table)
    one_call = score_candidates(*args, xs, deltas, 0.1, 0.7, 0.01, n_mc, table)
    per_block = []
    for b, rows in enumerate(np.split(np.arange(len(xs)), 3)):
        block = score_candidates(
            *args, xs[rows], deltas[rows], 0.1, 0.7, 0.01, n_mc, rng_table(gens([b]))
        )
        check_pruned(block, reference[rows])
        per_block.append(block)
    scored = ~check_pruned(one_call, reference)
    assert one_call[scored].tobytes() == np.concatenate(per_block)[scored].tobytes()
    assert np.all(reference > 0.0) and np.all(one_call[scored] > 0.0)


# ---------------------------------------------------------------------------
# pruning by bounds on E[1/C]


def _quadrature_inverse_cost(mu, sigma, c, nodes=64):
    """E[1 / (c + sum_k exp(mu_k + sigma_k Z_k))] for independent standard
    normals Z_k, by a product Gauss-Hermite rule of ``nodes`` per segment;
    it agrees with twice the nodes to 3e-10 relative for sigma up to 2."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    total, weight = np.full((1,) * len(mu), c), np.ones((1,) * len(mu))
    for k, (m, s) in enumerate(zip(mu, sigma)):
        shape = [1] * len(mu)
        shape[k] = nodes
        total = total + np.exp(m + s * z).reshape(shape)
        weight = weight * w.reshape(shape)
    return float(np.sum(weight / total))


# Story: the analytic bounds that pruning rests on hold for the true
# E[1/S] at every sigma from 0.01 to 2, with any memo mask and epsilon: S is
# c (epsilon per memoized segment) plus a log-normal per live segment. One
# live segment and c = 0 have the closed form exp(-mu + sigma^2 / 2), which
# the upper bound equals; every other case is checked against a quadrature,
# to the scorer's own relative slack of 1e-9.
@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    segments=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.booleans()),
        min_size=1, max_size=3,
    ),
    epsilon=st.floats(1e-3, 10.0),
)
def test_inverse_cost_bounds_hold(segments, epsilon):
    mu, sigma, memoized = (np.array(column)[:, None] for column in zip(*segments))
    lower, upper = (float(b[0]) for b in _inverse_cost_bounds(mu, sigma**2, memoized, epsilon))
    live = ~memoized[:, 0]
    c = epsilon * int(np.count_nonzero(memoized))
    if not live.any():
        assert lower == upper == 1.0 / c
        return
    if live.sum() == 1 and c == 0.0:
        truth = math.exp(-float(mu[live][0, 0]) + float(sigma[live][0, 0]) ** 2 / 2.0)
        assert upper == pytest.approx(truth, rel=1e-14)
    else:
        truth = _quadrature_inverse_cost(mu[live, 0], sigma[live, 0], c)
        assert truth <= upper * (1.0 + 1e-9)
    assert lower <= truth * (1.0 + 1e-9)


def _random_world(seed, sigma_max, rows=16):
    """A synth3 batch of three blocks of ``rows`` candidates with random
    deltas, an objective model and per-stage and total-cost models whose
    posterior standard deviation reaches up to ``sigma_max`` away from
    their 12 training points, as in ``_block_world``."""
    space = synthetic_suite("synth3").search_space()
    rng = np.random.default_rng(seed)
    xs = space.uniform(rng, 3 * rows)
    train = space.normalize(space.uniform(rng, 12))
    deltas = rng.integers(0, 4, size=3 * rows)

    def model(cols, scale, sd):
        x = train[:, cols]
        y = scale * np.sin(4.0 * x).sum(axis=1)
        prior = 1.0 if sd is None else (sd / np.std(y)) ** 2
        return build_model(x, y, KernelParams(np.full(x.shape[1], 0.2), prior, 1e-3))

    objective = model(slice(None), 1.0, None)
    stages = tuple(model(space.stage_slice(k), 0.3, sigma_max) for k in (1, 2, 3))
    total = (model(slice(None), 0.5, sigma_max),)
    return space, xs, deltas, objective, {"eeipu": stages, "carbo": total}


# Story: pruning leaves the decision alone. Over worlds whose cost
# posteriors reach sigma 2, cooling exponents and draw counts, every row
# the scorer keeps has the bits of the unpruned Monte-Carlo reference, and
# every row it prunes has a reference score below the winner's, so the
# argmax and the winning score are the reference's bit for bit.
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma_max=st.floats(0.01, 2.0),
    eta=st.floats(0.0, 1.0),
    n_mc=st.integers(1, 200),
    method=st.sampled_from(["eeipu", "carbo"]),
)
def test_pruned_argmax_matches_unpruned_reference(seed, sigma_max, eta, n_mc, method):
    space, xs, deltas, objective, costs = _random_world(seed, sigma_max)
    models = ModelSet(objective, costs[method])
    table = rng_table(
        [np.random.default_rng([seed, s, b]) for s in range(len(costs[method])) for b in range(3)],
        n_blocks=3,
    )
    args = (method, models, space, xs, deltas, 0.1, eta, 0.01, n_mc, table)
    reference = unpruned_scores(*args)
    check_pruned(score_candidates(*args), reference)


def _block_call(method, f_best, eta, n_mc=40):
    """score_candidates on ``_block_world`` with f_best and eta, its unpruned
    reference and the (segment, block) generator table it consumed."""
    space, xs, deltas, objective, costs = _block_world()
    n_seg = len(costs[method])
    table = rng_table(
        [np.random.default_rng([7, s, b]) for s in range(n_seg) for b in range(3)], n_blocks=3
    )
    args = (method, ModelSet(objective, costs[method]), space, xs, deltas, f_best, eta, 0.01, n_mc)
    reference = unpruned_scores(*args, table)
    return score_candidates(*args, table), reference, table


# Story: at eta = 0 the cost term is 1 for every row, so the rows kept are
# those whose EI is within the slack of the largest, and each scores its EI
# exactly; the rest read 0.
@pytest.mark.parametrize("method", ["eeipu", "carbo"])
def test_eta_zero_scores_survivors_exactly_ei(method):
    scores, _, _ = _block_call(method, 0.1, 0.0)
    ei, _, _ = _block_call("ei", 0.1, 0.0)
    kept = ei >= (1.0 - 1e-9) * ei.max()
    assert scores[kept].tobytes() == ei[kept].tobytes()
    assert np.all(scores[~kept] == 0.0) and (~kept).any()


# Story: where every EI is 0 no bound can separate the rows, so nothing is
# pruned: every (segment, block) generator draws up to its last live row,
# as an unpruned scorer's would, and every score is 0.
def test_all_zero_ei_prunes_nothing():
    scores, reference, table = _block_call("eeipu", 1e12, 0.7)
    assert np.all(scores == 0.0) and np.all(reference == 0.0)
    deltas = _block_world()[2]
    for (s, b), rng in np.ndenumerate(table):
        block_deltas = np.split(deltas, 3)[b]
        live = np.flatnonzero(block_deltas < METHODS["eeipu"].segments(3)[s].last)
        advanced = np.random.default_rng([7, s, b])
        advanced.standard_normal((live[-1] + 1 if len(live) else 0, 20))
        assert rng.bit_generator.state == advanced.bit_generator.state


# Story: with every EI 0 the real scorer scores every candidate 0, and the
# step runs row 0 of restart 0's batch, a uniform draw with nothing
# memoized.
def test_step_with_all_zero_ei_runs_row_0(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth3")
    state = init_state(RunConfig(method="eeipu", n0=3, m=16, n_mc=30, restarts=2), pipe, tmp_path)
    state.rows[-1] = dataclasses.replace(state.rows[-1], best_y=1e12)
    cfg, iteration = state.config, len(state.rows) + 1
    xs, deltas = generate(
        state.pool, pipe.search_space(), cfg.m, derived_rng(cfg.seed, _TAG_CAND, iteration, 0)
    )
    returned = []

    def recorded(*args):
        returned.append(score_candidates(*args))
        return returned[-1]

    monkeypatch.setattr(optimizer, "score_candidates", recorded)
    obs = step(state)
    assert len(returned) == 1 and np.all(returned[0] == 0.0)
    assert obs.x == tuple(xs[0].tolist()) and deltas[0] == 0
    assert state.rows[-1].score == 0.0


# Story: a fully memoized candidate costs epsilon in every segment, so both
# bounds are 1/c and, kept, it scores EI * (1/c)^eta with c = 3 epsilon.
def test_fully_memoized_row_scores_ei_times_inverse_c():
    space, xs, _, objective, costs = _block_world()
    deltas = np.full(len(xs), 3)
    eta, epsilon = 0.7, 0.01
    ei = score_candidates(
        "ei", ModelSet(objective, ()), space, xs, deltas, 0.1, eta, epsilon, 40, rng_table([], 3)
    )
    table = rng_table([np.random.default_rng([7, s]) for s in range(9)], n_blocks=3)
    scores = score_candidates(
        "eeipu", ModelSet(objective, costs["eeipu"]), space, xs, deltas, 0.1, eta, epsilon, 40,
        table,
    )
    kept = scores > 0.0
    assert kept.any()
    assert np.allclose(
        scores[kept], ei[kept] * (1.0 / (3 * epsilon)) ** eta, rtol=1e-14, atol=0.0
    )
    for rng, seed in zip(table.flat, range(9)):
        assert rng.bit_generator.state == np.random.default_rng([7, seed]).bit_generator.state


# Story: each (segment, block) generator serves this call alone, so it
# draws only up to the last row of its block that survives and is not
# memoized in its segment; a block none of whose rows survives draws
# nothing, and its generators end in the state of fresh ones.
@pytest.mark.parametrize("method", ["eeipu", "carbo"])
def test_block_without_survivors_draws_nothing(method):
    scores, reference, table = _block_call(method, 0.1, 0.7)
    check_pruned(scores, reference)
    kept, deltas = np.split(scores > 0.0, 3), np.split(_block_world()[2], 3)
    assert not all(block.any() for block in kept) and any(block.any() for block in kept)
    for (s, b), rng in np.ndenumerate(table):
        last = METHODS[method].segments(3)[s].last
        read = np.flatnonzero(kept[b] & (deltas[b] < last))
        advanced = np.random.default_rng([7, s, b])
        advanced.standard_normal((read[-1] + 1 if len(read) else 0, 20))
        assert rng.bit_generator.state == advanced.bit_generator.state
        if not kept[b].any():
            assert rng.bit_generator.state == np.random.default_rng([7, s, b]).bit_generator.state


# Story: a row with EI 0 scores 0 whatever its cost bound, also beside an
# upper bound of inf (a cost posterior whose variance overflows exp), so no
# bound, threshold or score is ever NaN.
def test_zero_ei_beside_infinite_bound_is_not_nan():
    assert _cooled(np.array([0.0, 2.0]), np.array([np.inf, 4.0]), 0.5).tolist() == [0.0, 4.0]
    space, xs, deltas, _, _ = _block_world()
    xn = space.normalize(xs)
    # trained on the candidates themselves with almost no noise, the
    # objective's posterior is sharp there, and EI is exactly 0 below f_best
    y = np.sin(4.0 * xn).sum(axis=1)
    objective = build_model(xn, y, KernelParams(np.full(space.dim, 0.4), 1.0, 1e-8))
    f_best = float(np.median(y))
    near = np.array([np.zeros(space.dim), np.full(space.dim, 0.01)])
    wild = build_model(near, [-1.0, 1.0], KernelParams(np.full(space.dim, 0.01), 2000.0, 1e-6))
    mu, var = posterior_mean_var(wild, xn)
    _, upper = _inverse_cost_bounds(mu[None], var[None], (deltas >= 3)[None], 0.01)
    assert np.isinf(upper[deltas < 3]).all()
    args = ("carbo", ModelSet(objective, (wild,)), space, xs, deltas, f_best, 0.7, 0.01, 40)
    ei = score_candidates("ei", *args[1:], rng_table([], 3))
    table = rng_table([np.random.default_rng([3, b]) for b in range(3)], n_blocks=3)
    reference = unpruned_scores(*args, table)
    scores = score_candidates(*args, table)
    assert (ei == 0.0).any() and (ei > 0.0).any()
    assert not np.isnan(scores).any() and np.all(scores[ei == 0.0] == 0.0)
    check_pruned(scores, reference)
