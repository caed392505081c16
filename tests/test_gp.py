"""Unit tests for the Matern-5/2 Gaussian-process module.

Posterior math is checked against the dense-inverse oracle that
tests/conftest.py shares with acceptance criterion 2 (a scalar Matern-5/2
kernel and np.linalg.inv of the whole covariance rather than the module's
inverse Cholesky factor), against scipy's cho_factor / cho_solve where the
covariance is ill-conditioned, and the marginal likelihood against the
textbook determinant formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from pipetune import gp
from pipetune.acquisition import _segment_draws
from pipetune.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NumericalFailureError,
)
from pipetune.gp import (
    GPModel,
    KernelParams,
    LENGTHSCALE_BOUNDS,
    NOISE_BOUNDS,
    OUTPUT_SCALE_BOUNDS,
    _chol_with_jitter,
    _cross_cov,
    _lml_values,
    build_model,
    fit,
    log_prior,
    posterior_mean_var,
)

from conftest import dense_posterior, matern52


def _params(ls, scale=1.0, noise=1e-6):
    return KernelParams(
        lengthscales=np.asarray(ls, dtype=float),
        output_scale=scale,
        noise_variance=noise,
    )


def _k(a, b, params):
    """The module's kernel between two single points."""
    k = _cross_cov(
        np.array([a], dtype=float),
        np.array([b], dtype=float),
        params.lengthscales,
        params.output_scale,
    )
    return float(k[0, 0])


# ---------------------------------------------------------------------------
# kernel


# Story: the covariance formula should match a frozen hand-computed value and
# the basic kernel axioms (symmetry, k(x,x) = signal variance, decay).
def test_matern52_frozen_value_and_axioms():
    p = _params([1.0, 1.0], scale=2.0, noise=1e-2)
    assert _k([0, 0], [1, 1], p) == pytest.approx(0.6345667279080875, abs=1e-15)
    assert _k([0, 0], [0, 0], p) == pytest.approx(2.0, abs=1e-15)
    assert _k([0, 0], [1, 1], p) == _k([1, 1], [0, 0], p)
    near = _k([0, 0], [0.1, 0.1], p)
    far = _k([0, 0], [3.0, 3.0], p)
    assert near > far > 0.0


# Story: the gram matrix of a point set with itself comes out exactly
# symmetric, one matrix or a stacked batch, so the LML and the model build
# factor it as it is, with no symmetrizing pass.
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(2, 79),
    dim=st.integers(1, 10),
    batch=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_is_exactly_symmetric(n, dim, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, dim))
    shape = (dim,) if batch is None else (batch, dim)
    lengthscales = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=shape))
    output_scale = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=shape[:-1]))
    k = _cross_cov(x, x, lengthscales, float(output_scale) if batch is None else output_scale)
    assert k.shape == shape[:-1] + (n, n)
    assert np.array_equal(k, np.swapaxes(k, -1, -2))


# Story: per-dimension lengthscales weight distances anisotropically; a move
# along the long-lengthscale axis decays covariance less.
def test_matern52_anisotropy():
    p = _params([0.1, 10.0])
    along_short = _k([0, 0], [0.5, 0.0], p)
    along_long = _k([0, 0], [0.0, 0.5], p)
    assert along_long > along_short


def test_kernel_params_validation():
    with pytest.raises(InvalidArgumentError):
        _params([1.0, -1.0])
    with pytest.raises(InvalidArgumentError):
        _params([1.0], scale=0.0)
    with pytest.raises(InvalidArgumentError):
        _params([1.0], noise=0.0)
    with pytest.raises(InvalidArgumentError):
        KernelParams(lengthscales=np.zeros((0,)), output_scale=1.0, noise_variance=1e-3)


# ---------------------------------------------------------------------------
# posterior vs dense oracle


# Story: with tiny noise the posterior must interpolate its training targets;
# this exercises the full standardize -> Cholesky -> de-standardize path.
def test_posterior_interpolates_training_points():
    x = np.array([[0.1, 0.2], [0.5, 0.9], [0.8, 0.3]])
    y = np.array([3.0, -4.0, 11.0])
    model = build_model(x, y, _params([0.4, 0.4], scale=1.0, noise=1e-8))
    mean, var = posterior_mean_var(model, x)
    assert np.allclose(mean, y, atol=1e-4)
    assert np.all(var >= 0.0)


# Story: on random small systems, mean and latent variance must agree with an
# explicit dense-inverse computation to near machine precision.
def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for trial in range(5):
        x = rng.uniform(size=(4, 3))
        y = rng.normal(size=4) * 5.0 + 2.0
        params = _params(rng.uniform(0.2, 1.5, size=3), scale=1.7, noise=1e-4)
        queries = rng.uniform(size=(6, 3))
        model = build_model(x, y, params)
        mean, var = posterior_mean_var(model, queries)
        o_mean, o_var = dense_posterior(x, y, params, queries)
        assert np.allclose(mean, o_mean, atol=1e-8)
        assert np.allclose(var, o_var, atol=1e-8)


def _ill_conditioned_data(n=55, dim=7, duplicates=0):
    """n points in the unit cube with a smooth target; the last
    ``duplicates`` rows repeat the first ones exactly."""
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(n, dim))
    if duplicates:
        x[n - duplicates :] = x[:duplicates]
    return x, np.sin(3.0 * x).sum(axis=1), rng.uniform(size=(256, dim))


# Story: the posterior multiplies by L^-1 instead of solving against L. In
# the regime fitted models reach, noise at its 1e-6 bound and long
# lengthscales over 55 points in 7-D, cond(K) is at least 1e8, and the
# mean and variance still agree with a float64 cho_factor / cho_solve
# oracle, far inside the cond(K) x eps bound of either.
def test_posterior_matches_cho_solve_when_ill_conditioned():
    x, y, queries = _ill_conditioned_data()
    params = _params([16.0, 8.0, 32.0, 16.0, 64.0, 16.0, 24.0], scale=20.0, noise=1e-6)
    gram = _cross_cov(x, x, params.lengthscales, params.output_scale)
    gram += params.noise_variance * np.eye(len(x))
    assert np.linalg.cond(gram) >= 1e8

    model = build_model(x, y, params)
    mean, var = posterior_mean_var(model, queries)

    shift, scale = model.target_transform
    factor = cho_factor(gram, lower=True)
    k_star = _cross_cov(queries, x, params.lengthscales, params.output_scale)
    o_mean = shift + scale * (k_star @ cho_solve(factor, (y - shift) / scale))
    quad = np.einsum("ij,ji->i", k_star, cho_solve(factor, k_star.T))
    o_var = scale * scale * np.maximum(params.output_scale - quad, 0.0)
    assert np.max(np.abs(mean - o_mean)) <= 1e-7 * np.max(np.abs(o_mean))
    assert np.max(np.abs(var - o_var)) <= 1e-12 * scale * scale * params.output_scale


# Story: when the plain Cholesky fails and the factor is taken with jitter,
# the inverse factor still gives a finite mean and a variance in
# [0, scale^2 output_scale], at the training points and away from them.
def test_posterior_after_jitter_is_finite_and_bounded(monkeypatch):
    x, y, queries = _ill_conditioned_data(duplicates=27)
    params = _params(np.full(7, 16.0), scale=20.0, noise=1e-16)
    cholesky = np.linalg.cholesky
    calls = []

    def refuse_unjittered(a):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", refuse_unjittered)
    model = build_model(x, y, params)
    monkeypatch.undo()
    assert len(calls) >= 2

    mean, var = posterior_mean_var(model, np.vstack([queries, x]))
    scale = model.target_transform[1]
    assert np.all(np.isfinite(mean))
    assert np.all((var >= 0.0) & (var <= scale * scale * params.output_scale))


# Story: the returned variance is the latent (noise-free) one: far from the
# data it approaches the signal variance, not signal + noise.
def test_posterior_variance_is_latent():
    model = build_model(
        np.array([[0.4], [0.6]]), [0.0, 1.0], _params([0.05], scale=2.0, noise=0.5)
    )
    _, var = posterior_mean_var(model, np.array([[50.0]]))
    # de-standardized far-field variance = output_scale * scale^2
    assert var[0] == pytest.approx(2.0 * np.std([0.0, 1.0]) ** 2, rel=1e-6)


def test_posterior_query_dim_validation():
    model = build_model(
        np.array([[0.1, 0.1], [0.9, 0.9]]), [0.0, 1.0], _params([1.0, 1.0])
    )
    with pytest.raises(InvalidArgumentError):
        posterior_mean_var(model, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# marginal likelihood


# Story: Monte-Carlo cost draws from a log-cost posterior are reproducible
# for a generator state, come as candidates x n_mc, and their logs carry the
# posterior's mean and standard deviation. (RunConfig refuses n_mc < 1.)
def test_sample_determinism_and_count():
    model = build_model(
        np.array([[0.4], [0.6]]), [0.0, 1.0], _params([0.05], scale=2.0, noise=0.5)
    )
    xn = np.array([[50.0], [0.5]])
    unmemoized, rows = np.zeros(2, dtype=bool), np.arange(2)
    mean, var = posterior_mean_var(model, xn)
    a = _segment_draws(
        mean, var, unmemoized, rows, 0.25, np.random.default_rng(9), np.empty((2, 500)),
        np.empty((2, 1000)),
    )
    b = _segment_draws(
        mean, var, unmemoized, rows, 0.25, np.random.default_rng(9), np.empty((2, 500)),
        np.empty((2, 1000)),
    )
    assert np.array_equal(a, b)
    assert a.shape == (2, 1000)
    assert np.mean(np.log(a), axis=1) == pytest.approx(mean, abs=0.2)
    assert np.std(np.log(a), axis=1) == pytest.approx(np.sqrt(var), abs=0.2)


# Story: the LML that fitting maximizes must equal the textbook dense formula
# -1/2 z'K^-1z - 1/2 log|K| - n/2 log 2pi on the standardized targets.
def test_lml_matches_dense_formula():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(5, 2))
    y = rng.normal(size=5) * 3.0
    params = _params([0.7, 0.4], scale=1.3, noise=1e-3)

    z = (y - np.mean(y)) / np.std(y)
    gram = np.array([[matern52(a, b, params) for b in x] for a in x])
    k_noisy = gram + params.noise_variance * np.eye(5)
    sign, logdet = np.linalg.slogdet(k_noisy)
    assert sign > 0
    oracle = -0.5 * z @ np.linalg.inv(k_noisy) @ z - 0.5 * logdet - 2.5 * math.log(
        2.0 * math.pi
    )
    got = _lml_values(
        x,
        z,
        params.lengthscales[None],
        np.array([params.output_scale]),
        np.array([params.noise_variance]),
    )
    assert got[0] == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# fitting


def _params_log_prior(params):
    """Oracle: the hyperprior written on KernelParams, as the module had it
    before fitting passed plain floats. The lengthscale terms are added
    left to right in a plain loop: from Python 3.12 the built-in sum() of
    floats is compensated and would move the last bits."""

    def gamma_term(value, prior):
        shape, rate = prior
        return (shape - 1.0) * math.log(value) - rate * value

    total = 0.0
    for ls in params.lengthscales:
        total += gamma_term(float(ls), gp.LENGTHSCALE_PRIOR)
    total += gamma_term(params.output_scale, gp.OUTPUT_SCALE_PRIOR)
    mean, sd = gp.NOISE_PRIOR
    log_noise = math.log(params.noise_variance)
    total += -log_noise - (log_noise - mean) ** 2 / (2.0 * sd * sd)
    return total


# Story: the fit hands log_prior plain floats from one exponentiated block;
# the prior must equal the KernelParams formula bit for bit anywhere within
# the fit's bounds, or fitted hyperparameters (and traces) would move.
def test_log_prior_matches_kernel_params_formula():
    rng = np.random.default_rng(17)
    for dim in range(1, 9):
        lo, hi = gp._log_bounds(dim)
        log_thetas = rng.uniform(lo, hi, size=(100, dim + 2))
        log_thetas[:10] = lo  # the bounds themselves
        log_thetas[10:20] = hi
        for log_theta, (*ls, scale, noise) in zip(log_thetas, np.exp(log_thetas).tolist()):
            want = _params_log_prior(gp._theta_to_params(log_theta, dim))
            assert log_prior(ls, scale, noise) == want


# Story: fitting is deterministic in the seed and lands inside the declared
# hyperparameter bounds.
def test_fit_deterministic_and_bounded():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(12, 2))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1]
    a = fit(x, y, seed=5)
    b = fit(x, y, seed=5)
    assert np.array_equal(a.params.lengthscales, b.params.lengthscales)
    assert a.params.output_scale == b.params.output_scale
    assert a.params.noise_variance == b.params.noise_variance
    lo, hi = LENGTHSCALE_BOUNDS
    assert np.all((a.params.lengthscales >= lo) & (a.params.lengthscales <= hi))
    assert OUTPUT_SCALE_BOUNDS[0] <= a.params.output_scale <= OUTPUT_SCALE_BOUNDS[1]
    assert NOISE_BOUNDS[0] <= a.params.noise_variance <= NOISE_BOUNDS[1]


# Story: the multi-start ascent maximizes the penalized marginal likelihood,
# so the returned hyperparameters should score at least as high as the
# fixed default starting point.
def test_fit_improves_penalized_objective_over_default_start():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(10, 1))
    y = np.cos(4.0 * x[:, 0])
    model = fit(x, y, seed=0)

    z = (y - np.mean(y)) / np.std(y)

    def penalized(params):
        gram = np.array([[matern52(a, b, params) for b in x] for a in x])
        k_noisy = gram + params.noise_variance * np.eye(len(x))
        sign, logdet = np.linalg.slogdet(k_noisy)
        lml = (
            -0.5 * z @ np.linalg.inv(k_noisy) @ z
            - 0.5 * logdet
            - 0.5 * len(x) * math.log(2.0 * math.pi)
        )
        return lml + _params_log_prior(params)

    start = _params([0.3], scale=1.0, noise=1e-2)
    assert penalized(model.params) >= penalized(start) - 1e-9


# Story: a fit on data from a smooth function should predict held-out points
# far better than the data spread (sanity of the whole pipeline).
def test_fit_predicts_smooth_function():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(25, 1))
    y = np.sin(2.0 * np.pi * x[:, 0])
    model = fit(x, y, seed=1)
    q = np.linspace(0.05, 0.95, 9)[:, None]
    mean, _ = posterior_mean_var(model, q)
    assert np.max(np.abs(mean - np.sin(2.0 * np.pi * q[:, 0]))) < 0.2


def _sequential_fit(x, y, seed, restarts=3, max_rounds=10):
    """Oracle: the coordinate ascent with its restarts run one after
    another, one uncached evaluation per trial, and the LML from two LU
    solves against the Cholesky factor. Returns the winning KernelParams
    (None when no value is finite), the set of vectors each restart
    evaluated, and how many evaluations needed jitter or scored -inf.

    A restart's visited set also holds, for each up step it accepted, the
    down trial from the point before the move, which the lockstep fit
    scores in the same batch as the up trial. ``stats`` also holds the
    (round, coordinate) pairs that some restart ran, and those in which
    some restart's up step won."""
    dim = x.shape[1]
    z = (y - np.mean(y)) / np.std(y)
    rng = np.random.default_rng(seed)
    lo, hi = gp._log_bounds(dim)
    base = np.log(np.concatenate([np.full(dim, 0.3), [1.0, 1e-2]]))
    starts = [base]
    for _ in range(max(0, restarts - 1)):
        starts.append(np.clip(base + rng.uniform(-1.5, 1.5, size=dim + 2), lo, hi))
    stats = {"evals": 0, "jitter": 0, "inf": 0, "pairs": set(), "up_won": set()}

    def objective(log_theta):
        stats["evals"] += 1
        params = gp._theta_to_params(log_theta, dim)
        k = gp._cross_cov(x, x, params.lengthscales, params.output_scale)
        try:
            np.linalg.cholesky(k + params.noise_variance * np.eye(len(x)))
        except np.linalg.LinAlgError:
            stats["jitter"] += 1
        try:
            chol = gp._chol_with_jitter(k + params.noise_variance * np.eye(len(x)))
        except NumericalFailureError:
            stats["inf"] += 1
            return -np.inf
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, z))
        lml = -0.5 * z @ alpha - np.sum(np.log(np.diag(chol))) - 0.5 * len(x) * math.log(
            2.0 * math.pi
        )
        return float(lml) + _params_log_prior(params)

    best_theta, best_val, visited = None, -np.inf, []
    for start in starts:
        seen = set()
        theta = start.copy()
        seen.add(theta.tobytes())
        val = objective(theta)
        step = 1.0
        for round_ in range(max_rounds):
            improved = False
            for coord in range(dim + 2):
                stats["pairs"].add((round_, coord))
                for direction in (1.0, -1.0):
                    trial = theta.copy()
                    trial[coord] += direction * step
                    trial = np.clip(trial, lo, hi)
                    seen.add(trial.tobytes())
                    trial_val = objective(trial)
                    if trial_val > val + 1e-12:
                        if direction > 0:
                            stats["up_won"].add((round_, coord))
                            down = theta.copy()
                            down[coord] -= step
                            seen.add(np.clip(down, lo, hi).tobytes())
                        theta, val = trial, trial_val
                        improved = True
            if not improved:
                step *= 0.5
                if step < 0.05:
                    break
        visited.append(seen)
        if val > best_val:
            best_val, best_theta = val, theta
    if best_theta is None or not np.isfinite(best_val):
        return None, visited, stats
    return gp._theta_to_params(best_theta, dim), visited, stats


def _fit_data(seed, n, dim, offset=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, dim))
    y = np.sin(3.0 * x).sum(axis=1) + 0.1 * rng.normal(size=n)
    return offset + x, y


# Story: the lockstep fit, with its stacked batches and its one cache,
# returns bit for bit the hyperparameters of the sequential ascent, also
# when trial covariances need jitter or stay singular (-inf). Inputs far
# from the unit cube (offset 2e6) make the squared distances cancel, so
# some trial matrices are indefinite.
@pytest.mark.parametrize(
    "seed, n, dim, restarts, offset",
    [
        (0, 5, 1, 3, 0.0),
        (1, 12, 3, 3, 0.0),
        (2, 30, 7, 10, 0.0),
        (3, 60, 2, 3, 0.0),
        (4, 20, 5, 1, 0.0),
        (1, 8, 2, 3, 2e6),
        (2, 8, 2, 10, 2e6),
        (4, 8, 2, 3, 2e6),
    ],
)
def test_fit_matches_sequential_oracle(seed, n, dim, restarts, offset):
    x, y = _fit_data(seed, n, dim, offset)
    want, _, stats = _sequential_fit(x, y, seed, restarts)
    if offset:
        assert stats["jitter"] > stats["inf"] > 0
    got = fit(x, y, seed=seed, restarts=restarts).params
    assert got.lengthscales.tobytes() == want.lengthscales.tobytes()
    assert got.output_scale == want.output_scale
    assert got.noise_variance == want.noise_variance


# Story: the same bit-for-bit agreement on random small problems: the
# ascent's lists and sets (active restarts, steps, values, the up trials
# that won) must make every move the sequential ascent makes, for one
# restart or many, and through the jitter and -inf paths that inputs at
# offset 2e6 reach.
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    dim=st.integers(1, 3),
    restarts=st.sampled_from([1, 2, 3, 10]),
    offset=st.sampled_from([0.0, 2e6]),
)
def test_fit_matches_sequential_oracle_on_random_problems(seed, n, dim, restarts, offset):
    x, y = _fit_data(seed, n, dim, offset)
    want, _, _ = _sequential_fit(x, y, seed, restarts)
    if want is None:
        with pytest.raises(NumericalFailureError):
            fit(x, y, seed=seed, restarts=restarts)
        return
    got = fit(x, y, seed=seed, restarts=restarts).params
    assert got.lengthscales.tobytes() == want.lengthscales.tobytes()
    assert got.output_scale == want.output_scale
    assert got.noise_variance == want.noise_variance


def _covariance_kind(x, log_theta):
    """'plain', 'jitter' or 'inf': whether K + noise I at these
    hyperparameters factors as it is, needs jitter, or fails through it."""
    params = gp._theta_to_params(log_theta, x.shape[1])
    k = _cross_cov(x, x, params.lengthscales, params.output_scale)
    k += params.noise_variance * np.eye(len(x))
    try:
        np.linalg.cholesky(k)
        return "plain"
    except np.linalg.LinAlgError:
        pass
    try:
        _chol_with_jitter(k)
        return "jitter"
    except NumericalFailureError:
        return "inf"


# Story: a member's likelihood does not depend on the batch it is scored
# in: alone, or stacked with two others in any order, its value has the same
# bits, also when a neighbour needs jitter or scores -inf and the stack falls
# back to factoring one matrix at a time. The fit's one cache and the
# lockstep fit rely on it.
def test_lml_values_are_batch_independent():
    x, y = _fit_data(1, 8, 2, 2e6)
    z = (y - np.mean(y)) / np.std(y)
    dim = x.shape[1]
    lo, hi = gp._log_bounds(dim)
    rng = np.random.default_rng(0)
    found = {}
    while len(found) < 3:
        log_theta = rng.uniform(lo, hi)
        found.setdefault(_covariance_kind(x, log_theta), log_theta)
    kinds = ["plain", "jitter", "inf"]
    theta = np.exp(np.array([found[kind] for kind in kinds]))

    def lml(rows):
        t = theta[rows]
        return _lml_values(x, z, t[:, :dim], t[:, dim], t[:, dim + 1])

    alone = np.concatenate([lml([i]) for i in range(3)])
    assert np.isfinite(alone[:2]).all() and alone[2] == -np.inf
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [0, 0, 0], [1, 1, 0]):
        assert lml(order).tobytes() == alone[order].tobytes(), order


# Story: when every trial scores -inf, the lockstep fit fails as the
# sequential ascent does.
def test_fit_fails_where_sequential_oracle_finds_nothing_finite():
    x, y = _fit_data(0, 15, 2, offset=3e7)
    want, _, stats = _sequential_fit(x, y, 0)
    assert want is None and stats["inf"] == stats["evals"]
    with pytest.raises(NumericalFailureError):
        fit(x, y, seed=0)


# Story: the cache scores each distinct vector once, whichever restarts
# reach it (a value depends on the vector alone), and every score still
# calls gp.log_prior, which counts likelihood evaluations. In
# (3, 5, 1, 10) three down trials made again after a winning up step are new
# vectors (log output scale 0.3526... + 1 - 1 rounds away from 0.3526...),
# so a fit that skipped that retry batch would count 3 short.
def test_fit_calls_log_prior_once_per_distinct_vector(monkeypatch):
    calls = []

    def counting_prior(*args):
        calls.append(args)
        return log_prior(*args)

    for seed, n, dim, restarts, offset in [
        (2, 30, 7, 10, 0.0),
        (1, 8, 2, 3, 2e6),
        (3, 5, 1, 10, 0.0),
    ]:
        x, y = _fit_data(seed, n, dim, offset)
        _, visited, stats = _sequential_fit(x, y, seed, restarts)
        calls.clear()
        monkeypatch.setattr(gp, "log_prior", counting_prior)
        fit(x, y, seed=seed, restarts=restarts)
        monkeypatch.undo()
        assert len(calls) == len(set().union(*visited))
        assert len(calls) < stats["evals"]


# Story: each (round, coordinate) scores the up and down trials of every
# running restart as one batch, plus one retry batch where some up step
# won: at most 2 x restarts members a call, and at most 1 + R + U calls,
# with R the pairs some restart ran and U those where some up step won (the
# first call scores the starts; a batch that is all cached makes no call).
def test_fit_batches_both_directions_per_coordinate(monkeypatch):
    sizes = []

    def recording_lml(x, z, lengthscales, *args):
        sizes.append(len(lengthscales))
        return _lml_values(x, z, lengthscales, *args)

    seed, n, dim, restarts = 2, 30, 7, 10
    x, y = _fit_data(seed, n, dim)
    _, _, stats = _sequential_fit(x, y, seed, restarts)
    monkeypatch.setattr(gp, "_lml_values", recording_lml)
    fit(x, y, seed=seed, restarts=restarts)
    assert sizes[0] == restarts and max(sizes) == 2 * restarts
    assert len(sizes) <= 1 + len(stats["pairs"]) + len(stats["up_won"])
    assert stats["up_won"]


def test_fit_input_validation():
    with pytest.raises(InsufficientDataError):
        fit(np.array([[0.0]]), [1.0], seed=0)
    with pytest.raises(InvalidArgumentError):
        fit(np.array([[0.0], [1.0]]), [float("nan"), 0.0], seed=0)
    with pytest.raises(InvalidArgumentError):
        fit(np.array([[float("inf")], [1.0]]), [1.0, 0.0], seed=0)
    with pytest.raises(InvalidArgumentError):
        fit(np.array([[0.0], [1.0], [0.5]]), [1.0, 0.0], seed=0)


def test_build_model_dimension_validation():
    with pytest.raises(InvalidArgumentError):
        build_model(np.array([[0.0, 0.0], [1.0, 1.0]]), [1.0, 0.0], _params([1.0]))


# Story: constant targets must not divide by a zero standard deviation.
def test_constant_targets_are_handled():
    model = build_model(np.array([[0.0], [1.0]]), [5.0, 5.0], _params([1.0]))
    mean, var = posterior_mean_var(model, np.array([[0.5]]))
    assert mean[0] == pytest.approx(5.0, abs=1e-6)
    assert var[0] >= 0.0


# ---------------------------------------------------------------------------
# numerics


# Story: a duplicated input row makes the gram matrix singular at zero noise;
# jitter escalation should keep the solve alive, an indefinite matrix must not.
def test_cholesky_jitter_paths():
    # duplicated points, tiny noise: needs jitter but must succeed
    x = np.array([[0.5], [0.5], [0.9]])
    y = np.array([1.0, 1.0, 2.0])
    model = build_model(x, y, _params([1.0], noise=1e-6))
    assert isinstance(model, GPModel)

    with pytest.raises(NumericalFailureError):
        _chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
