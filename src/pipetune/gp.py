"""Zero-mean Gaussian-process regression with a Matern-5/2 covariance.

One of these models serves as the objective surrogate; K more model the
per-stage log costs.  Training inputs are expected to live in the unit
cube (the caller normalizes with the search-space bounds so that
identical raw points always map to identical normalized coordinates).
Targets are z-scored internally and predictions are returned in the
original target units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, NumericalFailureError
from .floats import ordered_sum

# Hyperparameter search bounds, in normalized-input units.
LENGTHSCALE_BOUNDS = (1e-3, 1e3)
OUTPUT_SCALE_BOUNDS = (1e-3, 1e3)
NOISE_BOUNDS = (1e-6, 1e1)

_JITTER_START = 1e-8
_JITTER_MAX = 1e-2

_LOG_2PI = math.log(2.0 * math.pi)

_MAX_ROUNDS = 10  # of the coordinate-wise ascent in ``fit``

# The corner of the bordered covariance in _lml_values: far above any
# z' (K + noise I)^-1 z, which noise >= 1e-6 keeps below 1e6 n.
_BORDER = 1e30


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 hyperparameters: per-dimension lengthscales, signal
    variance (``output_scale``) and observation noise variance."""

    lengthscales: np.ndarray
    output_scale: float
    noise_variance: float

    def __post_init__(self):
        ls = np.asarray(self.lengthscales, dtype=float)
        object.__setattr__(self, "lengthscales", ls)
        if ls.ndim != 1 or ls.size == 0:
            raise InvalidArgumentError("lengthscales must be a non-empty 1-D array")
        if not np.all(ls > 0.0):
            raise InvalidArgumentError("lengthscales must be strictly positive")
        if not self.output_scale > 0.0:
            raise InvalidArgumentError("output_scale must be strictly positive")
        if not self.noise_variance > 0.0:
            raise InvalidArgumentError("noise_variance must be strictly positive")

    @property
    def dim(self) -> int:
        return int(self.lengthscales.size)


@dataclass(frozen=True)
class GPModel:
    """A fitted GP: normalized inputs and the inverse of the Cholesky factor
    L of K + noise I, which posterior inference multiplies by.

    ``chol_inv`` is L^-1, computed once per model by ``np.linalg.inv``
    (whose pivoting can leave rounding-level values above the diagonal),
    so a posterior is matrix products with no triangular or LU solve.
    ``target_transform`` is the (shift, scale) pair that undoes the
    internal standardization of the targets to z; ``alpha`` is
    (K + noise I)^-1 z = L^-T L^-1 z.
    """

    inputs: np.ndarray
    params: KernelParams
    chol_inv: np.ndarray
    alpha: np.ndarray
    target_transform: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _cross_cov(
    xa: np.ndarray,
    xb: np.ndarray,
    lengthscales: np.ndarray,
    output_scale: float | np.ndarray,
) -> np.ndarray:
    """Matern-5/2 cross-covariance, shape (len(xa), len(xb)):
    ``output_scale * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r)`` where
    ``r`` is the lengthscale-weighted Euclidean distance.

    With a leading batch axis, lengthscales (B, dim) and output_scale (B,),
    the result is the B stacked matrices, shape (B, len(xa), len(xb))."""
    ls = lengthscales[..., None, :]
    sa = xa / ls
    na = np.add.reduce(sa * sa, axis=-1)
    if xb is xa:
        sb, nb = sa, na
    else:
        sb = xb / ls
        nb = np.add.reduce(sb * sb, axis=-1)
    # 2.0 * sa is a fresh buffer, so the product stays a gemm even when sb is sa
    # (numpy would run syrk for sa @ sa', which rounds differently)
    sq = na[..., :, None] + nb[..., None, :] - 2.0 * sa @ np.swapaxes(sb, -1, -2)
    r = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    s5r = math.sqrt(5.0) * r
    # in place, in the order of output_scale * (1 + s5r + 5/3 r r) * exp(-s5r)
    k = (5.0 / 3.0) * r
    k *= r
    k += 1.0 + s5r
    k *= np.asarray(output_scale)[..., None, None]
    k *= np.exp(np.negative(s5r, out=s5r), out=s5r)
    return k


def _chol_with_jitter(k_noisy: np.ndarray) -> np.ndarray:
    """Cholesky factor of an SPD matrix, escalating diagonal jitter from
    1e-8 by factors of 10 up to 1e-2 before giving up."""
    try:
        return np.linalg.cholesky(k_noisy)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START
    eye = np.eye(k_noisy.shape[0])
    while jitter <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(k_noisy + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalFailureError(
        f"covariance not positive definite after jitter escalation to {_JITTER_MAX:g}"
    )


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    shift = float(np.mean(y))
    scale = float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    return (y - shift) / scale, shift, scale


def _lml_values(
    x: np.ndarray,
    z: np.ndarray,
    lengthscales: np.ndarray,
    output_scale: np.ndarray,
    noise_variance: np.ndarray,
) -> np.ndarray:
    """Log marginal likelihood of standardized targets z under each of B
    hyperparameter sets, evaluated as one stacked batch: lengthscales
    (B, dim), output_scale (B,) and noise_variance (B,), all positive.
    -inf where the covariance stays singular through jitter escalation.

    Each covariance K + noise I is bordered by z and a large corner,
    ``[[K + noise I, z], [z', c]]``, so that one Cholesky factor holds both
    terms: its leading n diagonal entries give log|K + noise I|, and its
    last row is w = L^-1 z, with z' (K + noise I)^-1 z = |w|^2. Each
    member's value depends on its own matrix alone, not on the batch.

    The values come straight from one stacked Cholesky that factors every
    member; only where it fails is each member factored with jitter alone."""
    n, batch = x.shape[0], len(output_scale)
    k = np.empty((batch, n + 1, n + 1))
    k[:, :n, :n] = _cross_cov(x, x, lengthscales, output_scale)
    # the leading n diagonal entries, as a view
    k.reshape(batch, -1)[:, : n * (n + 2) : n + 2] += noise_variance[:, None]
    k[:, n, :n] = k[:, :n, n] = z
    k[:, n, n] = _BORDER
    try:
        return _bordered_lml(np.linalg.cholesky(k))
    except np.linalg.LinAlgError:
        values = np.full(batch, -np.inf)
    for i, k_noisy in enumerate(k):
        try:
            values[i] = _bordered_lml(_chol_with_jitter(k_noisy)[None])[0]
        except NumericalFailureError:
            pass
    return values


def _bordered_lml(chols: np.ndarray) -> np.ndarray:
    """``_lml_values`` from the stacked factors of the bordered covariances."""
    batch, n = chols.shape[0], chols.shape[1] - 1
    w = chols[:, n, :n]
    # the leading n diagonal entries, as a strided view
    log_dets = np.add.reduce(np.log(chols.reshape(batch, -1)[:, : n * (n + 2) : n + 2]), axis=1)
    w_sq = (w[:, None, :] @ w[:, :, None]).ravel()  # one dot product per member
    return -0.5 * w_sq - log_dets - 0.5 * n * _LOG_2PI


def _as_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the (n, dim) inputs and n targets, refused unless they are
    at least 2 finite rows."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 2 or y.shape != (len(x),):
        raise InvalidArgumentError(
            f"need one input row per target, got inputs {x.shape} and targets {y.shape}"
        )
    if len(y) < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {len(y)}")
    if not np.all(np.isfinite(y)):
        raise InvalidArgumentError("targets must be finite")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("inputs must be finite")
    return x, y


def build_model(x: np.ndarray, y: np.ndarray, params: KernelParams) -> GPModel:
    """Condition on inputs x (n, dim) and targets y (n,) with explicitly
    chosen hyperparameters — no fitting: the inverse L^-1 of the Cholesky
    factor of K + noise I (jittered if need be), taken once here, and
    alpha = L^-T L^-1 z for the standardized z.
    ``fit`` calls it with the hyperparameters it chose."""
    x, y = _as_xy(x, y)
    if x.shape[1] != params.dim:
        raise InvalidArgumentError(
            f"input dimension {x.shape[1]} != lengthscale dimension {params.dim}"
        )
    z, shift, scale = _standardize(y)
    k = _cross_cov(x, x, params.lengthscales, params.output_scale)
    k += params.noise_variance * np.eye(x.shape[0])
    chol_inv = np.linalg.inv(_chol_with_jitter(k))
    alpha = chol_inv.T @ (chol_inv @ z)
    return GPModel(
        inputs=x,
        params=params,
        chol_inv=chol_inv,
        alpha=alpha,
        target_transform=(shift, scale),
    )


def _log_bounds(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the log-parameter vector
    (log lengthscales, log output scale, log noise variance)."""
    bounds = [LENGTHSCALE_BOUNDS] * dim + [OUTPUT_SCALE_BOUNDS, NOISE_BOUNDS]
    lo, hi = np.log(bounds).T
    return lo, hi


def _theta_to_params(log_theta: np.ndarray, dim: int) -> KernelParams:
    theta = np.exp(log_theta)
    return KernelParams(
        lengthscales=theta[:dim],
        output_scale=float(theta[dim]),
        noise_variance=float(theta[dim + 1]),
    )


# Weak hyperpriors on the natural-scale parameters.  With a handful of
# observations in many dimensions the marginal likelihood is nearly flat in
# several lengthscales, and an unpenalized ascent drifts them to the bounds —
# which collapses predictive variance along the unidentified axes.  The
# lengthscale/output-scale Gammas are the stock choices for unit-cube inputs
# and z-scored targets.  The noise prior is a wide LogNormal centered well
# below the signal scale: targets here come from near-deterministic pipeline
# runs, and a noise floor fitted high enough to absorb the least-influential
# stage's contribution would blind the model to exactly the variation that
# prefix-reusing candidates explore.  Two nats of spread let genuinely noisy
# data override it.
LENGTHSCALE_PRIOR = (3.0, 6.0)  # Gamma(shape, rate)
OUTPUT_SCALE_PRIOR = (2.0, 0.15)  # Gamma(shape, rate)
NOISE_PRIOR = (math.log(1e-4), 2.0)  # LogNormal(mean, sd) on the variance


def log_prior(
    lengthscales: Sequence[float], output_scale: float, noise_variance: float
) -> float:
    """Unnormalized log hyperprior density at positive natural-scale
    hyperparameters, given as plain floats; the lengthscale terms are
    summed first, in order."""
    shape, rate = LENGTHSCALE_PRIOR
    total = ordered_sum([(shape - 1.0) * math.log(ls) - rate * ls for ls in lengthscales])
    shape, rate = OUTPUT_SCALE_PRIOR
    total += (shape - 1.0) * math.log(output_scale) - rate * output_scale
    mean, sd = NOISE_PRIOR
    log_noise = math.log(noise_variance)
    total += -log_noise - (log_noise - mean) ** 2 / (2.0 * sd * sd)
    return total


def fit(x: np.ndarray, y: np.ndarray, seed: int, restarts: int = 3) -> GPModel:
    """Fit kernel hyperparameters by maximizing the penalized log marginal
    likelihood (MAP under the weak Gamma hyperpriors above).

    The optimizer is a multi-start coordinate-wise ascent in log parameter
    space: gradient-free, bounded, and deterministic for a given seed. Each
    restart steps every coordinate up and down by its step size, keeps a
    trial that beats its own current value by more than 1e-12, and halves
    the step after a round without improvement, stopping below 0.05 or
    after 10 rounds.

    The restarts are independent ascents advanced in lockstep: at each
    (round, coordinate) the up and down trials of every restart still
    running are scored as one stacked batch (one stacked Cholesky), and
    where a restart's up trial wins, its down trial from the new point in a
    second, retry batch. The ascent's state is plain Python: per restart,
    a point (a tuple of log parameters, clipped in the one coordinate a
    trial moves), a value and a step size, in lists. One cache keyed by the
    point serves every restart, as a value depends on the point alone (see
    ``_lml_values``) and the ascent often returns to a point; ``log_prior``
    runs once per distinct point, and numpy sees only the block of new
    points, exponentiated and scored by ``_lml_values``.
    The result is the one the restarts would reach one after another: the
    best final value wins, ties going to the earlier start.

    Parameters
    ----------
    x : (n, dim) array
        Training inputs, in the unit cube.
    y : (n,) array
        Training targets.
    seed : int
        Seeds the restart starting points.

    Raises
    ------
    InsufficientDataError
        Fewer than two observations.
    InvalidArgumentError
        Row counts differ, or a value is not finite.
    NumericalFailureError
        Covariance stayed singular through jitter escalation.
    """
    x, y = _as_xy(x, y)
    dim = x.shape[1]

    z, _, _ = _standardize(y)
    rng = np.random.default_rng(seed)
    lo, hi = _log_bounds(dim)

    # Default start: mid-range lengthscales for unit-cube inputs, unit
    # signal variance, small but nonzero noise.
    base = np.log(np.concatenate([np.full(dim, 0.3), [1.0, 1e-2]]))
    starts = [base]
    for _ in range(max(0, restarts - 1)):
        jiggle = rng.uniform(-1.5, 1.5, size=dim + 2)
        starts.append(np.clip(base + jiggle, lo, hi))

    seen: dict[tuple[float, ...], float] = {}

    def objective(log_thetas: list[tuple[float, ...]]) -> list[float]:
        """Penalized LML at each point, scoring the ones not seen yet."""
        fresh = list(dict.fromkeys(t for t in log_thetas if t not in seen))
        if fresh:
            theta = np.exp(fresh)
            lmls = _lml_values(x, z, theta[:, :dim], theta[:, dim], theta[:, dim + 1])
            for t, (*ls, scale, noise), lml in zip(fresh, theta.tolist(), lmls.tolist()):
                # a module global, so that a wrapper installed on it sees every call
                seen[t] = lml + log_prior(ls, scale, noise)
        return [seen[t] for t in log_thetas]

    thetas = [tuple(start.tolist()) for start in starts]
    active = list(range(len(starts)))
    vals = objective(thetas)
    steps = [1.0] * len(starts)
    lo, hi = lo.tolist(), hi.tolist()
    for _ in range(_MAX_ROUNDS):
        improved = set()
        for coord in range(dim + 2):
            # every running restart's up and down trials as one batch; where
            # the up trial wins, the down trial is made again from the new
            # point, in a second batch, as the one-restart ascent makes it
            rows = active + active
            deltas = [steps[r] for r in active] + [-steps[r] for r in active]
            n_up = len(active)
            while rows:
                # only the moved coordinate can leave its bounds
                trials = [
                    t[:coord] + (min(max(t[coord] + d, lo[coord]), hi[coord]),) + t[coord + 1 :]
                    for t, d in zip([thetas[r] for r in rows], deltas)
                ]
                moved = {}  # restart: the index of its winning trial
                for i, (r, trial, value) in enumerate(zip(rows, trials, objective(trials))):
                    # up trials come first: a restart an up trial moved drops its down trial
                    if r not in moved and value > vals[r] + 1e-12:
                        thetas[r], vals[r], moved[r] = trial, value, i
                improved.update(moved)
                rows = [r for r, i in moved.items() if i < n_up]
                deltas, n_up = [-steps[r] for r in rows], 0
        for r in set(active) - improved:
            steps[r] *= 0.5
        active = [r for r in active if steps[r] >= 0.05]
        if not active:
            break

    best = int(np.argmax(vals))  # the first of equal values: the earlier start
    if not math.isfinite(vals[best]):
        raise NumericalFailureError("likelihood not finite at any candidate")
    return build_model(x, y, _theta_to_params(np.array(thetas[best]), dim))


def posterior_mean_var(model: GPModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and (latent, noise-free) variance at each query row,
    de-standardized to original target units.  Variance is clamped at 0.

    Two matrix products against the model's fixed arrays: the mean is
    k* alpha and the variance output_scale - |k* L^-T|^2 per row, where
    k* is the (queries, n) cross-covariance."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != model.dim:
        raise InvalidArgumentError(
            f"query dimension {queries.shape[1]} != model dimension {model.dim}"
        )
    k_star = _cross_cov(
        queries, model.inputs, model.params.lengthscales, model.params.output_scale
    )
    mean_std = k_star @ model.alpha
    v = k_star @ model.chol_inv.T
    var_std = np.maximum(model.params.output_scale - np.sum(v * v, axis=1), 0.0)
    shift, scale = model.target_transform
    return shift + scale * mean_std, scale * scale * var_std
