"""Session-scoped fixtures for the end-to-end acceptance criteria, the
generator table that ``score_candidates`` takes, the antithetic normals
its cost draws are built from and the unpruned scores they add up to, and
the one home of each test oracle that
a module test and an acceptance criterion share: a scalar Matern-5/2
kernel and the dense-inverse GP posterior built on it
(``tests/test_gp.py``, criterion 2), and a brute-force prefix pool
(``tests/test_cache.py``, criterion 6).

The five-seed benchmark comparisons are expensive (a couple of minutes in
total), so each family of runs executes once per session, in a pool of
worker processes, and is shared by every criterion that reads it.  All
runs are fully seeded: re-executing a fixture always reproduces the same
traces, whichever process runs them.
"""

import copy
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pipetune.acquisition import METHODS, expected_improvement_batch
from pipetune.gp import posterior_mean_var
from pipetune.optimizer import RunConfig, run
from pipetune.pipeline import synthetic_suite


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance gate's one-line-per-criterion results after
    capture ends, so they always appear in the run log."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

SEEDS = (0, 1, 2, 3, 4)

# the memoizing method and plain EI, compared at each seed by criteria 8-13
PAIRED_METHODS = ("eeipu", "ei")

# Benchmark configuration pinned by the acceptance criteria: the 3-stage
# synthetic suite, 5 warmup points, auto budget (5x warmup cost), 256
# candidates per batch, 500 cost draws per candidate.
PINNED = dict(n0=5, m=256, n_mc=500, restarts=10, total_budget="auto")

EPSILON_LEVELS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


def matern52(a, b, params):
    """Scalar Matern-5/2 covariance between two points, written apart from
    pipetune's vectorized kernel; the GP tests' dense oracles use it."""
    r = math.sqrt(sum(((ai - bi) / ls) ** 2 for ai, bi, ls in zip(a, b, params.lengthscales)))
    s5r = math.sqrt(5.0) * r
    return params.output_scale * (1.0 + s5r + 5.0 * r * r / 3.0) * math.exp(-s5r)


def dense_posterior(x, y, params, queries):
    """Posterior mean and latent variance at ``queries`` through an explicit
    inverse of the whole covariance, with the z-scoring convention that
    pipetune.gp documents, in place of its inverse Cholesky factor."""
    shift, scale = float(np.mean(y)), float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    z = (np.asarray(y) - shift) / scale

    def k(a, b):
        return np.array([[matern52(ai, bi, params) for bi in b] for ai in a])

    gram = k(x, x) + params.noise_variance * np.eye(len(x))
    inv = np.linalg.inv(gram)
    ks = k(queries, x)
    mean = ks @ inv @ z
    prior = np.array([matern52(q, q, params) for q in queries])
    var = prior - np.einsum("ij,jk,ik->i", ks, inv, ks)
    return shift + scale * mean, scale * scale * np.maximum(var, 0.0)


class ReferencePool:
    """Brute-force model of the prefix pool, written apart from
    pipetune.cache: {widest cached prefix: (best objective, insertion
    order)} over ``capacity`` distinct prefixes. A kept prefix offered
    again keeps its place and its best objective. A new one enters while
    there is room, and otherwise only by beating the worst kept objective
    strictly; it evicts that one, the latest inserted among ties."""

    def __init__(self, capacity, stage_dims, deltas):
        self.capacity = capacity
        self.widths = {d: sum(stage_dims[:d]) for d in deltas}  # leading values per depth
        self.items: dict[tuple, tuple[float, int]] = {}
        self.counter = 0

    def offer(self, x, objective):
        key = tuple(float(v) for v in x[: max(self.widths.values())])
        if key in self.items:
            best, order = self.items[key]
            if objective > best:
                self.items[key] = (objective, order)
            return
        if len(self.items) >= self.capacity:
            worst = min(self.items, key=lambda k: (self.items[k][0], -self.items[k][1]))
            if not objective > self.items[worst][0]:
                return
            del self.items[worst]
        self.items[key] = (objective, self.counter)
        self.counter += 1

    def sources(self):
        """[(prefix, objective)] in insertion order."""
        return [(k, obj) for k, (obj, _) in sorted(self.items.items(), key=lambda i: i[1][1])]

    def expected_delta(self, x):
        """The deepest depth whose leading values of ``x`` some kept prefix
        shares; 0 when none does."""
        return max(
            (d for d, w in self.widths.items() if any(k[:w] == tuple(x[:w]) for k in self.items)),
            default=0,
        )


def antithetic_normals(rng, rows, n_mc):
    """The (rows, n_mc) normals that cost draws exponentiate, from a fresh
    generator: ceil(n_mc / 2) drawn per row as one block, followed by the
    negatives of the first floor(n_mc / 2) of each row."""
    z = rng.standard_normal((rows, -(-n_mc // 2)))
    return np.concatenate([z, -z[:, : n_mc // 2]], axis=1)


def rng_table(generators, n_blocks=1):
    """``score_candidates``' (cost segments x blocks) table of Monte-Carlo
    generators, from a flat list in segment-major order."""
    table = np.empty(len(generators), dtype=object)
    table[:] = generators
    return table.reshape(-1, n_blocks)


def unpruned_scores(method, models, space, xs, deltas, f_best, eta, epsilon, n_mc, mc_rngs):
    """Every candidate's score EI * E[1/C]^eta with nothing pruned, written
    apart from ``score_candidates`` and leaving ``mc_rngs`` unconsumed. Per
    block and segment: the posterior on the whole block, the full (rows,
    n_mc) draws exp(mu + sd z) from a copy of the segment's generator
    (``antithetic_normals``), epsilon where memoized, summed in segment
    order; E[1/C] is the mean of their reciprocals."""
    n_blocks = mc_rngs.shape[1]
    blocks = np.split(space.normalize(np.atleast_2d(xs)), n_blocks)
    segments = METHODS[method].segments(space.n_stages)
    scores = []
    for b, (xn, block_deltas) in enumerate(zip(blocks, np.split(np.asarray(deltas), n_blocks))):
        ei = expected_improvement_batch(*posterior_mean_var(models.objective, xn), f_best)
        if not segments:
            scores.append(ei)
            continue
        totals = 0.0
        for s, (seg, model) in enumerate(zip(segments, models.costs, strict=True)):
            mu, var = posterior_mean_var(model, xn[:, seg.columns(space)])
            z = antithetic_normals(copy.deepcopy(mc_rngs[s, b]), len(xn), n_mc)
            draws = np.exp(mu[:, None] + np.sqrt(var)[:, None] * z)
            draws[block_deltas >= seg.last] = epsilon
            totals = totals + draws
        scores.append(ei * np.power(np.mean(1.0 / totals, axis=-1), eta))
    return np.concatenate(scores)


def check_pruned(scores, reference):
    """Checks ``score_candidates``' scores row by row against the unpruned
    ``reference``: each row either has the reference's bits or is pruned,
    reading 0 with a reference score below the winner's. So the argmax and
    the winning score are the reference's bit for bit. Returns the mask of
    pruned rows."""
    pruned = scores.view(np.uint64) != reference.view(np.uint64)
    winner = int(np.argmax(scores))
    assert np.all(scores[pruned] == 0.0)
    assert np.all(reference[pruned] < scores[winner])
    assert int(np.argmax(reference)) == winner
    return pruned


def _benchmark_run(method, seed, cache_root, **overrides):
    config = RunConfig(method=method, seed=seed, **{**PINNED, **overrides})
    return run(config, synthetic_suite("synth3"), cache_root=cache_root)


def _benchmark_runs(jobs):
    """{key: trace} for {key: (method, seed, cache_root, overrides)}, run in
    at most two spawned worker processes, and no more than there are cores.
    The pool is shut down before this returns, so no worker outlives the
    fixture that built its traces (criterion 14 times an idle process)."""
    workers = min(2, os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        futures = {
            key: pool.submit(_benchmark_run, method, seed, root, **overrides)
            for key, (method, seed, root, overrides) in jobs.items()
        }
        return {key: future.result() for key, future in futures.items()}


def paired_runs(root):
    """{(method, seed): trace} for the memoizing-vs-plain-EI comparison."""
    return _benchmark_runs({
        (method, seed): (method, seed, root / f"{method}_{seed}", {})
        for method in PAIRED_METHODS
        for seed in SEEDS
    })


@pytest.fixture(scope="session")
def paired_traces(tmp_path_factory):
    return paired_runs(tmp_path_factory.mktemp("acc_paired"))


@pytest.fixture(scope="session")
def expdecay_traces(tmp_path_factory):
    """{seed: trace} for the memoizing method under exponential cooling."""
    root = tmp_path_factory.mktemp("acc_expdecay")
    return _benchmark_runs({
        seed: ("eeipu", seed, root / str(seed), {"eta_schedule": "exp_decay"})
        for seed in SEEDS
    })


@pytest.fixture(scope="session")
def epsilon_traces(tmp_path_factory, paired_traces):
    """{epsilon: [trace per seed]}.  The 0.01 level is the paired runs'
    default, so those traces are reused rather than recomputed."""
    root = tmp_path_factory.mktemp("acc_eps")
    runs = _benchmark_runs({
        (eps, s): ("eeipu", s, root / f"{eps}_{s}", {"epsilon": eps})
        for eps in EPSILON_LEVELS
        if eps != 0.01
        for s in SEEDS
    })
    runs.update({(0.01, s): paired_traces[("eeipu", s)] for s in SEEDS})
    return {eps: [runs[(eps, s)] for s in SEEDS] for eps in EPSILON_LEVELS}
