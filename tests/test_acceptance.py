"""Acceptance gate: fourteen criteria, one test each, executed in order.

Criteria 1-7 are desk-scale property/oracle checks; criteria 8-13 compare
five-seed benchmark runs on the 3-stage synthetic suite (shared via the
session fixtures in conftest.py); criterion 14 bounds cache overhead.

Each criterion records one pass/fail line (echoed by the terminal-summary
hook in conftest.py so the lines always appear at the end of the run log)
and then asserts, so a red criterion is also a red test.
"""

import math
import statistics
import time

import numpy as np

from pipetune.acquisition import (
    ModelSet,
    cooling_eta,
    expected_improvement_batch,
    expected_inverse_cost,
    score_candidates,
)
from pipetune.cache import PrefixPool, StageOutputStore, lookup, update_pool
from pipetune.cli import _improvement_flags, epsilon_insensitive
from pipetune.gp import KernelParams, build_model, posterior_mean_var
from pipetune.optimizer import RunConfig, derived_rng, run, write_trace
from pipetune.pipeline import Observation, synthetic_suite

from conftest import SEEDS, ReferencePool, dense_posterior, rng_table, unpruned_scores


RESULTS: list[str] = []


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{mark}] {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form expected improvement vs Monte-Carlo oracle


def test_criterion_01_ei_matches_mc_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        mu = float(rng.uniform(-3.0, 3.0))
        sigma = float(rng.uniform(0.05, 3.0))
        f_best = float(rng.uniform(-3.0, 3.0))
        closed = float(
            expected_improvement_batch(
                np.array([mu]), np.array([sigma * sigma]), f_best
            )[0]
        )
        draws = mu + sigma * rng.standard_normal(1_000_000)
        mc = float(np.mean(np.maximum(draws - f_best, 0.0)))
        tol = 3e-3 * max(sigma, 1.0)
        worst = max(worst, abs(closed - mc) / tol)
    _check(
        1,
        "EI closed form vs 1e6-draw MC",
        worst <= 1.0,
        f"worst |closed-MC| = {worst:.3f}x the 3e-3*max(sigma,1) tolerance",
    )


# ---------------------------------------------------------------------------
# 2. GP posterior exactness


def test_criterion_02_gp_exactness():
    # (a) near-noiseless interpolation of three training points
    params3 = KernelParams(
        lengthscales=np.array([0.4, 0.4]), output_scale=1.5, noise_variance=1e-8
    )
    x3 = np.array([[0.1, 0.2], [0.5, 0.9], [0.8, 0.3]])
    y3 = np.array([1.0, -2.0, 0.5])
    model3 = build_model(x3, y3, params3)
    mean3, _ = posterior_mean_var(model3, x3)
    interp_err = float(np.max(np.abs(mean3 - y3)))

    # (b) posterior mean/variance vs an explicit dense-inverse oracle
    rng = np.random.default_rng(21)
    oracle_err = 0.0
    for _ in range(10):
        params = KernelParams(
            lengthscales=rng.uniform(0.3, 1.5, size=3),
            output_scale=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(1e-4, 1e-2)),
        )
        x = rng.uniform(0.0, 1.0, size=(4, 3))
        y = rng.standard_normal(4)
        queries = rng.uniform(0.0, 1.0, size=(6, 3))
        model = build_model(x, y, params)
        mean, var = posterior_mean_var(model, queries)
        omean, ovar = dense_posterior(x, y, params, queries)
        oracle_err = max(
            oracle_err,
            float(np.max(np.abs(mean - omean))),
            float(np.max(np.abs(var - ovar))),
        )
    _check(
        2,
        "GP exactness",
        interp_err <= 1e-4 and oracle_err <= 1e-8,
        f"interpolation err {interp_err:.2e} (tol 1e-4), "
        f"dense-oracle err {oracle_err:.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 3. expected inverse cost estimator


def test_criterion_03_inverse_cost_estimator():
    # the estimator score_candidates runs, fed the totals of one row of
    # cost draws per stage. Constant-cost degeneracy: every draw totals the
    # same, so the estimate is exactly the reciprocal of the stage-cost sum
    d = 64
    const = np.full(d, 2.0) + np.full(d, 3.0) + np.full(d, 1.0)
    const_err = abs(expected_inverse_cost(const) - 1.0 / 6.0)

    # log-normal stage costs at the working sample count vs a large oracle
    mus = np.array([0.1, 0.5, -0.2])
    sds = np.array([0.3, 0.2, 0.4])

    def draw(n, rng):
        return np.exp(mus[:, None] + sds[:, None] * rng.standard_normal((3, n)))

    est = expected_inverse_cost(draw(10_000, np.random.default_rng(31)).sum(axis=0))
    oracle = float(
        np.mean(1.0 / np.sum(draw(1_000_000, np.random.default_rng(32)), axis=0))
    )
    rel_err = abs(est - oracle) / oracle
    _check(
        3,
        "inverse-cost estimator",
        const_err == 0.0 and rel_err <= 0.02,
        f"constant-case err {const_err:.1e} (tol 0), "
        f"log-normal rel err {rel_err:.4f} (tol 0.02)",
    )


# ---------------------------------------------------------------------------
# 4. memoization gate


def test_criterion_04_memoization_gate():
    pipe = synthetic_suite("synth3")
    space = pipe.search_space()
    rng = np.random.default_rng(41)
    xs = space.uniform(rng, 6)
    deltas = np.array([0, 1, 2, 0, 2, 1])
    stage_costs = (2.0, 3.0, 4.0)

    def flat_cost_model(dim, cost):
        # vanishing signal variance pins every posterior draw at log(cost)
        params = KernelParams(
            lengthscales=np.full(dim, 1.0),
            output_scale=1e-18,
            noise_variance=1e-6,
        )
        x = np.array([np.full(dim, 0.2), np.full(dim, 0.8)])
        return build_model(x, [math.log(cost)] * 2, params)

    costs = tuple(
        flat_cost_model(space.stage_dims[k], stage_costs[k]) for k in range(3)
    )
    objective = build_model(
        space.normalize(xs),
        np.arange(len(xs), dtype=float),
        KernelParams(
            lengthscales=np.full(7, 0.5), output_scale=1.0, noise_variance=1e-4
        ),
    )
    models = ModelSet(objective=objective, costs=costs)

    eta, eps, f_best = 0.7, 0.01, -1.0
    args = (
        "eeipu", models, space, xs, deltas, f_best, eta, eps, 200,
        rng_table([derived_rng(42, 104, k) for k in range(3)]),
    )
    reference = unpruned_scores(*args)
    scores = score_candidates(*args)

    mean, var = posterior_mean_var(models.objective, space.normalize(xs))
    ei = expected_improvement_batch(mean, var, f_best)
    closed = np.array([
        float(ei[i]) * (1.0 / (delta * eps + sum(stage_costs[delta:]))) ** eta
        for i, delta in enumerate(deltas)
    ])
    # a row the scorer prunes reads 0; its closed form and its unpruned
    # Monte-Carlo score must both lie below the winner's score
    scored = scores > 0.0
    worst = float(np.max(np.abs(scores[scored] - closed[scored])))
    below = bool(np.all(np.maximum(closed, reference)[~scored] < scores.max()))
    _check(
        4,
        "memoization gate algebra",
        worst <= 1e-9 and below,
        f"max |score - EI*(1/(delta*eps + suffix))^eta| = {worst:.2e} (tol 1e-9) "
        f"over {int(scored.sum())} scored rows; {int((~scored).sum())} pruned, "
        f"each below the winner: {below}",
    )


# ---------------------------------------------------------------------------
# 5. cooling schedules


def test_criterion_05_eta_schedules():
    etas = [
        cooling_eta("budget", 100.0, consumed, 1.0)
        for consumed in (0.0, 10.0, 35.0, 60.0, 99.0, 100.0, 140.0)
    ]
    nonincreasing = all(b <= a for a, b in zip(etas, etas[1:]))
    hits_zero = etas[-2] == 0.0 and etas[-1] == 0.0

    eta = 1.0
    decay_err = 0.0
    for t in range(1, 31):
        eta = cooling_eta("exp_decay", 1.0, 0.0, eta)
        decay_err = max(decay_err, abs(eta - 0.9**t))
    _check(
        5,
        "eta schedules",
        nonincreasing and hits_zero and decay_err <= 1e-12,
        f"budget nonincreasing={nonincreasing}, zero at exhaustion={hits_zero}, "
        f"exp-decay err {decay_err:.1e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# 6. cache invariants under randomized operations


def test_criterion_06_cache_randomized_invariants():
    stage_dims = (2, 1, 2)
    capacity = 5
    n_stages = len(stage_dims)
    pool = PrefixPool(stage_dims, capacity, "all")
    ref = ReferencePool(capacity, stage_dims, (1, 2))
    rng = np.random.default_rng(61)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

    checked_ops = 0
    for _ in range(10_000):
        x = rng.choice(grid, size=5)
        if rng.uniform() < 0.7:
            y = float(rng.standard_normal())
            obs = Observation(
                x=x, y=y, stage_costs=(1.0, 1.0, 1.0), memo_delta=0, outputs=()
            )
            pool = update_pool(pool, obs)
            ref.offer(x, y)

            # mirror image: retained sources == reference's top-Q map
            got = {s.key: s.objective for s in pool.sources}
            want = dict(ref.sources())
            assert got == want
            # whole sources: every retained source is cached at all policy deltas
            addresses = pool.distinct_entries()
            assert set(addresses) == {
                (d, s.key[: ref.widths[d]]) for s in pool.sources for d in range(1, n_stages)
            }
            # entry bound
            assert len(addresses) <= capacity * (n_stages - 1) + 1
        else:
            vals = tuple(float(v) for v in rng.choice(grid, size=5))
            res = lookup(pool, vals)
            assert res.delta == ref.expected_delta(vals)
            if res.delta:
                # the match is the candidate's own leading values
                width = ref.widths[res.delta]
                assert (res.delta, vals[:width]) in pool.distinct_entries()
        checked_ops += 1
    _check(
        6,
        "cache invariants",
        checked_ops == 10_000,
        f"top-Q ranking, whole-source eviction, exact lookup and entry bound "
        f"held for {checked_ops} randomized operations",
    )


# ---------------------------------------------------------------------------
# 7. end-to-end determinism


def test_criterion_07_deterministic_traces(tmp_path):
    pipe = synthetic_suite("synth3")
    config = dict(method="eeipu", seed=9, n0=3, m=16, n_mc=30, restarts=2,
                  total_budget=60.0)
    blobs = []
    for attempt in ("first", "second"):
        trace = run(
            RunConfig(**config), pipe, cache_root=tmp_path / f"cache_{attempt}"
        )
        path = tmp_path / f"{attempt}.csv"
        write_trace(trace, path)
        blobs.append((path.read_bytes(), path.with_suffix(".json").read_bytes()))
    identical = blobs[0] == blobs[1]
    _check(
        7,
        "end-to-end determinism",
        identical,
        f"two seed-9 runs produced byte-identical trace CSV+sidecar: {identical}",
    )


# ---------------------------------------------------------------------------
# 8-13. five-seed benchmark comparisons (shared fixtures)


def test_criterion_08_iteration_advantage(paired_traces):
    iters = {
        m: [len(paired_traces[(m, s)].post_warmup_rows()) for s in SEEDS]
        for m in ("eeipu", "ei")
    }
    med_eeipu = statistics.median(iters["eeipu"])
    med_ei = statistics.median(iters["ei"])
    ratio = med_eeipu / med_ei
    _check(
        8,
        "iteration advantage",
        ratio >= 1.5,
        f"median post-warmup iterations {med_eeipu:g} vs {med_ei:g} "
        f"(ratio {ratio:.3f}, need >= 1.5)",
    )


def test_criterion_09_objective_advantage(paired_traces):
    bests = {
        m: [paired_traces[(m, s)].best_y for s in SEEDS] for m in ("eeipu", "ei")
    }
    med_eeipu = statistics.median(bests["eeipu"])
    med_ei = statistics.median(bests["ei"])
    wins = sum(a >= b for a, b in zip(bests["eeipu"], bests["ei"]))
    _check(
        9,
        "objective advantage",
        med_eeipu >= med_ei and wins >= 4,
        f"median best {med_eeipu:.3f} vs {med_ei:.3f}, per-seed wins {wins}/5 "
        f"(need median >= and wins >= 4)",
    )


def test_criterion_10_low_cost_first(paired_traces):
    hits = 0
    details = []
    for s in SEEDS:
        rows = paired_traces[("eeipu", s)].post_warmup_rows()
        q = max(1, len(rows) // 4)
        first = np.mean([sum(r.stage_costs) for r in rows[:q]])
        last = np.mean([sum(r.stage_costs) for r in rows[-q:]])
        hits += first < last
        details.append(f"{first:.1f}<{last:.1f}" if first < last else f"{first:.1f}>={last:.1f}")
    _check(
        10,
        "low-cost-first behavior",
        hits >= 4,
        f"first-quartile mean executed cost below last quartile in {hits}/5 seeds "
        f"({', '.join(details)})",
    )


def test_criterion_11_memoization_contribution(paired_traces):
    improvements = 0
    with_memo = 0
    for s in SEEDS:
        for improved, memo in _improvement_flags(paired_traces[("eeipu", s)]):
            improvements += int(improved)
            with_memo += int(memo)
    frac = with_memo / improvements
    _check(
        11,
        "memoization contribution",
        0.05 <= frac <= 0.70 and with_memo > 0,
        f"{with_memo}/{improvements} best-improving iterations were memoized "
        f"({100 * frac:.1f}%, need 5-70% and nonzero)",
    )


def test_criterion_12_eta_ablation_ordering(paired_traces, expdecay_traces):
    budget_med = statistics.median(
        paired_traces[("eeipu", s)].best_y for s in SEEDS
    )
    decay_med = statistics.median(expdecay_traces[s].best_y for s in SEEDS)
    _check(
        12,
        "eta ablation ordering",
        budget_med >= decay_med,
        f"budget-schedule median best {budget_med:.3f} >= exp-decay {decay_med:.3f}",
    )


def test_criterion_13_epsilon_insensitivity(epsilon_traces):
    levels = {}
    for eps, traces in epsilon_traces.items():
        bests = [t.best_y for t in traces]
        mean = statistics.mean(bests)
        se = statistics.stdev(bests) / math.sqrt(len(bests))
        levels[eps] = (mean, se, len(bests))
    ok, spread, threshold = epsilon_insensitive(levels)
    _check(
        13,
        "epsilon insensitivity",
        ok,
        f"max-min of mean best {spread:.3f} vs 2x pooled se {threshold:.3f}",
    )


# ---------------------------------------------------------------------------
# 14. cache overhead


def test_criterion_14_cache_overhead(tmp_path):
    # The fastest of five repetitions, each with a fresh store and pool: a
    # wall-clock mean of one pass read 595 us on a 2-core machine while a
    # second test process ran (227-246 us alone), so load alone could fail it.
    # The pool part (lookup, Observation, update_pool) is timed apart from
    # the two disk writes, which dominate the sum and would hide it.
    rng = np.random.default_rng(141)
    payload = bytes(256)
    timings = []
    for rep in range(5):
        store = StageOutputStore(tmp_path / f"store{rep}")
        pool = PrefixPool((2, 1, 2), 5, "all")
        pool_s = write_s = 0.0
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, size=5)
            start = time.perf_counter()
            lookup(pool, x)
            looked_up = time.perf_counter()
            store.store_output(1, x[:2], payload)
            store.store_output(2, x[:3], payload)
            stored = time.perf_counter()
            obs = Observation(
                x=x,
                y=float(rng.standard_normal()),
                stage_costs=(1.0, 1.0, 1.0),
                memo_delta=0,
                outputs=(),
            )
            pool = update_pool(pool, obs)
            pool_s += (looked_up - start) + (time.perf_counter() - stored)
            write_s += stored - looked_up
        timings.append((pool_s / 100, write_s / 100))
    pool_part, writes = min(timings, key=sum)
    per_iter = pool_part + writes
    _check(
        14,
        "cache overhead",
        per_iter < 1e-3,
        f"pool {pool_part * 1e6:.0f} us + writes {writes * 1e6:.0f} us = "
        f"{per_iter * 1e6:.0f} us per iteration, fastest of 5 "
        f"(slowest {max(map(sum, timings)) * 1e6:.0f} us; limit 1 ms)",
    )
