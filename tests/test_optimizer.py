"""Unit tests for the optimization loop: configuration, warmup sharing,
budget accounting, acquisition scoring mechanics, the single-stage
degeneracy, and trace persistence."""

import errno
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipetune.optimizer as optimizer
from pipetune.acquisition import ModelSet, score_candidates
from pipetune.cache import PREFIX_POLICIES, StageOutputStore
from pipetune.candidates import generate
from pipetune.errors import (
    InvalidArgumentError,
    NumericalFailureError,
    PipetuneError,
    StorageError,
    TraceParseError,
)
from pipetune.gp import KernelParams, build_model
from pipetune.optimizer import (
    RunConfig,
    RunTrace,
    TraceRow,
    derived_int,
    derived_rng,
    init_state,
    read_trace,
    run,
    step,
    trace_header,
    write_trace,
)
from pipetune.pipeline import (
    BENCHMARKS,
    Observation,
    PipelineSpec,
    StageSpec,
    synthetic_suite,
)

from conftest import antithetic_normals, rng_table

TINY = dict(n0=3, m=24, n_mc=40, restarts=2, total_budget=50.0)


def _tiny_cfg(method="eeipu", seed=0, **kw):
    return RunConfig(method=method, seed=seed, **{**TINY, **kw})


def _one_stage_pipeline():
    b = BENCHMARKS["branin2"]
    stage = StageSpec(
        name="only_branin",
        dim=2,
        bounds=b.bounds,
        objective_fn=b.stage_objective,
    )
    return PipelineSpec(name="mono", stages=(stage,))


# ---------------------------------------------------------------------------
# configuration


def test_run_config_validation():
    for bad in (
        dict(method="random"),
        dict(n0=1),
        dict(m=0),
        dict(n_mc=0),
        dict(restarts=0),
        dict(q=-1),
        dict(epsilon=0.0),
        dict(eta_schedule="fast"),
        dict(prefix_policy="best"),
        dict(seed=-1),
        dict(total_budget=-5.0),
    ):
        with pytest.raises(InvalidArgumentError):
            RunConfig(**bad)


# Story: a budget that is not finite would keep run's loop going forever,
# so RunConfig refuses it, whether given as a float or as a string.
@pytest.mark.parametrize("budget", [float("inf"), "1e400", float("nan"), "-inf"])
def test_run_config_refuses_nonfinite_budget(budget):
    with pytest.raises(InvalidArgumentError, match="finite"):
        RunConfig(total_budget=budget)


# Story: a field of the wrong type is refused up front with a usage error,
# not accepted and then failed on deep inside the run; bool is not an int.
@pytest.mark.parametrize(
    "bad",
    [
        dict(n0=3.5),
        dict(m=True),
        dict(n_mc=20.0),
        dict(restarts="2"),
        dict(q=None),
        dict(seed="1"),
        dict(epsilon="0.1"),
        dict(total_budget="abc"),
        dict(total_budget="50"),
        dict(total_budget=True),
    ],
    ids=repr,
)
def test_run_config_refuses_wrong_types(bad):
    with pytest.raises(InvalidArgumentError):
        RunConfig(**bad)


def test_run_config_roundtrips_to_dict():
    cfg = _tiny_cfg()
    d = cfg.to_dict()
    assert RunConfig(**d) == cfg


def test_derived_seeds_are_stable_and_distinct():
    assert derived_int(3, 101, 2) == derived_int(3, 101, 2)
    assert derived_int(3, 101, 2) != derived_int(3, 101, 3)
    assert derived_int(3, 101) != derived_int(4, 101)
    a = derived_rng(1, 104, 5).standard_normal(4)
    b = derived_rng(1, 104, 5).standard_normal(4)
    assert np.array_equal(a, b)


# Story: the derived seeds hand SeedSequence the 32-bit words of each int,
# and must give exactly the state numpy derives from the plain list, for
# zero, word-boundary and multi-word values alike.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("tags", [(), (0,), (2**33,), (103, 0, 2**33, 7), (2**32 - 1, 2**32)])
def test_derived_seeds_equal_seed_sequence_of_the_list(seed, tags):
    reference = np.random.SeedSequence([seed, *tags])
    assert derived_int(seed, *tags) == int(reference.generate_state(1)[0])
    ours = derived_rng(seed, *tags).random(8)
    assert ours.tobytes() == np.random.default_rng(reference).random(8).tobytes()


@pytest.mark.parametrize("values", [(-1,), (3, -1), (3, 101, -(2**40))])
def test_derived_seeds_refuse_negative_values(values):
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        derived_int(*values)
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        derived_rng(*values)


# ---------------------------------------------------------------------------
# warmup and state


# Story: warmup points depend only on (seed, warmup tag): every method must
# start from the bit-identical design.
def test_warmup_identical_across_methods(tmp_path):
    pipe = synthetic_suite("synth3")
    xs = {}
    for method in ("eeipu", "ei", "carbo"):
        state = init_state(_tiny_cfg(method), pipe, tmp_path / method)
        xs[method] = np.array([r.x for r in state.rows])
    base = xs["eeipu"]
    for method, pts in xs.items():
        assert np.array_equal(base, pts), method


# Story: an observation turns its configuration into Python floats once,
# when it is built, and the step's trace row records that same tuple, so
# neither the pool, the store nor the trace converts it again, and nothing
# keeps the step's candidate batch alive.
def test_observation_holds_x_once_as_python_floats(tmp_path):
    x = np.array([0.25, 1.5, 3.0])
    obs = Observation(x=x, y=1.0, stage_costs=(1.0,), memo_delta=0, outputs=())
    assert type(obs.x) is tuple and obs.x == tuple(x.tolist())
    assert all(type(v) is float for v in obs.x)
    state = init_state(_tiny_cfg("eeipu"), synthetic_suite("synth3"), tmp_path)
    obs = step(state)
    assert type(obs.x) is tuple and state.rows[-1].x is obs.x


def test_warmup_rows_and_auto_budget(tmp_path):
    pipe = synthetic_suite("synth3")
    cfg = RunConfig(method="eeipu", n0=4, m=24, n_mc=40, restarts=2, seed=1)
    state = init_state(cfg, pipe, tmp_path)
    assert len(state.rows) == 4
    assert all(r.eta == 1.0 and r.score == 0.0 for r in state.rows)
    assert state.rows[-1].consumed == pytest.approx(state.consumed)
    assert state.total_budget == pytest.approx(5.0 * state.consumed)
    # best_y column is the running maximum
    best = max(r.y for r in state.rows)
    assert state.rows[-1].best_y == best


# Story: only the memoizing method maintains a prefix pool; baselines carry
# a zero-capacity pool so every candidate is a fresh draw.
def test_pool_capacity_by_method(tmp_path):
    pipe = synthetic_suite("synth3")
    eeipu = init_state(_tiny_cfg("eeipu", q=4), pipe, tmp_path / "a")
    assert eeipu.pool.capacity == 4
    assert 0 < len(eeipu.pool.sources) <= 4
    for method in ("ei", "carbo"):
        state = init_state(_tiny_cfg(method, q=4), pipe, tmp_path / method)
        assert state.pool.capacity == 0
        assert len(state.pool.sources) == 0


# Story: an m below the candidate groups a full pool can form would fail
# mid-run; it is refused before any stage runs. Without a pool one group
# is enough.
def test_m_below_reachable_groups_is_refused(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth10")

    def no_stage(*args):
        raise AssertionError("a stage ran")

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "run_pipeline", no_stage)
        with pytest.raises(InvalidArgumentError, match="46 candidate groups"):
            init_state(_tiny_cfg("eeipu", m=20), pipe, tmp_path / "eeipu")
    assert not (tmp_path / "eeipu").exists()

    state = init_state(_tiny_cfg("ei", m=20), pipe, tmp_path / "ei")
    step(state)
    assert len(state.rows) == TINY["n0"] + 1


# Story: only the memoizing method stores stage outputs, and no run writes
# a cache index.
def test_only_pool_methods_write_blobs(tmp_path):
    pipe = synthetic_suite("synth3")
    for method in ("eeipu", "ei", "carbo"):
        root = tmp_path / method
        run(_tiny_cfg(method, total_budget=150.0), pipe, cache_root=root)
        assert bool(list(root.rglob("*.bin"))) == (method == "eeipu"), method
        assert not list(root.rglob("index.tsv")), method


def _blob_handles(root):
    return {str(p.relative_to(root).with_suffix("")) for p in Path(root).rglob("*.bin")}


def _pool_handles(state):
    return {state.store.handle_for(*address) for address in state.pool.distinct_entries()}


# Story: after every evaluation the store holds exactly the blobs of the
# pool's distinct addresses, at most Q per policy depth, and no temporary
# file, whatever mix of fresh points, shared prefixes and repeats the loop
# evaluates.
@pytest.mark.parametrize("policy", PREFIX_POLICIES)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(q=st.integers(1, 3), data=st.data())
def test_store_holds_exactly_the_pool_entries(policy, q, data):
    pipe = synthetic_suite("synth5")
    space = pipe.search_space()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    config = RunConfig(method="eeipu", n0=2, m=16, q=q, prefix_policy=policy, total_budget=1e9)
    with tempfile.TemporaryDirectory() as root:
        state = init_state(config, pipe, root)
        assert _blob_handles(root) == _pool_handles(state)
        for _ in range(data.draw(st.integers(1, 12))):
            x = space.uniform(rng, 1)[0]
            # copy the first `depth` stages of an evaluated point (0: none)
            depth = data.draw(st.integers(0, space.n_stages))
            width = space.prefix_width(depth)
            x[:width] = data.draw(st.sampled_from(state.rows)).x[:width]
            optimizer._evaluate(state, x, 0.0, 1.0)
            assert _blob_handles(root) == _pool_handles(state)
        assert len(_pool_handles(state)) <= q * len(state.pool.deltas)
        assert not list(Path(root).rglob("*.tmp"))


# Story: the store never writes over a blob that resolves: an executed
# depth above the hit is a new address, and one at or below it was rerun
# because its blob did not resolve. Evaluations copy prefixes of evaluated
# points, and some run after one of the store's blobs was truncated.
@pytest.mark.parametrize("policy", PREFIX_POLICIES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(q=st.integers(1, 3), data=st.data())
def test_commit_never_stores_over_a_resolving_blob(policy, q, data):
    pipe = synthetic_suite("synth5")
    space = pipe.search_space()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    config = RunConfig(method="eeipu", n0=2, m=16, q=q, prefix_policy=policy, total_budget=1e9)
    with tempfile.TemporaryDirectory() as root:
        state = init_state(config, pipe, root)
        store_output = state.store.store_output

        def checked(stage_index, key_values, payload):
            with pytest.raises(StorageError):
                state.store.resolve(stage_index, key_values)
            return store_output(stage_index, key_values, payload)

        state.store.store_output = checked
        for _ in range(data.draw(st.integers(1, 12))):
            blobs = sorted(Path(root).rglob("*.bin"))
            if blobs and data.draw(st.booleans()):
                blob = data.draw(st.sampled_from(blobs))
                blob.write_bytes(blob.read_bytes()[:5])
            x = space.uniform(rng, 1)[0]
            depth = data.draw(st.integers(0, space.n_stages))
            width = space.prefix_width(depth)
            x[:width] = data.draw(st.sampled_from(state.rows)).x[:width]
            optimizer._evaluate(state, x, 0.0, 1.0)


# Story: a pool caches nothing on a one-stage pipeline, whatever the policy,
# nor for a method that is not memo aware: no depth, no output kept by the
# run, no blob written.
@pytest.mark.parametrize(
    "method,policy,pipe",
    [("eeipu", p, _one_stage_pipeline()) for p in PREFIX_POLICIES]
    + [("ei", "all", synthetic_suite("synth3"))],
    ids=[f"one_stage_{p}" for p in PREFIX_POLICIES] + ["ei_synth3"],
)
def test_pool_without_depths_keeps_no_output(tmp_path, monkeypatch, method, policy, pipe):
    outputs = []
    run_pipeline = optimizer.run_pipeline

    def recorded(*args):
        obs = run_pipeline(*args)
        outputs.append(obs.outputs)
        return obs

    monkeypatch.setattr(optimizer, "run_pipeline", recorded)
    state = init_state(_tiny_cfg(method, prefix_policy=policy), pipe, tmp_path)
    step(state)
    step(state)
    assert state.pool.deltas == ()
    assert outputs == [()] * (TINY["n0"] + 2)
    assert not list(tmp_path.rglob("*.bin"))


# Story: on the 10-stage suite at the acceptance config's n0, m, n_mc and
# restarts, the store ends a run holding the pool's entries alone, at most
# Q x 9 blobs. The budget is fixed at 1.5x the warmup's cost rather than
# auto's 5x, which takes 77 s; warmup alone fills the pool's 45 entries, so
# the run's evictions are exercised all the same.
def test_synth10_run_ends_with_at_most_q_times_9_blobs(tmp_path):
    config = RunConfig(method="eeipu", n0=5, m=256, n_mc=500, restarts=10, total_budget=1000.0)
    state = init_state(config, synthetic_suite("synth10"), tmp_path)
    while state.consumed < state.total_budget:
        step(state)
    assert len(state.rows) > config.n0
    assert _blob_handles(tmp_path) == _pool_handles(state)
    assert len(_blob_handles(tmp_path)) <= config.q * 9


# Story: a run that starts in a cache root an earlier run used resolves only
# what it wrote itself. Every prefix the run can admit is seeded first with
# a valid blob of another payload, as a run of a changed stage would leave
# it; the trace and the blobs left equal those of a run in a fresh root.
def test_reused_root_resolves_the_fresh_payload(tmp_path):
    pipe = synthetic_suite("synth3")
    space = pipe.search_space()
    config = _tiny_cfg(total_budget=150.0)
    fresh = run(config, pipe, tmp_path / "fresh.csv", tmp_path / "fresh")
    assert any(row.delta > 0 for row in fresh.rows)
    stale = StageOutputStore(tmp_path / "reused")
    for row in fresh.rows:
        for depth in range(1, space.n_stages):
            stale.store_output(depth, row.x[: space.prefix_width(depth)], struct.pack(">d", 1e6))
    run(config, pipe, tmp_path / "reused.csv", tmp_path / "reused")
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    blobs = _blob_handles(tmp_path / "fresh")
    assert _blob_handles(tmp_path / "reused") == blobs
    for handle in blobs:
        path = f"{handle}.bin"
        assert (tmp_path / "reused" / path).read_bytes() == (tmp_path / "fresh" / path).read_bytes()


# Story: clearing a store deletes its blobs and partial writes and leaves
# any other file under the root alone.
def test_clear_deletes_only_the_store_layout(tmp_path):
    store = StageOutputStore(tmp_path)
    store.clear()  # an empty root
    store.store_output(1, [0.5], b"x")
    (tmp_path / "stage_2").mkdir()
    (tmp_path / "stage_2" / "partial.tmp").write_bytes(b"")
    (tmp_path / "stage_2" / "notes.txt").write_text("kept")
    (tmp_path / "trace.csv").write_text("kept")
    store.clear()
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*")) == [
        "stage_2/notes.txt",
        "trace.csv",
    ]


# Story: an admitted evaluation whose blobs cannot be written (a read-only
# cache root) raises StorageError and leaves the pool, the trace and the
# store as they were, so the pool never offers an entry without its blob.
def test_unwritable_store_leaves_the_pool_unchanged(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth3")
    state = init_state(_tiny_cfg(q=5), pipe, tmp_path)  # room for a new source
    pool, rows, blobs = state.pool, list(state.rows), _blob_handles(tmp_path)

    def read_only(path, data):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(Path, "write_bytes", read_only)
    x = pipe.search_space().uniform(np.random.default_rng(7), 1)[0]
    with pytest.raises(StorageError, match="Read-only"):
        optimizer._evaluate(state, x, 0.0, 1.0)
    assert state.pool is pool and state.rows == rows
    assert _blob_handles(tmp_path) == blobs


# Story: without a cache root, run stores stage outputs in a temporary
# directory that it removes when it returns and when it raises.
def test_run_without_cache_root_leaves_nothing_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pipe = synthetic_suite("synth3")
    trace = run(_tiny_cfg("eeipu", total_budget=150.0), pipe)
    assert trace.post_warmup_rows() and any(r.delta > 0 for r in trace.rows)
    assert not list(tmp_path.iterdir())

    def failing_step(state):
        raise PipetuneError("step failed")

    monkeypatch.setattr(optimizer, "step", failing_step)
    with pytest.raises(PipetuneError, match="step failed"):
        run(_tiny_cfg("eeipu", total_budget=150.0), pipe)
    assert not list(tmp_path.iterdir())


def test_explicit_budget_respected(tmp_path):
    pipe = synthetic_suite("synth3")
    state = init_state(_tiny_cfg("ei", total_budget=123.0), pipe, tmp_path)
    assert state.total_budget == 123.0


# ---------------------------------------------------------------------------
# stepping


# Story: the loop runs while consumed < budget and the crossing iteration
# completes, so the final consumed may overshoot but every row is whole.
def test_run_crosses_budget_and_completes(tmp_path):
    pipe = synthetic_suite("synth3")
    # 150 clears synth3's warmup cost, so the model-guided loop runs
    trace = run(_tiny_cfg("eeipu", seed=3, total_budget=150.0), pipe, cache_root=tmp_path)
    assert trace.post_warmup_rows()
    assert trace.consumed >= trace.total_budget
    below = [r for r in trace.rows if r.consumed < trace.total_budget]
    assert len(below) == len(trace.rows) - 1
    assert [r.iteration for r in trace.rows] == list(range(1, len(trace.rows) + 1))
    # best_y is the running max of y
    best = float("-inf")
    for r in trace.rows:
        best = max(best, r.y)
        assert r.best_y == pytest.approx(best)


# Story: if a model refit fails mid-run the previous models are reused; if
# the very first fit fails the error propagates.
def test_fit_failure_fallback(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth3")
    state = init_state(_tiny_cfg("eeipu", seed=5), pipe, tmp_path)
    step(state)
    fitted = state.models
    assert fitted is not None

    def boom(state, iteration):
        raise NumericalFailureError("synthetic fit failure")

    monkeypatch.setattr(optimizer, "_fit_models", boom)
    step(state)  # reuses previous models
    assert state.models is fitted

    fresh = init_state(_tiny_cfg("eeipu", seed=6), pipe, tmp_path / "fresh")
    with pytest.raises(NumericalFailureError):
        step(fresh)


# Story: with one pipeline stage there is nothing to memoize, and the
# cost-cooled score at eta=1 degenerates to EI-per-unit-cost: the memoizing
# method and the single-cost-model baseline, carbo under the constant
# schedule, must pick identical points.
def test_single_stage_eeipu_equals_carbo(tmp_path):
    pipe = _one_stage_pipeline()
    kw = dict(n0=3, m=16, n_mc=30, restarts=2, total_budget=40.0, eta_schedule="constant")
    a = run(RunConfig(method="eeipu", seed=7, **kw), pipe, cache_root=tmp_path / "a")
    b = run(RunConfig(method="carbo", seed=7, **kw), pipe, cache_root=tmp_path / "b")
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.x == rb.x
        assert ra.y == rb.y


# Story: eta is cooled only for a method with cost segments, so ei's trace
# records eta=1 and is the same trace under every schedule, while carbo
# under the budget schedule cools below 1 from its first step on.
def test_only_methods_with_cost_segments_cool(tmp_path):
    pipe = synthetic_suite("synth3")
    kw = dict(total_budget=150.0)
    ei = run(_tiny_cfg("ei", eta_schedule="constant", **kw), pipe, cache_root=tmp_path / "c")
    assert len(ei.post_warmup_rows()) >= 3 and all(r.eta == 1.0 for r in ei.rows)
    for schedule in ("budget", "exp_decay"):
        cfg = _tiny_cfg("ei", eta_schedule=schedule, **kw)
        other = run(cfg, pipe, cache_root=tmp_path / schedule)
        assert other.rows == ei.rows
    cooled = run(_tiny_cfg("carbo", **kw), pipe, cache_root=tmp_path / "b")
    assert all(r.eta < 1.0 for r in cooled.post_warmup_rows())


# ---------------------------------------------------------------------------
# acquisition scoring mechanics


def _constant_cost_model(dim, cost):
    # long lengthscales keep the posterior flat (variance ~0 everywhere), so
    # every draw is essentially exp(log cost) = cost
    params = KernelParams(
        lengthscales=np.full(dim, 10.0), output_scale=1.0, noise_variance=1e-6
    )
    x = np.array([np.full(dim, 0.2), np.full(dim, 0.8)])
    return build_model(x, [math.log(cost)] * 2, params)


# Story: the scorer replaces the first delta stage draws with epsilon before
# summing: replaying the same Monte-Carlo streams as antithetic normals
# reproduces every score it does not prune, and a constant-cost world
# matches the closed form there; a pruned row's replayed score is below
# the winner's.
def test_score_candidates_memoization_gate():
    pipe = synthetic_suite("synth3")
    space = pipe.search_space()
    rng = np.random.default_rng(0)
    xs = space.uniform(rng, 6)
    deltas = np.array([0, 1, 2, 0, 2, 1])
    costs = tuple(
        _constant_cost_model(space.stage_dims[k], (2.0, 3.0, 4.0)[k]) for k in range(3)
    )
    objective = build_model(
        space.normalize(xs),
        np.arange(len(xs), dtype=float),
        KernelParams(lengthscales=np.full(7, 0.5), output_scale=1.0, noise_variance=1e-4),
    )
    models = ModelSet(objective=objective, costs=costs)

    # f_best below every posterior mean keeps EI strictly positive, so the
    # closed-form check below can divide it back out.
    eta, eps, n_mc, f_best = 0.6, 0.01, 400, -1.0
    scores = score_candidates(
        "eeipu", models, space, xs, deltas, f_best, eta, eps, n_mc,
        rng_table([derived_rng(9, 104, k) for k in range(3)]),
    )

    # replay: identical streams, hand-built estimator
    from pipetune.acquisition import expected_improvement_batch
    import pipetune.gp as gp

    xn = space.normalize(xs)
    mean, var = gp.posterior_mean_var(models.objective, xn)
    ei = expected_improvement_batch(mean, var, f_best)
    totals = np.zeros((6, n_mc))
    for k in range(1, 4):
        mu, v = gp.posterior_mean_var(models.costs[k - 1], xn[:, space.stage_slice(k)])
        z = antithetic_normals(derived_rng(9, 104, k - 1), 6, n_mc)
        draws = np.exp(mu[:, None] + np.sqrt(v)[:, None] * z)
        draws[deltas >= k] = eps
        totals += draws
    expected = ei * np.power(np.mean(1.0 / totals, axis=1), eta)
    # a row the scorer prunes reads 0, and its replayed score is below the winner's
    scored = scores > 0.0
    assert np.allclose(scores[scored], expected[scored], rtol=1e-12, atol=0.0)
    assert np.all(expected[~scored] < scores.max())

    # constant-cost world: inverse cost approaches the closed form
    inverse = (scores / ei) ** (1.0 / eta)
    closed = {0: 1.0 / 9.0, 1: 1.0 / (eps + 7.0), 2: 1.0 / (2 * eps + 4.0)}
    for i in np.flatnonzero(scored):
        assert inverse[i] == pytest.approx(closed[int(deltas[i])], rel=0.05)


# Story: plain EI ignores cost models entirely.
def test_score_candidates_ei_is_cost_blind():
    pipe = synthetic_suite("synth3")
    space = pipe.search_space()
    xs = space.uniform(np.random.default_rng(1), 4)
    objective = build_model(
        space.normalize(xs),
        np.arange(len(xs), dtype=float),
        KernelParams(lengthscales=np.full(7, 0.5), output_scale=1.0, noise_variance=1e-4),
    )
    models = ModelSet(objective=objective, costs=())
    scores = score_candidates(
        "ei", models, space, xs, np.zeros(4, dtype=int), 1.0, 0.5, 0.01, 10, rng_table([])
    )
    import pipetune.gp as gp
    from pipetune.acquisition import expected_improvement_batch

    mean, var = gp.posterior_mean_var(objective, space.normalize(xs))
    assert np.array_equal(scores, expected_improvement_batch(mean, var, 1.0))


# Story: a step scores every restart's batch in one call, passed by
# position as benchmark tracers read it: the candidates third (restarts x m
# rows), n_mc eighth, and ninth the (cost segments x restarts) generator
# table, whose length is the number of cost models drawn from. A change to
# this layout fails here rather than in a traced benchmark run.
@pytest.mark.parametrize(
    "method, n_segments", [("eeipu", 3), ("carbo", 1), ("ei", 0)]
)
def test_step_scores_once_in_the_traced_layout(tmp_path, monkeypatch, method, n_segments):
    state = init_state(
        RunConfig(method=method, n0=3, m=16, n_mc=30, restarts=2), synthetic_suite("synth3"),
        tmp_path,
    )
    calls = []

    def recorded(*args):
        calls.append(args)
        return score_candidates(*args)

    monkeypatch.setattr(optimizer, "score_candidates", recorded)
    step(state)
    (args,) = calls
    assert len(args[3]) == 2 * 16 and args[8] == 30
    assert len(args[9]) == n_segments and args[9].shape == (n_segments, 2)


# Story: where every candidate scores 0 the step evaluates row 0 of the
# first restart's batch, a uniform draw with nothing memoized, so it still
# explores at random, from the candidate stream alone: no other draw
# picks the row.
def test_all_zero_scores_pick_row_0_of_the_first_batch(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth3")
    state = init_state(_tiny_cfg(), pipe, tmp_path)
    cfg, iteration = state.config, len(state.rows) + 1
    rng = derived_rng(cfg.seed, optimizer._TAG_CAND, iteration, 0)
    xs, deltas = generate(state.pool, pipe.search_space(), cfg.m, rng)
    assert deltas[0] == 0 and deltas.max() > 0  # the batch reuses prefixes too

    def zeros(method, models, space, candidates, *rest):
        return np.zeros(len(candidates))

    monkeypatch.setattr(optimizer, "score_candidates", zeros)
    obs = step(state)
    assert obs.x == tuple(xs[0].tolist()) and obs.memo_delta == 0
    assert state.rows[-1].score == 0.0


# ---------------------------------------------------------------------------
# trace persistence


def test_trace_header_layout():
    assert (
        trace_header(2, 3)
        == "iter,delta,eta,consumed,y,best_y,score,cost_s1,cost_s2,x_1,x_2,x_3"
    )


# Story: write -> read -> write must be byte-identical, including the 17
# significant digit float round trip.
def test_trace_roundtrip_bytes(tmp_path):
    pipe = synthetic_suite("synth3")
    trace = run(_tiny_cfg(seed=2, total_budget=150.0), pipe, cache_root=tmp_path / "cache")
    assert trace.post_warmup_rows()
    p1 = tmp_path / "a.csv"
    write_trace(trace, p1)
    reread = read_trace(p1)
    p2 = tmp_path / "b.csv"
    write_trace(reread, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reread.config == trace.config
    assert reread.total_budget == trace.total_budget
    assert reread.pipeline_name == trace.pipeline_name
    assert len(reread.post_warmup_rows()) == len(trace.post_warmup_rows())


def test_read_trace_errors(tmp_path):
    with pytest.raises(TraceParseError):
        read_trace(tmp_path / "missing.csv")

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,value\n1,2\n")
    with pytest.raises(TraceParseError):
        read_trace(bad_header)

    bad_field = tmp_path / "f.csv"
    bad_field.write_text(trace_header(1, 1) + "\n1,0,1.0,2.0,oops,3.0,0.0,1.0,0.5\n")
    with pytest.raises(TraceParseError):
        read_trace(bad_field)

    short_row = tmp_path / "s.csv"
    short_row.write_text(trace_header(1, 1) + "\n1,0,1.0\n")
    with pytest.raises(TraceParseError):
        read_trace(short_row)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(TraceParseError):
        read_trace(empty)


# Story: the sidecar is the only record of a trace's method, warmup size and
# budget, so a trace read without it, or with a sidecar that lacks a key, is
# refused rather than summarized from guesses.
def test_read_trace_requires_its_sidecar(tmp_path):
    row = TraceRow(1, 0, 1.0, 2.0, 0.5, 0.5, 0.0, (2.0,), (0.25,))
    config = {"method": "ei", "n0": 1}
    trace = RunTrace(pipeline_name="p", config=config, total_budget=9.0, rows=[row])
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    assert read_trace(path) == trace
    sidecar = path.with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    for key in ("pipeline", "config", "resolved_total_budget", "n_stages", "dim"):
        sidecar.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        with pytest.raises(TraceParseError, match=key):
            read_trace(path)
    for key in ("n_stages", "dim"):
        sidecar.write_text(json.dumps({**doc, key: doc[key] + 1}))
        with pytest.raises(TraceParseError, match=r"t\.json.*header"):
            read_trace(path)
    sidecar.unlink()
    with pytest.raises(TraceParseError, match=r"t\.json"):
        read_trace(path)


def test_write_trace_rejects_empty(tmp_path):
    trace = RunTrace(pipeline_name="p", config={}, total_budget=1.0, rows=[])
    with pytest.raises(InvalidArgumentError):
        write_trace(trace, tmp_path / "x.csv")


# Story: an interrupted run still flushes the rows gathered so far.
def test_run_flushes_partial_trace_on_error(tmp_path, monkeypatch):
    pipe = synthetic_suite("synth3")
    calls = {"n": 0}
    real_step = optimizer.step

    def flaky(state):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericalFailureError("injected failure")
        return real_step(state)

    monkeypatch.setattr(optimizer, "step", flaky)
    trace_path = tmp_path / "partial.csv"
    with pytest.raises(NumericalFailureError):
        run(
            _tiny_cfg(seed=4, total_budget=1000.0),
            pipe,
            trace_path=trace_path,
            cache_root=tmp_path / "c",
        )
    saved = read_trace(trace_path)
    assert len(saved.rows) >= TINY["n0"] + 2


def test_post_warmup_rows_uses_sidecar_config(tmp_path):
    rows = [
        TraceRow(i, 0, 1.0, float(i), 0.0, 0.0, 0.0, (1.0,), (0.5,))
        for i in range(1, 6)
    ]
    trace = RunTrace(pipeline_name="p", config={"n0": 3}, total_budget=9.0, rows=rows)
    assert len(trace.post_warmup_rows()) == 2
    bare = RunTrace(pipeline_name="p", config={}, total_budget=9.0, rows=rows)
    assert len(bare.post_warmup_rows()) == 5
