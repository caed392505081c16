"""Unit tests for the synthetic benchmark pipelines and the external-command
stage adapter.

Benchmark functions are pinned at their canonical optima (frozen literature
values); memoized resumes are checked for bitwise identity against full
evaluations; external stages are driven by tiny scripted commands.
"""

import json
import logging
import math
import os
import pickle
import struct
import sys
import time

import numpy as np
import pytest

from pipetune.acquisition import Segment
from pipetune.cache import PREFIX_POLICIES, PrefixPool, StageOutputStore, update_pool
from pipetune.errors import (
    InvalidArgumentError,
    ProtocolError,
    StageExecutionError,
    StorageError,
)
from pipetune.floats import ordered_sum
from pipetune.pipeline import (
    BENCHMARKS,
    NOISE_STD,
    Observation,
    PipelineSpec,
    StageSpec,
    _keyed_noise,
    _parse_objective,
    _substitute,
    default_stage_cost,
    load_pipeline_file,
    run,
    synthetic_suite,
)

PY = sys.executable


# ---------------------------------------------------------------------------
# benchmark functions (frozen canonical optima)


# Story: every stage objective is oriented for maximization; the canonical
# optima of the underlying functions are pinned literature values.
def test_benchmark_values_at_canonical_optima():
    b = BENCHMARKS["branin2"]
    assert b.stage_objective(np.array([math.pi, 2.275])) == pytest.approx(
        -0.39788735772973816, abs=1e-12
    )
    assert b.stage_objective(np.array([-math.pi, 12.275])) == pytest.approx(
        -0.39788735772973816, abs=1e-6
    )
    assert b.stage_objective(np.array([9.42478, 2.475])) == pytest.approx(
        -0.39788735772973816, abs=1e-6
    )

    h = BENCHMARKS["hartmann3"]
    assert h.stage_objective(np.array([0.114614, 0.555649, 0.852547])) == pytest.approx(
        3.86278, abs=1e-4
    )

    assert BENCHMARKS["beale2"].stage_objective(np.array([3.0, 0.5])) == pytest.approx(
        0.0, abs=1e-12
    )
    assert BENCHMARKS["ackley3"].stage_objective(np.zeros(3)) == pytest.approx(
        0.0, abs=1e-12
    )
    # printed maximization form: optimum is positive
    assert BENCHMARKS["michalewicz2"].stage_objective(
        np.array([2.202906, 1.570796])
    ) == pytest.approx(1.8013034, abs=1e-6)


# Story: maximization orientation means the canonical optimum beats nearby
# points in the +direction for every benchmark.
def test_benchmarks_are_maximization_oriented():
    probes = {
        "branin2": (np.array([math.pi, 2.275]), np.array([0.0, 8.0])),
        "hartmann3": (np.array([0.114614, 0.555649, 0.852547]), np.array([0.9, 0.1, 0.1])),
        "beale2": (np.array([3.0, 0.5]), np.array([-3.0, -0.5])),
        "ackley3": (np.zeros(3), np.array([10.0, -5.0, 20.0])),
        "michalewicz2": (np.array([2.202906, 1.570796]), np.array([0.5, 3.0])),
    }
    for name, (opt, other) in probes.items():
        bench = BENCHMARKS[name]
        assert bench.stage_objective(opt) > bench.stage_objective(other), name


def test_benchmark_bounds():
    assert BENCHMARKS["branin2"].bounds == ((-5.0, 10.0), (0.0, 15.0))
    assert BENCHMARKS["hartmann3"].bounds == ((0.0, 1.0),) * 3
    assert BENCHMARKS["beale2"].bounds == ((-4.5, 4.5),) * 2
    assert BENCHMARKS["ackley3"].bounds == ((-32.768, 32.768),) * 3
    assert BENCHMARKS["michalewicz2"].bounds == ((0.0, math.pi),) * 2


# Story: the stage cost blends a cosine, a dimension-averaged quadratic, and
# a logistic bump — frozen values pin the exact composition.
def test_default_stage_cost_formula():
    assert default_stage_cost(np.zeros(2)) == pytest.approx(4.5, abs=1e-15)
    x = np.array([1.0, -2.0, 0.5])
    assert default_stage_cost(x) == pytest.approx(4.185204568284809, abs=1e-12)
    # strictly positive everywhere sampled
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert default_stage_cost(rng.uniform(-30, 30, size=3)) > 0.0


# ---------------------------------------------------------------------------
# suites


def test_synthetic_suites_composition():
    s3 = synthetic_suite("synth3")
    assert [st.name for st in s3.stages] == [
        "s1_branin2",
        "s2_hartmann3",
        "s3_michalewicz2",
    ]
    assert s3.stage_dims == (2, 3, 2)

    s5 = synthetic_suite("synth5")
    assert s5.stage_dims == (2, 3, 2, 3, 2)
    assert [st.name.split("_", 1)[1] for st in s5.stages] == [
        "branin2",
        "hartmann3",
        "beale2",
        "ackley3",
        "michalewicz2",
    ]

    s10 = synthetic_suite("synth10")
    assert s10.n_stages == 10
    assert s10.stage_dims == (2, 3, 2, 3, 2) * 2

    with pytest.raises(InvalidArgumentError):
        synthetic_suite("synth7")


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        StageSpec(name="s", dim=0, bounds=())
    with pytest.raises(InvalidArgumentError):
        StageSpec(name="s", dim=1, bounds=((1.0, 0.0),), objective_fn=abs)
    with pytest.raises(InvalidArgumentError):
        StageSpec(name="s", dim=1, bounds=((0.0, 1.0),), command="")
    with pytest.raises(InvalidArgumentError):
        PipelineSpec(name="p", stages=())


# Story: a stage is its objective function or its command, never both and
# never neither: the one given decides its kind, so nothing given is
# silently ignored.
@pytest.mark.parametrize(
    "given",
    [{}, {"objective_fn": abs, "command": "true"}],
    ids=["neither", "both"],
)
def test_stage_needs_exactly_one_of_function_and_command(given):
    with pytest.raises(InvalidArgumentError, match="exactly one of objective_fn and command"):
        StageSpec(name="s", dim=1, bounds=((0.0, 1.0),), **given)
    kinds = [
        StageSpec(name="s", dim=1, bounds=((0.0, 1.0),), **only).kind
        for only in ({"objective_fn": abs}, {"command": "true"})
    ]
    assert kinds == ["synthetic", "external"]


# Story: a spec builds its search space once and every caller shares it, so
# its bounds are read-only, also in a copy a worker process unpickles.
def test_search_space_is_built_once_with_read_only_bounds():
    spec = synthetic_suite("synth3")
    space = spec.search_space()
    assert spec.search_space() is space
    assert space.stage_dims == spec.stage_dims
    assert space.lower.tolist() == [lo for s in spec.stages for lo, _ in s.bounds]
    assert space.upper.tolist() == [hi for s in spec.stages for _, hi in s.bounds]
    for bounds in (space.lower, space.upper, pickle.loads(pickle.dumps(spec)).search_space().lower):
        with pytest.raises(ValueError, match="read-only"):
            bounds[0] = 0.0
    assert space.lower.tolist() == [lo for s in spec.stages for lo, _ in s.bounds]


# ---------------------------------------------------------------------------
# keyed noise


# Story: noise is a pure function of the configuration bytes, so the same x
# always sees the same perturbation and distinct x do not share one.
def test_keyed_noise_determinism():
    x = np.array([0.1, 0.2, 0.3])
    assert _keyed_noise(x, 1e-3) == _keyed_noise(x.copy(), 1e-3)
    assert _keyed_noise(x, 1e-3) != _keyed_noise(x + 1e-9, 1e-3)
    assert _keyed_noise(x, 0.0) == 0.0
    assert abs(_keyed_noise(x, 1e-3)) < 1e-2


# ---------------------------------------------------------------------------
# synthetic execution


def test_run_validates_input(tmp_path):
    pipe = synthetic_suite("synth3")
    pool = PrefixPool(pipe.stage_dims, 5, "all")
    store = StageOutputStore(tmp_path)
    with pytest.raises(InvalidArgumentError):
        run(pipe, np.zeros(3), pool, store)
    with pytest.raises(InvalidArgumentError):
        x = np.array([99.0, 1.0, 0.5, 0.5, 0.5, 1.0, 1.0])  # x1 out of bounds
        run(pipe, x, pool, store)


# Story: y is the sum of the stage objectives plus the keyed noise, and the
# stage costs are the cost function on each stage's raw values.
def test_run_composes_stage_objectives_and_costs(tmp_path):
    pipe = synthetic_suite("synth3")
    pool = PrefixPool(pipe.stage_dims, 5, "all")
    store = StageOutputStore(tmp_path)
    x = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    obs = run(pipe, x, pool, store)

    expected = (
        BENCHMARKS["branin2"].stage_objective(x[0:2])
        + BENCHMARKS["hartmann3"].stage_objective(x[2:5])
        + BENCHMARKS["michalewicz2"].stage_objective(x[5:7])
        + _keyed_noise(x, NOISE_STD)
    )
    assert obs.y == pytest.approx(expected, abs=1e-12)
    assert obs.stage_costs == (
        default_stage_cost(x[0:2]),
        default_stage_cost(x[2:5]),
        default_stage_cost(x[5:7]),
    )
    assert obs.memo_delta == 0
    assert obs.executed_cost == pytest.approx(sum(obs.stage_costs))


def _evaluate(pipe, x, pool, store):
    """Run x, update the pool and commit its outputs to the store, as the
    tuning loop does; returns the observation and the updated pool."""
    obs = run(pipe, x, pool, store)
    after = update_pool(pool, obs)
    store.commit(pool, after, obs)
    return obs, after


# Story: a memoized resume must produce the bit-identical objective to a
# full evaluation of the same x — the stored partial sum is the exact left
# fold of the executed stages.
def test_memoized_resume_is_bitwise_identical(tmp_path):
    pipe = synthetic_suite("synth3")
    store = StageOutputStore(tmp_path)
    pool = PrefixPool(pipe.stage_dims, 5, "all")

    src = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    full, pool = _evaluate(pipe, src, pool, store)

    # same prefix, different final stage: resumes after stage 2
    probe = src.copy()
    probe[5:] = [0.3, 2.7]
    memo = run(pipe, probe, pool, store)
    assert memo.memo_delta == 2
    assert memo.stage_costs[0] == 0.0 and memo.stage_costs[1] == 0.0
    assert memo.stage_costs[2] == default_stage_cost(probe[5:7])

    fresh_store = StageOutputStore(tmp_path / "fresh")
    fresh = run(pipe, probe, PrefixPool(pipe.stage_dims, 5, "all"), fresh_store)
    assert fresh.memo_delta == 0
    assert memo.y == fresh.y  # bitwise, not approx

    # identical x resumed at delta=2 also reproduces y bitwise
    again = run(pipe, src, pool, store)
    assert again.memo_delta == 2
    assert again.y == full.y


# Story: a lookup resolves only the pool's depths, so an admitted
# evaluation stores its outputs there and nowhere else, under every prefix
# policy.
@pytest.mark.parametrize("policy", PREFIX_POLICIES)
def test_stage_outputs_stored_only_at_policy_depths(tmp_path, policy):
    pipe = synthetic_suite("synth5")
    pool = PrefixPool(pipe.stage_dims, 5, policy)
    x = pipe.search_space().uniform(np.random.default_rng(4), 1)[0]
    _evaluate(pipe, x, pool, StageOutputStore(tmp_path))
    stored = sorted(blob.parent.name for blob in tmp_path.rglob("*.bin"))
    assert stored == [f"stage_{d}" for d in pool.deltas]


# Story: if every cached blob of a prefix disappears, the run logs and
# falls back to a full evaluation rather than failing, and its commit
# restores them.
def test_missing_blob_falls_back_to_full_run(tmp_path):
    pipe = synthetic_suite("synth3")
    store = StageOutputStore(tmp_path)
    pool = PrefixPool(pipe.stage_dims, 5, "all")
    src = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    full, pool = _evaluate(pipe, src, pool, store)

    for blob in tmp_path.rglob("*.bin"):
        blob.unlink()

    obs, pool = _evaluate(pipe, src, pool, store)
    assert obs.memo_delta == 0
    assert obs.y == full.y
    assert len(list(tmp_path.rglob("*.bin"))) == 2


_SRC = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])


def _cached_synth3(tmp_path):
    """synth3 with _SRC evaluated, stored and pooled; returns the pipeline,
    store, pool and the path of _SRC's stage-2 blob."""
    pipe = synthetic_suite("synth3")
    store = StageOutputStore(tmp_path)
    _, pool = _evaluate(pipe, _SRC, PrefixPool(pipe.stage_dims, 5, "all"), store)
    return pipe, store, pool, tmp_path / f"{store.handle_for(2, _SRC[:5])}.bin"


def _fresh_y(pipe, x, tmp_path):
    """y of x evaluated from scratch, with no cache to serve any stage."""
    store = StageOutputStore(tmp_path / "fresh")
    return run(pipe, x, PrefixPool(pipe.stage_dims, 0, "all"), store).y


# Story: a damaged stage-2 blob is served from the longest prefix that still
# resolves (stage 1), with the objective bit-equal to a fresh run, and the
# commit after the run rewrites the damaged blob, which a pool entry still
# points at.
@pytest.mark.parametrize(
    "damage",
    [
        lambda p: p.write_bytes(p.read_bytes()[:5]),
        lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:]),
        lambda p: p.unlink(),
    ],
    ids=["truncated", "bad_magic", "missing"],
)
def test_damaged_deeper_blob_falls_back_to_intact_prefix(tmp_path, caplog, damage):
    pipe, store, pool, blob = _cached_synth3(tmp_path)
    payload = store.resolve(2, _SRC[:5])
    damage(blob)
    probe = _SRC.copy()
    probe[5:] = [0.3, 2.7]

    with caplog.at_level(logging.WARNING, logger="pipetune.pipeline"):
        obs, pool = _evaluate(pipe, probe, pool, store)
    assert "cache resolution failed" in caplog.text
    assert obs.memo_delta == 1
    assert obs.stage_costs[0] == 0.0
    assert obs.stage_costs[1:] == (
        default_stage_cost(probe[2:5]),
        default_stage_cost(probe[5:7]),
    )
    assert obs.y == _fresh_y(pipe, probe, tmp_path)  # bitwise, not approx
    assert store.resolve(2, _SRC[:5]) == payload
    assert run(pipe, probe, pool, store).memo_delta == 2


# Story: a truncated blob costs a rerun from the longest intact prefix,
# whose commit also rewrites it, so the next hit on the same prefix is
# served from the cache again.
def test_truncated_blob_is_repaired_by_the_fallback_run(tmp_path, caplog):
    pipe, store, pool, blob = _cached_synth3(tmp_path)
    blob.write_bytes(blob.read_bytes()[:5])

    with caplog.at_level(logging.WARNING, logger="pipetune.pipeline"):
        fallback, pool = _evaluate(pipe, _SRC, pool, store)
    assert fallback.memo_delta == 1
    assert "cache resolution failed" in caplog.text
    assert blob.stat().st_size > 5

    repaired = run(pipe, _SRC, pool, store)
    assert repaired.memo_delta == 2
    assert repaired.y == _fresh_y(pipe, _SRC, tmp_path)


# Story: a fallback rerun that the pool does not admit (the same source,
# no better objective) still rewrites the damaged blob, because a pool
# entry still points at it.
def test_unadmitted_fallback_rerun_still_repairs_the_blob(tmp_path):
    pipe, store, pool, blob = _cached_synth3(tmp_path)
    payload = store.resolve(2, _SRC[:5])
    blob.write_bytes(blob.read_bytes()[:5])
    probe = _SRC.copy()
    probe[5:] = [0.0, 0.0]

    obs, after = _evaluate(pipe, probe, pool, store)
    assert obs.memo_delta == 1
    assert after is pool
    assert store.resolve(2, _SRC[:5]) == payload
    assert len(list(tmp_path.rglob("*.bin"))) == 2


# Story: a pool without capacity can never serve a prefix, so nothing is
# kept or stored for it.
def test_no_blobs_without_pool_capacity(tmp_path):
    pipe = synthetic_suite("synth3")
    store = StageOutputStore(tmp_path)
    x = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    obs, _ = _evaluate(pipe, x, PrefixPool(pipe.stage_dims, 0, "all"), store)
    assert obs.memo_delta == 0
    assert obs.outputs == ()
    assert not list(tmp_path.rglob("*.bin"))


def test_output_handles_are_content_addressed(tmp_path):
    pipe = synthetic_suite("synth3")
    space = pipe.search_space()
    store = StageOutputStore(tmp_path)
    x = np.array([2.0, 3.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    _evaluate(pipe, x, PrefixPool(pipe.stage_dims, 5, "all"), store)
    # stage k's output, the partial objective sum, is addressed by x's first
    # k stages' values alone
    partial = 0.0
    for k, bench in ((1, "branin2"), (2, "hartmann3")):
        partial += BENCHMARKS[bench].stage_objective(x[space.stage_slice(k)])
        got = store.resolve(k, x[: space.prefix_width(k)])
        assert struct.unpack(">d", got) == (partial,)
    assert len(list(tmp_path.rglob("*.bin"))) == 2
    with pytest.raises(StorageError):
        store.resolve(2, x[:4])


# ---------------------------------------------------------------------------
# external command adapter


def _external_pipeline(tmp_path, final_cmd=None):
    """Two external stages: stage 1 doubles x1 into its output file; stage 2
    adds x1 to the carried value and prints the objective line."""
    s1 = tmp_path / "stage1.py"
    s1.write_text(
        "import sys\n"
        "x = float(sys.argv[1])\n"
        "open(sys.argv[2], 'w').write(str(2.0 * x))\n"
        "print('stage one done')\n"
    )
    s2 = tmp_path / "stage2.py"
    s2.write_text(
        "import sys\n"
        "x = float(sys.argv[1])\n"
        "carry = float(open(sys.argv[2]).read())\n"
        "print('diagnostics: carry', carry)\n"
        "print(f'objective={carry + x}')\n"
    )
    stages = (
        StageSpec(
            name="double",
            dim=1,
            bounds=((0.0, 10.0),),
            command=f"{PY} {s1} {{x1}} {{output}}",
        ),
        StageSpec(
            name="add",
            dim=1,
            bounds=((0.0, 10.0),),
            command=final_cmd or f"{PY} {s2} {{x1}} {{input}}",
        ),
    )
    return PipelineSpec(name="ext2", stages=stages, noise_std=0.0)


# Story: placeholders are substituted, intermediate payloads flow through
# {input}/{output} files, and the final stdout line yields the objective.
def test_external_pipeline_end_to_end(tmp_path):
    pipe = _external_pipeline(tmp_path)
    store = StageOutputStore(tmp_path / "cache")
    obs = run(pipe, np.array([3.0, 4.0]), PrefixPool(pipe.stage_dims, 5, "all"), store)
    assert obs.y == pytest.approx(10.0)  # 2*3 + 4
    assert obs.memo_delta == 0
    assert all(c > 0.0 for c in obs.stage_costs)


# Story: an external stage's stored output lets a prefix-matching candidate
# skip stage 1 entirely and still produce the right objective.
def test_external_memoized_resume(tmp_path):
    pipe = _external_pipeline(tmp_path)
    store = StageOutputStore(tmp_path / "cache")
    pool = PrefixPool(pipe.stage_dims, 3, "all")
    x = np.array([3.0, 4.0])
    obs, pool = _evaluate(pipe, x, pool, store)

    probe = np.array([3.0, 5.0])
    memo = run(pipe, probe, pool, store)
    assert memo.memo_delta == 1
    assert memo.stage_costs[0] == 0.0
    assert memo.y == pytest.approx(11.0)  # cached 6.0 + 5


# Story: each external stage runs in a working directory of its own, so a
# file that stage 1 leaves in its working directory never reaches stage 2;
# only {input} does. An evaluation served from the cache therefore scores
# what a fresh one does.
def test_memoized_external_run_matches_fresh(tmp_path):
    s1 = tmp_path / "side1.py"
    s1.write_text(
        "import sys\n"
        "open('side.txt', 'w').write('7')\n"
        "open(sys.argv[1], 'w').write('carried')\n"
    )
    s2 = tmp_path / "side2.py"
    s2.write_text(
        "import os\n"
        "side = open('side.txt').read() if os.path.exists('side.txt') else '0'\n"
        "print(f'objective={float(side)}')\n"
    )
    stages = tuple(
        StageSpec(name=f"s{k}", dim=1, bounds=((0.0, 1.0),), command=cmd)
        for k, cmd in ((1, f"{PY} {s1} {{output}}"), (2, f"{PY} {s2}"))
    )
    pipe = PipelineSpec(name="side", stages=stages, noise_std=0.0)
    store = StageOutputStore(tmp_path / "cache")
    pool = PrefixPool(pipe.stage_dims, 3, "all")
    x = np.array([0.5, 0.5])
    fresh, pool = _evaluate(pipe, x, pool, store)
    memo = run(pipe, x, pool, store)
    assert (fresh.memo_delta, memo.memo_delta) == (0, 1)
    assert memo.y == fresh.y == 0.0


# Story: noise_std applies to external stages as to synthetic ones: y is
# the printed objective plus the noise keyed by x, the same on every run.
def test_external_pipeline_file_applies_keyed_noise(tmp_path):
    path = tmp_path / "noisy.json"
    stage = {"dim": 1, "bounds": [[0.0, 10.0]], "command": "echo objective={x1}"}
    path.write_text(json.dumps({"name": "noisy", "noise_std": 0.5, "stages": [stage]}))
    pipe = load_pipeline_file(path)
    x = np.array([3.0])
    ys = [
        run(pipe, x, PrefixPool(pipe.stage_dims, 0, "all"), StageOutputStore(tmp_path / c)).y
        for c in ("a", "b")
    ]
    assert _keyed_noise(x, 0.5) != 0.0
    assert ys == [3.0 + _keyed_noise(x, 0.5)] * 2


def test_external_failure_raises_with_stage_index(tmp_path):
    fail = f"{PY} -c 'import sys; sys.exit(3)'"
    pipe = _external_pipeline(tmp_path, final_cmd=fail)
    store = StageOutputStore(tmp_path / "cache")
    with pytest.raises(StageExecutionError) as err:
        run(pipe, np.array([3.0, 4.0]), PrefixPool(pipe.stage_dims, 5, "all"), store)
    assert err.value.stage_index == 2


# Story: a timed-out stage's error carries what it printed before the kill,
# as text.
def test_external_timeout(tmp_path):
    slow = f'{PY} -u -c "print(\'epoch 1\'); import time; time.sleep(30)"'
    stages = (
        StageSpec(
            name="slow",
            dim=1,
            bounds=((0.0, 1.0),),
            command=slow,
            timeout=1.0,
        ),
    )
    pipe = PipelineSpec(name="slow1", stages=stages, noise_std=0.0)
    store = StageOutputStore(tmp_path / "cache")
    with pytest.raises(StageExecutionError) as err:
        run(pipe, np.array([0.5]), PrefixPool(pipe.stage_dims, 5, "all"), store)
    assert err.value.output == "epoch 1\n"


# Story: a stage that started a child of its own (a training job holding a
# GPU, say) loses that child too when it times out, not only itself.
def test_external_timeout_kills_the_stage_process_group(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = tmp_path / "spawn.py"
    script.write_text(
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(5)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "time.sleep(30)\n"
    )
    stages = (
        StageSpec(
            name="spawner",
            dim=1,
            bounds=((0.0, 1.0),),
            command=f"{PY} {script}",
            timeout=1.0,
        ),
    )
    pipe = PipelineSpec(name="spawn1", stages=stages, noise_std=0.0)
    store = StageOutputStore(tmp_path / "cache")
    with pytest.raises(StageExecutionError):
        run(pipe, np.array([0.5]), PrefixPool(pipe.stage_dims, 5, "all"), store)
    pid = int(pid_file.read_text())
    # a killed grandchild lingers as a zombie until its new parent reaps it;
    # wait for that, but well short of the 5 s it would sleep if it lived
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_protocol_error_without_objective_line(tmp_path):
    quiet = f"{PY} -c \"print('all good but no verdict')\""
    pipe = _external_pipeline(tmp_path, final_cmd=quiet)
    store = StageOutputStore(tmp_path / "cache")
    with pytest.raises(ProtocolError):
        run(pipe, np.array([3.0, 4.0]), PrefixPool(pipe.stage_dims, 5, "all"), store)


def test_parse_objective_contract():
    assert _parse_objective("noise\nobjective=3.25\n", 2) == 3.25
    assert _parse_objective("objective=-1e-3", 1) == -1e-3
    with pytest.raises(ProtocolError):
        _parse_objective("", 1)
    with pytest.raises(ProtocolError):
        _parse_objective("objective=abc", 1)
    with pytest.raises(ProtocolError):
        _parse_objective("objective=1.0\ntrailing chatter", 1)


def test_substitute_placeholders():
    text = _substitute("run {x1} {x2} --in {input} --out {output}", np.array([1.5, -2.0]), "IN", "OUT")
    assert text == "run 1.5 -2.0 --in IN --out OUT"


# ---------------------------------------------------------------------------
# pipeline definition files


# Story: a pipeline runs as all-synthetic or all-external, so a file that
# mixes the two kinds is refused at load time, in either order, before any
# stage can run.
def test_load_pipeline_file_mixed(tmp_path):
    stages = [
        {"kind": "synthetic", "function": "branin2"},
        {
            "kind": "external",
            "dim": 1,
            "bounds": [[0.0, 1.0]],
            "command": "echo objective=1.0",
            "timeout": 5.0,
        },
    ]
    for order in (stages, stages[::-1]):
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps({"name": "mixed", "stages": order}))
        with pytest.raises(InvalidArgumentError, match="mixes stage kinds"):
            load_pipeline_file(path)
    path.write_text(json.dumps({"name": "ext", "stages": stages[1:]}))
    pipe = load_pipeline_file(path)
    assert pipe.stages[0].kind == "external"
    assert pipe.stages[0].timeout == 5.0
    assert pipe.noise_std == 0.0  # external pipelines default to no synthetic noise


def test_load_pipeline_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidArgumentError):
        load_pipeline_file(missing)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidArgumentError):
        load_pipeline_file(bad)

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"name": "x", "stages": []}))
    with pytest.raises(InvalidArgumentError):
        load_pipeline_file(empty)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps({"name": "x", "stages": [{"kind": "synthetic", "function": "nope"}]})
    )
    with pytest.raises(InvalidArgumentError):
        load_pipeline_file(unknown)


_EXTERNAL = {
    "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]], "command": "echo objective=1"
}


# Story: a file that does not match the schema, or names a stage that
# cannot run (a command that is not a string, a timeout that is not a
# finite number of seconds above 0, an unbounded box, a bound that is a
# string, a boolean or null rather than a number), is refused with a
# usage error naming what is wrong, never a raw error from inside a stage
# or a stage run of a misspelled kind.
@pytest.mark.parametrize(
    "doc, match",
    [
        *(
            ({"stages": [{k: v for k, v in _EXTERNAL.items() if k != key}]}, f"no '{key}'")
            for key in ("command", "dim", "bounds")
        ),
        ([_EXTERNAL], "not an object"),
        ({"stages": _EXTERNAL}, "not an object"),
        ({"stages": [{**_EXTERNAL, "dim": "one"}]}, "integer"),
        ({"stages": [{**_EXTERNAL, "dim": 1.5}]}, "integer"),
        ({"stages": [{**_EXTERNAL, "kind": "externl"}]}, "unknown stage kind"),
        ({"stages": [{**_EXTERNAL, "bounds": [[0.0]]}]}, "stage 1"),
        ({"noise_std": "0.1", "stages": [_EXTERNAL]}, "noise_std"),
        ({"noise_std": -0.1, "stages": [_EXTERNAL]}, "noise_std"),
        ({"noise_std": True, "stages": [_EXTERNAL]}, "noise_std"),
        ({"stages": [{**_EXTERNAL, "command": 5}]}, "a command string"),
        ({"stages": [{**_EXTERNAL, "command": "  "}]}, "a command string"),
        ({"stages": [{**_EXTERNAL, "timeout": math.nan}]}, "timeout"),
        ({"stages": [{**_EXTERNAL, "timeout": 0}]}, "timeout"),
        ({"stages": [{**_EXTERNAL, "timeout": -1}]}, "timeout"),
        ({"stages": [{**_EXTERNAL, "timeout": math.inf}]}, "timeout"),
        ({"stages": [{**_EXTERNAL, "timeout": "30"}]}, "timeout"),
        ({"stages": [{**_EXTERNAL, "bounds": [[-math.inf, math.inf]]}]}, "finite"),
        ({"stages": [{**_EXTERNAL, "bounds": [[0.0, math.nan]]}]}, "finite"),
        ({"stages": [{**_EXTERNAL, "bounds": [["0", 1.0]]}]}, "pairs of numbers"),
        ({"stages": [{**_EXTERNAL, "bounds": [[0.0, True]]}]}, "pairs of numbers"),
        ({"stages": [{**_EXTERNAL, "bounds": [[None, 1.0]]}]}, "pairs of numbers"),
    ],
    ids=[
        "no-command", "no-dim", "no-bounds", "list-doc",
        "stages-not-list", "dim-string", "dim-float", "unknown-kind", "short-bound",
        "noise-string", "noise-negative", "noise-bool", "command-number", "command-blank",
        "timeout-nan", "timeout-zero", "timeout-negative", "timeout-infinite",
        "timeout-string", "bounds-infinite", "bounds-nan", "bounds-string",
        "bounds-bool", "bounds-null",
    ],
)
def test_load_pipeline_file_refuses_malformed(tmp_path, doc, match):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgumentError, match=match):
        load_pipeline_file(path)


def test_observation_executed_cost_skips_memoized():
    obs = Observation(
        x=np.zeros(2), y=1.0, stage_costs=(0.0, 2.5, 3.5), memo_delta=1, outputs=()
    )
    assert obs.executed_cost == 6.0


# Story: the float sums that feed traces (an observation's executed cost,
# which gives `consumed`, and a segment's cost, which gives the log-cost
# targets) add left to right with no compensation on every interpreter.
# From Python 3.12 the built-in sum() of floats is compensated and gives
# 1.0 here, which would move trace bytes with the Python version.
def test_trace_sums_add_left_to_right():
    values = (1e16, 1.0, -1e16)
    assert ordered_sum(values) == 0.0
    assert ordered_sum(iter(values)) == 0.0
    assert Segment(1, 3).cost(values) == 0.0
    obs = Observation(x=np.zeros(3), y=0.0, stage_costs=values, memo_delta=0, outputs=())
    assert obs.executed_cost == 0.0
