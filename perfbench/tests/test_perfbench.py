"""Fast checks of the benchmark itself: the independent closed forms, the
trace checks (they must reject tampered traces) and the tracer (it must
count what the trace shows and leave nothing patched behind).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math
import re

import pytest

import bench
import oracle
import workloads
from pipetune import gp, optimizer, pipeline
from pipetune.cache import StageOutputStore
from tracer import Tracer

TINY_EEIPU = workloads.Workload(
    "tiny-eeipu",
    "synth3",
    dict(workloads.ACCEPTANCE, method="eeipu", n0=3, m=16, n_mc=30, restarts=2),
)
TINY_MEMO = workloads.Workload(
    "tiny-memo",
    "synth10",
    dict(workloads.WORKLOADS["synth10-memo"].config, total_budget=4000.0),
    memo=True,
)


def _trace(workload, seed, tmp_path):
    return workloads.run_trace(workload, seed, tmp_path / f"cache-{workload.name}-{seed}")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    return {w.name: _trace(w, 9, root) for w in (TINY_EEIPU, TINY_MEMO)}


def _errors(workload, rows, complete=True):
    return oracle.check_trace(
        workload.suite, rows, workload.config["n0"], workload.config["total_budget"], complete
    )


# -- closed forms -------------------------------------------------------------


def test_closed_forms_hit_published_optima():
    for x1, x2 in ((-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475)):
        assert oracle.branin(x1, x2) == pytest.approx(0.397887, abs=1e-6)
    assert oracle.hartmann3(0.114614, 0.555649, 0.852547) == pytest.approx(-3.86278, abs=1e-5)
    assert oracle.michalewicz(2.202906, math.pi / 2) == pytest.approx(1.8013, abs=1e-4)
    assert oracle.beale(3.0, 0.5) == 0.0
    assert oracle.ackley(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert oracle.optimum("synth3") == pytest.approx(5.2662, abs=1e-4)
    assert oracle.optimum("synth10") == pytest.approx(10.5324, abs=1e-4)


def test_closed_forms_match_the_program_away_from_the_optima():
    import numpy as np

    rng = np.random.default_rng(5)
    for suite in ("synth3", "synth10"):
        spec_ = pipeline.synthetic_suite(suite)
        space = spec_.search_space()
        for x in space.uniform(rng, 20):
            program = sum(
                s.objective_fn(x[space.stage_slice(k)])
                for k, s in enumerate(spec_.stages, start=1)
            )
            assert oracle.objective(suite, x) == pytest.approx(program, rel=1e-12, abs=1e-12)


# -- trace checks ---------------------------------------------------------------


def test_untouched_traces_pass(tiny_runs, tmp_path):
    for workload in (TINY_EEIPU, TINY_MEMO):
        run = tiny_runs[workload.name]
        assert run.failed == 0 and run.step_s
        assert workloads.check(workload, run, tmp_path / f"{workload.name}.csv") == []


def _tampered(rows, index, **changes):
    rows = list(rows)
    rows[index] = dataclasses.replace(rows[index], **changes)
    return rows


def test_shifted_y_is_rejected(tiny_runs):
    rows = tiny_runs[TINY_EEIPU.name].trace.rows
    errors = _errors(TINY_EEIPU, _tampered(rows, 4, y=rows[4].y + 0.01))
    assert any("closed form" in e for e in errors)


def test_memoized_stage_with_cost_is_rejected(tiny_runs):
    rows = tiny_runs[TINY_MEMO.name].trace.rows
    i = next(i for i, r in enumerate(rows) if r.delta > 0)
    costs = (0.5, *rows[i].stage_costs[1:])
    errors = _errors(TINY_MEMO, _tampered(rows, i, stage_costs=costs))
    assert any("memoized stage 1" in e for e in errors)


def test_wrong_cost_consumed_best_and_stop_are_rejected(tiny_runs):
    rows = tiny_runs[TINY_EEIPU.name].trace.rows
    last = len(rows) - 1
    k = rows[last].delta + 1  # an executed stage
    costs = list(rows[last].stage_costs)
    costs[k - 1] *= 1.001
    cases = {
        "landscape gives": _tampered(rows, last, stage_costs=tuple(costs)),
        "running sum": _tampered(rows, 2, consumed=rows[2].consumed + 1e-6),
        "running max": _tampered(rows, last, best_y=rows[last].best_y + 1.0),
        "does not stop": rows[:-1],
    }
    for needle, tampered in cases.items():
        assert any(needle in e for e in _errors(TINY_EEIPU, tampered)), needle


def test_incomplete_trace_must_not_reach_the_budget(tiny_runs):
    rows = tiny_runs[TINY_EEIPU.name].trace.rows
    assert _errors(TINY_EEIPU, rows[:-1], complete=False) == []
    assert any("does not stop" in e for e in _errors(TINY_EEIPU, rows, complete=False))


def test_prefix_reuse_needs_an_earlier_source(tiny_runs):
    rows = tiny_runs[TINY_MEMO.name].trace.rows
    i = next(i for i, r in enumerate(rows) if r.delta > 0)
    # the same row claimed one stage deeper than any earlier row shares
    deeper = _tampered(rows, i, delta=len(oracle.SUITES["synth10"]) - 1)
    assert any("no earlier row" in e for e in _errors(TINY_MEMO, deeper))


# -- tracer -------------------------------------------------------------------


def _patched_attributes():
    attrs = [
        (optimizer, a)
        for a in ("step", "score_candidates", "generate", "run_pipeline", "update_pool")
    ]
    attrs += [(gp, "fit"), (gp, "posterior_mean_var"), (gp, "log_prior")]
    attrs += [(pipeline, "lookup")]
    attrs += [(StageOutputStore, a) for a in ("store_output", "resolve", "write_index")]
    return attrs


def test_no_wrapper_survives_the_traced_run(tmp_path):
    attrs = _patched_attributes()
    originals = [getattr(owner, name) for owner, name in attrs]
    fit_models = optimizer._fit_models
    tracer = Tracer()
    with tracer:
        assert all(getattr(o, n) is not f for (o, n), f in zip(attrs, originals))
        runs = [_trace(w, 3, tmp_path) for w in (TINY_EEIPU, TINY_MEMO)]
    assert all(getattr(o, n) is f for (o, n), f in zip(attrs, originals))
    assert optimizer._fit_models is fit_models

    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert all(getattr(o, n) is f for (o, n), f in zip(attrs, originals))

    rows = [row for r in runs for row in r.trace.rows]
    assert tracer.totals["pipeline.evals"] == len(rows)
    assert tracer.totals["cache.hits"] == sum(row.delta > 0 for row in rows)
    assert tracer.counts["optimizer.iterations"] == sum(len(r.step_s) for r in runs)
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"tracing.overhead_pct"} == {
        m["name"] for m in bench.manifest()["per_layer"]
    }
    assert metrics["gp.fits"] > 0 and metrics["gp.lml_evals"] > 0
    assert metrics["acquisition.mc_draws"] > 0 and metrics["cache.writes"] > 0


def test_tracer_skips_entry_points_the_library_lacks(monkeypatch):
    monkeypatch.delattr(StageOutputStore, "write_index")
    with Tracer():
        assert not hasattr(StageOutputStore, "write_index")
    assert not hasattr(StageOutputStore, "write_index")


# -- manifest -------------------------------------------------------------------


def test_manifest_names_units_and_workloads():
    on_disk = bench.manifest()
    assert [w["name"] for w in on_disk["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = on_disk["end_to_end"] + on_disk["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])


# -- calibration ------------------------------------------------------------


def test_calibrator_samples_at_most_once_per_interval():
    import calibration

    cal = calibration.Calibrator()
    for _ in range(10):
        cal.after_step(0.1)
    # the first step, then every third 0.1 s step (0.3 s >= EVERY_S)
    assert len(cal.samples) == 4
    assert all(s > 0.0 for s in cal.samples)
    assert cal.factor == pytest.approx(calibration.REFERENCE_MS / cal.median_ms)
