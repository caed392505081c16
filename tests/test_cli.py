"""Unit and end-to-end tests for the command-line harness: aggregation
math, CSV outputs, ablation sweeps, and exit codes."""

import json
import math

import pytest

from pipetune.cli import (
    CACHE_ROOT_ENV,
    SummaryRow,
    _build_jobs,
    _improvement_flags,
    build_parser,
    epsilon_insensitive,
    main,
    summarize,
    write_curves_csv,
    write_summary_csv,
)
from pipetune.errors import InvalidArgumentError
from pipetune.optimizer import RunConfig, RunTrace, TraceRow, read_trace
from pipetune.pipeline import synthetic_suite


def _row(iteration, delta, consumed, y, best_y):
    return TraceRow(iteration, delta, 1.0, consumed, y, best_y, 0.0, (1.0,), (0.5,))


def _trace(method, seed, rows, pipeline="toy", n0=1):
    return RunTrace(
        pipeline_name=pipeline,
        config={"method": method, "seed": seed, "n0": n0},
        total_budget=rows[-1].consumed,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# aggregation math


# Story: every summary column is a simple statistic of the traces; check
# each against a hand computation on two tiny fabricated runs.
def test_summarize_matches_hand_computation():
    a = _trace(
        "eeipu",
        0,
        [
            _row(1, 0, 2.0, 1.0, 1.0),  # improves (fresh)
            _row(2, 1, 4.0, 2.0, 2.0),  # improves with a memoized prefix
            _row(3, 0, 6.0, 0.5, 2.0),  # no improvement
        ],
    )
    b = _trace(
        "eeipu",
        1,
        [
            _row(1, 0, 3.0, 4.0, 4.0),  # improves (fresh)
            _row(2, 2, 5.0, 5.0, 5.0),  # improves with a memoized prefix
        ],
    )
    other = _trace("ei", 0, [_row(1, 0, 7.0, 9.0, 9.0)])

    rows = summarize([a, b, other])
    assert [(r.pipeline, r.method) for r in rows] == [("toy", "eeipu"), ("toy", "ei")]

    r = rows[0]
    assert r.repeats == 2
    assert r.mean_best == pytest.approx((2.0 + 5.0) / 2)
    sd = math.sqrt(((2.0 - 3.5) ** 2 + (5.0 - 3.5) ** 2) / 1)
    assert r.se_best == pytest.approx(sd / math.sqrt(2))
    assert r.mean_iterations == pytest.approx((2 + 1) / 2)  # n0=1 rows excluded
    assert r.mean_consumed == pytest.approx((6.0 + 5.0) / 2)
    # 4 improvements total, 2 of them via memoized prefixes
    assert r.pct_improv_memo == pytest.approx(50.0)

    single = rows[1]
    assert single.repeats == 1
    assert single.se_best == 0.0
    assert single.pct_improv_memo == 0.0


# Story: one summary row averages the repeats of one config. Traces of one
# (pipeline, method) whose configs differ in a key other than the seed
# (EIPS and CArBO are both carbo, apart in eta_schedule) are refused,
# naming every differing key, and a key one config lacks counts too.
def test_summarize_refuses_mixed_configs_of_one_method():
    rows = [_row(1, 0, 1.0, 1.0, 1.0)]
    constant, budget = _trace("carbo", 0, rows), _trace("carbo", 1, rows)
    constant.config.update(eta_schedule="constant", q=5)
    budget.config.update(eta_schedule="budget", q=5)
    with pytest.raises(InvalidArgumentError, match="toy differ in eta_schedule;"):
        summarize([constant, budget])
    del budget.config["q"]
    with pytest.raises(InvalidArgumentError, match="differ in eta_schedule, q;"):
        summarize([budget, constant])
    budget.config.update(eta_schedule="constant", q=5)
    assert summarize([constant, budget])[0].repeats == 2


def test_improvement_flags_first_row_always_improves():
    t = _trace("eeipu", 0, [_row(1, 2, 1.0, -5.0, -5.0), _row(2, 0, 2.0, -6.0, -5.0)])
    assert _improvement_flags(t) == [(True, True), (False, False)]


def test_summary_csv_layout(tmp_path):
    rows = summarize([_trace("ei", 0, [_row(1, 0, 7.0, 9.0, 9.0)])])
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("pipeline,method,repeats,mean_best")
    assert lines[1].split(",")[:3] == ["toy", "ei", "1"]


# Story: one writer serves summary.csv and ablation.csv; its bytes, with and
# without the level column, are those of the two writers it replaced:
# floats at 17 significant digits, one line per row, a final newline.
def test_summary_csv_bytes_with_and_without_levels(tmp_path):
    rows = [
        SummaryRow("synth3", "eeipu", 5, 1 / 3, 0.1 + 0.2, 12.5, 100.0, 200 / 3),
        SummaryRow("synth3", "ei", 1, -(2.0**-40), 0.0, 7.0, 1e-7, 0.0),
    ]
    header = (
        "pipeline,method,repeats,mean_best,se_best,mean_iterations,"
        "mean_consumed,pct_improv_memo"
    )
    eeipu = "synth3,eeipu,5,0.33333333333333331,0.30000000000000004,12.5,100,66.666666666666671"
    ei = "synth3,ei,1,-9.0949470177292824e-13,0,7,9.9999999999999995e-08,0"

    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    assert path.read_bytes() == f"{header}\n{eeipu}\n{ei}\n".encode()

    path = tmp_path / "ablation.csv"
    write_summary_csv([rows[0], *rows], path, ["0.001", "100.0", "100.0"])
    assert path.read_bytes() == (
        f"level,{header}\n0.001,{eeipu}\n100.0,{eeipu}\n100.0,{ei}\n".encode()
    )


def test_curves_csv_is_long_format(tmp_path):
    t = _trace("ei", 3, [_row(1, 0, 2.0, 1.0, 1.0), _row(2, 0, 4.0, 0.0, 1.0)])
    path = tmp_path / "curves.csv"
    write_curves_csv([t], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pipeline,method,seed,iter,consumed,best_y"
    assert lines[1].split(",") == ["toy", "ei", "3", "1", "2", "1"]
    assert len(lines) == 3


# Story: the epsilon sweep verdict compares the spread of per-level means
# against twice the pooled standard error.
def test_epsilon_insensitive_both_verdicts():
    flat = {0.001: (1.0, 0.5, 5), 0.01: (1.1, 0.5, 5), 0.1: (0.9, 0.5, 5)}
    ok, spread, threshold = epsilon_insensitive(flat)
    assert ok
    assert spread == pytest.approx(0.2)
    # pooled sd = 0.5 * sqrt(5); se of a level mean = pooled_sd / sqrt(5)
    assert threshold == pytest.approx(2.0 * 0.5)

    jumpy = {0.001: (0.0, 0.01, 5), 0.01: (10.0, 0.01, 5)}
    ok, spread, threshold = epsilon_insensitive(jumpy)
    assert not ok
    assert spread == pytest.approx(10.0)
    assert threshold < 0.1


# ---------------------------------------------------------------------------
# end-to-end via main()

_TINY_FLAGS = [
    "--warmup", "2",
    "--budget", "60",
    "--raw-samples", "16",
    "--mc-samples", "20",
    "--acq-restarts", "1",
    "--cache-size", "3",
]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(
        ["run", "--pipeline", "synth3", "--methods", "eeipu,ei", "--seed", "0",
         "--out", str(out), *_TINY_FLAGS]
    )
    assert code == 0
    return out


def test_run_writes_all_outputs(run_dir, capsys):
    capsys.readouterr()
    assert (run_dir / "summary.csv").is_file()
    assert (run_dir / "curves.csv").is_file()
    assert (run_dir / "synth3_eeipu_s0.csv").is_file()
    assert (run_dir / "synth3_eeipu_s0.json").is_file()
    assert (run_dir / "synth3_ei_s0.csv").is_file()


def test_run_curves_are_monotone(run_dir):
    lines = (run_dir / "curves.csv").read_text().splitlines()[1:]
    series = {}
    for line in lines:
        pipeline, method, seed, it, consumed, best = line.split(",")
        series.setdefault((method, seed), []).append((float(consumed), float(best)))
    assert len(series) == 2
    for pts in series.values():
        consumed = [c for c, _ in pts]
        best = [b for _, b in pts]
        assert all(b2 > b1 for b1, b2 in zip(consumed, consumed[1:]))
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


# Story: the summary is a pure function of the traces, so report over the
# same directory reproduces run's summary byte for byte.
def test_report_reaggregates_identically(run_dir, capsys):
    before = (run_dir / "summary.csv").read_bytes()
    curves_before = (run_dir / "curves.csv").read_bytes()
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "eeipu" in out and "ei" in out
    assert (run_dir / "summary.csv").read_bytes() == before
    assert (run_dir / "curves.csv").read_bytes() == curves_before


# Story: --jobs 2 runs the same jobs in a process pool, which pickles the
# loaded pipeline for its workers; every trace and sidecar comes out byte for
# byte as with --jobs 1.
def test_parallel_jobs_write_identical_traces(run_dir, tmp_path, capsys):
    out = tmp_path / "par"
    code = main(
        ["run", "--pipeline", "synth3", "--methods", "eeipu,ei", "--seed", "0",
         "--out", str(out), "--jobs", "2", *_TINY_FLAGS]
    )
    assert code == 0
    capsys.readouterr()
    names = sorted(p.name for p in run_dir.glob("synth3_*"))
    assert len(names) == 4
    assert sorted(p.name for p in out.glob("synth3_*")) == names
    for name in names:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


# Story: report reads each trace's method and warmup size from its sidecar;
# a trace CSV without one is a runtime error naming the missing file.
def test_report_without_sidecar_exits_1(run_dir, tmp_path, capsys):
    (tmp_path / "alone.csv").write_bytes((run_dir / "synth3_ei_s0.csv").read_bytes())
    assert main(["report", str(tmp_path)]) == 1
    assert "alone.json" in capsys.readouterr().err


# Story: a sidecar whose config is not a RunConfig's is a runtime error,
# exit 1 with one line naming the sidecar, never a raw traceback.
@pytest.mark.parametrize("config", [5, {"n0": "x"}], ids=["number", "partial"])
def test_report_with_malformed_sidecar_exits_1(run_dir, tmp_path, capsys, config):
    name = "synth3_ei_s0"
    (tmp_path / f"{name}.csv").write_bytes((run_dir / f"{name}.csv").read_bytes())
    doc = json.loads((run_dir / f"{name}.json").read_text())
    (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "config": config}))
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name}.json" in err and "Traceback" not in err


def test_summary_matches_recomputation_from_traces(run_dir):
    traces = [
        read_trace(p)
        for p in sorted(run_dir.glob("*.csv"))
        if p.name not in ("summary.csv", "curves.csv")
    ]
    rows = summarize(traces)
    text = (run_dir / "summary.csv").read_text().splitlines()
    assert len(text) == len(rows) + 1
    for line, r in zip(text[1:], rows):
        fields = line.split(",")
        assert fields[0] == r.pipeline and fields[1] == r.method
        assert float(fields[3]) == r.mean_best


def test_ablate_eta_writes_level_dirs(tmp_path, capsys):
    out = tmp_path / "abl"
    code = main(
        ["ablate", "eta", "--pipeline", "synth3", "--methods", "eeipu",
         "--seed", "1", "--out", str(out), *_TINY_FLAGS]
    )
    assert code == 0
    for level in ("budget", "constant", "exp_decay"):
        d = out / f"eta_{level}"
        assert (d / "summary.csv").is_file()
        assert (d / "synth3_eeipu_s1.csv").is_file()
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("level,pipeline,method")
    assert [l.split(",")[0] for l in lines[1:]] == ["budget", "constant", "exp_decay"]
    assert "---" in capsys.readouterr().out


# Story: a level directory of ablate is a run directory: it holds the
# files, byte for byte, that run with the level's flag leaves.
def test_a_level_directory_is_a_run_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ROOT_ENV, raising=False)
    flags = ["--pipeline", "synth3", "--methods", "eeipu", "--seed", "1", *_TINY_FLAGS]
    assert main(["ablate", "eta", "--out", str(tmp_path / "abl"), *flags]) == 0
    run_dir = tmp_path / "run"
    assert main(["run", "--eta-schedule", "exp_decay", "--out", str(run_dir), *flags]) == 0
    capsys.readouterr()
    level_dir = tmp_path / "abl" / "eta_exp_decay"
    names = sorted(p.name for p in run_dir.iterdir())
    assert sorted(p.name for p in level_dir.iterdir()) == names
    assert "curves.csv" in names and "cache" in names
    for name in names:
        if name != "cache":
            assert (level_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


# Story: a sweep moves a field that feeds one part of a run: the prefix pool
# (cache_size, prefix_policy, epsilon) or the cost term (eta). A method that
# reads the field at no level (ei and carbo keep no pool, ei has no cost
# term, and a one-stage pipeline's pool caches nothing) would run one trace
# at every level. ablate refuses it as a usage error (exit 2) naming the
# sweep and the method, before any stage runs or any output directory is
# made.
@pytest.mark.parametrize(
    "kind,methods,refused,one_stage",
    [
        ("cache_size", "eeipu,ei", "ei", False),
        ("prefix_policy", "eeipu,carbo", "carbo", False),
        ("epsilon", "eeipu,ei", "ei", False),
        ("eta", "eeipu,ei", "ei", False),
        ("cache_size", "eeipu", "eeipu", True),
    ],
)
def test_ablate_refuses_a_method_no_level_reaches(
    tmp_path, capsys, kind, methods, refused, one_stage
):
    marker = tmp_path / "ran"
    pipe = tmp_path / "touch.json"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"touch {marker} && echo objective=1.0",
    }
    pipe.write_text(json.dumps({"name": "touch", "stages": [stage]}))
    which = ["--pipeline-file", str(pipe)] if one_stage else ["--pipeline", "synth3"]
    out = tmp_path / "abl"
    code = main(
        ["ablate", kind, *which, "--methods", methods, "--out", str(out), *_TINY_FLAGS,
         "--raw-samples", "128", "--repeats", "2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"ablate {kind} varies " in err
    assert f"method {refused!r} reads it at no level" in err
    assert not marker.exists()
    assert not out.exists()


# Story: a --raw-samples too small for the pool of one job is refused
# before any job runs: run writes no trace of the other methods first, and
# ablate runs no level before the one whose cache size is too large.
@pytest.mark.parametrize(
    "command,flags",
    [
        (["run"], ["--methods", "ei,eeipu", "--raw-samples", "8"]),
        (["ablate", "cache_size"], ["--methods", "eeipu", "--raw-samples", "64"]),
    ],
    ids=["run", "ablate"],
)
def test_raw_samples_below_any_jobs_pool_exits_2_before_any_runs(
    tmp_path, capsys, command, flags
):
    out = tmp_path / "out"
    code = main(
        [*command, "--pipeline", "synth3", "--warmup", "2", "--budget", "60",
         "--mc-samples", "20", "--acq-restarts", "1", "--out", str(out), *flags]
    )
    assert code == 2
    assert "candidate groups" in capsys.readouterr().err
    assert not out.exists()


# Story: the epsilon sweep judges each method on its own levels and names
# it: one verdict line per method, whose spread is that method's max-min of
# mean best over the levels in ablation.csv.
def test_ablate_epsilon_prints_a_verdict_per_method(tmp_path, capsys):
    out = tmp_path / "abl"
    code = main(
        ["ablate", "epsilon", "--pipeline", "synth3", "--methods", "eeipu",
         "--seed", "2", "--out", str(out), *_TINY_FLAGS, "--repeats", "2"]
    )
    assert code == 0
    verdicts = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epsilon sweep")]
    assert [l.split(":")[0] for l in verdicts] == ["epsilon sweep, eeipu"]
    rows = [l.split(",") for l in (out / "ablation.csv").read_text().splitlines()[1:]]
    for line in verdicts:
        method = line.split(":")[0].removeprefix("epsilon sweep, ")
        means = [float(r[4]) for r in rows if r[2] == method]
        assert len(means) == 6
        assert "2x pooled se = 0 " not in line
        spread = float(line.split("mean best = ")[1].split(",")[0])
        assert spread == pytest.approx(max(means) - min(means), rel=1e-5, abs=1e-9)


# Story: the CLI keeps no defaults of its own: a bare run builds the config
# RunConfig() would, field for field.
def test_bare_run_flags_build_the_default_config(tmp_path):
    args = build_parser().parse_args(["run", "--pipeline", "synth3"])
    ((config, _, _),) = _build_jobs(args, synthetic_suite("synth3"), tmp_path)
    assert config == RunConfig()


# ---------------------------------------------------------------------------
# exit codes


# Story: an unknown method, EIPS under its old name among them (it is
# carbo under the constant schedule), exits 2 before any output is written.
def test_unknown_method_is_usage_error(tmp_path, capsys):
    for method in ("gradient", "eips"):
        out = tmp_path / method
        code = main(
            ["run", "--pipeline", "synth3", "--methods", method, "--out", str(out), *_TINY_FLAGS]
        )
        assert code == 2
        assert "unknown method" in capsys.readouterr().err
        assert not out.exists()


# Story: --budget takes 'auto' or a finite number; anything else is a usage
# error (exit 2) before any run starts.
def test_bad_budget_is_usage_error(tmp_path, capsys):
    flags = ["run", "--pipeline", "synth3", "--out", str(tmp_path), "--budget"]
    with pytest.raises(SystemExit) as exc:
        main([*flags, "abc"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    for budget in ("inf", "1e400", "nan"):
        assert main([*flags, budget]) == 2
        assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))


def test_unknown_pipeline_is_usage_error(tmp_path, capsys):
    code = main(["run", "--pipeline", "synth99", "--out", str(tmp_path), *_TINY_FLAGS])
    assert code == 2
    assert "unknown pipeline" in capsys.readouterr().err


# Story: a pipeline file mixing synthetic and external stages is refused
# with the usage exit code before any stage runs or any output is written.
def test_mixed_pipeline_file_exits_2(tmp_path, capsys):
    marker = tmp_path / "ran"
    pipe = tmp_path / "mixed.json"
    pipe.write_text(
        json.dumps(
            {
                "name": "mixed",
                "stages": [
                    {"kind": "synthetic", "function": "branin2"},
                    {
                        "kind": "external",
                        "dim": 1,
                        "bounds": [[0.0, 1.0]],
                        "command": f"touch {marker} && echo objective=1.0",
                    },
                ],
            }
        )
    )
    out = tmp_path / "out"
    code = main(["run", "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS])
    assert code == 2
    assert "mixes stage kinds" in capsys.readouterr().err
    assert not marker.exists()
    assert not list(out.glob("**/*.csv"))


# Story: --repeats and --jobs below 1 are usage errors (exit 2) in run and
# ablate, refused before any stage runs or any output is written, rather
# than an empty table or a silent serial run.
@pytest.mark.parametrize("command", [["run"], ["ablate", "eta"]])
@pytest.mark.parametrize("flag,value", [
    ("--repeats", "0"), ("--repeats", "-2"), ("--jobs", "0"), ("--jobs", "-3"),
])
def test_out_of_range_repeats_and_jobs_exit_2(tmp_path, capsys, command, flag, value):
    marker = tmp_path / "ran"
    pipe = tmp_path / "touch.json"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"touch {marker} && echo objective=1.0",
    }
    pipe.write_text(json.dumps({"name": "touch", "stages": [stage]}))
    out = tmp_path / "out"
    code = main(
        [*command, "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS, flag, value]
    )
    assert code == 2
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not marker.exists()
    assert not list(out.glob("**/*.csv"))


# Story: a method named twice would run one trace twice, into one trace
# path and one cache root, and report it as two repeats with a zero spread.
# run and ablate refuse it as a usage error (exit 2) before any stage runs
# or any output directory is made.
@pytest.mark.parametrize("command", [["run"], ["ablate", "eta"]])
@pytest.mark.parametrize("methods", ["ei,ei", "eeipu,ei, eeipu"])
def test_duplicate_method_exits_2(tmp_path, capsys, command, methods):
    marker = tmp_path / "ran"
    pipe = tmp_path / "touch.json"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"touch {marker} && echo objective=1.0",
    }
    pipe.write_text(json.dumps({"name": "touch", "stages": [stage]}))
    out = tmp_path / "out"
    code = main(
        [*command, "--pipeline-file", str(pipe), "--methods", methods, "--out", str(out),
         *_TINY_FLAGS]
    )
    assert code == 2
    duplicate = methods.split(",")[0]
    assert f"method {duplicate!r} is named more than once" in capsys.readouterr().err
    assert not marker.exists()
    assert not out.exists()


# Story: a method list with no name in it (only commas or blanks) is a
# usage error, exit 2, before any output directory is made.
@pytest.mark.parametrize("command", [["run"], ["ablate", "eta"]])
@pytest.mark.parametrize("methods", [",", "", " , "])
def test_empty_method_list_exits_2(tmp_path, capsys, command, methods):
    out = tmp_path / "out"
    code = main(
        [*command, "--pipeline", "synth3", "--methods", methods, "--out", str(out),
         *_TINY_FLAGS]
    )
    assert code == 2
    assert "--methods names no method" in capsys.readouterr().err
    assert not out.exists()


# Story: a pipeline file with a misspelled stage kind is refused with the
# usage exit code; the stage does not run as an external one.
def test_malformed_pipeline_file_exits_2(tmp_path, capsys):
    marker = tmp_path / "ran"
    pipe = tmp_path / "typo.json"
    stage = {"kind": "externl", "dim": 1, "bounds": [[0.0, 1.0]], "command": f"touch {marker}"}
    pipe.write_text(json.dumps({"name": "typo", "stages": [stage]}))
    out = tmp_path / "out"
    code = main(["run", "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS])
    assert code == 2
    assert "unknown stage kind" in capsys.readouterr().err
    assert not marker.exists()
    assert not list(out.glob("**/*.csv"))


# Story: a pipeline file whose stage cannot run (a command that is not a
# string or cannot be split into words, a timeout that is not a finite
# number of seconds above 0, an unbounded box, a bound that is a string, a
# boolean or null, a boolean noise level) is refused with the usage exit
# code before any stage command runs or any output directory is made.
@pytest.mark.parametrize(
    "change",
    [
        {"command": 5},
        {"command": "sh -c 'echo objective={x1}"},
        {"timeout": math.nan},
        {"timeout": 0},
        {"timeout": -1},
        {"bounds": [[-math.inf, math.inf]]},
        {"bounds": [["0", 1.0]]},
        {"bounds": [[0.0, True]]},
        {"bounds": [[None, 1.0]]},
        {"noise_std": True},
    ],
    ids=["command-number", "command-unbalanced-quote", "timeout-nan", "timeout-zero", "timeout-negative",
         "bounds-infinite", "bounds-string", "bounds-bool", "bounds-null", "noise-bool"],
)
def test_unrunnable_pipeline_file_exits_2(tmp_path, capsys, change):
    marker = tmp_path / "ran"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"touch {marker}",
    }
    doc = {"name": "unrunnable", "stages": [stage]}
    (doc if "noise_std" in change else stage).update(change)
    pipe = tmp_path / "unrunnable.json"
    pipe.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not marker.exists()
    assert not out.exists()


# Story: a stage that fails is a runtime error, exit 1 with one error line,
# whether the jobs run in this process or in a process pool, whose workers
# hand the error back to the parent pickled.
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_stage_exits_1_with_any_jobs(tmp_path, capsys, jobs):
    pipe = tmp_path / "fails.json"
    stage = {"kind": "external", "dim": 1, "bounds": [[0.0, 1.0]], "command": "false"}
    pipe.write_text(json.dumps({"name": "fails", "stages": [stage]}))
    code = main(
        ["run", "--pipeline-file", str(pipe), "--out", str(tmp_path / "out"),
         "--repeats", "2", "--warmup", "2", "--jobs", jobs]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: stage 1: command exited with status 1\n"


# Story: a stage that prints a NaN or infinite objective breaks the output
# protocol: a runtime error (exit 1) naming the stage, before any row holds
# the value, rather than a model fit that fails later as a usage error.
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_objective_exits_1(tmp_path, capsys, value):
    pipe = tmp_path / "nonfinite.json"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"echo objective={value}",
    }
    pipe.write_text(json.dumps({"name": "nonfinite", "stages": [stage]}))
    out = tmp_path / "out"
    code = main(["run", "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS])
    assert code == 1
    err = capsys.readouterr().err
    assert "stage 1" in err and "not finite" in err
    assert not list(out.glob("*.csv"))


# Story: a second run into the same --out, with a smaller --cache-size,
# leaves its cache root holding its own pool's blobs alone: at most
# q x (policy depths), where synth3 caches two depths.
def test_rerun_into_one_out_leaves_only_its_own_blobs(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ROOT_ENV, raising=False)
    # a later flag overrides its value in _TINY_FLAGS
    flags = ["run", "--pipeline", "synth3", "--methods", "eeipu", "--seed", "0",
             "--out", str(tmp_path), *_TINY_FLAGS, "--budget", "150"]
    root = tmp_path / "cache" / "synth3_eeipu_s0"
    assert main([*flags, "--cache-size", "3"]) == 0
    assert len(list(root.rglob("*.bin"))) > 2
    assert main([*flags, "--cache-size", "1"]) == 0
    assert 0 < len(list(root.rglob("*.bin"))) <= 1 * 2
    assert not list(root.rglob("*.tmp"))


# Story: --pipeline and --pipeline-file name the same thing, so giving both
# is a usage error before anything runs or is written, in run and ablate.
@pytest.mark.parametrize("command", [["run"], ["ablate", "eta"]])
def test_both_pipeline_flags_exit_2(tmp_path, capsys, command):
    pipe = tmp_path / "onefile.json"
    stage = {"kind": "synthetic", "function": "branin2"}
    pipe.write_text(json.dumps({"name": "onefile", "stages": [stage]}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--pipeline", "synth3", "--pipeline-file", str(pipe),
              "--out", str(out), *_TINY_FLAGS])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))


def test_missing_pipeline_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--methods", "ei"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_report_on_malformed_trace_exits_1(tmp_path, capsys):
    (tmp_path / "broken.csv").write_text("not,a,trace\n1,2,3\n")
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# Story: a directory holding an EIPS trace (carbo, constant schedule) and
# a CArBO trace (carbo, budget schedule) would average two configs into one
# carbo row; report refuses it with exit 2 and writes no summary.
def test_report_on_mixed_configs_exits_2(tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for seed, schedule in ((0, "constant"), (1, "budget")):
        out = tmp_path / schedule
        code = main(
            ["run", "--pipeline", "synth3", "--methods", "carbo", "--seed", str(seed),
             "--eta-schedule", schedule, "--out", str(out), *_TINY_FLAGS]
        )
        assert code == 0
        for name in (f"synth3_carbo_s{seed}.csv", f"synth3_carbo_s{seed}.json"):
            (mixed / name).write_bytes((out / name).read_bytes())
    capsys.readouterr()
    assert main(["report", str(mixed)]) == 2
    assert "carbo traces of synth3 differ in eta_schedule" in capsys.readouterr().err
    assert not (mixed / "summary.csv").exists() and not (mixed / "curves.csv").exists()


def test_report_on_empty_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "no trace CSVs" in capsys.readouterr().err


def test_report_on_missing_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    capsys.readouterr()


# Story: the epsilon sweep's verdict weighs the spread of level means
# against the variance pooled over repeats. One repeat per level pools
# none, so every spread would read SENSITIVE: the sweep is refused as a
# usage error (exit 2) before any stage runs or any output is written.
@pytest.mark.parametrize("repeats", [[], ["--repeats", "1"]], ids=["default", "one"])
def test_ablate_epsilon_with_one_repeat_exits_2(tmp_path, capsys, repeats):
    marker = tmp_path / "ran"
    pipe = tmp_path / "touch.json"
    stage = {
        "kind": "external", "dim": 1, "bounds": [[0.0, 1.0]],
        "command": f"touch {marker} && echo objective=1.0",
    }
    pipe.write_text(json.dumps({"name": "touch", "stages": [stage]}))
    out = tmp_path / "out"
    code = main(
        ["ablate", "epsilon", "--pipeline-file", str(pipe), "--out", str(out), *_TINY_FLAGS,
         *repeats]
    )
    assert code == 2
    assert "ablate epsilon needs --repeats >= 2, got 1" in capsys.readouterr().err
    assert not marker.exists()
    assert not out.exists()
