"""Pinned golden traces: one short seeded run per method, compared byte for
byte against the files in tests/golden/, plus the sha256 of every trace
of the acceptance gate's paired eeipu-vs-ei runs (criteria 8-13).

Each golden is a trace CSV plus its JSON sidecar. Byte-level floats can
move between numpy, scipy or BLAS builds, so the environment that wrote
the files is recorded in tests/golden/ENV.json and named in the failure
message next to the current one.

A change that alters traces on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. Before it overwrites a golden CSV, the script
prints the columns that changed and the largest relative change in each,
and how many paired hashes changed, so a regeneration that moves only the
scores reads as such.
"""

import csv
import hashlib
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from pipetune.optimizer import RunConfig, run, write_trace
from pipetune.pipeline import synthetic_suite

from conftest import paired_runs

GOLDEN_DIR = Path(__file__).parent / "golden"

# sha256 of each paired acceptance trace's CSV, keyed "<method>_<seed>"
PAIRED_HASHES = GOLDEN_DIR / "paired_traces.json"

# criterion 7's seed-9 config with a budget that lets eeipu reuse prefixes
CONFIG = dict(seed=9, n0=3, m=16, n_mc=30, restarts=2, total_budget=150.0)

GOLDENS = {
    "eeipu": dict(method="eeipu"),
    "ei": dict(method="ei"),
    "eips": dict(method="eips"),
    "carbo": dict(method="carbo"),
    "eeipu_exp_decay": dict(method="eeipu", eta_schedule="exp_decay"),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def write_golden(name: str, out_dir: Path, cache_root: Path) -> Path:
    trace = run(
        RunConfig(**CONFIG, **GOLDENS[name]),
        synthetic_suite("synth3"),
        cache_root=cache_root,
    )
    path = out_dir / f"{name}.csv"
    write_trace(trace, path)
    return path


def paired_trace_hashes(traces: dict, out_dir: Path) -> dict[str, str]:
    hashes = {}
    for (method, seed), trace in sorted(traces.items()):
        path = out_dir / f"{method}_{seed}.csv"
        write_trace(trace, path)
        hashes[f"{method}_{seed}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def column_changes(old: Path, new: Path) -> dict[str, float]:
    """{column: largest relative change} over the cells of two trace CSVs
    that differ; nan for a column whose cells are not both numbers, and
    for every column when the headers or row counts differ."""
    with open(old, newline="") as f_old, open(new, newline="") as f_new:
        rows_old, rows_new = list(csv.reader(f_old)), list(csv.reader(f_new))
    header = rows_old[0]
    if rows_new[0] != header or len(rows_new) != len(rows_old):
        return dict.fromkeys(dict.fromkeys(header + rows_new[0]), float("nan"))
    changes: dict[str, float] = {}
    for row_old, row_new in zip(rows_old[1:], rows_new[1:]):
        for column, a, b in zip(header, row_old, row_new):
            if a == b:
                continue
            try:
                a, b = float(a), float(b)
                rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            except ValueError:
                rel = float("nan")
            changes[column] = float(np.maximum(changes.get(column, 0.0), rel))  # keeps nan
    return changes


# Story: the regeneration report names each changed column once, with its
# largest relative change, and nothing for a column that kept its bytes.
def test_column_changes_reports_changed_columns_only(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("iter,delta,score\n1,0,2.0\n2,1,4.0\n3,ab,1.0\n")
    new.write_text("iter,delta,score\n1,0.0,2.0\n2,1,4.000002\n3,cd,1.0\n")
    changes = column_changes(old, new)
    assert sorted(changes) == ["delta", "score"]
    assert changes["score"] == pytest.approx(5e-7)
    assert np.isnan(changes["delta"])
    assert column_changes(old, old) == {}
    new.write_text("iter,delta,score\n1,0,2.0\n")
    assert all(np.isnan(v) for v in column_changes(old, new).values())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_trace_is_byte_identical(name, tmp_path):
    path = write_golden(name, tmp_path, tmp_path / "cache")
    recorded = json.loads((GOLDEN_DIR / "ENV.json").read_text(encoding="utf-8"))
    for suffix in (".csv", ".json"):
        got = path.with_suffix(suffix).read_bytes()
        want = (GOLDEN_DIR / f"{name}{suffix}").read_bytes()
        assert got == want, (
            f"{name}{suffix} differs from the golden file; "
            f"recorded environment {recorded}, current environment {environment()}"
        )


# Story: the acceptance config's traces (m=256, n_mc=500, restarts=10) are
# pinned byte for byte, so a change that only claims speed cannot move
# criteria 8-13 unnoticed. Reuses the session fixture: no extra runs.
def test_paired_acceptance_traces_are_byte_identical(paired_traces, tmp_path):
    got = paired_trace_hashes(paired_traces, tmp_path)
    want = json.loads(PAIRED_HASHES.read_text(encoding="utf-8"))
    recorded = json.loads((GOLDEN_DIR / "ENV.json").read_text(encoding="utf-8"))
    differing = sorted(k for k in want if got.get(k) != want[k])
    assert got == want, (
        f"paired acceptance traces {differing} differ from {PAIRED_HASHES.name}; "
        f"recorded environment {recorded}, current environment {environment()}"
    )


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDENS:
            path = write_golden(name, Path(tmp), Path(tmp) / name)
            golden = GOLDEN_DIR / path.name
            if golden.exists():
                changes = column_changes(golden, path)
                listed = ", ".join(f"{c} (max rel {r:.3g})" for c, r in changes.items())
                print(f"{path.name}: {listed or 'unchanged'}")
            for suffix in (".csv", ".json"):
                shutil.copyfile(path.with_suffix(suffix), GOLDEN_DIR / f"{name}{suffix}")
        paired = paired_runs(Path(tmp) / "runs")
        hashes = paired_trace_hashes(paired, Path(tmp) / "paired")
    if PAIRED_HASHES.exists():
        before = json.loads(PAIRED_HASHES.read_text(encoding="utf-8"))
        changed = sorted(k for k in hashes if before.get(k) != hashes[k])
        print(f"{PAIRED_HASHES.name}: {len(changed)} of {len(hashes)} changed {changed}")
    PAIRED_HASHES.write_text(
        json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (GOLDEN_DIR / "ENV.json").write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
