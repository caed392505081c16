"""Pinned golden traces, compared byte for byte against the files in
tests/golden/: one short seeded run per method, and the acceptance gate's
paired eeipu-vs-ei runs for seeds 0-4 (criteria 8-13), named
``paired_<method>_<seed>``.

Each golden is a trace CSV plus its JSON sidecar. Byte-level floats can
move between numpy, scipy or BLAS builds, so the environment that wrote
the files is recorded in tests/golden/ENV.json and named in the failure
message next to the current one.

A change that alters traces on purpose regenerates all 15 goldens with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. Before it overwrites any file, the script
prints for each golden its old and new row counts, the first iteration
whose x cells differ, the CSV columns that changed over the rows both
traces have, with the largest relative change in each, and whether the
sidecar changed, so a regeneration that moves only the scores reads as
such, at the acceptance config too. It deletes any file of tests/golden/
that it no longer writes, so tests/golden/ holds only compared files.
"""

import csv
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from pipetune.optimizer import RunConfig, run, write_trace
from pipetune.pipeline import synthetic_suite

from conftest import PAIRED_METHODS, SEEDS, paired_runs

GOLDEN_DIR = Path(__file__).parent / "golden"

# criterion 7's seed-9 config with a budget that lets eeipu reuse prefixes
CONFIG = dict(seed=9, n0=3, m=16, n_mc=30, restarts=2, total_budget=150.0)

GOLDENS = {
    "eeipu": dict(method="eeipu"),
    "ei": dict(method="ei"),
    "carbo": dict(method="carbo"),
    "carbo_constant": dict(method="carbo", eta_schedule="constant"),
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


def write_paired(traces: dict, out_dir: Path) -> list[Path]:
    """Writes each paired acceptance trace as ``paired_<method>_<seed>.csv``."""
    paths = []
    for (method, seed), trace in sorted(traces.items()):
        path = out_dir / f"paired_{method}_{seed}.csv"
        write_trace(trace, path)
        paths.append(path)
    return paths


def assert_matches_goldens(paths: list[Path]) -> None:
    """Each trace CSV in ``paths`` and its sidecar equal, byte for byte, the
    golden files of the same names."""
    differing = [
        file.name
        for path in paths
        for file in (path, path.with_suffix(".json"))
        if file.read_bytes() != (GOLDEN_DIR / file.name).read_bytes()
    ]
    recorded = json.loads((GOLDEN_DIR / "ENV.json").read_text(encoding="utf-8"))
    assert not differing, (
        f"{differing} differ from the golden files; "
        f"recorded environment {recorded}, current environment {environment()}"
    )


def golden_files(stems) -> set[str]:
    """The file names of tests/golden/: each stem's CSV and sidecar, and
    ENV.json."""
    return {f"{stem}{ext}" for stem in stems for ext in (".csv", ".json")} | {"ENV.json"}


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def row_changes(old: Path, new: Path) -> str:
    """Both traces' row counts, and the ``iter`` of the first row, among
    the rows both have, whose x cells (the trailing ``x_*`` columns)
    differ, or ``none``."""
    rows_old, rows_new = _csv_rows(old), _csv_rows(new)
    x_old, x_new = (
        next(i for i, column in enumerate(rows[0]) if column.startswith("x_"))
        for rows in (rows_old, rows_new)
    )
    first = next(
        (a[0] for a, b in zip(rows_old[1:], rows_new[1:]) if a[x_old:] != b[x_new:]), "none"
    )
    return f"rows {len(rows_old) - 1} -> {len(rows_new) - 1}, first x change at iter {first}"


def column_changes(old: Path, new: Path) -> dict[str, float]:
    """{column: largest relative change} over the differing cells of the
    rows two trace CSVs both have, counted from the first; nan for a column
    whose cells are not both numbers, and for every column when the
    headers differ."""
    rows_old, rows_new = _csv_rows(old), _csv_rows(new)
    header = rows_old[0]
    if rows_new[0] != header:
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
    new.write_text("iter,delta,score\n1,0,2.5\n")
    assert column_changes(old, new) == {"score": pytest.approx(0.2)}


# Story: a regeneration that changes a trace's length still reads: the
# report gives both row counts and the first iteration whose chosen x
# moved, among the rows both traces have.
def test_row_changes_reports_counts_and_first_moved_x(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("iter,score,x_1,x_2\n1,2.0,0.5,0.5\n2,4.0,0.1,0.2\n3,1.0,0.3,0.3\n")
    new.write_text("iter,score,x_1,x_2\n1,2.5,0.5,0.5\n2,4.0,0.1,0.9\n")
    assert row_changes(old, new) == "rows 3 -> 2, first x change at iter 2"
    assert row_changes(old, old) == "rows 3 -> 3, first x change at iter none"


# Story: tests/golden/ holds exactly the files the golden tests compare,
# so a golden that no test reads cannot linger after a rename.
def test_golden_dir_holds_only_compared_files():
    paired = [f"paired_{method}_{seed}" for method in PAIRED_METHODS for seed in SEEDS]
    names = {p.name for p in GOLDEN_DIR.iterdir()}
    assert names == golden_files([*GOLDENS, *paired])


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_trace_is_byte_identical(name, tmp_path):
    assert_matches_goldens([write_golden(name, tmp_path, tmp_path / "cache")])


# Story: the acceptance config's traces (m=256, n_mc=500, restarts=10) are
# pinned byte for byte, so a change that only claims speed cannot move
# criteria 8-13 unnoticed. Reuses the session fixture: no extra runs.
def test_paired_acceptance_traces_are_byte_identical(paired_traces, tmp_path):
    assert_matches_goldens(write_paired(paired_traces, tmp_path))


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [write_golden(name, tmp, tmp / name) for name in GOLDENS]
        paths += write_paired(paired_runs(tmp / "runs"), tmp)
        for path in paths:
            golden = GOLDEN_DIR / path.name
            if not golden.exists():
                print(f"{path.name}: new")
                continue
            listed = [f"{c} (max rel {r:.3g})" for c, r in column_changes(golden, path).items()]
            sidecar = path.with_suffix(".json")
            if sidecar.read_bytes() != (GOLDEN_DIR / sidecar.name).read_bytes():
                listed.append("sidecar")
            print(f"{path.name}: {row_changes(golden, path)}; {', '.join(listed) or 'unchanged'}")
        written = golden_files(path.stem for path in paths)
        for stale in sorted(p for p in GOLDEN_DIR.iterdir() if p.name not in written):
            print(f"{stale.name}: deleted")
            stale.unlink()
        for path in paths:
            for file in (path, path.with_suffix(".json")):
                shutil.copyfile(file, GOLDEN_DIR / file.name)
    (GOLDEN_DIR / "ENV.json").write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
