"""Pinned golden traces: one short seeded run per method, compared byte for
byte against the files in tests/golden/.

Each golden is a trace CSV plus its JSON sidecar. Byte-level floats can
move between numpy, scipy or BLAS builds, so the environment that wrote
the files is recorded in tests/golden/ENV.json and named in the failure
message next to the current one.

A change that alters traces on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from pipetune.optimizer import RunConfig, run, write_trace
from pipetune.pipeline import synthetic_suite

GOLDEN_DIR = Path(__file__).parent / "golden"

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


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDENS:
            write_golden(name, GOLDEN_DIR, Path(tmp) / name)
    (GOLDEN_DIR / "ENV.json").write_text(
        json.dumps(environment(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
