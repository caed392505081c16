"""pipetune: budget-constrained, memoization-aware tuning for multi-stage
pipelines, with classic cost-aware and cost-blind baselines.

The names below are the quick-start surface; everything else is imported
from its module (``pipetune.gp``, ``pipetune.acquisition``, ...).
"""

from .acquisition import METHODS
from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NumericalFailureError,
    PipetuneError,
    ProtocolError,
    StageExecutionError,
    StorageError,
    TraceParseError,
)
from .optimizer import RunConfig, read_trace, run, write_trace
from .pipeline import load_pipeline_file, synthetic_suite

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "InsufficientDataError",
    "InvalidArgumentError",
    "NumericalFailureError",
    "PipetuneError",
    "ProtocolError",
    "RunConfig",
    "StageExecutionError",
    "StorageError",
    "TraceParseError",
    "load_pipeline_file",
    "read_trace",
    "run",
    "synthetic_suite",
    "write_trace",
]
