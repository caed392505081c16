"""A fixed calibration kernel timed between tuning steps, so that step
times can be put on a common machine-speed scale.

On a shared host the same tuning step runs up to 40% faster or slower from
one minute to the next: neighbours contend for the core, its caches and
memory bandwidth.  The kernel below does the two kinds of work a tuning step
does, in about equal time: small dense linear algebra and interpreter-bound
bookkeeping (the GP fitter's likelihood loop, the cache and candidate code),
and large array arithmetic (Monte-Carlo cost scoring).  Its inputs are fixed
and it calls no pipetune code, so its time moves with the machine alone.
A run multiplies its step times by ``REFERENCE_MS`` over the kernel's median
time in that run; a change to pipetune leaves the kernel alone and shows in
full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median kernel time over the reference runs on a 2-core x86-64 VM (Python
# 3.11.7, numpy 2.4.6, one BLAS thread); normalized times are ms at that
# machine's typical speed
REFERENCE_MS = 9.0

_RNG = np.random.default_rng(20240611)
_X = _RNG.random((24, 7))
_Z = _RNG.standard_normal(24)
_EYE = np.eye(24)
_MC_SHAPE = (256, 500)  # candidates x cost draws, as in the acceptance config


def kernel() -> float:
    """Seconds one pass of the kernel takes."""
    started = time.perf_counter()
    total = 0.0
    for _ in range(3):
        for lengthscale in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            s = _X / lengthscale
            sq = np.sum(s * s, axis=1)[:, None] + np.sum(s * s, axis=1)[None, :] - 2.0 * s @ s.T
            r = math.sqrt(5.0) * np.sqrt(np.maximum(sq, 0.0))
            k = (1.0 + r + r * r / 3.0) * np.exp(-r) + 1e-2 * _EYE
            chol = np.linalg.cholesky(k)
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, _Z))
            total += float(_Z @ alpha) + float(np.sum(np.log(np.diag(chol))))
        table: dict[tuple[int, int], float] = {}
        for i in range(1500):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        total += sum(sorted(table.values())[:10])
    z = np.random.default_rng(7).standard_normal(_MC_SHAPE)
    total += float(np.mean(1.0 / (1.0 + np.exp(0.3 + 0.2 * z))))
    if not math.isfinite(total):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - started


# seconds of stepping between kernel samples: about 3% of a run's time
EVERY_S = 0.25


class Calibrator:
    """Times the kernel after the first step, then at most once per
    ``EVERY_S`` seconds of stepping."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def after_step(self, step_seconds: float) -> None:
        self._since += step_seconds
        if self._since >= EVERY_S or not self.samples:
            self._since = 0.0
            self.samples.append(kernel())

    @property
    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return REFERENCE_MS / self.median_ms
