"""Raw candidate generation: one batch per cached prefix plus one for the
empty prefix, each batch copying its prefix verbatim and filling the
remaining coordinates uniformly within bounds. Also the scrambled Halton
design that seeds warmup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cache import PrefixPool
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SearchSpace:
    """Stage-segmented box domain: per-stage dimension counts plus global
    lower/upper bounds, lower < upper elementwise, held as read-only copies
    so that one space can be shared. The prefix widths are summed from the
    stage dims once, when the space is built."""

    stage_dims: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "stage_dims", tuple(int(d) for d in self.stage_dims))
        if any(d < 1 for d in self.stage_dims):
            raise InvalidArgumentError("stage dims must be positive")
        object.__setattr__(self, "_widths", tuple(accumulate(self.stage_dims, initial=0)))
        d = self.dim
        if lower.shape != (d,) or upper.shape != (d,):
            raise InvalidArgumentError(f"bounds must have shape ({d},)")
        if not np.all(lower < upper):
            raise InvalidArgumentError("require lower < upper elementwise")

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled space is read-only too
        return SearchSpace, (self.stage_dims, self.lower, self.upper)

    @property
    def dim(self) -> int:
        return self._widths[-1]

    @property
    def n_stages(self) -> int:
        return len(self.stage_dims)

    def stage_slice(self, stage_index: int) -> slice:
        """Column slice of stage ``stage_index`` (1-based) in the x vector."""
        if not 1 <= stage_index <= self.n_stages:
            raise InvalidArgumentError(f"stage index {stage_index} out of range")
        return slice(self._widths[stage_index - 1], self._widths[stage_index])

    def prefix_width(self, delta: int) -> int:
        if not 0 <= delta <= self.n_stages:
            raise InvalidArgumentError(f"delta {delta} out of range")
        return self._widths[delta]

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Min-max map into the unit cube using the space bounds (not data
        bounds), so GP lengthscales are comparable across dimensions."""
        return (np.asarray(x, dtype=float) - self.lower) / (self.upper - self.lower)

    def uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count x d matrix of uniform draws within bounds."""
        if count < 0:
            raise InvalidArgumentError("count must be nonnegative")
        u = rng.random((count, self.dim))
        return self.lower + u * (self.upper - self.lower)


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def scrambled_halton(d: int, n: int, seed: int) -> np.ndarray:
    """n x d Halton points in [0, 1)^d, each dimension's van der Corput
    digits scrambled by random permutations (Owen 2017, Algorithm 1).

    Equal bit for bit to ``scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed).random(n)``: one Generator seeded by ``seed`` shuffles, in
    dimension order, one row of ``arange(base)`` per digit while
    ``base**-k > 2**-54``, and the digits are summed in the same order with
    the same running scale.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((n, d))
    for j, base in enumerate(_first_primes(d)):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        scale = 1.0 / base
        for k in range(count):
            q, r = np.divmod(q, base)
            out[:, j] += perms[k, r] * scale
            scale /= base
    return out


def generate(
    pool: PrefixPool, space: SearchSpace, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """M raw candidates split evenly across prefix groups, as an (M, d)
    matrix of points and the M prefix depths they can reuse (0 means
    nothing memoized; x[:prefix width] matches the source prefix exactly).

    Groups are the empty prefix plus every cached prefix address; each gets
    b_size = floor(M / N) candidates and the remainder goes to the empty
    group. Prefix coordinates are copied verbatim so later lookups hit.
    """
    addresses = pool.distinct_entries()
    n_groups = 1 + len(addresses)
    if m < n_groups:
        raise InvalidArgumentError(
            f"M={m} smaller than the {n_groups} prefix groups"
        )
    b_size = m // n_groups
    first = m - b_size * len(addresses)  # the empty group takes the remainder

    # one draw for the batch: Generator.random fills row-major from one
    # stream, so group-by-group draws would give these same values
    xs = space.uniform(rng, m)
    for i, (_, values) in enumerate(addresses):
        start = first + i * b_size
        xs[start : start + b_size, : len(values)] = values
    deltas = np.repeat([0, *(d for d, _ in addresses)], [first] + [b_size] * len(addresses))
    return xs, deltas
