"""Unit tests for the search space, the warmup design and prefix-grouped
candidate generation."""

import numpy as np
import pytest
from scipy.stats import qmc

from pipetune.cache import PrefixPool, update_pool
from pipetune.candidates import SearchSpace, generate, scrambled_halton
from pipetune.errors import InvalidArgumentError
from pipetune.pipeline import Observation, synthetic_suite


def _space():
    return SearchSpace(
        stage_dims=(2, 1, 2),
        lower=np.array([-1.0, 0.0, 0.0, 2.0, 2.0]),
        upper=np.array([1.0, 4.0, 1.0, 3.0, 3.0]),
    )


def _obs(x, y):
    return Observation(
        x=np.asarray(x, dtype=float),
        y=float(y),
        stage_costs=(1.0, 1.0, 1.0),
        memo_delta=0,
        outputs=(),
    )


# ---------------------------------------------------------------------------
# search space


def test_space_properties():
    s = _space()
    assert s.dim == 5
    assert s.n_stages == 3
    assert s.stage_slice(1) == slice(0, 2)
    assert s.stage_slice(2) == slice(2, 3)
    assert s.stage_slice(3) == slice(3, 5)
    assert s.prefix_width(1) == 2
    assert s.prefix_width(2) == 3


def test_space_validation():
    with pytest.raises(InvalidArgumentError):
        SearchSpace(stage_dims=(2,), lower=np.zeros(3), upper=np.ones(3))
    with pytest.raises(InvalidArgumentError):
        SearchSpace(stage_dims=(2,), lower=np.zeros(2), upper=np.zeros(2))
    s = _space()
    with pytest.raises(InvalidArgumentError):
        s.stage_slice(0)
    with pytest.raises(InvalidArgumentError):
        s.stage_slice(4)


# Story: normalization maps the box to the unit cube linearly, so bounds go
# to 0 and 1 and midpoints to one half.
def test_normalize_maps_box_to_unit_cube():
    s = _space()
    lo = s.normalize(s.lower[None, :])
    hi = s.normalize(s.upper[None, :])
    assert np.allclose(lo, 0.0)
    assert np.allclose(hi, 1.0)
    mid = s.normalize(((s.lower + s.upper) / 2.0)[None, :])
    assert np.allclose(mid, 0.5)


def test_contains():
    s = _space()
    assert s.contains(np.array([0.0, 2.0, 0.5, 2.5, 2.5]))
    assert not s.contains(np.array([2.0, 2.0, 0.5, 2.5, 2.5]))


def test_uniform_draws_in_bounds_and_deterministic():
    s = _space()
    a = s.uniform(np.random.default_rng(3), 100)
    b = s.uniform(np.random.default_rng(3), 100)
    assert np.array_equal(a, b)
    assert a.shape == (100, 5)
    assert np.all(a >= s.lower) and np.all(a <= s.upper)


# ---------------------------------------------------------------------------
# warmup design


# Story: the warmup design is scipy's scrambled Halton computed in-house, so
# every trace is what it was when warmup called qmc.Halton. Equal means
# equal bytes, for dimension counts up to 40, seeds across the 32-bit range
# that warmup derives, and several batch sizes.
@pytest.mark.parametrize("d", (1, 2, 3, 7, 10, 25, 26, 40))
def test_scrambled_halton_matches_scipy_bit_for_bit(d):
    for seed in (0, 1, 12345, 2**31 - 1, 4_000_000_000):
        for n in (1, 2, 5, 10, 64):
            ours = scrambled_halton(d, n, seed)
            theirs = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert ours.shape == theirs.shape == (n, d)
            assert ours.tobytes() == theirs.tobytes(), (d, seed, n)


# ---------------------------------------------------------------------------
# candidate generation


# Story: with an empty pool every candidate is a fresh full-space draw.
def test_generate_without_cached_prefixes():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    xs, deltas = generate(pool, s, 16, np.random.default_rng(0))
    assert len(xs) == len(deltas) == 16
    assert np.all(deltas == 0)
    assert all(s.contains(x) for x in xs)


# Story: each cached prefix owns one group of the batch; the batch splits as
# evenly as integer division allows, remainder to the fresh group.
def test_generate_group_allocation():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    pool = update_pool(pool, _obs([0.5, 1.0, 0.5, 2.5, 2.5], 1.0))
    # N = 1 empty + 2 entries = 3 groups; m=10 -> 3 each, remainder 1 to empty
    xs, deltas = generate(pool, s, 10, np.random.default_rng(1))
    assert len(xs) == len(deltas) == 10
    assert np.count_nonzero(deltas == 0) == 4
    assert np.count_nonzero(deltas == 1) == 3
    assert np.count_nonzero(deltas == 2) == 3


# Story: prefix dimensions are copied verbatim (bit-equal), suffix dimensions
# drawn inside the box.
def test_generate_prefix_copied_verbatim():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    src = [0.123456789012345, 3.9999999, 0.777, 2.5, 2.5]
    pool = update_pool(pool, _obs(src, 1.0))
    xs, deltas = generate(pool, s, 30, np.random.default_rng(2))
    for x, delta in zip(xs, deltas):
        if delta == 1:
            assert tuple(x[:2]) == tuple(src[:2])
        elif delta == 2:
            assert tuple(x[:3]) == tuple(src[:3])
        assert s.contains(x)


# Story: duplicated short prefixes from different sources collapse to a
# single group instead of wasting batch slots.
def test_generate_uses_distinct_prefixes():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    pool = update_pool(pool, _obs([0.5, 1.0, 0.2, 2.5, 2.5], 1.0))
    pool = update_pool(pool, _obs([0.5, 1.0, 0.8, 2.5, 2.5], 2.0))
    # 4 sources-entries but only 3 distinct: delta-1 shared, two delta-2
    xs, deltas = generate(pool, s, 8, np.random.default_rng(3))
    assert len(xs) == len(deltas) == 8
    # N = 1 + 3 distinct = 4 groups of 2
    assert np.count_nonzero(deltas == 0) == 2
    assert np.count_nonzero(deltas == 1) == 2
    assert np.count_nonzero(deltas == 2) == 4


def test_generate_requires_enough_candidates():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    pool = update_pool(pool, _obs([0.5, 1.0, 0.5, 2.5, 2.5], 1.0))
    with pytest.raises(InvalidArgumentError):
        generate(pool, s, 2, np.random.default_rng(0))  # 3 groups, m=2


def test_generate_deterministic_by_rng():
    s = _space()
    pool = PrefixPool(s.stage_dims, 5, "all")
    xs_a, deltas_a = generate(pool, s, 12, np.random.default_rng(7))
    xs_b, deltas_b = generate(pool, s, 12, np.random.default_rng(7))
    assert np.array_equal(xs_a, xs_b) and np.array_equal(deltas_a, deltas_b)


def _per_group_oracle(pool, space, m, rng):
    """Candidate generation as one uniform draw per prefix group: the
    empty group first with the remainder, then each distinct address."""
    addresses = pool.distinct_entries()
    b_size = m // (1 + len(addresses))
    xs = [space.uniform(rng, m - b_size * len(addresses))]
    deltas = [np.zeros(len(xs[0]), dtype=int)]
    for delta, values in addresses:
        draw = space.uniform(rng, b_size)
        draw[:, : len(values)] = np.asarray(values, dtype=float)
        xs.append(draw)
        deltas.append(np.full(b_size, delta))
    return np.concatenate(xs), np.concatenate(deltas)


def _filled_pool(space, capacity, policy, n_obs, seed):
    pool = PrefixPool(space.stage_dims, capacity, policy)
    rng = np.random.default_rng(seed)
    for x in space.uniform(rng, n_obs):
        pool = update_pool(pool, _obs(x, rng.random()))
    return pool


# Story: generate draws the whole batch at once and copies prefixes into its
# blocks of rows; the result must equal, bit for bit, drawing each group on
# its own, for pools of 0, 1 and many entries, with and without a remainder,
# on the 3-stage and 10-stage suites.
@pytest.mark.parametrize("suite", ["synth3", "synth10"])
@pytest.mark.parametrize(
    "capacity,policy,n_obs,n_entries",
    [(0, "all", 0, 0), (1, "first", 1, 1), (1, "all", 1, None), (5, "all", 12, None)],
)
@pytest.mark.parametrize("m", [256, 257, 97])
def test_generate_equals_per_group_draws(suite, capacity, policy, n_obs, n_entries, m):
    space = synthetic_suite(suite).search_space()
    pool = _filled_pool(space, capacity, policy, n_obs, seed=m + n_obs)
    # one source gives one entry per pool depth: 2 on synth3, 9 on synth10
    want = n_entries if n_entries is not None else capacity * (space.n_stages - 1)
    assert len(pool.distinct_entries()) == want
    seed = 11 * m + capacity
    xs, deltas = generate(pool, space, m, np.random.default_rng(seed))
    want_xs, want_deltas = _per_group_oracle(pool, space, m, np.random.default_rng(seed))
    assert xs.tobytes() == want_xs.tobytes()
    assert deltas.tolist() == want_deltas.tolist()
    assert xs.shape == (m, space.dim)
